"""Identity checks: each is exercised on states with known closed forms,
plus suite planning, seeding, and failure-recording behavior."""

import math

import numpy as np
import pytest

from phasespace import (
    Atom,
    BoundContext,
    Grid,
    GridResolutionError,
    MixedState,
    PureState,
    VerifyReport,
    demo_state,
    fock_state,
    run_suite,
    suggest_grid,
    vacuum_state,
)
from phasespace.verify import (
    CSV_HEADER,
    DEFAULT_TOLERANCES,
    RunConfig,
    check_cauchy_schwarz,
    check_seed,
    check_duality,
    check_heavy_tail_trend,
    check_husimi,
    check_marginal,
    check_marginal_pointwise,
    check_offdiag,
    check_overlap,
    check_plateau_decay,
    check_reproducing,
    check_trace,
    check_twisted_expansion,
    check_wigner_decomp,
    check_wigner_from_matel,
    heavy_tail_first_seminorms,
    suite_plan,
    worker_count,
)
from phasespace import bounds, transforms, verify
from phasespace.grid import (
    omega_matrix,
    spectral_derivative,
    symplectic_form,
    symplectic_fourier,
)
from phasespace.multiindex import as_index, binom, box, order, sub
from phasespace.states import as_mixed, displaced_overlaps, random_mixture
from phasespace.transforms import (
    MatelSampler,
    gaussian_atom_params,
    matel,
    quasichar,
    twisted_convolution,
    wigner,
    wigner_pointwise,
)


def nongaussian_window():
    atoms = [Atom((0,), (0.0, 0.0), 1.0), Atom((2,), (0.0, 0.0), 0.6)]
    return PureState(atoms).normalized()


# --- grid-route identities --------------------------------------------------


def test_duality_vacuum(vacuum, grid):
    report = check_duality(vacuum, grid)
    assert report.residual < 1e-8
    assert report.passed


def test_duality_mixture(mixture, grid):
    assert check_duality(mixture, grid).residual < 1e-6


def test_duality_single_component_matches_pure(grid):
    psi = fock_state(2)
    wrapped = MixedState([1.0], [psi])
    direct = check_duality(psi, grid).residual
    via_mix = check_duality(wrapped, grid).residual
    assert abs(direct - via_mix) < 1e-14


def test_trace_overlap_husimi(mixture, grid):
    for check in (check_trace, check_overlap, check_husimi):
        report = check(mixture, grid=grid)
        assert report.passed, (report.name, report.residual)


def test_cauchy_schwarz_check(mixture):
    report = check_cauchy_schwarz(mixture, n_pairs=200)
    assert report.passed
    assert report.samples == 200


def cauchy_schwarz_loop(state, chi, seed, n_pairs):
    """Reference residual: one MatelSampler call per matrix element."""
    rho = as_mixed(state)
    rng = np.random.default_rng(seed)
    sampler = MatelSampler(rho, chi)
    pts = rng.uniform(-2.0, 2.0, (n_pairs, 2, 2 * rho.n))
    resid = 0.0
    for alpha, beta in pts:
        m2 = abs(sampler(alpha, beta)) ** 2
        q_ab = sampler(alpha, alpha).real * sampler(beta, beta).real
        resid = max(resid, m2 / q_ab - 1.0 if q_ab > 0 else m2)
    for alpha, _ in pts[:20]:
        m2 = abs(sampler(alpha, alpha)) ** 2
        q2 = sampler(alpha, alpha).real ** 2
        resid = max(resid, abs(m2 / q2 - 1.0) if q2 > 0 else m2)
    return max(resid, 0.0)


@pytest.mark.parametrize("which", ["fock1", 1, 2, 3])
def test_cauchy_schwarz_matches_sampler_loop(which):
    if which == "fock1":
        state = fock_state(1)
    else:
        state = random_mixture(np.random.default_rng(which))
    chi = vacuum_state(1)
    batched = check_cauchy_schwarz(state, chi, seed=7, n_pairs=1000).residual
    assert abs(batched - cauchy_schwarz_loop(state, chi, 7, 1000)) <= 1e-15


def cauchy_schwarz_three_matel(state, chi, seed, n_pairs):
    """Reference residual: three batched matel calls, no report objects."""
    rho = as_mixed(state)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, (n_pairs, 2, 2 * rho.n))
    alphas, betas = pts[:, 0], pts[:, 1]
    m2 = np.abs(matel(rho, chi, alphas, betas)) ** 2
    m_aa = matel(rho, chi, alphas, alphas)
    q_ab = m_aa.real * matel(rho, chi, betas, betas).real
    m2_eq = np.abs(m_aa[:20]) ** 2
    q2 = m_aa[:20].real ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        violation = np.where(q_ab > 0, m2 / q_ab - 1.0, m2)
        equality = np.where(q2 > 0, np.abs(m2_eq / q2 - 1.0), m2_eq)
    return max(0.0, violation.max(initial=0.0), equality.max(initial=0.0))


def test_cauchy_schwarz_matches_three_matel_formula(mixtures20):
    chi = vacuum_state(1)
    for rho in mixtures20[:3]:
        got = check_cauchy_schwarz(rho, chi, seed=7).residual
        assert got == cauchy_schwarz_three_matel(rho, chi, 7, 1000)


def test_offdiag_check():
    report = check_offdiag(n_triples=10)
    assert report.residual < 1e-7


def test_offdiag_check_nongaussian_window():
    assert check_offdiag(nongaussian_window(), n_triples=6).residual < 1e-7


def offdiag_direct_16384(chi, alpha, beta, gamma):
    """Reference direct route: the same quadrature on a fixed 16384-node
    lattice, whatever the integrand's bandwidth."""
    chi_a = chi.displaced(alpha)
    chi_b = chi.displaced(beta)
    y_half = 2.0 * max(chi_a.reach(), chi_b.reach()) + 2.0
    lattice = Grid(1, 16384, y_half, kind="config")
    ys, step = lattice.axis(), lattice.spacing
    x, p = gamma
    va = chi_a.evaluate((x - 0.5 * ys)[:, None])
    vb = chi_b.evaluate((x + 0.5 * ys)[:, None])
    return step / (2.0 * np.pi) * (np.exp(1j * p * ys) * va * np.conj(vb)).sum()


OFFDIAG_WINDOWS = {
    "vacuum": lambda: vacuum_state(1),
    "nongaussian": nongaussian_window,
    "order40": lambda: PureState([Atom((40,), (1.0, -2.0), 1.0)]),
    "order150": lambda: PureState([Atom((150,), (3.0, 4.0), 1.0)]),
}


@pytest.mark.parametrize("which", sorted(OFFDIAG_WINDOWS))
def test_offdiag_direct_matches_16384_node_lattice(which):
    chi = OFFDIAG_WINDOWS[which]()
    rng = np.random.default_rng(0)
    triples = [
        (rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2), rng.uniform(-2.0, 2.0, 2))
        for _ in range(6)
    ]
    # the corner of the sampling box where the integrand's band reaches
    # furthest for the order-150 window (momentum +4, so p = -2)
    triples.append([[0.0, 1.5], [0.0, 1.5], [0.0, -2.0]])
    for alpha, beta, gamma in triples:
        direct, lattice = verify._offdiag_direct(chi, alpha, beta, gamma)
        assert lattice.n_points < 16384
        assert abs(direct - offdiag_direct_16384(chi, alpha, beta, gamma)) <= 1e-14


def test_offdiag_lattice_follows_window_bandwidth():
    vac = check_offdiag(n_triples=5).info
    wide = check_offdiag(OFFDIAG_WINDOWS["order150"](), n_triples=5).info
    assert set(vac) == {"nodes", "half"}
    assert vac["nodes"] <= 1024
    assert wide["nodes"] > vac["nodes"]
    # the half-width is 2 max(reach) + 2, as on the fixed lattice
    assert vac["half"] <= 2.0 * (1.5 + 1.0 + 10.0) + 2.0


def test_offdiag_rejects_n2_before_sampling(monkeypatch):
    def no_sample(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(verify, "offdiag_wigner", no_sample)
    monkeypatch.setattr(verify, "_offdiag_direct", no_sample)
    with pytest.raises(ValueError, match="offdiag check implemented for n=1"):
        check_offdiag(vacuum_state(2))


# --- reproducing formula ----------------------------------------------------


SAMPLES3 = [
    np.array([[0.3, -0.2], [0.1, 0.4]]),
    np.array([[-1.0, 0.7], [0.6, -0.3]]),
    np.array([[0.0, 0.0], [1.2, 0.5]]),
]


def test_reproducing_gaussian(mixture):
    report = check_reproducing(mixture, samples=SAMPLES3)
    assert report.residual < 1e-5


def test_reproducing_nongaussian_window(vacuum):
    # the coherent-family resolution of the identity holds for any
    # unit-norm window, not just Gaussian ones
    report = check_reproducing(vacuum, chi=nongaussian_window(), samples=SAMPLES3)
    assert report.residual < 1e-5


def test_reproducing_rejects_n2():
    with pytest.raises(ValueError, match="n=1"):
        check_reproducing(vacuum_state(2))


def matel_per_component(state, chi, alphas, betas):
    """Reference `matel`: both overlaps computed afresh per component."""
    rho = as_mixed(state)
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    shape = np.broadcast_shapes(alphas.shape[:-1], betas.shape[:-1])
    out = np.zeros(shape, dtype=complex)
    for w, ps in zip(rho.weights, rho.pure_states):
        if w == 0.0:
            continue
        if ps.is_analytic:
            fa = displaced_overlaps(chi, alphas, ps)
            fb = displaced_overlaps(chi, betas, ps)
        else:
            fa = transforms._displaced_overlaps_quadrature(chi, alphas, ps)
            fb = transforms._displaced_overlaps_quadrature(chi, betas, ps)
        out = out + w * fa * np.conj(fb)
    return out if out.ndim else complex(out)


def reproducing_per_sample(ctx, samples):
    """Reference residual: three matrix-element calls per sample, each
    computing the mesh overlaps again."""
    rho, chi = ctx.rho, ctx.chi
    spacing, half = 0.5, 12.0
    n_nodes = int(round(2.0 * half / spacing))
    axis = -half + spacing * np.arange(n_nodes)
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    cell = spacing**2
    resid = 0.0
    for alpha, beta in samples:
        direct = matel_per_component(rho, chi, alpha, beta)
        m_mesh_beta = matel_per_component(rho, chi, mesh, np.asarray(beta))
        lhs_a = cell / (2.0 * np.pi) * (
            verify._coherent_overlaps(chi, alpha, mesh) * m_mesh_beta
        ).sum()
        m_alpha_mesh = matel_per_component(rho, chi, np.asarray(alpha), mesh)
        lhs_b = cell / (2.0 * np.pi) * (
            m_alpha_mesh * np.conj(verify._coherent_overlaps(chi, beta, mesh))
        ).sum()
        resid = max(resid, abs(lhs_a - direct), abs(lhs_b - direct))
    return resid


def oracle_state(which):
    """fock1, a seeded two-component mixture, or an eight-component one."""
    if which == "fock1":
        return fock_state(1)
    if which == "mixture":
        return random_mixture(np.random.default_rng(1))
    return random_mixture(np.random.default_rng(48), n_components=8)


@pytest.mark.parametrize("which", ["fock1", "mixture", "mixture8"])
def test_reproducing_matches_per_sample_route(which):
    ctx = BoundContext(oracle_state(which))
    samples = list(np.random.default_rng(5).uniform(-1.5, 1.5, (10, 2, 2)))
    got = check_reproducing(ctx, samples=samples).residual
    assert got == reproducing_per_sample(ctx, samples)


def test_reproducing_nongaussian_window_matches_per_sample_route(vacuum):
    ctx = BoundContext(vacuum, nongaussian_window())
    got = check_reproducing(ctx, samples=SAMPLES3).residual
    assert got == reproducing_per_sample(ctx, SAMPLES3)


def test_matel_matches_per_component_route(mixture):
    # a zero-weight component is skipped, and a non-analytic one integrated
    rho = MixedState(
        [0.5, 0.0, 0.5], [mixture.pure_states[0], fock_state(2), demo_state("plateau")]
    )
    chi = nongaussian_window()
    pts = np.random.default_rng(9).uniform(-1.5, 1.5, (7, 2))
    for alphas, betas in ((pts, pts[3]), (pts[0], pts[1]), (pts[:, None], pts)):
        got = matel(rho, chi, alphas, betas)
        want = matel_per_component(rho, chi, alphas, betas)
        assert np.array_equal(got, want) and type(got) is type(want)


# --- 4-D identities ---------------------------------------------------------


def test_from_matel_vacuum(vacuum, grid):
    report = check_wigner_from_matel(vacuum, points=[[0.0, 0.0]], grid=grid)
    assert report.residual < 2e-3
    assert report.samples == 1


def test_from_matel_linear_in_state(grid):
    # the 4-D integral is linear in rho, so the mixture error is dominated
    # by the weighted component errors
    point = [[0.0, 0.0]]
    rho = MixedState([0.6, 0.4], [vacuum_state(1), fock_state(1)])
    kw = dict(points=point, grid=grid, n_nodes=32)
    r_mix = check_wigner_from_matel(rho, **kw).residual
    r0 = check_wigner_from_matel(vacuum_state(1), **kw).residual
    r1 = check_wigner_from_matel(fock_state(1), **kw).residual
    assert r_mix <= 0.6 * r0 + 0.4 * r1 + 1e-12


def wigner_from_matel_per_column(ctx, n_nodes=48):
    """Reference residual: each (mx, mp) column summed component by
    component, with its two phase vectors computed afresh."""
    ctx, points, axis = verify._four_d_lattice(ctx, None, None, None, n_nodes)
    rho, chi, s = ctx.rho, ctx.chi, 0.4
    half_axis = 0.5 * s * (np.arange(3 * n_nodes) - 3 * n_nodes // 2)
    u_mesh = np.stack(
        np.meshgrid(half_axis, half_axis, indexing="ij"), -1
    )
    f_half = [
        displaced_overlaps(chi, u_mesh, ps) for ps in rho.pure_states
    ]
    weights = np.asarray(rho.weights)
    g_vals = np.empty((n_nodes, n_nodes), dtype=complex)
    for mx in range(n_nodes):
        for mp in range(n_nodes):
            col = np.zeros((n_nodes, n_nodes), dtype=complex)
            for w, f in zip(weights, f_half):
                left = f[
                    n_nodes - mx : 3 * n_nodes - mx : 2,
                    n_nodes - mp : 3 * n_nodes - mp : 2,
                ]
                right = f[mx : mx + 2 * n_nodes : 2, mp : mp + 2 * n_nodes : 2]
                col += w * left * np.conj(right)
            vx = np.exp(0.5j * axis * axis[mp])
            vp = np.exp(-0.5j * axis * axis[mx])
            g_vals[mx, mp] = s * s * (vx @ col @ vp)
    w_ref = ctx.w_rho()
    resid = 0.0
    for pt in points:
        wx = np.exp(1j * pt[1] * axis)
        wp = np.exp(-1j * pt[0] * axis)
        val = s * s / (2.0 * np.pi) ** 3 * (wx @ g_vals @ wp)
        ref = w_ref.at(pt)
        resid = max(resid, abs(val - ref))
    return resid


@pytest.mark.parametrize("which", ["fock1", "mixture", "mixture8"])
def test_from_matel_matches_per_column_route(which, grid):
    ctx = BoundContext(oracle_state(which), grid=grid)
    assert check_wigner_from_matel(ctx).residual == wigner_from_matel_per_column(ctx)


def test_from_matel_peak_memory_eight_components(grid, traced_peak):
    # the (K, n, n) column scratch: 7.0 MB per component loop, 8.6 MB folded;
    # a block over every mp of one mx, (K, n, n, n), traced 52 MB
    ctx = BoundContext(oracle_state("mixture8"), grid=grid)
    ctx.w_rho()
    assert traced_peak(check_wigner_from_matel, ctx) < 12e6


def test_from_matel_rejects_too_many_points(vacuum, grid):
    pts = np.zeros((9, 2))
    with pytest.raises(ValueError, match="8"):
        check_wigner_from_matel(vacuum, points=pts, grid=grid)
    with pytest.raises(ValueError, match="8"):
        check_wigner_decomp(vacuum, points=pts, grid=grid)


def test_decomp_vacuum(vacuum, grid):
    report = check_wigner_decomp(vacuum, points=[[0.0, 0.0]], grid=grid)
    assert report.residual < 5e-3


def decomp_pairwise(rho, chi, points, n_nodes):
    """Reference route: the coherent-pair sum built from 4-D pair arrays."""
    atom = chi.atoms[0]
    weight = abs(atom.coeff) ** 2 / np.pi
    center = np.asarray(atom.alpha, dtype=float)
    s = 0.4
    axis = s * (np.arange(n_nodes) - n_nodes // 2)
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    f_mesh = np.stack(
        [displaced_overlaps(chi, mesh, ps) for ps in rho.pure_states]
    )
    m_pairs = np.einsum(
        "j,ja,jb->ab", np.asarray(rho.weights), f_mesh, np.conj(f_mesh)
    )
    abar = 0.5 * (mesh[:, None, :] + mesh[None, :, :])
    delta = mesh[:, None, :] - mesh[None, :, :]
    totals = []
    for gamma in points:
        phase = np.exp(1j * symplectic_form(gamma - 0.5 * abar, delta))
        w_chi = weight * np.exp(-((gamma - abar - center) ** 2).sum(-1))
        totals.append((phase * w_chi * m_pairs).sum())
    return s**4 / (2.0 * np.pi) ** 2 * np.array(totals)


DECOMP_CASES = {
    "vacuum-window": (fock_state(1), vacuum_state(1)),
    "displaced-scaled-window": (
        fock_state(1), PureState([Atom((0,), (0.6, -0.4), 0.8 - 0.5j)])
    ),
    "two-component-mixture": (
        MixedState(
            [0.7, 0.3],
            [vacuum_state(1), fock_state(2).displaced(np.array([0.5, -0.3]))],
        ),
        vacuum_state(1),
    ),
}


@pytest.mark.parametrize("case", sorted(DECOMP_CASES))
@pytest.mark.parametrize("n_nodes", [12, 14, 16])
def test_decomp_matches_pairwise_route(case, n_nodes):
    state, chi = DECOMP_CASES[case]
    rho = as_mixed(state)
    grid = Grid(2, 64, 8.0)
    points = grid.spacing * np.array([[0, 0], [4, 0], [-3, 5], [6, -2]])
    refs = wigner(rho, grid).at(points)
    totals = decomp_pairwise(rho, chi, points, n_nodes)
    # one point per call, so each residual is |decomposition - W_rho| there
    for point, ref, total in zip(points, refs, totals):
        got = check_wigner_decomp(
            rho, chi, points=[point], grid=grid, n_nodes=n_nodes
        ).residual
        assert abs(got - abs(total - ref)) <= 1e-12 * abs(total), point


def _decomp_residual(ctx, n_nodes, left_times_kernel):
    """Reference residual |decomposition - W_rho| over the check's points,
    with left @ K formed by left_times_kernel(left, axis)."""
    rho, chi = ctx.rho, ctx.chi
    kappa, center = gaussian_atom_params(chi)
    s = 0.4
    axis = s * (np.arange(n_nodes) - n_nodes // 2)
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    f_mesh = np.stack([displaced_overlaps(chi, mesh, ps) for ps in rho.pure_states])
    points = ctx.grid.spacing * np.array(
        [[0, 0], [10, 0], [0, 10], [-10, 10], [10, 10], [-8, -4], [4, -12], [16, 8]]
    )
    eta = points - center
    wedge = symplectic_form(points[:, None, :], mesh[None, :, :])
    gauss = eta @ mesh.T - 0.25 * (mesh**2).sum(-1)
    left = np.exp(1j * wedge + gauss)[:, None, :] * f_mesh
    right = np.exp(-1j * wedge + gauss)[:, None, :] * np.conj(f_mesh)
    left_k = left_times_kernel(left, axis)
    totals = np.einsum("j,pja,pja->p", np.asarray(rho.weights), left_k, right)
    totals *= kappa * np.exp(-(eta**2).sum(-1)) * s**4 / (2.0 * np.pi) ** 2
    return float(np.abs(totals - ctx.w_rho().at(points)).max())


def _dense_kernel_product(left, axis):
    """left @ K with the pair kernel K filled as one A x A array."""
    n_nodes = len(axis)
    e_tab = np.exp(-0.5 * np.outer(axis, axis))
    c_tab = np.exp(0.5j * np.outer(axis, axis))
    kernel = np.empty((n_nodes,) * 4, dtype=complex)
    np.multiply(e_tab[:, None, :, None], e_tab[None, :, None, :], out=kernel)
    kernel *= np.conj(c_tab)[None, :, :, None]
    kernel *= c_tab[:, None, None, :]
    kernel = kernel.reshape(n_nodes**2, n_nodes**2)
    return (left.reshape(-1, n_nodes**2) @ kernel).reshape(left.shape)


def _batched_kernel_product(left, axis):
    """left @ K for every (point, component) in one batched GEMM over x_a
    and one einsum over p_a."""
    n_nodes = len(axis)
    e_tab = np.exp(-0.5 * np.outer(axis, axis))
    c_tab = np.exp(0.5j * np.outer(axis, axis))
    over_x = (e_tab[:, :, None] * c_tab[:, None, :]).reshape(n_nodes, -1)
    over_p = e_tab[:, None, :] * np.conj(c_tab)[:, :, None]
    left_x = np.swapaxes(left.reshape(-1, n_nodes, n_nodes), 1, 2) @ over_x
    return np.einsum(
        "qaxp,axp->qxp", left_x.reshape((-1,) + (n_nodes,) * 3), over_p
    ).reshape(left.shape)


@pytest.mark.parametrize("which", ["vacuum", "fock1", "mixture"])
def test_decomp_matches_dense_kernel_build(which, mixture, grid):
    state = {"vacuum": vacuum_state(1), "fock1": fock_state(1), "mixture": mixture}
    ctx = BoundContext(state[which], grid=grid)
    for n_nodes in (48, 64):
        got = check_wigner_decomp(ctx, n_nodes=n_nodes).residual
        want = _decomp_residual(ctx, n_nodes, _dense_kernel_product)
        assert abs(got - want) <= 1e-15


def _decomp_context(n_components, grid):
    if n_components == 1:
        return BoundContext(fock_state(1), grid=grid)
    rng = np.random.default_rng(40 + n_components)
    return BoundContext(random_mixture(rng, n_components=n_components), grid=grid)


@pytest.mark.parametrize("n_nodes", [48, 64])
@pytest.mark.parametrize("n_components", [1, 2, 8])
def test_decomp_slices_match_batched_route(n_components, n_nodes, grid):
    ctx = _decomp_context(n_components, grid)
    got = check_wigner_decomp(ctx, n_nodes=n_nodes).residual
    assert got == _decomp_residual(ctx, n_nodes, _batched_kernel_product)


def test_decomp_forms_no_pair_kernel(grid, traced_peak):
    # the A x A kernel alone is 85 MB at 48 nodes, and the batched GEMM's
    # (8 K n, n^2) block traced 34 MB here
    ctx = BoundContext(random_mixture(np.random.default_rng(7)), grid=grid)
    ctx.w_rho()
    assert traced_peak(check_wigner_decomp, ctx) < 16e6


def test_decomp_peak_memory_eight_components(grid, traced_peak):
    # the batched GEMM's block alone was 8 K n^3 complex values: 268 MB here
    ctx = _decomp_context(8, grid)
    ctx.w_rho()
    assert traced_peak(check_wigner_decomp, ctx, n_nodes=64) < 40e6


def test_decomp_rejects_multi_atom_window(vacuum, grid):
    with pytest.raises(ValueError, match="Gaussian"):
        check_wigner_decomp(vacuum, chi=nongaussian_window(), grid=grid)


def test_decomp_trace_recovery(vacuum):
    # integrating the decomposition over gamma turns the coherent-pair
    # kernel into <chi_b|chi_a>, so the lattice sum must recover tr rho
    chi = vacuum_state(1)
    s, n_nodes = 0.4, 32
    axis = s * (np.arange(n_nodes) - n_nodes // 2)
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    f = displaced_overlaps(chi, mesh, vacuum)
    overlaps = np.stack(
        [displaced_overlaps(chi, mesh, chi.displaced(a)) for a in mesh]
    )
    # overlaps[a_idx, b_idx] = <chi_b | chi_a>; M[a_idx, b_idx] = f_a conj(f_b)
    total = s**4 / (2.0 * np.pi) ** 2 * np.einsum(
        "ab,a,b->", overlaps, f, np.conj(f)
    )
    assert abs(total - 1.0) < 1e-2
    assert abs(total.imag) < 1e-10


# --- marginals and expansions ------------------------------------------------


def test_marginal_vacuum_fock(grid):
    assert check_marginal(vacuum_state(1), grid).residual < 1e-8
    assert check_marginal(fock_state(1), grid).residual < 1e-8


def test_marginal_mixture(mixture, grid):
    assert check_marginal(mixture, grid).passed


def test_twisted_expansion(mixture):
    report = check_twisted_expansion(mixture, n_samples=9)
    assert report.residual < 1e-5


def twisted_expansion_per_term(ctx, seed, n_samples=25):
    """Reference residual: one twisted convolution call per binomial term,
    each through the one-pair route checked in test_transforms.py."""
    rho, chi = ctx.rho, ctx.chi
    grid = verify.TWISTED_GRID
    orders = ((1, 0), (0, 1), (2, 0), (1, 1))
    form = 2.0 * omega_matrix(1)
    f_fn = wigner(as_mixed(chi), grid)
    g_fn = wigner(rho, grid)
    conv = transforms.twisted_convolution_grid(f_fn, g_fn, form)
    rng = np.random.default_rng(seed)
    idx = rng.integers(grid.n_points // 4, 3 * grid.n_points // 4, (n_samples, 2))
    pts = -grid.half_extent + grid.spacing * idx
    resid = 0.0
    for a in orders:
        a = as_index(a)
        lhs = spectral_derivative(conv, a).at(pts)
        rhs = np.zeros(len(pts), dtype=complex)
        for a_sub in box(a):
            extra = sub(a, a_sub)
            coeff = binom(a, a_sub) * 2.0 ** (-order(extra))
            f_deriv = spectral_derivative(f_fn, a_sub)
            g_weighted = verify._weighted_g_values(g_fn, form, extra)
            rhs += coeff * twisted_convolution(f_deriv, g_weighted, form, pts)
        resid = max(resid, float(np.abs(lhs - rhs).max()))
    return resid


@pytest.mark.parametrize("which", ["fock1", "mixture", "mixture8"])
def test_twisted_expansion_matches_per_term_route(which):
    ctx = BoundContext(oracle_state(which))
    got = check_twisted_expansion(ctx, seed=11).residual
    assert got == twisted_expansion_per_term(ctx, 11)


# --- counterexample diagnostics ----------------------------------------------


def test_heavy_tail_growth_quick():
    values = heavy_tail_first_seminorms(k_max=3)
    assert values[0] < values[1] < values[2]
    report = check_heavy_tail_trend(k_max=3)
    assert report.passed


def test_heavy_tail_values_unchanged():
    # the values the 4096-node quadrature gave before the closed form
    expected = [
        0.3802983797110925,
        0.5112737420235692,
        0.7018214469309567,
        0.8944277265259221,
        1.0874301805776974,
        1.280597947978353,
    ]
    values = heavy_tail_first_seminorms(6)
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)


def test_heavy_tail_large_k_against_quadrature_oracle():
    # the fixed 4096 nodes over +-(2 reach + 2) alias the Gaussian at large K;
    # +-20 resolves it.  The supremum sits at the farthest atom, x ~ K^3,
    # so the oracle zooms there in two stages of 101 points.
    values = heavy_tail_first_seminorms(20)
    for k in (16, 20):
        rho = demo_state("heavy_tail", K=k)
        center, width = float(k**3), 0.5
        for _ in range(2):
            xs = center + np.linspace(-width, width, 101)
            vals = np.abs(xs * wigner_pointwise(rho, xs, [0.0], y_half=20.0).real[:, 0])
            center, width = float(xs[np.argmax(vals)]), 0.02 * width
        oracle = float(vals.max())
        assert abs(values[k - 1] - oracle) <= 1e-7 * oracle, k


def test_plateau_decay_window():
    report = check_plateau_decay()
    assert report.passed
    assert 0.5 <= report.info["exponent"] <= 2.0


# --- grid suggestion and suite planning ---------------------------------------


def test_suggest_grid_default(vacuum):
    g = suggest_grid(vacuum)
    assert (g.n_points, g.half_extent) == (256, 12.0)


def test_suggest_grid_expands_for_heavy_tail():
    g = suggest_grid(demo_state("heavy-tail", K=3))
    assert g.half_extent >= 34.0
    # spacing no coarser than the default box
    assert g.spacing <= 2.0 * 12.0 / 256 + 1e-12


def test_suggest_grid_plateau_falls_back():
    g = suggest_grid(demo_state("plateau"))
    assert (g.n_points, g.half_extent) == (256, 12.0)


def test_off_lattice_point_named_through_both_lattice_readers():
    # the grid read of the 4-D checks and the alpha of a twisted convolution
    grid = Grid(2, 64, 8.0)
    named = r"point \[0\.1, 0\.0\] is off the lattice"
    with pytest.raises(ValueError, match=named):
        check_wigner_decomp(vacuum_state(1), points=[[0.1, 0.0]], grid=grid, n_nodes=12)
    w_fn = wigner(vacuum_state(1), grid)
    with pytest.raises(ValueError, match=named):
        twisted_convolution(w_fn, w_fn, 2.0 * omega_matrix(1), [[0.1, 0.0]])


def test_suite_plan_vacuum(vacuum):
    plan = suite_plan(vacuum)
    assert plan[:5] == ["duality", "trace", "husimi", "cauchy-schwarz", "marginal"]
    assert "wigner-decomp" in plan and "reproducing" in plan
    assert len(plan) == 11


def test_suite_plan_skips_inner_checks_for_wide_states():
    wide = vacuum_state(1).displaced(np.array([10.0, 0.0]))
    plan = suite_plan(wide)
    assert plan == ["duality", "trace", "husimi", "cauchy-schwarz", "marginal"]


def test_suite_plan_non_analytic():
    assert suite_plan(demo_state("plateau")) == ["marginal-pointwise", "plateau-decay"]


def test_suite_plan_heavy_tail_demo():
    plan = suite_plan(demo_state("heavy-tail", K=2), demo="heavy_tail")
    assert plan[-1] == "heavy-tail-trend"


# --- suite driver -------------------------------------------------------------


def test_run_suite_records_failures(vacuum):
    # a two-atom window breaks only the decomposition check; the suite
    # must record that failure and still finish everything else
    results = run_suite(vacuum, chi=nongaussian_window())
    names = [r.name for r in results]
    assert names == suite_plan(vacuum)
    by_name = {r.name: r for r in results}
    failed = by_name["wigner-decomp"]
    assert not failed.passed
    assert np.isinf(failed.residual)
    assert "Gaussian" in failed.info["error"]
    for name, report in by_name.items():
        if name != "wigner-decomp":
            assert report.passed, (name, report.residual)


def test_run_suite_thread_count_invariant(vacuum):
    rows_a = [r.row() for r in run_suite(vacuum, config=RunConfig(threads=2))]
    rows_b = [r.row() for r in run_suite(vacuum, config=RunConfig(threads=4))]
    assert rows_a == rows_b


# --- seeding and report mechanics ---------------------------------------------


def test_check_seed_stable():
    assert check_seed("duality", 5) == check_seed("duality", 5)
    assert check_seed("duality", 5) != check_seed("trace", 5)
    assert check_seed("duality", 5) != check_seed("duality", 6)
    assert 0 <= check_seed("anything", 12345) < 2**31


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("PHASESPACE_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("PHASESPACE_THREADS", "0")
    assert worker_count() >= 1


def test_worker_count_follows_cpu_affinity(monkeypatch):
    # under `taskset -c 0` the pool gets one worker, whatever os.cpu_count says
    monkeypatch.delenv("PHASESPACE_THREADS", raising=False)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    assert worker_count() == 1


def test_report_row_matches_header():
    report = VerifyReport("duality", 1e-9, 1e-6, 4, 256, 12.0, 7)
    assert len(report.row().split(",")) == len(CSV_HEADER.split(","))
    assert report.passed


def test_tolerance_table_complete():
    expected = {
        "duality", "trace", "overlap", "husimi", "cauchy-schwarz", "offdiag",
        "reproducing", "wigner-from-matel", "wigner-decomp", "marginal",
        "marginal-pointwise", "twisted-expansion",
    }
    assert set(DEFAULT_TOLERANCES) == expected


def test_checks_read_default_tolerances(vacuum):
    ctx = BoundContext(vacuum, grid=Grid(2, 64, 8.0))
    four_d = dict(points=[[0.0, 0.0]], n_nodes=8)
    calls = {
        "duality": lambda tol: check_duality(ctx, tol=tol),
        "trace": lambda tol: check_trace(ctx, tol=tol),
        "overlap": lambda tol: check_overlap(ctx, tol=tol),
        "husimi": lambda tol: check_husimi(ctx, tol=tol),
        "cauchy-schwarz": lambda tol: check_cauchy_schwarz(ctx, tol=tol, n_pairs=2),
        "offdiag": lambda tol: check_offdiag(tol=tol, n_triples=1),
        "reproducing": lambda tol: check_reproducing(
            ctx, samples=SAMPLES3[:1], tol=tol
        ),
        "wigner-from-matel": lambda tol: check_wigner_from_matel(
            ctx, tol=tol, **four_d
        ),
        "wigner-decomp": lambda tol: check_wigner_decomp(ctx, tol=tol, **four_d),
        "marginal": lambda tol: check_marginal(ctx, tol=tol),
        "marginal-pointwise": lambda tol: check_marginal_pointwise(
            demo_state("plateau"), tol=tol
        ),
        "twisted-expansion": lambda tol: check_twisted_expansion(
            ctx, tol=tol, n_samples=1
        ),
    }
    assert set(calls) == set(DEFAULT_TOLERANCES)
    for name, call in calls.items():
        assert call(None).tolerance == DEFAULT_TOLERANCES[name], name
        assert call(0.5).tolerance == 0.5, name


# --- one shared workspace per suite -----------------------------------------

GRID_CHECKS = {
    "duality": check_duality,
    "trace": check_trace,
    "husimi": check_husimi,
    "overlap": check_overlap,
    "marginal": check_marginal,
    "wigner-from-matel": check_wigner_from_matel,
    "wigner-decomp": check_wigner_decomp,
}


def test_run_suite_builds_each_wigner_once(monkeypatch):
    calls = []
    real_wigner = transforms.wigner

    def counting_wigner(state, grid, *args, **kwargs):
        calls.append(grid.n_points)
        return real_wigner(state, grid, *args, **kwargs)

    for module in (transforms, bounds, verify):
        monkeypatch.setattr(module, "wigner", counting_wigner)
    reports = run_suite(fock_state(1), config=RunConfig(threads=2))
    assert all(r.passed for r in reports)
    # W_rho and W_chi on the suite grid, the three overlap partners, and
    # W_chi and W_rho on the twisted-expansion check's own 64-point grid
    assert sorted(calls) == [64, 64, 256, 256, 256, 256, 256]


def test_grid_checks_same_rows_with_shared_context(mixture, grid):
    ctx = BoundContext(mixture, grid=grid)
    for name, check in GRID_CHECKS.items():
        alone = check(mixture, grid=grid, seed=3).row()
        assert check(ctx, seed=3).row() == alone, name


def test_failed_shared_build_recorded_by_each_check(monkeypatch):
    rho = as_mixed(fock_state(1))
    real_wigner = bounds.wigner

    def failing_wigner(state, grid, *args, **kwargs):
        if state is rho:
            raise GridResolutionError("W_rho build failed")
        return real_wigner(state, grid, *args, **kwargs)

    monkeypatch.setattr(bounds, "wigner", failing_wigner)
    # more workers than checks that retry the failed build at once
    reports = run_suite(rho, config=RunConfig(threads=8))
    assert [r.name for r in reports] == suite_plan(rho)
    for report in reports:
        if report.name in GRID_CHECKS:
            assert report.info["error"] == "W_rho build failed", report.name
            assert np.isinf(report.residual)
        else:
            assert report.passed, report.name


def test_failed_shared_build_runs_once(monkeypatch):
    rho = as_mixed(fock_state(1))
    real_wigner = bounds.wigner
    builds = []

    def failing_wigner(state, grid, *args, **kwargs):
        if state is rho:
            builds.append(grid)
            raise GridResolutionError("W_rho build failed")
        return real_wigner(state, grid, *args, **kwargs)

    monkeypatch.setattr(bounds, "wigner", failing_wigner)
    reports = run_suite(rho, config=RunConfig(threads=8))
    assert len(builds) == 1
    errors = {r.name: r.info.get("error") for r in reports}
    assert {name: errors[name] for name in GRID_CHECKS} == dict.fromkeys(
        GRID_CHECKS, "W_rho build failed"
    )


def test_suite_band_sets_duality_mask(vacuum, grid):
    config = RunConfig(threads=2, band=0.2)
    duality = run_suite(vacuum, config=config)[0]
    assert duality.name == "duality"
    dual = symplectic_fourier(quasichar(vacuum, grid, cross_check=False), "forward")
    mask = grid.interior_mask(0.2)
    expected = np.abs(dual.values - wigner(vacuum, grid).values)[mask].max()
    assert duality.residual == expected
    assert duality.samples == mask.sum() < grid.interior_mask().sum()
