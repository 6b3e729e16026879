import numpy as np
import pytest

from phasespace import (
    Grid,
    GridResolutionError,
    MatelSampler,
    PhaseSpaceFn,
    PureState,
    Atom,
    MixedState,
    as_mixed,
    demo_state,
    fock_state,
    husimi,
    matel,
    momentum_density,
    momentum_marginal,
    offdiag_wigner,
    omega_matrix,
    quasichar,
    random_mixture,
    twisted_convolution,
    twisted_convolution_grid,
    vacuum_state,
    wigner,
    wigner_pointwise,
)
from phasespace import transforms
from phasespace.verify import (
    PLATEAU_N_P,
    PLATEAU_P_HI,
    PLATEAU_P_LO,
    plateau_decay_exponent,
)

PLATEAU_N_X = 401


def mesh_of(grid):
    axis = grid.axis()
    return np.meshgrid(axis, axis, indexing="ij")


def wigner_direct_oracle(state, points, n_nodes=8192, y_half=12.0):
    """Rectangle quadrature of the defining partial-Fourier integral."""
    step = 2.0 * y_half / n_nodes
    ys = -y_half + step * np.arange(n_nodes)
    out = []
    for x, p in points:
        va = state.evaluate((x - 0.5 * ys)[:, None])
        vb = state.evaluate((x + 0.5 * ys)[:, None])
        out.append(step / (2 * np.pi) * np.sum(np.exp(1j * p * ys) * va * np.conj(vb)))
    return np.array(out)


# ---------------------------------------------------------------------------
# wigner


def test_wigner_vacuum_closed_form(vacuum_wigner):
    g = vacuum_wigner.grid
    xm, pm = mesh_of(g)
    expected = np.exp(-xm * xm - pm * pm) / np.pi
    mask = g.interior_mask()
    assert np.abs(vacuum_wigner.values - expected)[mask].max() < 1e-9


def test_wigner_fock1_closed_form(grid):
    w = wigner(fock_state(1), grid)
    xm, pm = mesh_of(grid)
    r2 = xm * xm + pm * pm
    expected = (2.0 * r2 - 1.0) * np.exp(-r2) / np.pi
    mask = grid.interior_mask()
    assert np.abs(w.values - expected)[mask].max() < 1e-8


def test_wigner_fock1_against_direct_quadrature(grid):
    w = wigner(fock_state(1), grid)
    rng = np.random.default_rng(2)
    idx = rng.integers(64, 192, (50, 2))
    pts = -grid.half_extent + grid.spacing * idx
    direct = wigner_direct_oracle(fock_state(1), pts)
    assert np.abs(direct.imag).max() < 1e-10
    grid_vals = w.values[idx[:, 0], idx[:, 1]]
    assert np.abs(grid_vals - direct.real).max() < 1e-8


def test_wigner_trace(vacuum_wigner, mixture, grid):
    assert vacuum_wigner.grid.quadrature(vacuum_wigner.values) == pytest.approx(
        1.0, abs=1e-9
    )
    w = wigner(mixture, grid)
    assert grid.quadrature(w.values) == pytest.approx(1.0, abs=1e-9)


def test_wigner_real_output(mixture, grid):
    w = wigner(mixture, grid)
    assert not np.iscomplexobj(w.values)


def test_quasichar_flags_underresolved_grid():
    # momentum content near the aux-lattice Nyquist breaks the dual-route
    # agreement; the cross-check must flag it rather than return garbage
    state = vacuum_state(1).displaced(np.array([0.0, 6.0]))
    with pytest.raises(GridResolutionError):
        quasichar(state, Grid(2, 32, 8.0))


# ---------------------------------------------------------------------------
# quasichar


def test_quasichar_vacuum_closed_form(vacuum, grid):
    x = quasichar(vacuum, grid)
    xm, pm = mesh_of(grid)
    expected = np.exp(-(xm * xm + pm * pm) / 4.0)
    mask = grid.interior_mask()
    assert np.abs(x.values - expected)[mask].max() < 1e-9


def test_quasichar_origin_is_trace(mixture, grid):
    x = quasichar(mixture, grid)
    mid = grid.n_points // 2
    assert abs(x.values[mid, mid] - 1.0) < 1e-10


def test_quasichar_conjugation_symmetry(mixture, grid):
    x = quasichar(mixture, grid).values
    flipped = np.conj(x[::-1, ::-1])
    # index -k exists for every k except the extreme row/col on an even grid
    assert np.abs(np.roll(flipped, (1, 1), axis=(0, 1)) - x)[1:, 1:].max() < 1e-12


def test_quasichar_cross_check_guard(mixture, grid):
    # the dual-route comparison runs by default and passes on good grids
    quasichar(mixture, grid, cross_check=True)


# ---------------------------------------------------------------------------
# husimi


def test_husimi_vacuum_closed_form(vacuum, grid):
    q = husimi(vacuum, vacuum, grid)
    xm, pm = mesh_of(grid)
    expected = np.exp(-(xm * xm + pm * pm) / 2.0)
    mask = grid.interior_mask()
    assert np.abs(q.values - expected)[mask].max() < 1e-8


def test_husimi_fock1_closed_form(vacuum, grid):
    q = husimi(fock_state(1), vacuum, grid)
    xm, pm = mesh_of(grid)
    r2 = xm * xm + pm * pm
    expected = 0.5 * r2 * np.exp(-r2 / 2.0)
    mask = grid.interior_mask()
    assert np.abs(q.values - expected)[mask].max() < 1e-8


def test_husimi_trace_and_positivity(mixture, vacuum, grid):
    q = husimi(mixture, vacuum, grid)
    assert grid.quadrature(q.values) / (2 * np.pi) == pytest.approx(1.0, abs=1e-8)
    assert q.values.min() > -1e-9


def test_husimi_negativity_floor_scales_with_max_q(vacuum, grid):
    # weights x 1e10 leave a convolution negativity near -8e-7, about
    # -2e-16 of max Q: rounding, not truncation
    rho = random_mixture(np.random.default_rng(1))
    big = MixedState([1e10 * w for w in rho.weights], rho.pure_states)
    q = transforms._husimi_from_wigner(wigner(big, grid), wigner(vacuum, grid))
    assert q.values.min() < transforms.HUSIMI_NEGATIVITY_FLOOR
    assert q.values.min() > transforms.HUSIMI_NEGATIVITY_FLOOR * q.values.max()


@pytest.mark.parametrize("peak, raises", [(0.5, True), (1.0, True), (10.0, False)])
def test_husimi_negativity_floor_absolute_up_to_max_one(peak, raises):
    # a delta window makes Q the W_rho samples: one dip of -2e-7 and one peak
    grid = Grid(2, 16, 4.0)
    w_rho = np.zeros((16, 16))
    w_rho[3, 5], w_rho[10, 12] = -2e-7, peak
    w_chi = np.zeros((16, 16))
    w_chi[8, 8] = 1.0 / (2.0 * np.pi * grid.spacing**2)
    fns = (PhaseSpaceFn(grid, w_rho, "wigner"), PhaseSpaceFn(grid, w_chi, "wigner"))
    if raises:
        with pytest.raises(GridResolutionError, match="negativity"):
            transforms._husimi_from_wigner(*fns)
    else:
        q = transforms._husimi_from_wigner(*fns)
        assert q.values.min() == pytest.approx(-2e-7, rel=1e-9)


# ---------------------------------------------------------------------------
# matel


def test_matel_diagonal_is_husimi(mixture, vacuum, grid):
    q = husimi(mixture, vacuum, grid)
    idx = np.array([[100, 140], [128, 128], [150, 90]])
    pts = -grid.half_extent + grid.spacing * idx
    direct = matel(mixture, vacuum, pts, pts)
    assert np.abs(direct.imag).max() < 1e-12
    grid_vals = q.values[idx[:, 0], idx[:, 1]]
    assert np.abs(grid_vals - direct.real).max() < 1e-9


def test_matel_vacuum_modulus_oracle(vacuum):
    rng = np.random.default_rng(4)
    alphas = rng.uniform(-2, 2, (20, 2))
    betas = rng.uniform(-2, 2, (20, 2))
    vals = matel(vacuum, vacuum, alphas, betas)
    expected = np.exp(
        -((alphas**2).sum(1) + (betas**2).sum(1)) / 4.0
    )
    assert np.abs(np.abs(vals) - expected).max() < 1e-9


def test_matel_hermitian(mixture, vacuum):
    rng = np.random.default_rng(8)
    alphas = rng.uniform(-2, 2, (10, 2))
    betas = rng.uniform(-2, 2, (10, 2))
    ab = matel(mixture, vacuum, alphas, betas)
    ba = matel(mixture, vacuum, betas, alphas)
    assert np.abs(ab - np.conj(ba)).max() < 1e-12


def test_matel_sampler_caches(mixture, vacuum):
    sampler = MatelSampler(mixture, vacuum)
    a = np.array([0.3, -0.7])
    b = np.array([1.0, 0.2])
    direct = matel(mixture, vacuum, a, b)
    assert abs(sampler(a, b) - direct) < 1e-14
    assert abs(sampler(a, b) - direct) < 1e-14  # cached second call


def test_matel_quadrature_fallback_matches_closed_form(vacuum):
    # plateau has no closed-form overlaps; cross-check the quadrature
    # route on an analytic state where the closed form is available
    from phasespace.transforms import _displaced_overlaps_quadrature
    from phasespace.states import displaced_overlaps

    rng = np.random.default_rng(14)
    psi = PureState([Atom((2,), (0.4, -0.3), 1.0)]).normalized()
    alphas = rng.uniform(-1.5, 1.5, (6, 2))
    closed = displaced_overlaps(vacuum, alphas, psi)
    quad = _displaced_overlaps_quadrature(vacuum, alphas, psi)
    assert np.abs(closed - quad).max() < 1e-10


# ---------------------------------------------------------------------------
# off-diagonal Wigner closed form


def test_offdiag_reduces_to_wigner_at_zero(vacuum):
    gammas = np.array([[0.0, 0.0], [0.7, -0.2], [1.5, 1.0]])
    vals = offdiag_wigner(vacuum, np.zeros(2), np.zeros(2), gammas)
    expected = np.exp(-(gammas**2).sum(1)) / np.pi
    assert np.abs(vals - expected).max() < 1e-12


def test_offdiag_unit_phase_modulus(vacuum):
    rng = np.random.default_rng(12)
    alpha = rng.uniform(-1, 1, 2)
    beta = rng.uniform(-1, 1, 2)
    gammas = rng.uniform(-2, 2, (15, 2))
    vals = offdiag_wigner(vacuum, alpha, beta, gammas)
    abar = 0.5 * (alpha + beta)
    expected = np.exp(-((gammas - abar) ** 2).sum(1)) / np.pi
    assert np.abs(np.abs(vals) - expected).max() < 1e-12


def test_offdiag_nongaussian_chi_route():
    chi = PureState([Atom((1,), (0.2, 0.1), 1.0)]).normalized()
    rng = np.random.default_rng(13)
    alpha, beta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    gammas = rng.uniform(-1.5, 1.5, (4, 2))
    vals = offdiag_wigner(chi, alpha, beta, gammas)
    # independent route: pointwise Wigner of the displaced pair kernel
    from tests.test_transforms import wigner_direct_oracle  # self-import safe

    chi_a = chi.displaced(alpha)
    chi_b = chi.displaced(beta)
    step = 24.0 / 8192
    ys = -12.0 + step * np.arange(8192)
    for gamma, val in zip(gammas, vals):
        va = chi_a.evaluate((gamma[0] - 0.5 * ys)[:, None])
        vb = chi_b.evaluate((gamma[0] + 0.5 * ys)[:, None])
        direct = step / (2 * np.pi) * np.sum(np.exp(1j * gamma[1] * ys) * va * np.conj(vb))
        assert abs(val - direct) < 1e-9


# ---------------------------------------------------------------------------
# twisted convolution


def gaussian_grid_fn(grid, width=0.5):
    xm, pm = mesh_of(grid)
    return PhaseSpaceFn(
        grid, np.exp(-width * (xm * xm + pm * pm)).astype(complex), "test"
    )


def test_twisted_convolution_zero_form_is_convolution():
    g = Grid(2, 64, 8.0)
    f = gaussian_grid_fn(g)
    h = gaussian_grid_fn(g)
    zero = np.zeros((2, 2))
    pts = np.array([[0.0, 0.0], [g.spacing * 4, -g.spacing * 2]])
    vals = twisted_convolution(f, h, zero, pts)
    # ordinary convolution of two unit-width-1/2 Gaussians, done directly
    axis = g.axis()
    bx, bp = np.meshgrid(axis, axis, indexing="ij")
    for pt, val in zip(pts, vals):
        integrand = np.exp(
            -0.5 * ((pt[0] - bx) ** 2 + (pt[1] - bp) ** 2)
        ) * np.exp(-0.5 * (bx**2 + bp**2))
        direct = g.spacing**2 * integrand.sum()
        assert abs(val - direct) < 1e-10


def test_twisted_convolution_gaussian_oracle():
    g = Grid(2, 128, 10.0)
    f = gaussian_grid_fn(g)
    h = gaussian_grid_fn(g)
    val = twisted_convolution(f, h, omega_matrix(1), np.zeros((1, 2)))[0]
    assert abs(val - np.pi) < 1e-9


def test_twisted_convolution_brute_force_offset():
    # f evaluated analytically at alpha - beta and summed with the phase,
    # against the lattice route that reads shifted samples of f
    g = Grid(2, 64, 8.0)
    f = gaussian_grid_fn(g)
    h = gaussian_grid_fn(g)
    form = 2.0 * omega_matrix(1)
    pts = g.spacing * np.array([[6, -3], [0, 5]], dtype=float) - 0.0
    lattice_vals = twisted_convolution(f, h, form, pts)
    xm, pm = mesh_of(g)
    beta = np.stack([xm, pm], -1)
    for pt, val in zip(pts, lattice_vals):
        phase = np.exp(0.5j * (beta @ form.T) @ pt)
        f_shifted = np.exp(-0.5 * ((pt - beta) ** 2).sum(-1))
        exact = g.spacing**2 * (phase * f_shifted * h.values).sum()
        assert abs(val - exact) < 1e-12


def test_twisted_convolution_grid_matches_pointwise():
    g = Grid(2, 64, 8.0)
    f = gaussian_grid_fn(g)
    h = gaussian_grid_fn(g, width=0.7)
    form = omega_matrix(1)
    conv = twisted_convolution_grid(f, h, form)
    idx = [(32, 32), (40, 28), (20, 45)]
    pts = np.array([(-8.0 + g.spacing * i, -8.0 + g.spacing * j) for i, j in idx])
    vals = twisted_convolution(f, h, form, pts)
    for (i, j), val in zip(idx, vals):
        assert abs(conv.values[i, j] - val) < 1e-12


@pytest.mark.parametrize("n_pts,half", [(16, 4.0), (64, 8.0)])
@pytest.mark.parametrize("scale", [0.0, 1.0, 2.0, 0.7])
def test_twisted_convolution_grid_matches_pointwise_everywhere(n_pts, half, scale):
    # the FFT grid route against the direct sum at every lattice point
    g = Grid(2, n_pts, half)
    xm, pm = mesh_of(g)
    f = PhaseSpaceFn(g, np.exp(-0.5 * (xm**2 + pm**2) + 0.3j * xm), "f")
    h = PhaseSpaceFn(g, np.exp(-0.7 * ((xm - 1.0) ** 2 + pm**2)), "h")
    form = scale * omega_matrix(1)
    conv = twisted_convolution_grid(f, h, form).values
    pts = np.stack([xm, pm], -1)
    direct = twisted_convolution(f, h, form, pts)
    assert np.abs(conv - direct).max() <= 1e-13 * np.abs(direct).max()


def test_twisted_convolution_grid_rejects_dim4():
    g = Grid(4, 8, 4.0)
    f = PhaseSpaceFn(g, np.ones(g.shape(), dtype=complex), "f")
    with pytest.raises(ValueError, match="dim 4"):
        twisted_convolution_grid(f, f, omega_matrix(2))


def test_twisted_convolution_result_decays(mixture, vacuum):
    from phasespace import seminorm_table

    g = Grid(2, 64, 8.0)
    f = wigner(vacuum, g)
    h = wigner(mixture, g)
    conv = twisted_convolution_grid(f, h, 2.0 * omega_matrix(1))
    conv_abs = PhaseSpaceFn(g, np.abs(conv.values), "conv")
    table = seminorm_table(conv_abs, (4, 4), (0, 0))
    vals = list(table.values())
    assert all(np.isfinite(v) for v in vals)
    assert max(vals) < 1e3


def test_twisted_convolution_rejects_off_lattice():
    g = Grid(2, 64, 8.0)
    f = gaussian_grid_fn(g)
    h = gaussian_grid_fn(g)
    with pytest.raises(ValueError):
        twisted_convolution(f, h, omega_matrix(1), np.array([[0.1234, 0.0]]))


def test_twisted_convolution_rejects_symmetric_form():
    g = Grid(2, 64, 8.0)
    f = gaussian_grid_fn(g)
    with pytest.raises(ValueError):
        twisted_convolution(f, f, np.eye(2), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# marginals and pointwise evaluation


def test_momentum_marginal_vacuum(vacuum_wigner):
    p_axis, marg = momentum_marginal(vacuum_wigner)
    expected = np.exp(-p_axis**2) / np.sqrt(np.pi)
    assert np.abs(marg - expected).max() < 1e-9
    assert vacuum_wigner.grid.spacing * marg.sum() == pytest.approx(1.0, abs=1e-9)


def test_momentum_marginal_fock1(grid):
    w = wigner(fock_state(1), grid)
    p_axis, marg = momentum_marginal(w)
    expected = 2.0 * p_axis**2 * np.exp(-p_axis**2) / np.sqrt(np.pi)
    assert np.abs(marg - expected).max() < 1e-8
    assert grid.spacing * marg.sum() == pytest.approx(1.0, abs=1e-9)


def test_momentum_density_matches_closed_form():
    ps = np.linspace(-4, 4, 33)
    dens = momentum_density(vacuum_state(1), ps)
    np.testing.assert_allclose(dens, np.exp(-(ps**2)) / np.sqrt(np.pi), atol=1e-10)


def test_momentum_density_sums_weighted_components(mixture):
    ps = np.linspace(-4, 4, 33)
    parts = [w * momentum_density(psi, ps) for w, psi in
             zip(mixture.weights, mixture.pure_states)]
    assert np.array_equal(momentum_density(mixture, ps), parts[0] + parts[1])


def _momentum_density_one_matrix(state, p_points, n_nodes=4096):
    # the route before blocking: one (len(p), n_nodes) matrix per component
    rho = as_mixed(state)
    p_points = np.asarray(p_points, dtype=float)
    dens = np.zeros(p_points.shape)
    for w, psi in zip(rho.weights, rho.pure_states):
        lattice = Grid(1, n_nodes, psi.reach(), kind="config")
        xs, step = lattice.axis(), lattice.spacing
        vals = psi.evaluate(xs[:, None])
        hat = (
            step
            / np.sqrt(2.0 * np.pi)
            * np.exp(-1j * np.outer(p_points, xs)) @ vals
        )
        dens += w * (hat * np.conj(hat)).real
    return dens


# 257 points in slices of 16 (4096 nodes) and 41 in slices of 2 (32768
# nodes) would leave a one-point slice, whose product rounds as a dot
@pytest.mark.parametrize(
    "n_p, n_nodes", [(256, 4096), (257, 4096), (1024, 4096), (41, 32768)]
)
def test_momentum_density_blocks_match_one_matrix(mixture, n_p, n_nodes):
    ps = np.linspace(-10.0, 10.0, n_p)
    assert np.array_equal(
        momentum_density(mixture, ps, n_nodes=n_nodes),
        _momentum_density_one_matrix(mixture, ps, n_nodes=n_nodes),
    )


def test_momentum_density_peak_memory(mixture, traced_peak):
    # the one-matrix route traced about 134 MB at 1024 p points
    ps = np.linspace(-10.0, 10.0, 1024)
    assert traced_peak(momentum_density, mixture, ps) < 8e6


def test_momentum_density_keeps_p_shape(mixture):
    ps = np.linspace(-4.0, 4.0, 12)
    dens = momentum_density(mixture, ps.reshape(3, 4))
    assert np.array_equal(dens, momentum_density(mixture, ps).reshape(3, 4))


def test_wigner_pointwise_matches_grid(mixture, grid):
    w = wigner(mixture, grid)
    ix, ip = np.array([128, 100, 140]), np.array([128, 150, 120])
    axis = grid.axis()
    direct = wigner_pointwise(mixture, axis[ix], axis[ip])
    assert direct.shape == (3, 3)
    assert np.abs(direct.imag).max() < 1e-10
    assert np.abs(w.values[np.ix_(ix, ip)] - direct.real).max() < 1e-8


def test_plateau_wigner_closed_form():
    plateau = demo_state("plateau")
    xs = np.array([0.3, 0.5, 0.8, 0.25])
    ps = np.array([2.0, 5.0, -3.0, 0.5])
    vals = wigner_pointwise(plateau, xs, ps).real
    expected = np.array(
        [[np.sin(2.0 * p * min(x, 1.0 - x)) / (np.pi * p) for p in ps] for x in xs]
    )
    assert np.abs(vals - expected).max() < 5e-3


def test_heavy_tail_wigner_closed_form():
    rho = demo_state("heavy_tail", K=3)
    xs = np.array([0.0, 1.0, 8.0, 27.0, 14.0])
    vals = wigner_pointwise(rho, xs, [0.0]).real[:, 0]
    weights = np.array(rho.weights)
    centers = np.array([1.0, 8.0, 27.0])
    expected = np.array(
        [
            (weights * np.exp(-((x - centers) ** 2))).sum() / np.pi
            for x in xs
        ]
    )
    assert np.abs(vals - expected).max() < 1e-10


# --- one kernel quadrature: the grid transforms and wigner_pointwise ----------------


def parent_rep_on_grid(rho, grid, rep):
    """The grid transforms' loop as it was before it took rows, momenta and
    the node lattice as arguments: 4M-element chunks, lattice built inside."""
    n = grid.dim // 2
    axis = grid.axis()
    h = grid.spacing
    aux = Grid(1, 2 * grid.n_points, 2.0 * grid.half_extent, kind="config").axis()
    rows = np.stack(np.meshgrid(*(axis,) * n, indexing="ij"), -1).reshape(-1, n)
    nodes = np.stack(np.meshgrid(*(aux,) * n, indexing="ij"), -1).reshape(-1, n)
    kernel_mat = h * np.exp(1j * np.outer(axis, aux))
    out = np.empty((rows.shape[0],) + (grid.n_points,) * n, dtype=complex)
    chunk = max(1, 4_000_000 // nodes.shape[0])
    for start in range(0, rows.shape[0], chunk):
        r = rows[start : start + chunk, None, :]
        y = nodes[None, :, :]
        if rep == "wigner":
            kv = rho.kernel(r - 0.5 * y, r + 0.5 * y)
        else:
            kv = rho.kernel(y - 0.5 * r, y + 0.5 * r)
        kv = kv.reshape((r.shape[0],) + (aux.size,) * n)
        for _ in range(n):
            kv = np.tensordot(kv, kernel_mat, axes=(1, 1))
        out[start : start + chunk] = kv
    return out.reshape((grid.n_points,) * (2 * n))


def grid_transform_case(name):
    if name == "fock1":
        return fock_state(1), Grid(2, 256, 12.0)
    if name == "mixture":
        return random_mixture(np.random.default_rng(3)), Grid(2, 256, 12.0)
    rng = np.random.default_rng(5)
    return random_mixture(rng, n=2, max_order=2, disp=0.8), Grid(4, 16, 6.0)


@pytest.mark.parametrize("case", ["fock1", "mixture", "two-mode"])
def test_grid_transforms_equal_parent_loop(case):
    # a mixture sums components that PureState.evaluate samples on the
    # distinct-argument lattice, not on the whole argument array, so the
    # last bit may differ; a single component stays bitwise
    state, grid = grid_transform_case(case)
    rho = as_mixed(state)
    old_w = parent_rep_on_grid(rho, grid, "wigner") / (2.0 * np.pi) ** rho.n
    old_q = parent_rep_on_grid(rho, grid, "quasichar")
    new_w = wigner(state, grid).values
    new_q = quasichar(state, grid, cross_check=False).values
    assert np.abs(new_w - old_w.real).max() <= 1e-15
    assert np.abs(new_q - old_q).max() <= 1e-15
    if case == "fock1":
        assert np.array_equal(new_w, old_w.real) and np.array_equal(new_q, old_q)


def per_point_rep_on_grid(rho, rows, momenta, lattice, rep):
    """The chunk loop that evaluates the kernel at every (row, node) point."""
    n = rho.n
    aux = lattice.axis()
    row_pts = np.stack(np.meshgrid(*(rows,) * n, indexing="ij"), -1).reshape(-1, n)
    nodes = np.stack(np.meshgrid(*(aux,) * n, indexing="ij"), -1).reshape(-1, n)
    kernel_mat = lattice.spacing * np.exp(1j * np.outer(momenta, aux))
    out = np.empty((row_pts.shape[0],) + (momenta.size,) * n, dtype=complex)
    chunk = max(1, 1_000_000 // nodes.shape[0])
    for start in range(0, row_pts.shape[0], chunk):
        r = row_pts[start : start + chunk, None, :]
        y = nodes[None, :, :]
        mid, offset = (r, y) if rep == "wigner" else (y, r)
        kv = rho.kernel(mid - 0.5 * offset, mid + 0.5 * offset)
        kv = kv.reshape((r.shape[0],) + (aux.size,) * n)
        for _ in range(n):
            kv = np.tensordot(kv, kernel_mat, axes=(1, 1))
        out[start : start + chunk] = kv
    return out.reshape((rows.size,) * n + (momenta.size,) * n)


def lattice_case(name):
    """(state, grid) for the distinct-argument sampling tests."""
    n, grid = (2, Grid(4, 16, 6.0)) if name.startswith("two-mode") else (1, Grid(2, 256, 12.0))
    kind = name.removeprefix("two-mode-")
    if kind == "vacuum":
        return vacuum_state(n), grid
    if kind == "fock1":
        return fock_state(1, n=n), grid
    if kind == "plateau":
        return demo_state("plateau"), grid
    if kind == "non-dyadic":
        # 12.3 is not a dyadic rational: r -/+ y/2 may miss the lattice
        return random_mixture(np.random.default_rng(3)), Grid(2, 256, 12.3)
    seed = {"mixture-a": 3, "mixture-b": 4}[kind]
    rng = np.random.default_rng(seed)
    if n == 2:
        return random_mixture(rng, n=2, max_order=2, disp=0.8), grid
    return random_mixture(rng), grid


LATTICE_CASES = ["vacuum", "fock1", "mixture-a", "mixture-b", "plateau", "non-dyadic"] + [
    f"two-mode-{kind}" for kind in ("vacuum", "fock1", "mixture-a", "mixture-b")
]


@pytest.mark.parametrize("case", LATTICE_CASES)
def test_grid_transforms_equal_per_point_loop(case):
    state, grid = lattice_case(case)
    rho = as_mixed(state)
    axis, lattice = grid.axis(), Grid(1, 2 * grid.n_points, 2.0 * grid.half_extent, kind="config")
    old_w = per_point_rep_on_grid(rho, axis, axis, lattice, "wigner") / (2.0 * np.pi) ** rho.n
    old_q = per_point_rep_on_grid(rho, axis, axis, lattice, "quasichar")
    new_w = wigner(state, grid).values
    new_q = quasichar(state, grid, cross_check=False).values
    assert np.abs(new_w - old_w.real).max() <= 1e-15
    assert np.abs(new_q - old_q).max() <= 1e-15
    if case.removeprefix("two-mode-") in ("vacuum", "fock1", "plateau"):
        assert np.array_equal(new_w, old_w.real) and np.array_equal(new_q, old_q)


@pytest.fixture
def evaluate_sizes(monkeypatch):
    """Sizes of the point arrays PureState.evaluate is called on."""
    sizes = []
    evaluate = PureState.evaluate

    def counting_evaluate(self, points):
        vals = evaluate(self, points)
        sizes.append(vals.size)
        return vals

    monkeypatch.setattr(PureState, "evaluate", counting_evaluate)
    return sizes


@pytest.mark.parametrize("rep", ["wigner", "quasichar"])
def test_grid_transform_samples_each_distinct_argument_once(evaluate_sizes, mixture, grid, rep):
    if rep == "wigner":
        wigner(mixture, grid)
    else:
        quasichar(mixture, grid, cross_check=False)
    # one call per component on the half-spacing lattice: 4N - 1 points for
    # r -/+ y/2, 5N - 1 for y -/+ r/2, against N * 2N per kernel slot
    n_pts = grid.n_points
    assert len(evaluate_sizes) == len(mixture.pure_states)
    assert max(evaluate_sizes) <= (4 if rep == "wigner" else 5) * n_pts


def wigner_pointwise_per_point(state, points, n_nodes=4096, y_half=None):
    """The per-point chunk loop: each point builds its own kernel and phase rows."""
    rho = as_mixed(state)
    flat = np.asarray(points, dtype=float).reshape(-1, 2)
    if y_half is None:
        y_half = 2.0 * rho.reach() + 2.0
    step = 2.0 * y_half / n_nodes
    ys = -y_half + step * np.arange(n_nodes)
    out = np.empty(flat.shape[0], dtype=complex)
    chunk = max(1, 2_000_000 // n_nodes)
    for start in range(0, flat.shape[0], chunk):
        blk = flat[start : start + chunk]
        x = blk[:, :1]
        p = blk[:, 1:2]
        kv = rho.kernel(
            (x - 0.5 * ys[None, :])[..., None], (x + 0.5 * ys[None, :])[..., None]
        )
        out[start : start + chunk] = (
            step / (2.0 * np.pi) * (np.exp(1j * p * ys[None, :]) * kv).sum(1)
        )
    return out


def pointwise_case(name):
    """(state, xs, ps, quadrature kwargs) for the per-point oracle tests."""
    if name == "plateau":
        # the product set of `plateau_decay_exponent`
        xs = np.linspace(0.0025, 0.9975, PLATEAU_N_X)
        ps = np.geomspace(PLATEAU_P_LO, PLATEAU_P_HI, PLATEAU_N_P)
        return demo_state("plateau"), xs, ps, {}
    if name == "scattered-mixture":
        # unsorted axes, every x and p distinct
        rng = np.random.default_rng(909)
        return (random_mixture(rng, n_atoms=1), rng.uniform(-4.0, 4.0, 40),
                rng.uniform(-4.0, 4.0, 25), {})
    if name == "vacuum-repeated-p":
        return vacuum_state(1), np.linspace(-3.0, 3.0, 40), [0.5, -1.25, 0.0, 2.0, 0.5], {}
    rng = np.random.default_rng(910)
    kwargs = {"n_nodes": 512, "y_half": 20.0}
    return random_mixture(rng), rng.uniform(-3.0, 3.0, 5), rng.uniform(-3.0, 3.0, 5), kwargs


@pytest.mark.parametrize(
    "case", ["plateau", "scattered-mixture", "vacuum-repeated-p", "explicit-nodes"]
)
def test_wigner_pointwise_equals_per_point(case):
    # the quadrature is a GEMM against the phase matrix now, so the sum order
    # differs from the per-point loop: equal within rounding, not bitwise
    state, xs, ps, kwargs = pointwise_case(case)
    xs, ps = np.asarray(xs), np.asarray(ps)
    mesh = np.stack(np.meshgrid(xs, ps, indexing="ij"), -1)
    oracle = wigner_pointwise_per_point(state, mesh, **kwargs).reshape(xs.size, ps.size)
    assert np.abs(wigner_pointwise(state, xs, ps, **kwargs) - oracle).max() <= 1e-15


def test_wigner_pointwise_kernel_points_per_distinct_x(monkeypatch):
    seen = []
    kernel = MixedState.kernel

    def counting_kernel(self, x, y):
        vals = kernel(self, x, y)
        seen.append(vals.size)
        return vals

    monkeypatch.setattr(MixedState, "kernel", counting_kernel)
    plateau_decay_exponent()
    # one row of 4096 nodes per distinct x, not per (x, p) point
    assert sum(seen) == PLATEAU_N_X * 4096 == 1_642_496


def test_wigner_pointwise_rejects_malformed_points(monkeypatch):
    def no_kernel(self, x, y):
        raise AssertionError("kernel evaluated for malformed points")

    monkeypatch.setattr(MixedState, "kernel", no_kernel)
    vac = vacuum_state(1)
    with pytest.raises(ValueError, match=r"xs must be 1-D, got shape \(4, 2\)"):
        wigner_pointwise(vac, np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ValueError, match=r"xs must be 1-D, got shape \(\)"):
        wigner_pointwise(vac, 0.0, np.zeros(3))
    with pytest.raises(ValueError, match=r"ps must be 1-D, got shape \(3, 1\)"):
        wigner_pointwise(vac, np.zeros(4), np.zeros((3, 1)))
    monkeypatch.undo()
    single = wigner_pointwise(vac, [0.0], [0.0])
    assert single.shape == (1, 1) and abs(single[0, 0].real - 1.0 / np.pi) < 1e-10
    assert wigner_pointwise(vac, np.zeros(0), [0.0, 1.0]).shape == (0, 2)


def test_sparse_lattice_rows_sample_per_point(evaluate_sizes):
    # both x lie on the vacuum's half-step lattice (3/512), but 2^30 steps
    # apart: a lattice that wide would cost more than the 2 x 4096 points
    far = 3.0 / 512 * 2**30
    vals = wigner_pointwise(vacuum_state(1), [0.0, far], [0.0])
    assert max(evaluate_sizes) == 2 * 4096
    assert abs(vals[0, 0] - 1.0 / np.pi) < 1e-10 and vals[1, 0] == 0.0
