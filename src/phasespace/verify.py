"""Identity checks: each computes both sides of one equation by
independent routes and reports the worst residual.

The 4-D checks (wigner-from-matel, wigner-decomp) use an auxiliary
lattice with fixed spacing and a window that grows with the node count,
so runs on finer lattices shrink the dominant truncation error.  All sampling
is seeded; identical config yields identical reports.
"""

import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundContext, cauchy_schwarz_reports
from .grid import (
    DEFAULT_BAND,
    DEFAULT_L,
    DEFAULT_N,
    Grid,
    PhaseSpaceFn,
    fits_box,
    omega_matrix,
    spectral_derivative,
    suggest_grid,
    symplectic_form,
    symplectic_fourier,
)
from .multiindex import as_index, binom, box, order, sub
from .seminorms import _zoom_max
from .states import (
    as_mixed,
    demo_state,
    displaced_overlaps,
    pure_overlap,
    random_pure_state,
    vacuum_state,
    wigner_values,
)
from .transforms import (
    _component_overlaps,
    _husimi_residual,
    _matel_sum,
    _twisted_convolutions,
    gaussian_atom_params,
    momentum_density,
    momentum_marginal,
    offdiag_wigner,
    quasichar,
    twisted_convolution_grid,
    wigner,
    wigner_pointwise,
)

DEFAULT_TOLERANCES = {
    "duality": 1e-6,
    "trace": 1e-7,
    "overlap": 1e-7,
    "husimi": 1e-6,
    "cauchy-schwarz": 1e-9,
    "offdiag": 1e-7,
    "reproducing": 1e-5,
    "wigner-from-matel": 2e-3,
    "wigner-decomp": 5e-3,
    "marginal": 1e-8,
    "marginal-pointwise": 5e-3,
    "twisted-expansion": 1e-5,
}

FOUR_D_SPACING = 0.4
FOUR_D_NODES = 48

# the twisted-expansion check runs on its own small grid, whatever the suite's
TWISTED_GRID = Grid(2, 64, 8.0)

PLATEAU_P_LO = 4.0
PLATEAU_P_HI = 10.0
PLATEAU_N_P = 13


@dataclass
class RunConfig:
    """`run_suite` settings; threads = 0 sizes the pool by `worker_count`."""

    grid_n: int = DEFAULT_N
    grid_l: float = DEFAULT_L
    seed: int = 0
    band: float = DEFAULT_BAND
    threads: int = 0
    out: str = ""
    tolerances: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyReport:
    name: str
    residual: float
    tolerance: float
    samples: int
    n_points: int
    half_extent: float
    seed: int
    info: dict = field(default_factory=dict)

    @property
    def passed(self):
        return bool(self.residual <= self.tolerance)

    def row(self):
        return (
            f"{self.name},{self.residual:.17g},{self.tolerance:.17g},"
            f"{self.samples},{int(self.passed)},{self.n_points},"
            f"{self.half_extent:.17g},{self.seed}"
        )


CSV_HEADER = "name,residual,tolerance,samples,passed,N,L,seed"


def check_seed(name, base_seed):
    """Stable per-check seed; crc32 keeps it independent of hash salting."""
    return (zlib.crc32(name.encode()) ^ (base_seed * 0x9E3779B1)) & 0x7FFFFFFF


def _context(state, chi=None, grid=None):
    """The suite's shared BoundContext as it is, or a new one for a state."""
    if isinstance(state, BoundContext):
        return state
    return BoundContext(state, chi, grid)


def _report(name, residual, tol, samples, grid, seed, info=None):
    """One check's report; tol=None reads the check's DEFAULT_TOLERANCES entry."""
    return VerifyReport(
        name,
        float(residual),
        float(DEFAULT_TOLERANCES[name] if tol is None else tol),
        int(samples),
        grid.n_points if grid is not None else 0,
        float(grid.half_extent) if grid is not None else 0.0,
        seed,
        info or {},
    )


# ---------------------------------------------------------------------------
# grid-route identity checks


def check_duality(state, grid=None, tol=None, seed=0):
    """wigner(rho) against the symplectic Fourier transform of quasichar."""
    ctx = _context(state, grid=grid)
    grid = ctx.grid
    w_fn = ctx.w_rho()
    x_fn = quasichar(ctx.rho, grid, cross_check=False)
    dual = symplectic_fourier(x_fn, "forward")
    mask = grid.interior_mask(ctx.band)
    resid = np.abs(dual.values - w_fn.values)[mask].max()
    return _report("duality", resid, tol, int(mask.sum()), grid, seed)


def check_trace(state, chi=None, grid=None, tol=None, seed=0):
    """quadrature(W) and (2pi)^{-n} quadrature(Q) against trace rho."""
    ctx = _context(state, chi, grid)
    grid, rho = ctx.grid, ctx.rho
    tr = rho.trace()
    w_fn = ctx.w_rho()
    q_fn = ctx.q_rho()
    scale = (2.0 * np.pi) ** rho.n
    resid = max(
        abs(grid.quadrature(w_fn.values) - tr),
        abs(grid.quadrature(q_fn.values) / scale - tr),
    )
    return _report("trace", resid, tol, 2, grid, seed)


def check_overlap(state, grid=None, tol=None, seed=0):
    """tr[rho eta] = (2pi)^n int W_rho W_eta for three random partner states."""
    ctx = _context(state, grid=grid)
    grid, rho = ctx.grid, ctx.rho
    rng = np.random.default_rng(seed)
    w_rho = ctx.w_rho()
    partners = [random_pure_state(rng) for _ in range(3)]
    resid = 0.0
    for eta in partners:
        closed = sum(
            w * abs(pure_overlap(ps, eta)) ** 2
            for w, ps in zip(rho.weights, rho.pure_states)
        )
        w_eta = wigner(eta, grid)
        quad = (2.0 * np.pi) ** rho.n * grid.quadrature(
            w_rho.values * w_eta.values
        )
        resid = max(resid, abs(closed - quad))
    return _report("overlap", resid, tol, len(partners), grid, seed)


def check_husimi(state, chi=None, grid=None, tol=None, seed=0):
    """Convolution-route Husimi against direct matrix elements at 40 points."""
    ctx = _context(state, chi, grid)
    grid = ctx.grid
    rng = np.random.default_rng(seed)
    idx = rng.integers(grid.n_points // 4, 3 * grid.n_points // 4, (40, grid.dim))
    pts = -grid.half_extent + grid.spacing * idx
    resid = _husimi_residual(ctx.q_rho(), ctx.rho, ctx.chi, pts)
    return _report("husimi", resid, tol, len(idx), grid, seed)


def check_cauchy_schwarz(state, chi=None, tol=None, seed=0, n_pairs=1000):
    """|M(a,b)|^2 <= Q(a)Q(b); residual is the worst constraint violation,
    with equality required at alpha = beta on the first 20 points."""
    ctx = _context(state, chi)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, (n_pairs, 2, 2 * ctx.rho.n))
    pairs = np.concatenate([pts, pts[:20, [0, 0]]])
    reports = cauchy_schwarz_reports(ctx.rho, ctx.chi, pairs)
    m2, q_ab = np.array([(r.lhs, r.rhs) for r in reports]).reshape(-1, 2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(q_ab > 0, m2 / q_ab - 1.0, m2)
    gap[n_pairs:] = np.abs(gap[n_pairs:])
    resid = max(0.0, gap.max(initial=0.0))
    return _report("cauchy-schwarz", resid, tol, n_pairs, None, seed)


def _offdiag_lattice(chi_a, chi_b, p):
    """The y lattice of `_offdiag_direct`: half-width 2 max(reach) + 2 and
    the fewest nodes N (a power of two, at least 8) with pi N >= 2 y_half
    omega.  The integrand's frequencies lie within omega = |p| + (w_a +
    w_b) / 2 + 10, w a window's largest |alpha_p| + sqrt(2m + 1) (the
    momentum part of `extent()`: a window displaced far in x needs no finer
    lattice) and 10 the decay margin of `reach`.  The trapezoid error is
    set by the integrand's transform at 2 pi / h, so this leaves a factor-2
    margin (Trefethen and Weideman, SIAM Review 56, 2014)."""
    y_half = 2.0 * max(chi_a.reach(), chi_b.reach()) + 2.0
    widths = [
        max(abs(at.alpha[1]) + math.sqrt(2 * at.m[0] + 1) for at in window.atoms)
        for window in (chi_a, chi_b)
    ]
    omega = abs(p) + 0.5 * sum(widths) + 10.0
    nodes = 8
    while math.pi * nodes < 2.0 * y_half * omega:
        nodes *= 2
    return Grid(1, nodes, y_half, kind="config")


def _offdiag_direct(chi, alpha, beta, gamma):
    """Independent route: quadrature of the partial Fourier transform of
    the rank-one kernel chi_alpha(x) conj(chi_beta(y)).  Returns the value
    and the lattice it was summed on."""
    chi_a = chi.displaced(alpha)
    chi_b = chi.displaced(beta)
    x, p = gamma
    lattice = _offdiag_lattice(chi_a, chi_b, p)
    ys, step = lattice.axis(), lattice.spacing
    va = chi_a.evaluate((x - 0.5 * ys)[:, None])
    vb = chi_b.evaluate((x + 0.5 * ys)[:, None])
    value = step / (2.0 * np.pi) * (np.exp(1j * p * ys) * va * np.conj(vb)).sum()
    return value, lattice


def check_offdiag(chi=None, tol=None, seed=0, n_triples=50):
    """Closed-form off-diagonal Wigner values against direct quadrature;
    info holds the largest lattice used, {"nodes", "half"}."""
    chi = chi or vacuum_state(1)
    if chi.n != 1:
        raise ValueError("offdiag check implemented for n=1")
    rng = np.random.default_rng(seed)
    resid, nodes, half = 0.0, 0, 0.0
    for _ in range(n_triples):
        alpha = rng.uniform(-1.5, 1.5, 2)
        beta = rng.uniform(-1.5, 1.5, 2)
        gamma = rng.uniform(-2.0, 2.0, 2)
        closed = offdiag_wigner(chi, alpha, beta, gamma)
        direct, lattice = _offdiag_direct(chi, alpha, beta, gamma)
        resid = max(resid, abs(closed - direct))
        nodes = max(nodes, lattice.n_points)
        half = max(half, lattice.half_extent)
    return _report(
        "offdiag", resid, tol, n_triples, None, seed, {"nodes": nodes, "half": half}
    )


# ---------------------------------------------------------------------------
# reproducing formula (one-sided form, both slots)


def _coherent_overlaps(chi, fixed, mesh):
    """<chi_fixed | chi_m> for every mesh point m."""
    return np.conj(displaced_overlaps(chi, mesh, chi.displaced(fixed)))


def check_reproducing(state, chi=None, samples=None, tol=None, seed=0):
    """M(a,b) against the coherent-resolution quadrature in each slot."""
    ctx = _context(state, chi)
    rho, chi = ctx.rho, ctx.chi
    if rho.n != 1:
        raise ValueError("reproducing check implemented for n=1")
    rng = np.random.default_rng(seed)
    if samples is None:
        samples = list(rng.uniform(-1.5, 1.5, (10, 2, 2)))
    spacing, half = 0.5, DEFAULT_L  # 48 x 48 resolution nodes on the default box
    n_nodes = int(round(2.0 * half / spacing))
    axis = -half + spacing * np.arange(n_nodes)
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    cell = spacing**2
    # <chi_m | psi_j> on the mesh, once per component for every sample
    f_mesh = list(_component_overlaps(rho, chi, mesh))
    resid = 0.0
    for alpha, beta in samples:
        f_alpha = list(_component_overlaps(rho, chi, alpha))
        f_beta = list(_component_overlaps(rho, chi, beta))
        direct = _matel_sum(rho, f_alpha, f_beta, ())
        m_mesh_beta = _matel_sum(rho, f_mesh, f_beta, mesh.shape[:-1])
        lhs_a = cell / (2.0 * np.pi) * (
            _coherent_overlaps(chi, alpha, mesh) * m_mesh_beta
        ).sum()
        m_alpha_mesh = _matel_sum(rho, f_alpha, f_mesh, mesh.shape[:-1])
        lhs_b = cell / (2.0 * np.pi) * (
            m_alpha_mesh * np.conj(_coherent_overlaps(chi, beta, mesh))
        ).sum()
        resid = max(resid, abs(lhs_a - direct), abs(lhs_b - direct))
    return _report(
        "reproducing", resid, tol, len(samples), None, seed,
        {"spacing": spacing, "half": half},
    )


# ---------------------------------------------------------------------------
# 4-D identity checks (n = 1)


def _four_d_lattice(state, chi, grid, points, n_nodes):
    """(context, sample points, node axis) of a 4-D check: n = 1, at most
    8 points (default 8 lattice points of the grid), n_nodes nodes spaced
    FOUR_D_SPACING about the origin."""
    ctx = _context(state, chi, grid)
    if ctx.rho.n != 1:
        raise ValueError("4-D checks implemented for n=1")
    if points is None:
        steps = [[0, 0], [10, 0], [0, 10], [-10, 10], [10, 10], [-8, -4],
                 [4, -12], [16, 8]]
        points = ctx.grid.spacing * np.array(steps)
    if len(points) > 8:
        raise ValueError("at most 8 sample points")
    axis = FOUR_D_SPACING * (np.arange(n_nodes) - n_nodes // 2)
    return ctx, np.asarray(points, dtype=float), axis


def check_wigner_from_matel(
    state, chi=None, points=None, grid=None, tol=None, seed=0, n_nodes=FOUR_D_NODES
):
    """W(alpha) from the doubled-phase-space matrix-element integral."""
    ctx, points, axis = _four_d_lattice(state, chi, grid, points, n_nodes)
    rho, chi, s = ctx.rho, ctx.chi, FOUR_D_SPACING
    half_axis = 0.5 * s * (np.arange(3 * n_nodes) - 3 * n_nodes // 2)
    u_mesh = np.stack(
        np.meshgrid(half_axis, half_axis, indexing="ij"), -1
    )
    # the K component overlaps stacked once: weighted on the left and
    # conjugated on the right, so each (mx, mp) column is one product and
    # one sum over the components, with (K, n, n) scratch
    right = np.stack(
        [displaced_overlaps(chi, u_mesh, ps) for ps in rho.pure_states]
    )
    left = np.asarray(rho.weights)[:, None, None] * right
    np.conj(right, out=right)
    # vx_tab[mp] = e^{i axis axis_mp / 2}, vp_tab[mx] = e^{-i axis axis_mx / 2};
    # contiguous rows, since a strided vector sends the product down
    # another BLAS path that rounds differently
    vx_tab = np.exp((0.5j * axis)[None, :] * axis[:, None])
    vp_tab = np.exp((-0.5j * axis)[None, :] * axis[:, None])
    g_vals = np.empty((n_nodes, n_nodes), dtype=complex)
    for mx in range(n_nodes):
        for mp in range(n_nodes):
            col = (
                left[:, n_nodes - mx : 3 * n_nodes - mx : 2,
                     n_nodes - mp : 3 * n_nodes - mp : 2]
                * right[:, mx : mx + 2 * n_nodes : 2, mp : mp + 2 * n_nodes : 2]
            ).sum(0)
            g_vals[mx, mp] = s * s * (vx_tab[mp] @ col @ vp_tab[mx])
    w_ref = ctx.w_rho()
    resid = 0.0
    for pt in points:
        wx = np.exp(1j * pt[1] * axis)
        wp = np.exp(-1j * pt[0] * axis)
        val = s * s / (2.0 * np.pi) ** 3 * (wx @ g_vals @ wp)
        ref = w_ref.at(pt)
        resid = max(resid, abs(val - ref))
    return _report(
        "wigner-from-matel", resid, tol, len(points), ctx.grid, seed,
        {"nodes": n_nodes, "spacing": s},
    )


def check_wigner_decomp(
    state, chi=None, points=None, grid=None, tol=None, seed=0, n_nodes=FOUR_D_NODES
):
    """W(gamma) from the off-diagonal decomposition over coherent pairs.

    The pair sum is s^4/(2pi)^2 sum_{a,b} e^{i(gamma - abar/2) /\\ delta}
    W_chi(gamma - abar) M(a,b) with abar = (a+b)/2, delta = a-b.  For the
    Gaussian window W_chi(u) = kappa e^{-|u-c|^2} the summand factors as
    kappa e^{-|eta|^2} u(a) K(a,b) v(b) M(a,b) with eta = gamma - c,
    u(a) = e^{i gamma /\\ a + eta.a - |a|^2/4},
    v(b) = e^{-i gamma /\\ b + eta.b - |b|^2/4} and the gamma-free kernel
    K(a,b) = e^{(i a /\\ b - a.b)/2} = e^{-z_a conj(z_b)/2}, z = x + ip.
    With M = sum_j w_j f_j conj(f_j) each point costs
    sum_j w_j (u f_j)^T K (v conj(f_j)).
    """
    ctx, points, axis = _four_d_lattice(state, chi, grid, points, n_nodes)
    rho, chi, s = ctx.rho, ctx.chi, FOUR_D_SPACING
    window = gaussian_atom_params(chi)
    if window is None:
        raise ValueError("decomposition check needs a single-Gaussian chi")
    kappa, center = window
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    f_mesh = np.stack(
        [displaced_overlaps(chi, mesh, ps) for ps in rho.pure_states]
    )
    weights = np.asarray(rho.weights)
    eta = points - center
    wedge = symplectic_form(points[:, None, :], mesh[None, :, :])
    gauss = eta @ mesh.T - 0.25 * (mesh**2).sum(-1)
    left = np.exp(1j * wedge + gauss)[:, None, :] * f_mesh
    right = np.exp(-1j * wedge + gauss)[:, None, :] * np.conj(f_mesh)
    # left @ K with K(a, b) = E[x_a, x_b] C[x_a, p_b] E[p_a, p_b] conj(C[p_a, x_b])
    # and the 1-D tables E = e^{-uv/2}, C = e^{iuv/2}: one GEMM over x_a,
    # then a sum over p_a, so no A x A kernel is formed; one (point,
    # component) slice at a time, so the n^3 scratch does not grow with K
    e_tab = np.exp(-0.5 * np.outer(axis, axis))
    c_tab = np.exp(0.5j * np.outer(axis, axis))
    over_x = (e_tab[:, :, None] * c_tab[:, None, :]).reshape(n_nodes, -1)
    over_p = e_tab[:, None, :] * np.conj(c_tab)[:, :, None]
    flat_left = np.swapaxes(left.reshape(-1, n_nodes, n_nodes), 1, 2)
    left_k = np.empty(left.shape, dtype=complex)
    flat_k = left_k.reshape(flat_left.shape)
    for q, slice_q in enumerate(flat_left):
        flat_k[q] = np.einsum(
            "axp,axp->xp", (slice_q @ over_x).reshape((n_nodes,) * 3), over_p
        )
    totals = np.einsum("j,pja,pja->p", weights, left_k, right)
    totals *= kappa * np.exp(-(eta**2).sum(-1)) * s**4 / (2.0 * np.pi) ** 2
    resid = float(np.abs(totals - ctx.w_rho().at(points)).max())
    return _report(
        "wigner-decomp", resid, tol, len(points), ctx.grid, seed,
        {"nodes": n_nodes, "spacing": s},
    )


# ---------------------------------------------------------------------------
# marginals


def check_marginal(state, grid=None, tol=None, seed=0):
    """Momentum marginal of W against the weighted momentum densities."""
    ctx = _context(state, grid=grid)
    grid, rho = ctx.grid, ctx.rho
    if rho.n != 1:
        raise ValueError("marginal check implemented for n=1")
    w_fn = ctx.w_rho()
    p_axis, marg = momentum_marginal(w_fn)
    resid = np.abs(marg - momentum_density(rho, p_axis)).max()
    resid = max(resid, abs(grid.spacing * marg.sum() - rho.trace()))
    return _report("marginal", resid, tol, p_axis.size, grid, seed)


def check_marginal_pointwise(state, tol=None, seed=0):
    """Marginal via direct pointwise Wigner quadrature (non-smooth states).

    The x-quadrature uses midpoint cells aligned to half-integers so
    indicator-type supports are integrated without edge bias.
    """
    rho = _context(state).rho
    if rho.n != 1:
        raise ValueError("marginal check implemented for n=1")
    reach, step = rho.reach(), 0.005
    xs = -reach + step * (np.arange(int(round(2 * reach / step))) + 0.5)
    ps = np.linspace(-10.0, 10.0, 41)
    marg = step * wigner_pointwise(rho, xs, ps).real.sum(axis=0)
    resid = np.abs(marg - momentum_density(rho, ps, n_nodes=32768)).max()
    return _report("marginal-pointwise", resid, tol, ps.size, None, seed)


# ---------------------------------------------------------------------------
# twisted-convolution derivative expansion


def _weighted_g_values(g_fn, form, power):
    mesh = g_fn.grid.points()
    rotated = np.tensordot(mesh, form.T, axes=(-1, 0))
    weight = np.ones(mesh.shape[:-1], dtype=complex)
    for k, pw in enumerate(power):
        if pw:
            weight = weight * (1j * rotated[..., k]) ** pw
    return PhaseSpaceFn(g_fn.grid, weight * g_fn.values, "weighted")


def check_twisted_expansion(state, chi=None, tol=None, seed=0, n_samples=25):
    """d^a of a twisted convolution against its binomial expansion, for
    the orders a = (1, 0), (0, 1), (2, 0), (1, 1) on TWISTED_GRID."""
    ctx = _context(state, chi)
    rho, chi = ctx.rho, ctx.chi
    if rho.n != 1:
        raise ValueError("twisted expansion check implemented for n=1")
    grid = TWISTED_GRID
    orders = [as_index(a) for a in ((1, 0), (0, 1), (2, 0), (1, 1))]
    form = 2.0 * omega_matrix(1)
    f_fn = wigner(as_mixed(chi), grid)
    g_fn = wigner(rho, grid)
    conv = twisted_convolution_grid(f_fn, g_fn, form)
    rng = np.random.default_rng(seed)
    idx = rng.integers(grid.n_points // 4, 3 * grid.n_points // 4, (n_samples, 2))
    pts = -grid.half_extent + grid.spacing * idx
    # the binomial terms (coefficient, d^{a'} f, weighted g) of each order
    expansions = []
    for a in orders:
        terms = []
        for a_sub in box(a):
            extra = sub(a, a_sub)
            terms.append((
                binom(a, a_sub) * 2.0 ** (-order(extra)),
                spectral_derivative(f_fn, a_sub),
                _weighted_g_values(g_fn, form, extra),
            ))
        expansions.append(terms)
    # one call for every term, so each point's phase row is computed once
    convs = iter(_twisted_convolutions(
        [(f, g) for terms in expansions for _, f, g in terms], form, pts
    ))
    resid = 0.0
    for a, terms in zip(orders, expansions):
        lhs = spectral_derivative(conv, a).at(pts)
        rhs = np.zeros(len(pts), dtype=complex)
        for coeff, _, _ in terms:
            rhs += coeff * next(convs)
        resid = max(resid, float(np.abs(lhs - rhs).max()))
    return _report(
        "twisted-expansion", resid, tol, n_samples * len(orders), grid, seed
    )


# ---------------------------------------------------------------------------
# counterexample diagnostics


def heavy_tail_first_seminorms(k_max=6):
    """sup_x |x W(x, 0)| for the heavy-tail family, K = 1..k_max.

    The supremum over p sits at p = 0 for these states, so a 1-D sweep
    suffices and works far outside any fixed grid box.  The sweep keeps
    the points of the step lattice on [-4, K^3 + 4] that lie within 4 of
    a component centre j^3; further out every Gaussian is below e^-16 of
    its peak.  W comes from the closed form `wigner_values`, exact at any K.
    """
    sweep_step = 0.05
    values = []
    for k in range(1, k_max + 1):
        rho = demo_state("heavy_tail", K=k)
        hi = float(k**3) + 4.0
        xs = np.arange(-4.0, hi, sweep_step)
        near = np.zeros(xs.shape, dtype=bool)
        for j in range(1, k + 1):
            near |= np.abs(xs - float(j**3)) <= 4.0

        def values_on(xs):
            pts = np.stack([xs, np.zeros_like(xs)], -1)
            return np.abs(xs * wigner_values(rho, pts))

        values.append(_zoom_max(values_on, [xs[near]], sweep_step, 17, rounds=5))
    return values


def check_heavy_tail_trend(k_max=6, seed=0):
    values = heavy_tail_first_seminorms(k_max)
    diffs = np.diff(values)
    resid = max(0.0, -diffs.min())
    return _report(
        "heavy-tail-trend", resid, 0.0, k_max, None, seed,
        {f"K={k+1}": v for k, v in enumerate(values)},
    )


def plateau_decay_exponent():
    """Fitted polynomial decay exponent of sup_x |W(x, p)| over the
    plateau fit window [PLATEAU_P_LO, PLATEAU_P_HI]."""
    rho = demo_state("plateau")
    ps = np.geomspace(PLATEAU_P_LO, PLATEAU_P_HI, PLATEAU_N_P)
    xs = np.linspace(0.0025, 0.9975, 401)
    sups = np.abs(wigner_pointwise(rho, xs, ps).real).max(axis=0)
    slope = np.polyfit(np.log(ps), np.log(sups), 1)[0]
    return float(-slope)


def check_plateau_decay(seed=0):
    exponent = plateau_decay_exponent()
    resid = max(0.0, 0.5 - exponent, exponent - 2.0)
    return _report(
        "plateau-decay", resid, 0.0, PLATEAU_N_P, None, seed, {"exponent": exponent}
    )


# ---------------------------------------------------------------------------
# suite driver


def worker_count():
    """PHASESPACE_THREADS as a pool size; 0 or unset means one per CPU this
    process may run on (its affinity mask where the platform has one)."""
    env = os.environ.get("PHASESPACE_THREADS", "0")
    try:
        n_workers = int(env)
    except ValueError:
        n_workers = -1
    if n_workers < 0:
        raise ValueError(
            f"PHASESPACE_THREADS must be a nonnegative integer, got {env!r}"
        )
    if n_workers:
        return n_workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def suite_plan(state, demo=None):
    """Names of the checks applicable to this state."""
    rho = as_mixed(state)
    if not rho.is_analytic:
        return ["marginal-pointwise", "plateau-decay"]
    plan = ["duality", "trace", "husimi", "cauchy-schwarz", "marginal"]
    # several checks below run on fixed lattices of about the default box
    if fits_box(rho, DEFAULT_L):
        plan += [
            "overlap",
            "offdiag",
            "reproducing",
            "wigner-from-matel",
            "wigner-decomp",
            "twisted-expansion",
        ]
    if demo == "heavy_tail":
        plan.append("heavy-tail-trend")
    return plan


def run_suite(state, chi=None, config=None, demo=None):
    """Run every applicable check concurrently; never abort on failure.

    One BoundContext on the suggested grid holds W_rho, W_chi and Q_rho
    for every check; it is filled before the pool fans out, so the
    workers only read it.  Results are returned in plan order regardless
    of completion order, so identical inputs yield identical report tables.
    """
    rho = as_mixed(state)
    config = RunConfig() if config is None else config
    grid = suggest_grid(rho, config.grid_n, config.grid_l)
    ctx = BoundContext(rho, chi, grid, band=config.band)
    plan = suite_plan(rho, demo)
    # built per call, so a check rebound on this module (a tracing wrapper) runs
    state_checks = {
        "duality": check_duality,
        "trace": check_trace,
        "husimi": check_husimi,
        "cauchy-schwarz": check_cauchy_schwarz,
        "marginal": check_marginal,
        "marginal-pointwise": check_marginal_pointwise,
        "overlap": check_overlap,
        "reproducing": check_reproducing,
        "wigner-from-matel": check_wigner_from_matel,
        "wigner-decomp": check_wigner_decomp,
        "twisted-expansion": check_twisted_expansion,
    }

    def run_job(name):
        # only the config's overrides: `_report` resolves tol=None to the default
        tol, job_seed = config.tolerances.get(name), check_seed(name, config.seed)
        try:
            if name == "offdiag":
                return check_offdiag(ctx.chi, tol=tol, seed=job_seed)
            if name == "plateau-decay":
                return check_plateau_decay(job_seed)
            if name == "heavy-tail-trend":
                return check_heavy_tail_trend(6, job_seed)
            return state_checks[name](ctx, tol=tol, seed=job_seed)
        except Exception as exc:  # recorded, never aborts the suite
            return VerifyReport(
                name, np.inf, 0.0, 0, 0, 0.0, job_seed, {"error": str(exc)}
            )

    n_workers = config.threads or worker_count()
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        if rho.is_analytic:
            # a failed build runs once; each check that needs it records its error
            pool.submit(ctx.q_rho).exception()
        return list(pool.map(run_job, plan))
