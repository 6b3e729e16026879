"""Representation maps between states and phase-space functions.

All grid transforms evaluate state kernels analytically at the exact
sample points (never by interpolation) and integrate with rectangle
sums, which are spectrally accurate for box-contained smooth states.
On a grid the kernel arguments r -/+ y/2 take about 4N distinct values
per axis, all on the half-spacing lattice, so each component is
evaluated once per distinct argument and the kernel is gathered by index.
Momentum-side output is needed at the grid's own lattice, which is not
the FFT's natural frequency lattice, so partial transforms use
semidiscrete DFT matrices like the grid module does.
"""

import numpy as np

from .grid import (
    _BLOCK_VALUES,
    Grid,
    GridResolutionError,
    PhaseSpaceFn,
    symplectic_fourier,
)
from .states import as_mixed, displaced_overlaps

QUASICHAR_CROSS_TOL = 1e-6
HUSIMI_CROSS_TOL = 1e-6
HUSIMI_NEGATIVITY_FLOOR = -1e-7


def _mesh(axis, n):
    pts = np.meshgrid(*(axis,) * n, indexing="ij")
    return np.stack(pts, axis=-1).reshape(-1, n)


def _kernel_args(r, y, rep):
    """The two kernel arguments r -/+ y/2 (wigner) or y -/+ r/2 (quasichar)."""
    mid, offset = (r, y) if rep == "wigner" else (y, r)
    return mid - 0.5 * offset, mid + 0.5 * offset


def _lattice_index(values, base, step):
    """k with values == base + step * k exactly as floats, else None."""
    k = np.rint((values - base) / step)
    return k if np.array_equal(base + step * k, values) else None


def _lattice_kernel(rho, rows, aux, step, rep):
    """gather(x, y): K at the `_kernel_args` x, y of a block, read by index
    from each component evaluated once on the product mesh of the step
    lattice that spans every such argument; None for a block with an
    argument off that lattice.  Returns None when the rows are off it."""
    # O(len(rows)) test first, so off-lattice rows evaluate no component
    if rows.size == 0 or _lattice_index(rows, rows.min(), step) is None:
        return None
    # rounding is monotone: the extreme rows and nodes give the extreme
    # arguments, so every index of an on-lattice block lies in [0, size)
    ends = np.stack(_kernel_args(
        np.array([rows.min(), rows.max()])[:, None], aux[None, [0, -1]], rep
    ))
    base = ends.min()
    size = int(np.rint((ends.max() - base) / step)) + 1
    # a lattice with more points than arguments would cost more than it saves
    if size > 2 * rows.size * aux.size:
        return None
    mesh = _mesh(base + step * np.arange(size), rho.n)
    comps = [(w, ps.evaluate(mesh)) for w, ps in zip(rho.weights, rho.pure_states) if w]
    strides = float(size) ** np.arange(rho.n - 1, -1, -1)  # flat mesh index

    def gather(x, y):
        kx, ky = _lattice_index(x, base, step), _lattice_index(y, base, step)
        if kx is None or ky is None:
            return None
        at_x, at_y = (kx @ strides).astype(np.intp), (ky @ strides).astype(np.intp)
        kv = np.zeros(at_x.shape, dtype=complex)
        for w, vals in comps:
            kv += w * vals[at_x] * np.conj(vals[at_y])
        return kv

    return gather


def _rep_on_grid(rho, rows, momenta, lattice, rep):
    """Shared Wigner/quasicharacteristic partial transform on a product set.

    For r in rows^n, p in momenta^n and y over the n-fold product of the
    1-D rectangle lattice (spacing h):
    wigner rows r: sum over y of h^n e^{i p.y} K(r - y/2, r + y/2),
    quasichar rows r: sum over u of h^n e^{i p.u} K(u - r/2, u + r/2).
    Blocks whose kernel arguments lie on the step-h/2 lattice sample each
    component once per distinct argument; others sample every point.
    Returns shape (len(rows),) * n + (len(momenta),) * n.
    """
    n = rho.n
    aux = lattice.axis()
    row_pts = _mesh(rows, n)
    nodes = _mesh(aux, n)
    kernel_mat = lattice.spacing * np.exp(1j * np.outer(momenta, aux))
    out = np.empty((row_pts.shape[0],) + (momenta.size,) * n, dtype=complex)
    gather = _lattice_kernel(rho, rows, aux, 0.5 * lattice.spacing, rep)
    # about _BLOCK_VALUES kernel values per block of rows, so the kernel and
    # its temporaries stay a few MB; at least 2 rows per block, since a
    # one-row product is a GEMV, not a GEMM row, and rounds differently
    chunk = max(2, _BLOCK_VALUES // nodes.shape[0])
    n_rows = row_pts.shape[0]
    for block in np.array_split(np.arange(n_rows), max(1, n_rows // chunk)):
        x, y = _kernel_args(row_pts[block, None, :], nodes[None, :, :], rep)
        kv = None if gather is None else gather(x, y)
        if kv is None:
            kv = rho.kernel(x, y)
        kv = kv.reshape((block.size,) + (aux.size,) * n)
        for _ in range(n):
            # transform the leading node axis against the momenta
            kv = np.tensordot(kv, kernel_mat, axes=(1, 1))
        out[block] = kv
    return out.reshape((rows.size,) * n + (momenta.size,) * n)


def _rep_on_phase_grid(rho, grid, rep):
    """`_rep_on_grid` at every point of a phase-space grid of dim 2n, with
    the integration lattice of 2N nodes at the grid spacing on [-2L, 2L)."""
    if grid.kind != "phase" or grid.dim != 2 * rho.n:
        raise ValueError("grid must be phase-space with dim 2n")
    lattice = Grid(1, 2 * grid.n_points, 2.0 * grid.half_extent, kind="config")
    return _rep_on_grid(rho, grid.axis(), grid.axis(), lattice, rep)


def wigner(state, grid, reality_tol=1e-10):
    """Wigner function (2pi)^{-n} int e^{i a_p.y} K(a_x - y/2, a_x + y/2) dy."""
    rho = as_mixed(state)
    vals = _rep_on_phase_grid(rho, grid, "wigner") / (2.0 * np.pi) ** rho.n
    tol = reality_tol if rho.is_analytic else max(reality_tol, 0.05)
    resid = np.abs(vals.imag).max()
    if resid > tol * max(1.0, np.abs(vals.real).max()):
        raise GridResolutionError(
            f"Wigner imaginary residue {resid:.2e} exceeds tolerance"
        )
    return PhaseSpaceFn(grid, vals.real.copy(), "wigner")


def quasichar(state, grid, cross_check=True):
    """tr[rho D_xi] on the grid, cross-checked against the dual route."""
    rho = as_mixed(state)
    vals = _rep_on_phase_grid(rho, grid, "quasichar")
    fn = PhaseSpaceFn(grid, vals, "quasichar")
    if cross_check:
        dual = symplectic_fourier(wigner(state, grid), "inverse")
        mask = grid.interior_mask()
        resid = np.abs(vals - dual.values)[mask].max()
        if resid > QUASICHAR_CROSS_TOL:
            raise GridResolutionError(
                f"quasicharacteristic dual-route residual {resid:.2e} > "
                f"{QUASICHAR_CROSS_TOL:.0e}; use a finer grid or contain the state"
            )
    return fn


def _reflect(values):
    """values(alpha) -> values(-alpha) on the [-L, L) lattice."""
    out = values
    for ax in range(values.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def _interior_samples(grid):
    """Nine well-interior lattice points: origin plus a ring of eight."""
    radius = min(2.0, 0.25 * grid.half_extent)
    angles = 2.0 * np.pi * np.arange(8) / 8
    ring = radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    pts = np.vstack([np.zeros((1, 2)), ring])
    n = grid.dim // 2
    full = np.zeros((pts.shape[0], grid.dim))
    full[:, 0] = pts[:, 0]
    full[:, n] = pts[:, 1]
    idx = np.rint((full + grid.half_extent) / grid.spacing)
    return -grid.half_extent + grid.spacing * idx


def _husimi_from_wigner(w_rho, w_chi):
    """Q = (2pi)^n (W_rho * W_chi^-) from two Wigner functions on one grid."""
    grid = w_rho.grid
    h = grid.spacing
    conv = np.fft.fftn(np.fft.ifftshift(w_rho.values)) * np.fft.fftn(
        np.fft.ifftshift(_reflect(w_chi.values))
    )
    conv = np.fft.fftshift(np.fft.ifftn(conv)) * h**grid.dim
    vals = (2.0 * np.pi) ** (grid.dim // 2) * conv.real
    low = vals.min()
    # relative to max Q, as `wigner`'s reality check; absolute when max Q <= 1
    if low < HUSIMI_NEGATIVITY_FLOOR * max(1.0, vals.max()):
        raise GridResolutionError(
            f"Husimi negativity {low:.2e} signals truncation error"
        )
    return PhaseSpaceFn(grid, vals, "husimi")


def husimi(state, chi, grid):
    """Q(alpha) = <chi_alpha| rho |chi_alpha> via (2pi)^n (W_rho * W_chi^-),
    cross-checked against direct matrix elements at a few interior points."""
    rho = as_mixed(state)
    if not chi.is_analytic:
        raise ValueError("reference chi must be an analytic state")
    fn = _husimi_from_wigner(wigner(rho, grid), wigner(as_mixed(chi), grid))
    resid = _husimi_residual(fn, rho, chi, _interior_samples(grid))
    if resid > HUSIMI_CROSS_TOL:
        raise GridResolutionError(
            f"Husimi convolution vs direct residual {resid:.2e}"
        )
    return fn


def _husimi_residual(fn, rho, chi, points):
    """Worst |Q on the grid - <chi_alpha| rho |chi_alpha>| at lattice points."""
    return np.abs(fn.at(points) - matel(rho, chi, points, points).real).max()


def _displaced_overlaps_quadrature(chi, alphas, psi):
    """<D_alpha chi | psi> by quadrature; n=1 pointwise fallback."""
    if chi.n != 1 or psi.n != 1:
        raise ValueError("quadrature matrix elements implemented for n=1")
    half = max(chi.reach() + float(np.abs(alphas).max(initial=0.0)), psi.reach())
    lattice = Grid(1, 8192, half, kind="config")
    ys, step = lattice.axis(), lattice.spacing
    psi_vals = psi.evaluate(ys[:, None])
    alphas = np.asarray(alphas, dtype=float)
    flat = alphas.reshape(-1, 2)
    out = np.empty(flat.shape[0], dtype=complex)
    chunk = max(1, _BLOCK_VALUES // ys.size)
    for start in range(0, flat.shape[0], chunk):
        a = flat[start : start + chunk]
        shifted = ys[None, :] - a[:, :1]
        chi_vals = chi.evaluate(shifted[..., None])
        disp = np.exp(1j * (ys[None, :] - 0.5 * a[:, :1]) * a[:, 1:2]) * chi_vals
        out[start : start + chunk] = step * (np.conj(disp) * psi_vals[None, :]).sum(1)
    return out.reshape(alphas.shape[:-1])


def _component_overlaps(rho, chi, points):
    """<chi_alpha | psi_j> at the points, one array per component of nonzero
    weight, computed lazily in component order; a non-analytic psi_j is
    integrated by quadrature."""
    if not chi.is_analytic:
        raise ValueError("reference chi must be an analytic state")
    points = np.asarray(points, dtype=float)
    return (
        displaced_overlaps(chi, points, ps)
        if ps.is_analytic
        else _displaced_overlaps_quadrature(chi, points, ps)
        for w, ps in zip(rho.weights, rho.pure_states)
        if w != 0.0
    )


def _matel_sum(rho, fas, fbs, shape):
    """sum_j w_j fa_j conj(fb_j) over the components of nonzero weight, from
    their `_component_overlaps` fas at alpha and fbs at beta."""
    out = np.zeros(shape, dtype=complex)
    for w, fa, fb in zip((w for w in rho.weights if w != 0.0), fas, fbs):
        out = out + w * fa * np.conj(fb)
    return out if out.ndim else complex(out)


def matel(state, chi, alphas, betas):
    """M(alpha, beta) = <chi_alpha| rho |chi_beta>, batched and broadcast."""
    rho = as_mixed(state)
    fas = _component_overlaps(rho, chi, alphas)
    fbs = _component_overlaps(rho, chi, betas)
    shape = np.broadcast_shapes(np.shape(alphas)[:-1], np.shape(betas)[:-1])
    return _matel_sum(rho, fas, fbs, shape)


class MatelSampler:
    """Lazy M(alpha, beta) evaluation with a per-point overlap cache."""

    def __init__(self, state, chi):
        self.rho = as_mixed(state)
        self.chi = chi
        self._cache = {}

    def _overlaps(self, point):
        key = tuple(float(v) for v in point)
        got = self._cache.get(key)
        if got is None:
            got = list(_component_overlaps(self.rho, self.chi, key))
            self._cache[key] = got
        return got

    def __call__(self, alpha, beta):
        return _matel_sum(self.rho, self._overlaps(alpha), self._overlaps(beta), ())


def wigner_pointwise(state, xs, ps, n_nodes=4096, y_half=None):
    """Wigner function on the product set xs x ps by direct quadrature (n=1).

    The grid `wigner` transform with rows xs, momenta ps and an n_nodes
    rectangle lattice on [-y_half, y_half), so the kernel is evaluated once
    per x; returns shape (len(xs), len(ps)).
    """
    rho = as_mixed(state)
    if rho.n != 1:
        raise ValueError("pointwise Wigner implemented for n=1")
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    for name, axis in (("xs", xs), ("ps", ps)):
        if axis.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {axis.shape}")
    if y_half is None:
        y_half = 2.0 * rho.reach() + 2.0
    lattice = Grid(1, n_nodes, y_half, kind="config")
    return _rep_on_grid(rho, xs, ps, lattice, "wigner") / (2.0 * np.pi)


def gaussian_atom_params(chi):
    """(weight, center) when chi is a single m=0 atom, else None.

    For chi = c D_g phi_0 the Wigner function of |chi><chi| is
    weight * exp(-|u - center|^2) with weight = |c|^2 pi^{-n}, center = g.
    """
    if not getattr(chi, "is_analytic", False) or len(chi.atoms) != 1:
        return None
    atom = chi.atoms[0]
    if any(atom.m):
        return None
    weight = abs(atom.coeff) ** 2 / np.pi ** len(atom.m)
    return weight, np.asarray(atom.alpha, dtype=float)


def offdiag_wigner(chi, alpha, beta, gammas):
    """Wigner transform of |chi_alpha><chi_beta| at points gammas.

    Closed form by the parity-displacement identity, as in `wigner_values`:
    pi^{-n} <chi_beta | D_{2 gamma} Pi | chi_alpha>.
    """
    gammas = np.asarray(gammas, dtype=float)
    return displaced_overlaps(
        chi.displaced(beta), -2.0 * gammas, chi.displaced(alpha).parity()
    ) / np.pi**chi.n


def _twisted_form(f, g, form):
    """Validated form of a twisted convolution of f and g."""
    gd = g.grid
    if f.grid != gd:
        raise ValueError("f and g must share a grid")
    form = np.asarray(form, dtype=float)
    if form.shape != (gd.dim, gd.dim) or np.abs(form + form.T).max() > 1e-12:
        raise ValueError("form must be an antisymmetric dim x dim matrix")
    return form


def twisted_convolution(f, g, form, alphas):
    """(f (x)_form g)(alpha) = int e^{i alpha.form.beta/2} f(alpha-beta) g(beta).

    alpha must lie on the lattice; f(alpha - beta) is read from the shifted
    samples of f, with zero padding outside the box.
    """
    return _twisted_convolutions([(f, g)], form, alphas)[0]


def _twisted_convolutions(pairs, form, alphas):
    """`twisted_convolution` of each (f, g) pair, all on one grid, at the
    same alphas: each alpha's phase row and shift indices are computed
    once for every pair."""
    gd = pairs[0][1].grid
    for f, g in pairs:
        if g.grid != gd:
            raise ValueError("twisted convolution pairs must share a grid")
        _twisted_form(f, g, form)
    form = np.asarray(form, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    flat = alphas.reshape(-1, gd.dim)
    beta = gd.points().reshape(-1, gd.dim)
    phase_arg = beta @ form.T  # row b -> form.b evaluated at mesh points
    pairs[0][0].at(flat)  # raises naming the first alpha off the lattice
    n_pts = gd.n_points
    pads = [np.pad(np.asarray(f.values, dtype=complex), n_pts // 2) for f, _ in pairs]
    gvals = [np.asarray(g.values).reshape(-1) for _, g in pairs]
    beta_idx = np.rint((beta + gd.half_extent) / gd.spacing).astype(int)
    out = np.empty((len(pairs), flat.shape[0]), dtype=complex)
    for i, a in enumerate(flat):
        phases = np.exp(0.5j * phase_arg @ a)
        ai = np.rint((a + gd.half_extent) / gd.spacing).astype(int)
        shift = ai[None, :] - beta_idx + n_pts
        at = tuple(shift[:, k] for k in range(gd.dim))
        for j, (pad, gv) in enumerate(zip(pads, gvals)):
            out[j, i] = (phases * pad[at] * gv).sum()
    return [(gd.spacing**gd.dim) * row.reshape(alphas.shape[:-1]) for row in out]


def twisted_convolution_grid(f, g, form):
    """Twisted convolution sampled at every lattice point (dim 2 only).

    With form = [[0, w], [-w, 0]] the phase splits as
    e^{i w alpha_x beta_p / 2} e^{-i w alpha_p beta_x / 2}, so for each
    pair of x rows (alpha_x, beta_x) the sum over beta_p is a linear
    convolution along p.  Each is done by FFT, zero-padded to 2N, which
    gives the same zero-outside-the-box sum as `twisted_convolution`.
    """
    gd = g.grid
    if gd.dim != 2:
        raise ValueError(
            f"twisted_convolution_grid implemented for dim 2, got dim {gd.dim}"
        )
    form = _twisted_form(f, g, form)
    half_w = 0.5 * form[0, 1]
    n_pts = gd.n_points
    axis = gd.axis()
    f_hat = np.fft.fft(f.values, 2 * n_pts, axis=1)
    # x_phase[i, k] = e^{i w axis_i axis_k / 2}; its conjugate carries the
    # alpha_p beta_x half of the phase
    x_phase = np.exp(1j * half_w * np.outer(axis, axis))
    beta_rows = np.arange(n_pts)
    out = np.empty((n_pts, n_pts), dtype=complex)
    for i in range(n_pts):
        # the f row at alpha_x - beta_x for each beta_x row; zero outside the box
        f_rows = i - beta_rows + n_pts // 2
        inside = (f_rows >= 0) & (f_rows < n_pts)
        g_hat = np.fft.fft(
            g.values[inside] * x_phase[i], 2 * n_pts, axis=1
        )
        conv = np.fft.ifft(f_hat[f_rows[inside]] * g_hat, axis=1)
        conv = conv[:, n_pts // 2 : n_pts // 2 + n_pts]
        out[i] = (np.conj(x_phase[beta_rows[inside]]) * conv).sum(0)
    return PhaseSpaceFn(gd, gd.spacing**2 * out, "twisted-conv")


def momentum_marginal(fn):
    """h^n sum over position axes; returns (p lattice, marginal values)."""
    n = fn.grid.dim // 2
    marg = fn.grid.spacing**n * np.asarray(fn.values).real.sum(
        axis=tuple(range(n))
    )
    return fn.grid.axis(), marg


def momentum_density(state, p_points, n_nodes=4096):
    """sum_j w_j |psi_j_hat(p)|^2, each by quadrature of the unitary Fourier
    transform on a lattice spanning that component (n=1); p_points of any
    shape, returned in that shape."""
    rho = as_mixed(state)
    if rho.n != 1:
        raise ValueError("momentum density implemented for n=1")
    p_points = np.asarray(p_points, dtype=float)
    flat = p_points.ravel()
    dens = np.zeros(flat.shape)
    # at least 2 p points per block: a one-row product is a dot, not a GEMV
    # row, and rounds differently; floor division keeps every block >= chunk
    chunk = max(2, _BLOCK_VALUES // n_nodes)
    blocks = np.array_split(flat, max(1, flat.size // chunk))
    for w, psi in zip(rho.weights, rho.pure_states):
        lattice = Grid(1, n_nodes, psi.reach(), kind="config")
        xs, step = lattice.axis(), lattice.spacing
        vals = psi.evaluate(xs[:, None])
        hat = np.concatenate([
            step / np.sqrt(2.0 * np.pi) * np.exp(-1j * np.outer(block, xs)) @ vals
            for block in blocks
        ])
        dens += w * (hat * np.conj(hat)).real
    return dens.reshape(p_points.shape)
