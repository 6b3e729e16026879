"""Sup-norm families: phase-space decay seminorms, summed norms,
jointly-Schwartz family seminorms, and sandwich operator seminorms.

Grid suprema are sharpened past lattice resolution with the trigonometric
interpolant of the sampled array (exact for band-limited data, spectrally
accurate for box-contained smooth functions), zooming a small window
around the lattice argmax.  Analytic-state suprema zoom on the closed
form directly, all through one lattice-then-window search (`_zoom_max`).
"""

from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_BAND,
    Grid,
    GridResolutionError,
    derivative_coefficients,
    suggest_grid,
)
from .multiindex import as_index, box, order
from .states import as_mixed, evaluate_components

OPERATOR_ORDER_CAP = 8
ZOOM_ROUNDS = 6
ZOOM_POINTS = 5
ZOOM_SHRINK = 3.0
# the grid zoom holds up to four (ZOOM_POINTS, N) complex rows per entry (its
# gathered x and y rows and the distinct basis and GEMM rows they come
# from); it zooms entries in blocks of at most _ZOOM_BLOCK_BYTES of them
_ZOOM_BLOCK_BYTES = 32 * 2**20
_ZOOM_ENTRY_ROWS = 4
# kernel_seminorm's lattice has _KERNEL_LATTICE_POINTS points per axis and
# is read in blocks of _KERNEL_ROW_BLOCK rows; each row's Cauchy-Schwarz
# bound is inflated by the relative margin, which covers the rounding of a
# K-term complex dot product and of the two norms for K up to a few
# thousand components, plus the floor, far above the absolute rounding of
# subnormal products
_KERNEL_LATTICE_POINTS = 1024
_KERNEL_ROW_BLOCK = 64
_KERNEL_BOUND_MARGIN = 1e-12
_KERNEL_BOUND_FLOOR = 1e-300


def _index_for(a, dim):
    idx = as_index(a)
    if len(idx) != dim:
        raise ValueError(f"index length {len(idx)} != expected {dim}")
    return idx


def _quoted_indices(indices):
    """CSV cells of a tuple of multi-indices, each quoted, entries space-separated."""
    return ",".join('"' + " ".join(str(v) for v in part) + '"' for part in indices)


@dataclass(frozen=True)
class SeminormReport:
    family: str
    indices: tuple
    value: float
    n_points: int
    half_extent: float
    band: float

    def row(self):
        """CSV record: family,a,b,value,N,L,band."""
        return (
            f"{self.family},{_quoted_indices(self.indices)},{self.value:.17g},"
            f"{self.n_points},{self.half_extent:.17g},{self.band:.17g}"
        )


def _zoom_sups(coeffs, grid, decays, starts, lo, hi):
    """Zoom |z^a interp(z)| around each lattice argmax; returns the zoomed sups.

    coeffs = fftn(values) of one 2-D sampled function, shared by every
    entry; the interpolant at z is N^-2 sum_k coeffs[k] exp(i w_k . (z + L)).
    All E entries zoom in lockstep.  Entries often share window coordinates
    (a separable function's entries all sit on a few x and y values), so
    each round builds one basis row per distinct coordinate value, runs the
    (rows x N)(N x N) GEMM along the first axis on the distinct x values
    only, gathers the rows back per entry, contracts them against the
    gathered y rows in one batch, and takes a vectorised argmax, strict
    accept test and window update.
    """
    n_pts = grid.n_points
    axis = grid.axis()
    # fftfreq holds f_{N-k} = -f_k exactly, and exp(-i t) is the exact
    # conjugate of exp(i t): only the lower half of the basis calls exp
    top = n_pts // 2
    freqs = 2.0 * np.pi * np.fft.fftfreq(n_pts, grid.spacing)[: top + 1]

    def basis(values):
        lower = np.exp(1j * ((values + grid.half_extent)[:, None] * freqs)) / n_pts
        return np.concatenate([lower, np.conj(lower[:, top - 1 : 0 : -1])], -1)

    powers = np.array(decays, dtype=float)[:, :, None]
    best = np.array([value for value, _ in starts], dtype=float)
    centers = np.array([point for _, point in starts], dtype=float)
    rows = np.arange(len(best))
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    half = grid.spacing
    for _ in range(ZOOM_ROUNDS):
        pts = np.clip(centers[:, :, None] + half * offsets, axis[lo], axis[hi - 1])
        # the basis reads only v + L, so +0 and -0 may share a row
        xs, x_of = np.unique(pts[:, 0].ravel(), return_inverse=True)
        ys, y_of = np.unique(pts[:, 1].ravel(), return_inverse=True)
        along_x = (basis(xs) @ coeffs)[x_of.reshape(-1, ZOOM_POINTS)]
        along_y = basis(ys)[y_of.reshape(-1, ZOOM_POINTS)]
        vals = np.abs(np.einsum("eik,ejk->eij", along_x, along_y))
        weight = np.abs(pts) ** powers
        vals = vals * (weight[:, 0, :, None] * weight[:, 1, None, :])
        flat = vals.reshape(len(best), -1).argmax(axis=1)
        i, j = np.divmod(flat, ZOOM_POINTS)
        peak = vals[rows, i, j]
        better = peak > best
        best = np.where(better, peak, best)
        centers[better] = np.stack([pts[rows, 0, i], pts[rows, 1, j]], -1)[better]
        half /= ZOOM_SHRINK
    return best


def _lattice_peak(values_on, axes):
    """Max of values_on on the product set of axes and its point; ties go
    to the first index in C order, as np.argmax."""
    vals = values_on(*axes)
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[idx]), [float(axis[i]) for axis, i in zip(axes, idx)]


def _zoom_windows(values_on, best, centers, width, n_local, rounds=ZOOM_ROUNDS):
    """Refine a lattice peak (best at centers) on `rounds` windows of n_local
    points per axis, +-width about the best point so far and kept only if
    strictly greater; width shrinks by ZOOM_SHRINK after every window."""
    for _ in range(rounds):
        value, point = _lattice_peak(
            values_on, [np.linspace(c - width, c + width, n_local) for c in centers]
        )
        if value > best:
            best, centers = value, point
        width /= ZOOM_SHRINK
    return best


def _zoom_max(values_on, lattice, width, n_local, rounds=ZOOM_ROUNDS):
    """Max of values_on (one 1-D array per axis -> values on their product
    set) on the lattice axes, then on the `_zoom_windows` about its peak."""
    best, centers = _lattice_peak(values_on, lattice)
    return _zoom_windows(values_on, best, centers, width, n_local, rounds)


def _lattice_sups(abs_vals, grid, decays, lo, hi):
    """[(sup, point)] of |z^a| |F| on the band lattice for each a in decays,
    abs_vals = |F| on the band; point is the lattice argmax on 2-D grids
    (ties to the first index in C order, as np.argmax) and None otherwise.

    The weight prod_k |z_k|^{a_k} is applied in axis order, and rounding is
    monotone, so the max over axis 0 commutes with the later factors: the
    separable max-product pass of Felzenszwalb and Huttenlocher (2012).
    Each distinct prefix (a_0..a_k) weighs the reduction of (a_0..a_k-1)
    along axis k and takes the max over that axis, once.  On 2-D grids the point
    comes from a rescan of the columns j whose weighted column max equals
    the sup: the smallest row whose weighted value equals it, then the
    smallest such j.  Whole columns are rescanned, since rounding is
    nondecreasing but not strictly increasing.
    """
    axis = grid.axis()[lo:hi]
    powers = {p: np.abs(axis) ** p for a in decays for p in a if p}
    sups = {}

    def sweep(vals, group, above):
        # vals is the max over axes 0..k-1 of `above`, the weighted array one
        # level up; each distinct a_k weighs axis k and reduces it
        k = grid.dim - vals.ndim
        by_power = {}
        for a in group:
            by_power.setdefault(a[k], []).append(a)
        for power, same in by_power.items():
            weighted = vals
            if power:
                shape = (-1,) + (1,) * (vals.ndim - 1)
                weighted = vals * powers[power].reshape(shape)
            if weighted.ndim > 1:
                sweep(weighted.max(axis=0), same, weighted)
                continue
            value, point = weighted.max(), None
            if grid.dim == 2:
                cols = np.flatnonzero(weighted == value)
                rescan = above[:, cols]
                if power:
                    rescan = rescan * powers[power][cols]
                i, j = np.unravel_index(int(np.argmax(rescan)), rescan.shape)
                point = (axis[i], axis[cols[j]])
            sups[same[0]] = (float(value), point)

    sweep(abs_vals, decays, None)
    return [sups[a] for a in decays]


def _seminorm_entries(fn, pairs, band=DEFAULT_BAND):
    """{(a, b): |F|_{a,b}} for each (a, b) in pairs, sup over the interior band.

    F is transformed once; each distinct b costs one inverse transform and
    one axis-by-axis lattice pass (`_lattice_sups`) for all its entries,
    which on 2-D grids then zoom on the derivative coefficients in blocks
    of entries of bounded size.
    """
    grid = fn.grid
    lo, hi = grid.interior_range(band)
    decays_by_b = {}
    for a, b in pairs:
        decays_by_b.setdefault(_index_for(b, grid.dim), []).append(
            _index_for(a, grid.dim)
        )
    hat = np.fft.fftn(fn.values)
    table = {}
    for b, decays in decays_by_b.items():
        coeffs = derivative_coefficients(hat, grid, b)
        deriv = np.fft.ifftn(coeffs) if any(b) else fn.values
        abs_vals = np.abs(deriv[(slice(lo, hi),) * grid.dim])
        starts = _lattice_sups(abs_vals, grid, decays, lo, hi)
        if grid.dim == 2:
            row_bytes = ZOOM_POINTS * grid.n_points * 16
            chunk = max(1, _ZOOM_BLOCK_BYTES // (_ZOOM_ENTRY_ROWS * row_bytes))
            values = np.concatenate([
                _zoom_sups(
                    coeffs, grid, decays[s : s + chunk], starts[s : s + chunk], lo, hi
                )
                for s in range(0, len(decays), chunk)
            ])
        else:
            values = [value for value, _ in starts]
        for a, value in zip(decays, values):
            table[(a, b)] = float(value)
    return table


def seminorm(fn, a, b, band=DEFAULT_BAND):
    """sup over the interior band of |alpha^a (d^b F)(alpha)|."""
    return _seminorm_entries(fn, [(a, b)], band)[(as_index(a), as_index(b))]


def norm_sum(fn, a, b, band=DEFAULT_BAND):
    """Sum of seminorms over the downward-closed box a' <= a, b' <= b."""
    return sum(seminorm_table(fn, a, b, band).values())


def seminorm_table(fn, a_max, b_max, band=DEFAULT_BAND):
    """All |F|_{a',b'} for a' <= a_max, b' <= b_max as a dict."""
    a_max = _index_for(a_max, fn.grid.dim)
    b_max = _index_for(b_max, fn.grid.dim)
    pairs = [(a, b) for b in box(b_max) for a in box(a_max)]
    return _seminorm_entries(fn, pairs, band)


def decay_norm_from_table(table, a):
    """||F||_a = sum_{a' <= a} |F|_{a',0} read off a seminorm table."""
    zero = (0,) * len(a)
    return float(sum(table[(a_sub, zero)] for a_sub in box(a)))


def norm_sum_from_table(table, a, b):
    return float(
        sum(table[(a_sub, b_sub)] for a_sub in box(a) for b_sub in box(b))
    )


# ---------------------------------------------------------------------------
# jointly-Schwartz family seminorm (configuration space, n = 1)


def joint_seminorm(states, a, b):
    """sqrt of sup_x sum_i |x^a (d^b psi_i)(x)|^2 for a finite family."""
    states = list(states)
    if not states:
        return 0.0
    if any(not ps.is_analytic for ps in states):
        raise ValueError("jointly-Schwartz seminorm needs analytic states")
    n = states[0].n
    if any(ps.n != n for ps in states):
        raise ValueError("all states must share the number of axes")
    if n != 1:
        raise ValueError("joint seminorm implemented for n=1")
    a = _index_for(a, n)
    b = _index_for(b, n)
    weighted = [ps.weighted_derivative(a, b) for ps in states]

    def sq_sum(xs):
        return sum(np.abs(evaluate_components(weighted, xs[:, None])) ** 2)

    half = max(ps.reach() for ps in states) + order(a) + order(b)
    xs = np.linspace(-half, half, 4096)
    return float(np.sqrt(_zoom_max(sq_sum, [xs], xs[1] - xs[0], 33)))


def scaled_components(state):
    """The sqrt-weighted pure components of a mixture, as a list."""
    rho = as_mixed(state)
    return [
        ps.scaled(np.sqrt(w)) for w, ps in zip(rho.weights, rho.pure_states)
    ]


def kernel_seminorm(state, a, b, c, d):
    """sup_{x,y} |x^a y^c (d_x^b d_y^d K)(x,y)| for an analytic mixture.

    The lattice is linspace(-half, half, 1024) with half = reach + |a| +
    |b| + |c| + |d|, so the entries of an envelope share their component
    rows: both sides read the rows `_kernel_rows` keeps per weighted
    derivative and half.  Each zoom window evaluates all components of a
    side in one `evaluate_components` call.
    """
    rho = as_mixed(state)
    if rho.n != 1:
        raise ValueError("kernel seminorm implemented for n=1")
    if not rho.is_analytic:
        raise ValueError("kernel seminorm needs analytic states")
    a = _index_for(a, 1)
    b = _index_for(b, 1)
    c = _index_for(c, 1)
    d = _index_for(d, 1)
    half = rho.reach() + order(a) + order(b) + order(c) + order(d)
    lam = np.asarray(rho.weights)[:, None]
    left = [ps.weighted_derivative(a, b) for ps in rho.pure_states]
    right = [ps.weighted_derivative(c, d) for ps in rho.pure_states]

    def values_on(xs, ys):
        rows_f = lam * evaluate_components(left, xs[:, None])
        return np.abs(rows_f.T @ np.conj(evaluate_components(right, ys[:, None])))

    xs = np.linspace(-half, half, _KERNEL_LATTICE_POINTS)
    best, centers = _kernel_lattice_peak(
        lam * _kernel_rows(left, half),
        np.conj(_kernel_rows(right, half)),
        xs,
        (a, b, c, d),
    )
    return _zoom_windows(values_on, best, centers, xs[1] - xs[0], 17)


def _kernel_rows(weighted, half):
    """(K, 1024) values of the weighted components on linspace(-half, half,
    1024), evaluated together on the first call for each half and kept in
    each component's `kernel_rows`, so an 81-entry envelope evaluates its
    45 distinct (index pair, half) rows once; the rows are raw, and each
    call scales or conjugates its own copy."""
    if any(half not in g.kernel_rows for g in weighted):
        xs = np.linspace(-half, half, _KERNEL_LATTICE_POINTS)
        for g, row in zip(weighted, evaluate_components(weighted, xs[:, None])):
            g.kernel_rows[half] = row
    return np.stack([g.kernel_rows[half] for g in weighted])


def _kernel_lattice_peak(rows_f, cols_g, xs, indices):
    """Max of |rows_f.T @ cols_g| on the lattice xs x xs and its point, read
    in blocks of _KERNEL_ROW_BLOCK rows pruned by Cauchy-Schwarz.

    |sum_j F_j(x) G_j(y)| <= |F(x)| max_y |G(y)|, inflated by
    _KERNEL_BOUND_MARGIN and _KERNEL_BOUND_FLOOR for rounding, bounds every
    entry of row x.  Rows are read in descending bound order (a stable sort:
    equal bounds keep the smaller row first) until the next block's first
    bound is below the best value read; every unread row is then strictly
    below the maximum.  The argmax over the rows read, in ascending row
    order, is np.argmax of the dense product: smallest row, then smallest
    column, value bit for bit.  A non-finite bound raises, naming indices.
    """
    # hypot keeps the norms of tiny values from underflowing, as squares would
    bound = np.hypot.reduce(np.abs(rows_f), axis=0) * (
        np.hypot.reduce(np.abs(cols_g), axis=0).max() * (1.0 + _KERNEL_BOUND_MARGIN)
    ) + _KERNEL_BOUND_FLOOR
    if not np.isfinite(bound).all():
        a, b, c, d = indices
        raise ValueError(
            f"kernel seminorm a={a} b={b} c={c} d={d}: component values are not finite"
        )
    by_bound = np.argsort(-bound, kind="stable")
    best, read, blocks = -np.inf, [], []
    for start in range(0, by_bound.size, _KERNEL_ROW_BLOCK):
        rows = by_bound[start : start + _KERNEL_ROW_BLOCK]
        if bound[rows[0]] < best:
            break
        blocks.append(np.abs(rows_f[:, rows].T @ cols_g))
        read.append(rows)
        best = max(best, blocks[-1].max())
    rows = np.concatenate(read)
    ascending = np.argsort(rows)
    vals = np.concatenate(blocks)[ascending]
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[i, j]), [float(xs[rows[ascending[i]]]), float(xs[j])]


# ---------------------------------------------------------------------------
# Schwartz-operator sandwich seminorm


def _sandwich_singular_value(rho, a, b, c, d, grid):
    """Top singular value of h X^a P^b K P^c X^d on the grid lattice.

    With K = sum_j w_j psi_j psi_j^H and P Hermitian on the lattice, the
    sandwich is h U diag(w) V^H, where U has columns x^a P^b psi_j and V
    has columns x^d P^c psi_j.  It shares its singular values with the
    K x K matrix h R_U diag(w) R_V^H of the two thin QR factors.
    """
    xs = grid.axis()
    vals = np.stack([ps.evaluate(xs[:, None]) for ps in rho.pure_states])
    hat = np.fft.fft(vals)

    def side(x_index, p_index):
        cols = vals
        if any(p_index):
            # P^b = (-i d)^b: the derivative multiplier times (-i)^|b|
            coeffs = derivative_coefficients(hat, grid, p_index)
            cols = (-1j) ** order(p_index) * np.fft.ifft(coeffs)
        return np.linalg.qr((xs ** order(x_index) * cols).T, mode="r")

    weights = np.asarray(rho.weights)
    core = grid.spacing * (side(a, b) * weights) @ np.conj(side(d, c)).T
    return float(np.linalg.svd(core, compute_uv=False)[0])


def operator_seminorm(state, a, b, c, d, grid=None):
    """Largest singular value of X^a P^b rho P^c X^d on a line lattice,
    checked against the lattice with N doubled.  The default lattice spans
    the `suggest_grid` box with twice its points."""
    rho = as_mixed(state)
    if rho.n != 1:
        raise ValueError("operator seminorm implemented for n=1")
    a = _index_for(a, 1)
    b = _index_for(b, 1)
    c = _index_for(c, 1)
    d = _index_for(d, 1)
    if order(b) + order(c) > OPERATOR_ORDER_CAP:
        raise ValueError(
            f"momentum order {order(b) + order(c)} exceeds cap {OPERATOR_ORDER_CAP}"
        )
    if grid is None:
        box = suggest_grid(rho)
        grid = Grid(1, 2 * box.n_points, box.half_extent, kind="config")
    if grid.kind != "config" or grid.dim != 1:
        raise ValueError("operator seminorm needs a 1-D config grid")
    value = _sandwich_singular_value(rho, a, b, c, d, grid)
    fine = Grid(1, 2 * grid.n_points, grid.half_extent, kind="config")
    doubled = _sandwich_singular_value(rho, a, b, c, d, fine)
    scale = max(abs(doubled), 1e-12)
    if abs(doubled - value) > 0.01 * scale:
        raise GridResolutionError(
            f"operator seminorm moved {abs(doubled - value):.2e} "
            f"under N doubling; grid too coarse"
        )
    return doubled
