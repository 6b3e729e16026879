"""Sup-norm families: phase-space decay seminorms, summed norms,
jointly-Schwartz family seminorms, and sandwich operator seminorms.

Grid suprema are sharpened past lattice resolution with the trigonometric
interpolant of the sampled array (exact for band-limited data, spectrally
accurate for box-contained smooth functions), zooming a small window
around the lattice argmax.  Analytic-state suprema zoom on the closed
form directly.
"""

from dataclasses import dataclass

import numpy as np

from .grid import DEFAULT_BAND, Grid, GridResolutionError, derivative_coefficients
from .multiindex import as_index, box, monomial, order
from .states import as_mixed

OPERATOR_ORDER_CAP = 8
ZOOM_ROUNDS = 6
ZOOM_POINTS = 5
ZOOM_SHRINK = 3.0


def _index_for(a, dim):
    idx = as_index(a)
    if len(idx) != dim:
        raise ValueError(f"index length {len(idx)} != expected {dim}")
    return idx


@dataclass(frozen=True)
class SeminormReport:
    family: str
    indices: tuple
    value: float
    n_points: int
    half_extent: float
    band: float

    def record(self):
        """One-line CSV-style record: family,a,b,value,N,L,band."""
        idx = ",".join('"' + " ".join(str(v) for v in part) + '"' for part in self.indices)
        return (
            f"{self.family},{idx},{self.value:.17g},"
            f"{self.n_points},{self.half_extent:.17g},{self.band:.17g}"
        )


def _band_slices(grid, band):
    if not 0.0 <= band < 0.5:
        raise ValueError(f"band {band!r} outside [0, 0.5)")
    margin = int(round(band * grid.n_points))
    lo = margin
    hi = grid.n_points - margin
    if hi <= lo:
        raise ValueError(f"band {band!r} leaves no interior points")
    return lo, hi


def _trig_eval_grid(coeffs, grid, axes_points):
    """Evaluate the trig interpolant on a small tensor grid of points.

    coeffs = fftn(values); interpolant value at z is
    N^{-dim} sum_k coeffs[k] exp(i w_k . (z + L)).
    """
    freqs = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, grid.spacing)
    out = coeffs
    for ax, pts in enumerate(axes_points):
        basis = np.exp(1j * np.outer(pts + grid.half_extent, freqs)) / grid.n_points
        out = np.moveaxis(np.tensordot(basis, out, axes=(1, ax)), 0, ax)
    return out


def _refine_sup(coeffs, grid, a, start_point, start_value, lo, hi):
    """Zoom |z^a interp(z)| around the lattice argmax; returns refined sup.

    coeffs are the Fourier coefficients (fftn) of the sampled function.
    """
    axis = grid.axis()
    low = axis[lo]
    high = axis[hi - 1]
    center = np.array(start_point, dtype=float)
    best = start_value
    half = grid.spacing
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    for _ in range(ZOOM_ROUNDS):
        axes_points = [
            np.clip(center[ax] + half * offsets, low, high)
            for ax in range(grid.dim)
        ]
        vals = np.abs(_trig_eval_grid(coeffs, grid, axes_points))
        mesh = np.stack(
            np.meshgrid(*axes_points, indexing="ij"), axis=-1
        )
        vals = vals * monomial(np.abs(mesh), a)
        flat = int(np.argmax(vals))
        idx = np.unravel_index(flat, vals.shape)
        if vals[idx] > best:
            best = float(vals[idx])
            center = mesh[idx]
        half /= ZOOM_SHRINK
    return best


def _lattice_sup(deriv_vals, grid, a, lo, hi):
    sl = (slice(lo, hi),) * grid.dim
    weighted = np.abs(deriv_vals[sl])
    axis = np.abs(grid.axis()[lo:hi])
    for ax, power in enumerate(a):
        if power:
            shape = [1] * grid.dim
            shape[ax] = axis.size
            weighted = weighted * (axis**power).reshape(shape)
    flat = int(np.argmax(weighted))
    idx = np.unravel_index(flat, weighted.shape)
    point = tuple(grid.axis()[lo + idx[ax]] for ax in range(grid.dim))
    return float(weighted[idx]), point


def _seminorm_entries(fn, pairs, band=None, refine=True):
    """{(a, b): |F|_{a,b}} for each (a, b) in pairs, sup over the interior band.

    F is transformed once; each distinct b costs one inverse transform for
    the lattice sup, and the zoom reads the derivative coefficients directly.
    """
    grid = fn.grid
    lo, hi = _band_slices(grid, DEFAULT_BAND if band is None else band)
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
        for a in decays:
            value, point = _lattice_sup(deriv, grid, a, lo, hi)
            if refine and grid.dim <= 2:
                value = _refine_sup(coeffs, grid, a, point, value, lo, hi)
            table[(a, b)] = value
    return table


def seminorm(fn, a, b, band=None, refine=True):
    """sup over the interior band of |alpha^a (d^b F)(alpha)|."""
    return _seminorm_entries(fn, [(a, b)], band, refine)[(as_index(a), as_index(b))]


def norm_sum(fn, a, b, band=None, refine=True):
    """Sum of seminorms over the downward-closed box a' <= a, b' <= b."""
    return sum(seminorm_table(fn, a, b, band, refine).values())


def seminorm_table(fn, a_max, b_max, band=None, refine=True):
    """All |F|_{a',b'} for a' <= a_max, b' <= b_max as a dict."""
    a_max = _index_for(a_max, fn.grid.dim)
    b_max = _index_for(b_max, fn.grid.dim)
    pairs = [(a, b) for b in box(b_max) for a in box(a_max)]
    return _seminorm_entries(fn, pairs, band, refine)


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


def _family_sq_sum(states, a, b, xs):
    total = np.zeros(xs.shape[0])
    for ps in states:
        g = ps.weighted_derivative(a, b)
        total += np.abs(g.evaluate(xs[:, None])) ** 2
    return total


def joint_seminorm(states, a, b, n_nodes=4096):
    """sqrt of sup_x sum_i |x^a (d^b psi_i)(x)|^2 for a finite family."""
    states = list(states)
    if not states:
        return 0.0
    if any(not ps.is_analytic for ps in states):
        raise ValueError("jointly-Schwartz seminorm needs analytic states")
    n = states[0].n
    if n != 1:
        raise ValueError("joint seminorm implemented for n=1")
    a = _index_for(a, n)
    b = _index_for(b, n)
    half = max(ps.reach() for ps in states) + order(a) + order(b)
    xs = np.linspace(-half, half, n_nodes)
    vals = _family_sq_sum(states, a, b, xs)
    best = float(vals.max())
    center = float(xs[int(np.argmax(vals))])
    width = float(xs[1] - xs[0])
    for _ in range(ZOOM_ROUNDS):
        local = np.linspace(center - width, center + width, 33)
        vals = _family_sq_sum(states, a, b, local)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            center = float(local[i])
        width /= ZOOM_SHRINK
    return float(np.sqrt(best))


def scaled_components(state):
    """The sqrt-weighted pure components of a mixture, as a list."""
    rho = as_mixed(state)
    return [
        ps.scaled(np.sqrt(w)) for w, ps in zip(rho.weights, rho.pure_states)
    ]


def kernel_seminorm(state, a, b, c, d, n_nodes=1024):
    """sup_{x,y} |x^a y^c (d_x^b d_y^d K)(x,y)| for an analytic mixture."""
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

    def sup_on(xs, ys):
        fx = np.stack(
            [
                ps.weighted_derivative(a, b).evaluate(xs[:, None])
                for ps in rho.pure_states
            ]
        )
        gy = np.stack(
            [
                ps.weighted_derivative(c, d).evaluate(ys[:, None])
                for ps in rho.pure_states
            ]
        )
        lam = np.asarray(rho.weights)
        mat = np.abs(np.einsum("j,jx,jy->xy", lam, fx, np.conj(gy)))
        i, j = np.unravel_index(int(np.argmax(mat)), mat.shape)
        return float(mat[i, j]), float(xs[i]), float(ys[j])

    xs = np.linspace(-half, half, n_nodes)
    best, cx, cy = sup_on(xs, xs)
    width = float(xs[1] - xs[0])
    for _ in range(ZOOM_ROUNDS):
        lx = np.linspace(cx - width, cx + width, 17)
        ly = np.linspace(cy - width, cy + width, 17)
        val, px, py = sup_on(lx, ly)
        if val > best:
            best, cx, cy = val, px, py
        width /= ZOOM_SHRINK
    return best


# ---------------------------------------------------------------------------
# Schwartz-operator sandwich seminorm


def _momentum_power_matrix(grid, power):
    n_pts = grid.n_points
    freqs = grid.frequencies()
    mult = freqs**power
    if power % 2:
        mult = mult.copy()
        mult[n_pts // 2] = 0.0
    return np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(n_pts), axis=0), axis=0)


def _sandwich_singular_value(rho, a, b, c, d, grid):
    xs = grid.axis()
    kmat = grid.spacing * rho.kernel(xs[:, None, None], xs[None, :, None])
    mat = kmat
    if order(b):
        mat = _momentum_power_matrix(grid, order(b)) @ mat
    if order(c):
        mat = mat @ _momentum_power_matrix(grid, order(c))
    if order(a):
        mat = (xs ** order(a))[:, None] * mat
    if order(d):
        mat = mat * (xs**order(d))[None, :]
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def operator_seminorm(state, a, b, c, d, grid=None, refine_check=True):
    """Largest singular value of X^a P^b rho P^c X^d on a line lattice."""
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
        grid = Grid(1, 512, 12.0, kind="config")
    if grid.kind != "config" or grid.dim != 1:
        raise ValueError("operator seminorm needs a 1-D config grid")
    value = _sandwich_singular_value(rho, a, b, c, d, grid)
    if refine_check:
        fine = Grid(1, 2 * grid.n_points, grid.half_extent, kind="config")
        refined = _sandwich_singular_value(rho, a, b, c, d, fine)
        scale = max(abs(refined), 1e-12)
        if abs(refined - value) > 0.01 * scale:
            raise GridResolutionError(
                f"operator seminorm moved {abs(refined - value):.2e} "
                f"under N doubling; grid too coarse"
            )
        value = refined
    return value
