"""Uniform centered grids, quadrature, spectral derivatives, and the
symplectic Fourier transform.

Grids span [-L, L) per axis with N (power of two) points, spacing
h = 2L/N. Phase-space grids have even dimension 2n ordered as
(position axes, momentum axes).

The symplectic Fourier transform here must return values on the *same*
lattice as its input, but the desk-scale lattice is not self-dual
(2*pi/(N*h) != h), so a plain FFT would sample the wrong frequencies.
Instead each axis is transformed with a semidiscrete DFT matrix
exp(+/- i x_j x_k) * h, which realizes the rectangle-rule integral at the
exact grid momenta. The same matrices are spectrally accurate for
Schwartz-class data contained in the box.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import multiindex

DEFAULT_N = 256
DEFAULT_L = 12.0
DEFAULT_BAND = 0.1
DERIVATIVE_ORDER_CAP = 12
# a state fits a box of half width L when its extent plus this margin is <= L
BOX_MARGIN = 6.0
# the blocked loops work on about this many values (1 MB of complex) at a
# time: transform kernel values per block of rows, Fourier-matrix entries
# per block of p points, quadrature nodes per block of displacements, and
# atom pair-point values in the closed-form overlaps
_BLOCK_VALUES = 65_536


class GridResolutionError(RuntimeError):
    """A cross-check disagreed beyond tolerance: the grid is too coarse
    or the state is not contained in the box."""


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-L, L)^dim.

    kind "phase": dim = 2n, first n axes position, last n momentum.
    kind "config": dim = n, all axes position.
    """

    dim: int
    n_points: int
    half_extent: float
    kind: str = "phase"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 8, got {n}")
        if not self.half_extent > 0:
            raise ValueError("half_extent must be positive")
        if self.kind not in ("phase", "config"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.kind == "phase" and self.dim % 2:
            raise ValueError("phase-space grid needs even dim")

    @property
    def spacing(self):
        return 2.0 * self.half_extent / self.n_points

    def axis(self):
        """Shared 1-D coordinate array (-L, -L+h, ..., L-h)."""
        return -self.half_extent + self.spacing * np.arange(self.n_points)

    def frequencies(self):
        """FFT frequency lattice 2*pi*m/(N*h) of one axis, fftfreq order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    def shape(self):
        return (self.n_points,) * self.dim

    def points(self):
        """Every lattice point, shape (N,) * dim + (dim,), axes in "ij" order."""
        return np.stack(np.meshgrid(*(self.axis(),) * self.dim, indexing="ij"), -1)

    def quadrature(self, values):
        """Rectangle rule h^dim * sum(values)."""
        values = np.asarray(values)
        if values.shape != self.shape():
            raise ValueError(f"values shape {values.shape} != grid {self.shape()}")
        return self.spacing**self.dim * values.sum()

    def interior_range(self, band=DEFAULT_BAND):
        """(lo, hi) of the axis slice left after int(round(band*N)) points
        are dropped at each end; band must be in [0, 0.5) and leave a point."""
        if not 0.0 <= band < 0.5:
            raise ValueError(f"band {band!r} outside [0, 0.5)")
        lo = int(round(band * self.n_points))
        hi = self.n_points - lo
        if hi <= lo:
            raise ValueError(f"band {band!r} leaves no interior points")
        return lo, hi

    def interior_mask(self, band=DEFAULT_BAND):
        """Boolean mask of the interior_range slice on every axis."""
        lo, hi = self.interior_range(band)
        mask = np.zeros(self.shape(), dtype=bool)
        mask[(slice(lo, hi),) * self.dim] = True
        return mask


@dataclass
class PhaseSpaceFn:
    """Complex samples of a phase-space function on a Grid."""

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.grid.dim % 2:
            raise ValueError("PhaseSpaceFn needs an even-dimensional grid")
        if self.values.shape != self.grid.shape():
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape()}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("values contain NaN/Inf")

    def at(self, points):
        """Values at points of shape (..., dim) on the grid lattice; a point
        off the lattice or outside the box raises ValueError naming it."""
        g = self.grid
        points = np.asarray(points, dtype=float)
        idx = np.rint((points + g.half_extent) / g.spacing).astype(int)
        off = np.abs(-g.half_extent + g.spacing * idx - points) > 1e-9
        off = (off | (idx < 0) | (idx >= g.n_points)).reshape(-1, g.dim).any(-1)
        if off.any():
            point = points.reshape(-1, g.dim)[off][0].tolist()
            raise ValueError(f"point {point} is off the lattice of {g}")
        return self.values[tuple(idx[..., i] for i in range(g.dim))]


def fits_box(state, half_extent):
    """True when the state's extent plus BOX_MARGIN is at most half_extent."""
    return state.extent() + BOX_MARGIN <= half_extent


def suggest_grid(state, base_n=DEFAULT_N, base_l=DEFAULT_L):
    """The base box when the state fits it or its extent() is infinite, else
    one widened to a multiple of 4 at a spacing no coarser than the base's."""
    need = state.extent() + BOX_MARGIN
    if fits_box(state, base_l) or not np.isfinite(need):
        return Grid(2 * state.n, base_n, base_l)
    half = float(4.0 * np.ceil(need / 4.0))
    n_pts = base_n
    while n_pts * base_l < base_n * half:
        n_pts *= 2
    return Grid(2 * state.n, n_pts, half)


def symplectic_form(u, v):
    """u /\\ v = u_x . v_p - u_p . v_x for points of shape (..., 2n)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1] or u.shape[-1] % 2:
        raise ValueError("phase-space points need matching even last axis")
    n = u.shape[-1] // 2
    return (u[..., :n] * v[..., n:]).sum(-1) - (u[..., n:] * v[..., :n]).sum(-1)


def omega_matrix(n):
    """Matrix of the symplectic form: alpha . (Omega beta) = alpha /\\ beta."""
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def _derivative_index(b, grid):
    b = multiindex.as_index(b)
    if len(b) != grid.dim:
        raise ValueError(f"index length {len(b)} != grid dim {grid.dim}")
    if sum(b) > DERIVATIVE_ORDER_CAP:
        raise ValueError(
            f"derivative order {sum(b)} exceeds cap {DERIVATIVE_ORDER_CAP}"
        )
    return b


def derivative_coefficients(hat, grid, b):
    """Fourier coefficients of d^b F from hat = fftn(F): multiply by
    (i*frequency)^{b_i} per axis.

    Nyquist bins are zeroed for odd orders to keep real data real.
    """
    freq = grid.frequencies()
    for ax, bi in enumerate(_derivative_index(b, grid)):
        if not bi:
            continue
        mult = (1j * freq) ** bi
        if bi % 2:
            mult[grid.n_points // 2] = 0.0
        shape = [1] * grid.dim
        shape[ax] = grid.n_points
        hat = hat * mult.reshape(shape)
    return hat


def spectral_derivative(fn, b):
    """FFT derivative d^b F, via derivative_coefficients."""
    if not any(_derivative_index(b, fn.grid)):
        return PhaseSpaceFn(fn.grid, fn.values.copy(), fn.label)
    hat = derivative_coefficients(np.fft.fftn(fn.values), fn.grid, b)
    return PhaseSpaceFn(fn.grid, np.fft.ifftn(hat), fn.label)


@lru_cache(maxsize=16)
def _sdft_matrix(n_points, half_extent, sign):
    """Semidiscrete DFT matrix h * exp(sign * i x_j x_k) on the grid axis."""
    x = -half_extent + (2.0 * half_extent / n_points) * np.arange(n_points)
    return (2.0 * half_extent / n_points) * np.exp(sign * 1j * np.outer(x, x))


def _apply_axis(matrix, values, axis):
    return np.moveaxis(np.tensordot(matrix, values, axes=(1, axis)), 0, axis)


def symplectic_fourier(fn, direction="forward"):
    """Symplectic Fourier transform of a phase-space function.

    forward: (2*pi)^{-2n} * integral of e^{-i alpha /\\ xi} F(xi) d xi,
    inverse: integral of e^{+i alpha /\\ xi} F(xi) d xi (prefactor 1),
    so inverse(forward(F)) = F for box-contained Schwartz data.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    g = fn.grid
    if g.kind != "phase":
        raise ValueError("symplectic_fourier needs a phase-space grid")
    n = g.dim // 2
    plus = _sdft_matrix(g.n_points, float(g.half_extent), +1)
    minus = _sdft_matrix(g.n_points, float(g.half_extent), -1)
    # e^{-i a/\x} = prod_i e^{+i a_p,i x_x,i} e^{-i a_x,i x_p,i}; the same
    # per-axis kernels realize the inverse (integration variable swaps role).
    out = np.asarray(fn.values, dtype=complex)
    for ax in range(n):
        out = _apply_axis(plus, out, ax)
    for ax in range(n, 2 * n):
        out = _apply_axis(minus, out, ax)
    # axis transformed against x_i now enumerates the dual p_i and vice
    # versa; restore (position block, momentum block) ordering.
    perm = list(range(n, 2 * n)) + list(range(n))
    out = np.transpose(out, perm)
    if direction == "forward":
        out = out / (2.0 * np.pi) ** (2 * n)
    label = f"sfourier[{direction}]({fn.label})" if fn.label else ""
    return PhaseSpaceFn(g, out, label)
