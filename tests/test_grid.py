import re
from types import SimpleNamespace

import numpy as np
import pytest

from phasespace import (
    Grid,
    GridResolutionError,
    PhaseSpaceFn,
    omega_matrix,
    spectral_derivative,
    suggest_grid,
    symplectic_form,
    symplectic_fourier,
)


def gaussian_fn(grid):
    axis = grid.axis()
    x, p = np.meshgrid(axis, axis, indexing="ij")
    return PhaseSpaceFn(grid, np.exp(-x * x - p * p) / np.pi, "test")


def test_grid_geometry():
    g = Grid(2, 256, 12.0)
    assert g.spacing == pytest.approx(24.0 / 256)
    axis = g.axis()
    assert axis[0] == pytest.approx(-12.0)
    assert axis[-1] == pytest.approx(12.0 - g.spacing)
    assert g.shape() == (256, 256)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 64, 8.0)  # odd dim is not a phase space
    with pytest.raises(ValueError):
        Grid(2, 0, 8.0)
    with pytest.raises(ValueError):
        Grid(2, 64, -1.0)
    Grid(1, 64, 8.0, kind="config")  # 1-D allowed for configuration space


def test_quadrature_gaussian_1d():
    g = Grid(1, 256, 12.0, kind="config")
    vals = np.exp(-g.axis() ** 2) / np.sqrt(np.pi)
    assert g.quadrature(vals) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_zero_and_linearity():
    g = Grid(2, 64, 8.0)
    zero = np.zeros(g.shape())
    assert g.quadrature(zero) == 0.0
    f = gaussian_fn(g).values
    assert g.quadrature(2.0 * f + zero) == pytest.approx(2.0 * g.quadrature(f))
    assert g.quadrature(np.conj(1j * f)) == pytest.approx(
        np.conj(g.quadrature(1j * f))
    )


def test_quadrature_vacuum_wigner(vacuum_wigner):
    assert vacuum_wigner.grid.quadrature(vacuum_wigner.values) == pytest.approx(
        1.0, abs=1e-10
    )


def test_spectral_derivative_gaussian():
    g = Grid(2, 256, 12.0)
    fn = gaussian_fn(g)
    deriv = spectral_derivative(fn, (1, 0))
    axis = g.axis()
    x = np.meshgrid(axis, axis, indexing="ij")[0]
    expected = -2.0 * x * fn.values
    mask = g.interior_mask()
    assert np.abs(deriv.values - expected)[mask].max() < 1e-8


def test_spectral_derivative_identity():
    g = Grid(2, 64, 8.0)
    fn = gaussian_fn(g)
    out = spectral_derivative(fn, (0, 0))
    np.testing.assert_array_equal(out.values, fn.values)


def test_spectral_derivative_sine():
    # sin on a period-matched lattice: second derivative flips the sign
    g = Grid(2, 128, np.pi, kind="config")
    axis = g.axis()
    x = np.meshgrid(axis, axis, indexing="ij")[0]
    fn = PhaseSpaceFn(g, np.sin(x), "test")
    deriv = spectral_derivative(fn, (2, 0))
    assert np.abs(deriv.values + np.sin(x)).max() < 1e-10


def test_symplectic_fourier_gaussian_pair():
    g = Grid(2, 256, 12.0)
    axis = g.axis()
    xm, pm = np.meshgrid(axis, axis, indexing="ij")
    x_vals = np.exp(-(xm**2 + pm**2) / 4.0)
    w = symplectic_fourier(PhaseSpaceFn(g, x_vals.astype(complex), "x"), "forward")
    expected = np.exp(-(xm**2 + pm**2)) / np.pi
    mask = g.interior_mask()
    assert np.abs(w.values - expected)[mask].max() < 1e-9


def test_symplectic_fourier_inversion():
    g = Grid(2, 128, 10.0)
    fn = gaussian_fn(g)
    back = symplectic_fourier(
        symplectic_fourier(fn, "forward"), "inverse"
    )
    assert np.abs(back.values - fn.values).max() < 1e-10


def test_symplectic_fourier_zero():
    g = Grid(2, 64, 8.0)
    fn = PhaseSpaceFn(g, np.zeros(g.shape(), dtype=complex), "zero")
    out = symplectic_fourier(fn, "forward")
    assert np.abs(out.values).max() == 0.0


def test_symplectic_form_antisymmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2))
    np.testing.assert_allclose(
        symplectic_form(a, b), -symplectic_form(b, a), atol=1e-14
    )
    # matches the matrix form alpha . Omega . beta
    om = omega_matrix(1)
    direct = np.einsum("ki,ij,kj->k", a, om, b)
    np.testing.assert_allclose(symplectic_form(a, b), direct, atol=1e-14)


def test_phasespacefn_shape_checked():
    g = Grid(2, 64, 8.0)
    with pytest.raises(ValueError):
        PhaseSpaceFn(g, np.zeros((64, 63)), "bad")


def test_grid_resolution_error_is_raising():
    assert issubclass(GridResolutionError, Exception)


def test_points_is_the_ij_mesh_of_the_axis():
    g = Grid(4, 8, 2.0)
    pts = g.points()
    assert pts.shape == (8, 8, 8, 8, 4)
    assert pts[1, 2, 3, 4].tolist() == g.axis()[[1, 2, 3, 4]].tolist()


def test_at_reads_lattice_values_and_names_points_off_it():
    g = Grid(2, 64, 8.0)
    fn = gaussian_fn(g)
    rows, cols = [3, 40, 0], [5, 0, 63]
    np.testing.assert_array_equal(fn.at(g.points()[rows, cols]), fn.values[rows, cols])
    # off the lattice, on its upper end L, and one step below -L
    for bad in ([0.1, 0.0], [8.0, 0.0], [-8.25, 0.0]):
        with pytest.raises(ValueError, match=re.escape(f"point {bad} is off the lattice")):
            fn.at([[0.0, 0.0], bad])


def test_suggest_grid_reads_n_and_extent_only():
    # 11.5 + 1 + BOX_MARGIN = 18.5 -> L = 20, N doubled once to keep the spacing
    wide = suggest_grid(SimpleNamespace(n=1, extent=lambda: 12.5))
    assert wide == Grid(2, 512, 20.0) and type(wide.half_extent) is float
    # extent + BOX_MARGIN == L still fits the base box
    assert suggest_grid(SimpleNamespace(n=2, extent=lambda: 6.0)) == Grid(4, 256, 12.0)
