import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasespace import (
    Atom,
    Grid,
    MixedState,
    PureState,
    as_mixed,
    demo_state,
    displacement_matrix_element,
    fock_state,
    load_state,
    offdiag_wigner,
    random_mixture,
    random_pure_state,
    save_state,
    symplectic_form,
    vacuum_state,
    wigner,
    wigner_pointwise,
    wigner_values,
)
from phasespace.states import (
    HERMITE_MAX_ORDER,
    _factorial_ratio_sqrt,
    _genlaguerre,
    evaluate_components,
    hermite_values,
    pure_overlap,
    quasichar_values,
)
from phasespace.transforms import gaussian_atom_params, quasichar


def kernel(rho, xs, ys):
    """Direct spectral-decomposition kernel sum for test use."""
    rho = as_mixed(rho)
    total = np.zeros(np.broadcast(xs, ys).shape, dtype=complex)
    for w, ps in zip(rho.weights, rho.pure_states):
        total += w * ps.evaluate(np.atleast_1d(xs)[..., None]) * np.conj(
            ps.evaluate(np.atleast_1d(ys)[..., None])
        )
    return total


def overlap_by_quadrature(phi, psi, n_nodes=8192, half=None):
    """<phi | psi> by rectangle quadrature on a fine 1-D lattice."""
    if phi.n != 1 or psi.n != 1:
        raise ValueError("quadrature overlap implemented for n=1")
    if half is None:
        half = max(phi.reach(), psi.reach())
    step = 2.0 * half / n_nodes
    ys = (-half + step * np.arange(n_nodes))[:, None]
    return step * np.sum(np.conj(phi.evaluate(ys)) * psi.evaluate(ys))


def test_vacuum_value_at_origin(vacuum):
    assert vacuum.evaluate(np.array([[0.0]]))[0] == pytest.approx(
        np.pi ** -0.25, abs=1e-12
    )


def test_displaced_atom_is_pure_shift(vacuum):
    shifted = vacuum.displaced(np.array([1.3, 0.0]))
    ys = np.linspace(-3, 3, 11)[:, None]
    expected = np.pi ** -0.25 * np.exp(-((ys[:, 0] - 1.3) ** 2) / 2.0)
    np.testing.assert_allclose(shifted.evaluate(ys), expected, atol=1e-12)


def test_atom_decay_far_out(vacuum):
    val = vacuum.evaluate(np.array([[41.0]]))[0]
    assert abs(val) < 1e-300


def test_vacuum_kernel_closed_form(vacuum):
    xs = np.linspace(-2, 2, 7)
    ys = np.linspace(-1, 3, 7)
    expected = np.exp(-(xs**2 + ys**2) / 2.0) / np.sqrt(np.pi)
    np.testing.assert_allclose(kernel(vacuum, xs, ys), expected, atol=1e-12)


def test_kernel_diagonal_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(4):
        rho = random_mixture(rng, n_components=5)
        xs = rng.uniform(-4, 4, 250)
        diag = kernel(rho, xs, xs)
        assert np.abs(diag.imag).max() < 1e-12
        assert diag.real.min() > -1e-12


def test_fock_mixture_kernel_at_origin():
    rho = MixedState([0.5, 0.5], [fock_state(0), fock_state(1)])
    val = kernel(rho, np.array([0.0]), np.array([0.0]))
    # the Fock-1 wavefunction vanishes at 0, only the vacuum term survives
    assert val[0] == pytest.approx(0.5 / np.sqrt(np.pi), abs=1e-12)


def test_displacement_identity_and_inverse(vacuum):
    same = vacuum.displaced(np.zeros(2))
    ys = np.linspace(-2, 2, 9)[:, None]
    np.testing.assert_allclose(same.evaluate(ys), vacuum.evaluate(ys), atol=0)
    rng = np.random.default_rng(5)
    psi = random_pure_state(rng)
    xi = np.array([0.7, -1.1])
    back = psi.displaced(xi).displaced(-xi)
    np.testing.assert_allclose(back.evaluate(ys), psi.evaluate(ys), atol=1e-12)


def test_displacement_unitary():
    rng = np.random.default_rng(6)
    psi = random_pure_state(rng)
    shifted = psi.displaced(np.array([1.2, 0.8]))
    assert shifted.norm() == pytest.approx(psi.norm(), abs=1e-12)


def test_displacement_composition_phase():
    # D_alpha D_beta = e^{i beta^alpha/2} D_{alpha+beta}
    psi = vacuum_state(1)
    alpha = np.array([0.9, -0.4])
    beta = np.array([-0.3, 1.1])
    two_step = psi.displaced(beta).displaced(alpha)
    wedge = beta[0] * alpha[1] - beta[1] * alpha[0]
    one_step = psi.displaced(alpha + beta)
    ys = np.linspace(-3, 3, 13)[:, None]
    np.testing.assert_allclose(
        two_step.evaluate(ys),
        np.exp(0.5j * wedge) * one_step.evaluate(ys),
        atol=1e-12,
    )


def test_atom_orthonormality():
    for m in range(11):
        for mp in range(m, 11):
            val = pure_overlap(fock_state(m), fock_state(mp))
            target = 1.0 if m == mp else 0.0
            assert abs(val - target) < 1e-10, (m, mp)


def test_displacement_matrix_element_against_quadrature():
    rng = np.random.default_rng(9)
    step = 16.0 / 4096
    ys = (-8.0 + step * np.arange(4096))[:, None]
    for _ in range(5):
        m, mp = rng.integers(0, 4, 2)
        xi = rng.uniform(-1.5, 1.5, 2)
        closed = displacement_matrix_element((int(m),), (int(mp),), xi)
        bra = fock_state(int(m)).evaluate(ys)
        ket = fock_state(int(mp)).displaced(xi).evaluate(ys)
        quad = step * np.sum(np.conj(bra) * ket)
        assert abs(closed - quad) < 1e-10


hermite_atoms = st.builds(
    lambda m, ax, ap, re, im: Atom((m,), (ax, ap), complex(re, im)),
    st.integers(0, 40),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(hermite_atoms, min_size=1, max_size=3),
    right=st.lists(hermite_atoms, min_size=1, max_size=3),
)
def test_pure_overlap_matches_quadrature(left, right):
    phi, psi = PureState(left), PureState(right)
    assume(phi.norm() > 0.1 and psi.norm() > 0.1)
    phi, psi = phi.normalized(), psi.normalized()
    assert abs(pure_overlap(phi, psi) - overlap_by_quadrature(phi, psi)) < 1e-12


@pytest.mark.parametrize("index", [0, 1, 2])
def test_quasichar_values_at_origin_is_trace(mixtures20, index):
    rho = mixtures20[index]
    assert quasichar_values(rho, np.zeros(2)) == pytest.approx(rho.trace(), abs=1e-14)


def test_quasichar_values_match_grid_quasichar(mixture, grid):
    axis = grid.axis()
    lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    on_grid = quasichar(mixture, grid, cross_check=False).values
    assert np.abs(quasichar_values(mixture, lattice) - on_grid).max() < 1e-12


def test_factorial_ratio_matches_exact_at_low_order():
    for small in range(12):
        for large in range(small, 12):
            exact = math.sqrt(math.factorial(small) / math.factorial(large))
            got = _factorial_ratio_sqrt(small, large)
            assert abs(got - exact) <= 4e-16 * exact, (small, large)


def test_high_order_matrix_element_is_not_zero():
    # 200! overflows a double; the amplitude must still come out finite
    closed = displacement_matrix_element((200,), (0,), (20.0, 0.0))
    quad = overlap_by_quadrature(
        fock_state(200), vacuum_state(1).displaced((20.0, 0.0)),
        n_nodes=32768, half=40.0,
    )
    assert abs(quad) > 0.1
    assert abs(closed - quad) < 1e-10


@pytest.mark.parametrize(
    "m,n,x", [(300, 0, 24.5), (0, 300, 24.5), (310, 10, 24.5), (400, 0, 28.3)]
)
def test_matrix_element_past_overflow_order(m, n, x):
    # |zeta|^k overflows and sqrt(n!/m!) underflows here; the amplitude
    # must still match quadrature instead of coming back NaN
    closed = displacement_matrix_element((m,), (n,), (x, 0.0))
    quad = overlap_by_quadrature(
        fock_state(m), fock_state(n).displaced((x, 0.0)),
        n_nodes=16384, half=45.0,
    )
    assert abs(quad) > 0.01
    assert abs(closed - quad) < 1e-10


@pytest.mark.parametrize("order", [300, 600])
def test_matrix_element_where_laguerre_overflows(order):
    # L_order(5000) overflows while e^{-2500} underflows; inf * 0 must not
    # come back as NaN
    xi = (100.0, 0.0)
    closed = displacement_matrix_element((order,), (order,), xi)
    quad = overlap_by_quadrature(
        fock_state(order), fock_state(order).displaced(xi)
    )
    assert np.isfinite(closed)
    assert abs(closed - quad) < 1e-10


@pytest.mark.parametrize(
    "m,n,xi",
    [
        (100, 100, (54.5, 0.0)),
        (100, 100, (54.6, 0.0)),
        (100, 100, (60.0, 0.0)),
        (120, 80, (58.0, 0.0)),
        (120, 80, (58.0, 3.0)),
        (80, 120, (-20.0, 55.0)),
        (0, 0, (40.0, 0.0)),
        (0, 5, (40.0, 1.0)),
    ],
)
def test_matrix_element_where_gaussian_goes_subnormal(m, n, xi):
    # e^{-|zeta|^2/2} is subnormal or 0 here while L is finite; the value
    # must keep full relative precision instead of rounding off or to 0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        zeta = mp.mpc(*xi) / mp.sqrt(2)
        small, k = min(m, n), abs(m - n)
        w = zeta if m >= n else -mp.conj(zeta)
        r2 = abs(zeta) ** 2
        exact = complex(
            mp.sqrt(mp.factorial(small) / mp.factorial(small + k))
            * w**k
            * mp.exp(-r2 / 2)
            * mp.laguerre(small, k, r2)
        )
    got = displacement_matrix_element((m,), (n,), xi)
    assert exact != 0
    assert abs(got - exact) <= 1e-11 * abs(exact)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 19, 20, 45, 59])
def test_genlaguerre_is_scipys_bit_for_bit(n):
    # scipy's integer-order loop: every finite value it returns is pinned,
    # n = 0 and n = 1 are its special cases, and its binom product loop
    # runs for min(n, k) < 20
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(n)
    x = np.concatenate([np.linspace(0.0, 1400.0, 701), rng.uniform(0.0, 8.0, 300)])
    for k in range(60):
        if min(n, k) >= 20:
            continue
        expected = special.eval_genlaguerre(n, k, x)
        value, e = _genlaguerre(n, k, x)
        assert np.isfinite(expected).all()
        assert np.array_equal(e, np.zeros_like(e))
        assert np.array_equal(value.view(np.int64), expected.view(np.int64)), k


def test_genlaguerre_exponent_carries_past_overflow():
    # L_300(5000) and L_600(5000) leave the double range: scipy overflows,
    # value * 2**e keeps the logarithm
    mp = pytest.importorskip("mpmath")
    for n, k in [(300, 0), (600, 0), (310, 10)]:
        value, e = _genlaguerre(n, k, np.array([5000.0]))
        exact = mp.laguerre(n, k, 5000)
        assert e[0] > 0
        assert np.sign(value[0]) == mp.sign(exact)
        log_abs = math.log(abs(value[0])) + e[0] * math.log(2.0)
        assert abs(log_abs - float(mp.log(abs(exact)))) <= 1e-14 * abs(log_abs)


def test_hermite_order_cap_against_mpmath():
    # phi_0 goes subnormal past |y| = 37.6 and 0 past 38.6; at the cap the
    # loss the recurrence carries from there stays below 1e-15 absolute
    mp = pytest.importorskip("mpmath")
    cap = HERMITE_MAX_ORDER
    ys = np.array([37.0, 38.0, 38.5, 38.603, 38.60396, 38.7, 39.0, 44.0])
    ys = np.concatenate([ys, -ys])
    got = PureState([Atom((cap,), (0.0, 0.0), 1.0)]).evaluate(ys[:, None])
    with mp.workdps(50):
        for y, value in zip(ys, got):
            y = mp.mpf(float(y))
            exact = mp.hermite(cap, y) * mp.exp(-y * y / 2) / mp.sqrt(
                2**cap * mp.factorial(cap) * mp.sqrt(mp.pi)
            )
            assert abs(value - complex(exact)) <= 1e-15, float(y)
    with pytest.raises(ValueError, match=f"hermite order {cap + 1} exceeds cap {cap}"):
        Atom((cap + 1,), (0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match=f"hermite order {cap + 1} exceeds"):
        fock_state(cap).times_coordinate(0)


def test_state_file_order_above_cap_names_the_atom(tmp_path):
    path = tmp_path / "high.json"
    atom = {"m": [2, 1000], "alpha": [0, 0, 0, 0], "coeff": [1, 0]}
    path.write_text(json.dumps({"weights": [1.0], "pure_states": [{"atoms": [atom]}]}))
    with pytest.raises(ValueError, match=r"atoms\[0\]: hermite order 1000 exceeds"):
        load_state(path)


@pytest.mark.parametrize(
    "atoms, field",
    [
        ([((0,), (0.0, 0.0), math.nan)], "coeff"),
        ([((0,), (0.0, 0.0), 1.0), ((1,), (0.0, 0.0), complex(math.inf, 0.0))], "coeff"),
        ([((0,), (math.nan, 0.0), 1.0)], "alpha"),
    ],
    ids=["nan-coeff", "inf-coeff-beside-finite", "nan-alpha"],
)
def test_non_finite_atom_rejected_by_field(atoms, field):
    # these used to become the zero state, drop every atom, or evaluate to NaN
    with pytest.raises(ValueError, match=f"non-finite {field}"):
        PureState([Atom(*atom) for atom in atoms])


@pytest.mark.parametrize(
    "m, alpha",
    [
        ((1,), (0.5, -0.25)),
        ([1], [0.5, -0.25]),
        (np.array([1]), np.array([0.5, -0.25])),
        ((np.int64(1),), (np.float64(0.5), -0.25)),
    ],
    ids=["tuple", "list", "ndarray", "numpy-scalars"],
)
def test_atom_coerces_m_and_alpha_to_tuples(m, alpha):
    # an ndarray or list displacement used to make `_merge` raise
    # "unhashable type" when a PureState was built from the atom
    atom = Atom(m, alpha, 1.0)
    assert atom.m == (1,) and atom.alpha == (0.5, -0.25)
    assert all(type(mi) is int for mi in atom.m)
    assert all(type(v) is float for v in atom.alpha)
    state = PureState([atom, Atom(m, alpha, 0.5)])
    assert state.atoms == (Atom((1,), (0.5, -0.25), 1.5),)
    ys = np.linspace(-3.0, 3.0, 7)[:, None]
    assert np.array_equal(
        state.evaluate(ys), PureState([Atom((1,), (0.5, -0.25), 1.5)]).evaluate(ys)
    )


@pytest.mark.parametrize("field, value", [("coeff", [math.nan, 0]), ("alpha", [0, math.nan])])
def test_state_file_non_finite_names_the_atom(tmp_path, field, value):
    path = tmp_path / "nan.json"
    atom = {"m": [0], "alpha": [0, 0], "coeff": [1, 0]}
    doc = {"weights": [1.0], "pure_states": [{"atoms": [atom, dict(atom, **{field: value})]}]}
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    with pytest.raises(ValueError, match=rf"atoms\[1\]: non-finite {field}"):
        load_state(path)


# --- closed-form Wigner values -------------------------------------------------


def lattice_points(grid):
    axes = (grid.axis(),) * grid.dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wigner_values_match_pointwise_quadrature(seed):
    rho = random_mixture(np.random.default_rng(seed))
    rng = np.random.default_rng(100 + seed)
    xs, ps = rng.uniform(-3.0, 3.0, 8), rng.uniform(-3.0, 3.0, 5)
    closed = wigner_values(rho, np.stack(np.meshgrid(xs, ps, indexing="ij"), -1))
    assert closed.shape == (8, 5)
    assert np.abs(closed - wigner_pointwise(rho, xs, ps).real).max() < 1e-13


def test_wigner_values_match_grid_wigner(mixture, grid):
    w = wigner(mixture, grid)
    closed = wigner_values(mixture, lattice_points(grid))
    assert np.abs(closed - w.values).max() < 1e-13


# N = 16 keeps the 4-D grid route to about a second; its own discretization
# error there is about 1e-9 (the size of its imaginary residue)
TWO_MODE_GRID = Grid(4, 16, 5.0)


def test_two_mode_wigner_values_match_grid_wigner():
    rho = random_mixture(
        np.random.default_rng(5), n_components=1, n_atoms=2, n=2, disp=1.0
    )
    w = wigner(rho, TWO_MODE_GRID, reality_tol=1e-8)
    closed = wigner_values(rho, lattice_points(TWO_MODE_GRID))
    assert np.abs(closed - w.values).max() < 2e-8


def test_two_mode_offdiag_wigner_matches_grid_wigner():
    # at alpha = beta the off-diagonal Wigner function is W of chi_alpha
    chi = PureState(
        [Atom((1, 0), (0.2, -0.1, 0.3, 0.0), 1.0), Atom((0, 2), (0.0,) * 4, 0.5)]
    ).normalized()
    alpha = np.array([0.5, -0.5, 0.25, 0.0])
    w = wigner(chi.displaced(alpha), TWO_MODE_GRID, reality_tol=1e-8)
    vals = offdiag_wigner(chi, alpha, alpha, lattice_points(TWO_MODE_GRID))
    assert np.abs(vals - w.values).max() < 2e-8


def test_wigner_values_reject_plateau_by_name():
    with pytest.raises(ValueError, match="analytic"):
        wigner_values(demo_state("plateau"), np.zeros((3, 2)))


def test_wigner_values_high_order_far_from_center():
    # 2z - g - h has |.| = 100 here: the Laguerre factor overflows
    center = np.array([1.0, -2.0])
    state = fock_state(300).displaced(center)
    z = center + np.array([30.0, 40.0])
    val = wigner_values(state, z)
    assert np.isfinite(val)
    assert abs(val) < 1e-12
    # and the origin of the atom still carries the parity value (-1)^300 / pi
    assert wigner_values(state, center) == pytest.approx(1.0 / np.pi, rel=1e-12)


# --- parity and the parity-displacement closed forms ----------------------------


def wigner_values_pair_loop(state, points):
    """The unordered atom-pair sum: for atoms c_a D_g phi_ma, c_b D_h phi_mb
    the pair term is c_a conj(c_b) (-1)^{|ma|} pi^{-n}
    e^{i z /\\ (g - h) + (i/2) g /\\ h} <phi_mb | D_{2z-g-h} | phi_ma>."""
    rho = as_mixed(state)
    z = np.asarray(points, dtype=float)
    out = np.zeros(z.shape[:-1])
    for w, ps in zip(rho.weights, rho.pure_states):
        for i, aa in enumerate(ps.atoms):
            g = np.asarray(aa.alpha, dtype=float)
            for ab in ps.atoms[i:]:
                h = np.asarray(ab.alpha, dtype=float)
                phase = np.exp(
                    1j * symplectic_form(z, g - h) + 0.5j * symplectic_form(g, h)
                )
                term = (
                    (-1) ** sum(aa.m)
                    * aa.coeff
                    * np.conj(ab.coeff)
                    * phase
                    * displacement_matrix_element(ab.m, aa.m, 2.0 * z - g - h)
                ).real
                out += w * (term if ab is aa else 2.0 * term)
    return out / np.pi**rho.n


def offdiag_wigner_phase_formula(chi, alpha, beta, gammas):
    """e^{i (gamma - abar/2) /\\ dalpha} W_chi(gamma - abar), abar = (alpha +
    beta)/2, dalpha = alpha - beta; W_chi is the Gaussian for a single m = 0
    atom and the pair loop otherwise."""
    abar = 0.5 * (alpha + beta)
    phase = np.exp(1j * symplectic_form(gammas - 0.5 * abar, alpha - beta))
    params = gaussian_atom_params(chi)
    if params is not None:
        weight, center = params
        return phase * weight * np.exp(-((gammas - abar - center) ** 2).sum(-1))
    return phase * wigner_values_pair_loop(chi, gammas - abar)


def hermite_atoms_n(n):
    return st.builds(
        lambda m, alpha, re, im: Atom(tuple(m), tuple(alpha), complex(re, im)),
        st.lists(st.integers(0, 40), min_size=n, max_size=n),
        st.lists(st.floats(-10.0, 10.0), min_size=2 * n, max_size=2 * n),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
    )


def phase_points(n, min_size=1, max_size=6):
    return st.lists(
        st.lists(st.floats(-10.0, 10.0), min_size=2 * n, max_size=2 * n),
        min_size=min_size,
        max_size=max_size,
    ).map(np.array)


# (1-3-atom pure state, phase-space points, two labels) with n in {1, 2}
states_and_points = st.integers(1, 2).flatmap(
    lambda n: st.tuples(
        st.lists(hermite_atoms_n(n), min_size=1, max_size=3).map(PureState),
        phase_points(n),
        phase_points(n, 2, 2),
    )
)


@settings(max_examples=200, deadline=None)
@given(case=states_and_points)
def test_parity_is_an_exact_involution(case):
    ps, pts, _ = case
    assert ps.parity().parity().atoms == ps.atoms
    ys = pts[:, : ps.n]
    assert np.abs(ps.parity().evaluate(ys) - ps.evaluate(-ys)).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(case=states_and_points)
def test_wigner_values_match_pair_loop(case):
    ps, pts, _ = case
    for state in (ps, MixedState([0.75, 0.25], [ps, ps.parity()])):
        expected = wigner_values_pair_loop(state, pts)
        assert np.abs(wigner_values(state, pts) - expected).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(case=states_and_points)
def test_offdiag_wigner_matches_phase_formula(case):
    chi, gammas, (alpha, beta) = case
    expected = offdiag_wigner_phase_formula(chi, alpha, beta, gammas)
    assert np.abs(offdiag_wigner(chi, alpha, beta, gammas) - expected).max() <= 1e-12


def test_offdiag_wigner_matches_gaussian_formula():
    # the single m = 0 window the phase formula evaluated as a plain Gaussian
    rng = np.random.default_rng(31)
    for n in (1, 2):
        center = tuple(rng.uniform(-10.0, 10.0, 2 * n))
        chi = PureState([Atom((0,) * n, center, 0.6 - 0.3j)])
        alpha, beta = rng.uniform(-10.0, 10.0, (2, 2 * n))
        gammas = rng.uniform(-10.0, 10.0, (50, 2 * n))
        expected = offdiag_wigner_phase_formula(chi, alpha, beta, gammas)
        got = offdiag_wigner(chi, alpha, beta, gammas)
        assert np.abs(got - expected).max() <= 1e-12


def test_plateau_values():
    plateau = demo_state("plateau")
    ys = np.array([[0.5], [-0.1], [1.1], [0.0]])
    vals = plateau.evaluate(ys)
    np.testing.assert_allclose(vals.real, [1.0, 0.0, 0.0, 1.0], atol=0)
    assert not plateau.is_analytic


def test_heavy_tail_structure():
    single = demo_state("heavy_tail", K=1)
    assert len(single.weights) == 1
    assert single.weights[0] == pytest.approx(1.0)

    def first_moment(k_terms):
        rho = demo_state("heavy_tail", K=k_terms)
        return sum(
            w * k**3 for w, k in zip(rho.weights, range(1, k_terms + 1))
        )

    assert first_moment(3) > first_moment(2)


def test_heavy_tail_k_validation():
    with pytest.raises(ValueError):
        demo_state("heavy_tail", K=0)
    with pytest.raises(ValueError):
        demo_state("heavy_tail", K=1000)


def test_random_mixture_orthonormal_components():
    rng = np.random.default_rng(21)
    rho = random_mixture(rng, n_components=3)
    assert sum(rho.weights) == pytest.approx(1.0, abs=1e-12)
    for i, psi in enumerate(rho.pure_states):
        for j, phi in enumerate(rho.pure_states):
            target = 1.0 if i == j else 0.0
            assert abs(pure_overlap(psi, phi) - target) < 1e-10


def test_single_component_mixture_matches_pure(grid):
    from phasespace import wigner

    psi = random_pure_state(np.random.default_rng(33))
    w_pure = wigner(psi, grid)
    w_mixed = wigner(MixedState([1.0], [psi]), grid)
    np.testing.assert_array_equal(w_pure.values, w_mixed.values)


def test_mixed_state_validation():
    psi = vacuum_state(1)
    with pytest.raises(ValueError):
        MixedState([0.5, 0.5], [psi])
    with pytest.raises(ValueError):
        MixedState([-0.1], [psi])


def test_state_json_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    rho = random_mixture(rng)
    path = tmp_path / "state.json"
    save_state(rho, path)
    back = load_state(path)
    assert back.weights == pytest.approx(rho.weights)
    ys = np.linspace(-3, 3, 9)[:, None]
    for ps_a, ps_b in zip(rho.pure_states, back.pure_states):
        np.testing.assert_allclose(
            ps_a.evaluate(ys), ps_b.evaluate(ys), atol=1e-15
        )


def test_state_json_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"weights": [1.0]}\n')
    with pytest.raises(ValueError, match="states"):
        load_state(path)
    path.write_text("{nope\n")
    with pytest.raises(ValueError, match="line 1"):
        load_state(path)
    doc = {
        "weights": [1.0],
        "states": [{"atoms": [{"m": [-1], "alpha": [0, 0], "coeff": [1, 0]}]}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="m"):
        load_state(path)


def derivative_copy(psi, axis):
    """The per-method d/dy_axis ladder step, kept as a reference."""
    out = []
    for at in psi.atoms:
        m = at.m[axis]
        ap = at.alpha[psi.n + axis]
        out.append(Atom(at.m, at.alpha, at.coeff * 1j * ap))
        if m >= 1:
            mm = at.m[:axis] + (m - 1,) + at.m[axis + 1 :]
            out.append(Atom(mm, at.alpha, at.coeff * math.sqrt(m / 2.0)))
        mp = at.m[:axis] + (m + 1,) + at.m[axis + 1 :]
        out.append(Atom(mp, at.alpha, -at.coeff * math.sqrt((m + 1) / 2.0)))
    return PureState(out)


def times_coordinate_copy(psi, axis):
    """The per-method y_axis ladder step, kept as a reference."""
    out = []
    for at in psi.atoms:
        m = at.m[axis]
        ax = at.alpha[axis]
        out.append(Atom(at.m, at.alpha, at.coeff * ax))
        if m >= 1:
            mm = at.m[:axis] + (m - 1,) + at.m[axis + 1 :]
            out.append(Atom(mm, at.alpha, at.coeff * math.sqrt(m / 2.0)))
        mp = at.m[:axis] + (m + 1,) + at.m[axis + 1 :]
        out.append(Atom(mp, at.alpha, at.coeff * math.sqrt((m + 1) / 2.0)))
    return PureState(out)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_ladder_steps_match_per_method_copies(n, seed):
    psi = random_pure_state(np.random.default_rng(seed), n_atoms=4, n=n)
    for axis in range(n):
        assert psi.derivative(axis).atoms == derivative_copy(psi, axis).atoms
        copy = times_coordinate_copy(psi, axis)
        assert psi.times_coordinate(axis).atoms == copy.atoms


def atom_evaluate_copy(at, points):
    """The per-atom evaluation that PureState.evaluate summed atom by atom."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(at.m)
    ax, ap = np.asarray(at.alpha[:n]), np.asarray(at.alpha[n:])
    val = np.full(pts.shape[:-1], at.coeff, dtype=complex)
    for i in range(n):
        phi = hermite_values(at.m[i], pts[..., i] - ax[i])[at.m[i]]
        val = val * np.exp(1j * (pts[..., i] - 0.5 * ax[i]) * ap[i]) * phi
    return val


def per_atom_evaluate(psi, points):
    vals = [atom_evaluate_copy(at, points) for at in psi.atoms]
    return sum(vals[1:], start=vals[0])


atoms_1d = st.builds(
    lambda m, ax, ap, re, im: Atom((m,), (ax, ap), complex(re, im)),
    st.integers(0, 40),
    st.floats(-30.0, 30.0),
    st.floats(-30.0, 30.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=60, deadline=None)
@given(
    atoms=st.lists(atoms_1d, min_size=1, max_size=5),
    xs=st.lists(st.floats(-45.0, 45.0), min_size=1, max_size=40),
)
def test_evaluate_matches_per_atom_oracle(atoms, xs):
    psi = PureState(atoms)
    pts = np.array(xs)[:, None]
    # x d psi: atoms of several orders share each displacement
    for state in (psi, psi.weighted_derivative((1,), (1,))):
        assert np.array_equal(state.evaluate(pts), per_atom_evaluate(state, pts))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [3, 11])
def test_evaluate_matches_per_atom_oracle_several_axes(n, seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, n_atoms=5, n=n, max_order=6, disp=3.0)
    pts = rng.uniform(-6.0, 6.0, (7, 9, n))
    got, expected = psi.evaluate(pts), per_atom_evaluate(psi, pts)
    assert got.shape == (7, 9)
    assert np.all(np.abs(got - expected) <= 4e-16 * np.abs(expected).max())


def test_evaluate_tables_built_on_first_call_only():
    psi = random_pure_state(np.random.default_rng(4), n_atoms=4)
    state = psi.weighted_derivative((1,), (2,))
    # the ladder's intermediate states are never evaluated and build nothing
    assert "_evaluate_tables" not in vars(state)
    pts = np.linspace(-5.0, 5.0, 17)[:, None]
    first = state.evaluate(pts)
    tables = vars(state)["_evaluate_tables"]
    assert np.array_equal(state.evaluate(pts), first)
    assert vars(state)["_evaluate_tables"] is tables
    assert np.array_equal(first, per_atom_evaluate(state, pts))


def test_evaluate_one_point_and_bad_shape():
    psi = random_pure_state(np.random.default_rng(2), n_atoms=3)
    value = psi.evaluate(np.array([0.3]))
    assert np.ndim(value) == 0
    assert value == psi.evaluate(np.array([[0.3]]))[0]
    with pytest.raises(ValueError, match="last axis must be 1"):
        psi.evaluate(np.zeros((4, 2)))


def uncached_weighted_derivative(psi, a, b):
    """x^a d^b psi by the reference ladder copies, one step at a time."""
    state = psi
    for axis, bi in enumerate(b):
        for _ in range(bi):
            state = derivative_copy(state, axis)
    for axis, ai in enumerate(a):
        for _ in range(ai):
            state = times_coordinate_copy(state, axis)
    return state


@pytest.mark.parametrize("n", [1, 2])
def test_weighted_derivative_kept_per_index_pair(n):
    psi = random_pure_state(np.random.default_rng(7), n_atoms=4, n=n)
    pairs = [
        (a, b)
        for a in itertools.product(range(3), repeat=n)
        for b in itertools.product(range(3), repeat=n)
    ]
    for a, b in pairs:
        got = psi.weighted_derivative(a, b)
        assert got is psi.weighted_derivative(list(a), np.array(b))
        assert got.atoms == uncached_weighted_derivative(psi, a, b).atoms
    assert psi.weighted_derivative((0,) * n, (0,) * n) is psi


def test_weighted_derivative_rejects_bad_indices():
    psi = vacuum_state(1)
    with pytest.raises(ValueError, match="length n"):
        psi.weighted_derivative((1, 0), (0,))
    with pytest.raises(ValueError, match="nonnegative"):
        psi.weighted_derivative((-1,), (0,))


def test_atoms_cannot_change_after_init():
    psi = random_pure_state(np.random.default_rng(2), n_atoms=3)
    with pytest.raises(AttributeError):
        psi.atoms.append(Atom((0,), (0.0, 0.0), 1.0))
    assert isinstance(psi.plus(vacuum_state(1)).atoms, tuple)


def component_family(n):
    # shared displacements (a weighted derivative of the first state), a
    # higher top order, and a state whose atoms cancel to an explicit zero
    rng = np.random.default_rng(11)
    psi = random_pure_state(rng, n_atoms=3, n=n, max_order=2)
    zero = psi.plus(psi.scaled(-1.0))
    assert [at.coeff for at in zero.atoms] == [0.0]
    return [
        psi,
        psi.weighted_derivative((2,) * n, (1,) * n),
        random_pure_state(rng, n_atoms=4, n=n, max_order=6),
        zero,
    ]


@pytest.mark.parametrize("n", [1, 2])
def test_evaluate_components_is_each_states_evaluate(n):
    # at n = 2 and 257 points the joined terms of states[1:3] pass numpy's
    # 256 KiB threshold for computing a product in place into its temporary
    # while each state's own terms stay below it, so one product over the
    # joined terms would move last bits here
    states = component_family(n)
    rng = np.random.default_rng(3)
    for points in [
        rng.uniform(-4.0, 4.0, size=(257, n)),
        rng.uniform(-4.0, 4.0, size=(5, 7, n)),
        rng.uniform(-4.0, 4.0, size=(1, n)),
        rng.uniform(-4.0, 4.0, size=n),
    ]:
        for family in [states, states[1:3], states[:1]]:
            got = evaluate_components(family, points)
            expected = np.stack([ps.evaluate(points) for ps in family])
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


def test_evaluate_components_refuses_mixed_axis_counts():
    with pytest.raises(ValueError, match="share the number of axes"):
        evaluate_components([vacuum_state(1), vacuum_state(2)], np.zeros((3, 1)))
