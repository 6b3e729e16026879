"""Seminorm families against closed forms on Gaussian and Fock states.

Every expected value here is computed in the test itself (calculus on
the explicit densities), never read back from the module under test.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasespace import (
    Atom,
    BoundContext,
    Grid,
    GridResolutionError,
    MixedState,
    PhaseSpaceFn,
    PureState,
    decay_norm_from_table,
    fock_state,
    joint_seminorm,
    kernel_seminorm,
    norm_sum,
    norm_sum_from_table,
    operator_seminorm,
    scaled_components,
    seminorm,
    seminorm_table,
    SeminormReport,
    demo_state,
    random_pure_state,
    vacuum_state,
    wigner,
)
from phasespace.grid import DEFAULT_BAND, derivative_coefficients
from phasespace.multiindex import box, monomial
import phasespace.seminorms as seminorms_module
from phasespace.seminorms import (
    _kernel_lattice_peak,
    _lattice_sups,
    _seminorm_entries,
)
from phasespace.states import as_mixed, random_mixture, wigner_values
from phasespace.verify import heavy_tail_first_seminorms

Z = (0, 0)


# --- grid seminorms -------------------------------------------------------


def test_seminorm_vacuum_sup(vacuum_wigner):
    # sup of exp(-x^2-p^2)/pi is attained at the origin
    assert abs(seminorm(vacuum_wigner, Z, Z) - 1.0 / math.pi) < 1e-8


def test_seminorm_vacuum_first_moment(vacuum_wigner):
    # max of x exp(-x^2) sits at x = 1/sqrt(2)
    expected = math.exp(-0.5) / (math.sqrt(2.0) * math.pi)
    assert abs(seminorm(vacuum_wigner, (1, 0), Z) - expected) < 1e-8


def test_seminorm_vacuum_derivative(vacuum_wigner):
    # d_p W = -2p W; max of 2|p| exp(-p^2) is sqrt(2) e^{-1/2}
    expected = math.sqrt(2.0) * math.exp(-0.5) / math.pi
    assert abs(seminorm(vacuum_wigner, Z, (0, 1)) - expected) < 1e-8


def test_seminorm_zoom_beats_lattice(vacuum_wigner):
    # the analytic argmax 1/sqrt(2) is off-lattice, so the unrefined sup
    # undershoots and the trig-interpolant zoom must close the gap
    expected = math.exp(-0.5) / (math.sqrt(2.0) * math.pi)
    coarse = seminorm(vacuum_wigner, (1, 0), Z, refine=False)
    fine = seminorm(vacuum_wigner, (1, 0), Z, refine=True)
    assert coarse <= fine + 1e-15
    assert abs(fine - expected) < abs(coarse - expected)


def test_seminorm_reflection_invariance(grid):
    plus = wigner(vacuum_state(1).displaced(np.array([1.5, -0.5])), grid)
    minus = wigner(vacuum_state(1).displaced(np.array([-1.5, 0.5])), grid)
    for a, b in [(Z, Z), ((2, 0), Z), (Z, (1, 1)), ((1, 1), (2, 0))]:
        assert abs(seminorm(plus, a, b) - seminorm(minus, a, b)) < 1e-8


def test_seminorm_band_excludes_boundary(vacuum_wigner):
    # a wide band still contains the central maximum
    assert abs(seminorm(vacuum_wigner, Z, Z, band=0.45) - 1.0 / math.pi) < 1e-8
    with pytest.raises(ValueError):
        seminorm(vacuum_wigner, Z, Z, band=0.5)


def test_seminorm_rejects_band_by_name(vacuum_wigner):
    # a negative band would index past the lower edge; it is refused by name
    for refine in (True, False):
        with pytest.raises(ValueError, match="band -0.1"):
            seminorm(vacuum_wigner, Z, Z, band=-0.1, refine=refine)
    with pytest.raises(ValueError, match="band -0.1"):
        seminorm_table(vacuum_wigner, Z, Z, band=-0.1)


def test_zero_band_honoured_by_every_entry():
    # the peak at x = 10.5 lies in the default edge band of this grid; the
    # box cuts the state's tail, so the peak is only good to ~1e-3
    grid = Grid(2, 64, 12.0)
    far = wigner(vacuum_state(1).displaced(np.array([10.5, 0.0])), grid)
    full = seminorm(far, Z, Z, band=0.0)
    assert abs(full - 1.0 / math.pi) < 1e-3
    assert seminorm(far, Z, Z) < 0.5 / math.pi
    assert seminorm_table(far, Z, Z, band=0.0)[(Z, Z)] == full
    assert norm_sum(far, Z, Z, band=0.0) == full


def test_table_transforms_its_input_once(vacuum_wigner, monkeypatch):
    calls = []
    forward = np.fft.fftn

    def counting_fftn(values, *args, **kwargs):
        calls.append(values.shape)
        return forward(values, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    table = seminorm_table(vacuum_wigner, (2, 2), (2, 2))
    assert len(table) == 81
    assert calls == [vacuum_wigner.values.shape]


def _oracle_trig_eval_grid(coeffs, grid, axes_points):
    # the interpolant N^-dim sum_k coeffs[k] exp(i w_k . (z + L)), one axis
    # at a time on a small tensor grid of points
    freqs = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, grid.spacing)
    out = coeffs
    for ax, pts in enumerate(axes_points):
        basis = np.exp(1j * np.outer(pts + grid.half_extent, freqs)) / grid.n_points
        out = np.moveaxis(np.tensordot(basis, out, axes=(1, ax)), 0, ax)
    return out


def _oracle_entry(values, coeffs, grid, a, lo, hi):
    # one entry on its own: lattice argmax, then 6 rounds of a 5 x 5 zoom
    # that moves only on a strict improvement
    axis = grid.axis()
    inner = np.abs(axis[lo:hi])
    weighted = np.abs(values[lo:hi, lo:hi])
    # weights applied one axis at a time: in exact ties (the vacuum's
    # mirror points) the rounding decides which argmax the zoom starts from
    if a[0]:
        weighted = weighted * (inner ** a[0])[:, None]
    if a[1]:
        weighted = weighted * (inner ** a[1])[None, :]
    idx = np.unravel_index(int(np.argmax(weighted)), weighted.shape)
    best, center = float(weighted[idx]), axis[lo + np.array(idx)]
    half = grid.spacing
    for _ in range(6):
        pts = [np.clip(center[ax] + half * np.linspace(-1.0, 1.0, 5),
                       axis[lo], axis[hi - 1]) for ax in range(2)]
        vals = np.abs(_oracle_trig_eval_grid(coeffs, grid, pts))
        zoom = np.stack(np.meshgrid(*pts, indexing="ij"), axis=-1)
        vals = vals * monomial(np.abs(zoom), a)
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[idx] > best:
            best, center = float(vals[idx]), zoom[idx]
        half /= 3.0
    return best


@pytest.mark.parametrize("which", ["vacuum", 0, 1])
def test_table_matches_per_entry_zoom(which, grid, mixtures20):
    state = vacuum_state(1) if which == "vacuum" else mixtures20[which]
    fn = wigner(state, grid)
    margin = int(round(DEFAULT_BAND * grid.n_points))
    lo, hi = margin, grid.n_points - margin
    hat = np.fft.fftn(fn.values)
    for a_max, b_max in [((12, 12), Z), ((4, 4), (4, 4))]:
        table = seminorm_table(fn, a_max, b_max)
        assert len(table) == len(list(box(a_max))) * len(list(box(b_max)))
        for b in box(b_max):
            coeffs = derivative_coefficients(hat, grid, b)
            values = np.fft.ifftn(coeffs) if any(b) else fn.values
            for a in box(a_max):
                expected = _oracle_entry(values, coeffs, grid, a, lo, hi)
                assert abs(table[(a, b)] - expected) <= 1e-13 * expected, (a, b)


def _per_entry_zoom_sups(coeffs, grid, decays, starts, lo, hi):
    # the zoom before it shared rows: one basis row per entry and window
    # point, and one (5E x N)(N x N) GEMM per round
    n_pts = grid.n_points
    axis = grid.axis()
    top = n_pts // 2
    freqs = 2.0 * np.pi * np.fft.fftfreq(n_pts, grid.spacing)[: top + 1]
    powers = np.array(decays, dtype=float)[:, :, None]
    best = np.array([value for value, _ in starts], dtype=float)
    centers = np.array([point for _, point in starts], dtype=float)
    rows = np.arange(len(best))
    offsets = np.linspace(-1.0, 1.0, 5)
    half = grid.spacing
    for _ in range(6):
        pts = np.clip(centers[:, :, None] + half * offsets, axis[lo], axis[hi - 1])
        lower = np.exp(1j * ((pts + grid.half_extent)[..., None] * freqs)) / n_pts
        basis = np.concatenate([lower, np.conj(lower[..., top - 1 : 0 : -1])], -1)
        along_x = (basis[:, 0].reshape(-1, n_pts) @ coeffs).reshape(len(best), 5, n_pts)
        vals = np.abs(np.einsum("eik,ejk->eij", along_x, basis[:, 1]))
        weight = np.abs(pts) ** powers
        vals = vals * (weight[:, 0, :, None] * weight[:, 1, None, :])
        flat = vals.reshape(len(best), -1).argmax(axis=1)
        i, j = np.divmod(flat, 5)
        peak = vals[rows, i, j]
        better = peak > best
        best = np.where(better, peak, best)
        centers[better] = np.stack([pts[rows, 0, i], pts[rows, 1, j]], -1)[better]
        half /= 3.0
    return best


def _lattice_sup(abs_vals, grid, a, lo, hi):
    """Weighted lattice sup of the band-sliced |values| and its point."""
    weighted = abs_vals
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


def _per_entry_table(fn, pairs, band):
    # _seminorm_entries with the per-entry zoom: same lattice starts
    grid = fn.grid
    lo, hi = grid.interior_range(band)
    hat = np.fft.fftn(fn.values)
    table = {}
    for b in dict.fromkeys(b for _, b in pairs):
        decays = [a for a, b_entry in pairs if b_entry == b]
        coeffs = derivative_coefficients(hat, grid, b)
        deriv = np.fft.ifftn(coeffs) if any(b) else fn.values
        abs_vals = np.abs(deriv[lo:hi, lo:hi])
        starts = [_lattice_sup(abs_vals, grid, a, lo, hi) for a in decays]
        values = _per_entry_zoom_sups(coeffs, grid, decays, starts, lo, hi)
        table.update({(a, b): float(v) for a, v in zip(decays, values)})
    return table


def _decay_pairs(cap):
    return [(a, Z) for a in box(cap)]


@pytest.mark.parametrize(
    "which, pairs",
    [
        ("vacuum", _decay_pairs((14, 14))),
        ("mixture", _decay_pairs((12, 12))),
        ("mixture", BoundContext(vacuum_state(1), max_total_order=4).index_pairs()),
    ],
    ids=["vacuum-decay-14", "mixture-decay-12", "mixture-order-cap-4"],
)
def test_shared_row_zoom_matches_per_entry_zoom(which, pairs, grid, vacuum_wigner):
    fn = vacuum_wigner if which == "vacuum" else wigner(
        random_mixture(np.random.default_rng(3)), grid
    )
    table = _seminorm_entries(fn, pairs)
    assert len(table) == len(pairs)
    assert table == _per_entry_table(fn, pairs, DEFAULT_BAND)


def test_shared_row_zoom_matches_per_entry_zoom_at_box_edge():
    # with no band, rounding noise times |x|^a |p|^b peaks in the corners,
    # where the windows clip and several of their points coincide
    grid = Grid(2, 64, 6.0)
    fn = wigner(vacuum_state(1).displaced(np.array([4.5, -1.0])), grid)
    pairs = _decay_pairs((14, 14))
    lo, hi = grid.interior_range(0.0)
    abs_vals = np.abs(fn.values)
    edge = grid.axis()[[0, -1]]
    starts = [_lattice_sup(abs_vals, grid, a, lo, hi)[1] for a, _ in pairs]
    assert any(np.isin(point, edge).any() for point in starts)
    assert _seminorm_entries(fn, pairs, band=0.0) == _per_entry_table(fn, pairs, 0.0)


def test_decay_table_peak_memory(traced_peak):
    fn = wigner(random_mixture(np.random.default_rng(1)), Grid(2, 256, 12.0))
    peak = traced_peak(seminorm_table, fn, (14, 14), Z)
    # one basis row per distinct coordinate: the per-entry zoom peaked
    # near 34 MB here
    assert peak < 24e6


def test_blocked_zoom_matches_per_entry_zoom(vacuum_wigner, monkeypatch):
    # 529 entries at N = 256 zoom as two blocks (409 and 120 entries)
    calls, zoom = [], seminorms_module._zoom_sups

    def counted(coeffs, grid, decays, *rest):
        calls.append(len(decays))
        return zoom(coeffs, grid, decays, *rest)

    monkeypatch.setattr(seminorms_module, "_zoom_sups", counted)
    pairs = _decay_pairs((22, 22))
    table = _seminorm_entries(vacuum_wigner, pairs)
    assert calls == [409, 120]
    assert table == _per_entry_table(vacuum_wigner, pairs, DEFAULT_BAND)


def test_blocked_zoom_peak_memory(traced_peak):
    # the closed-form vacuum W on a 512^2 grid; zooming all 529 entries at
    # once peaked near 72 MB here, about twice the 256^2 peak
    grid = Grid(2, 512, 12.0)
    fn = PhaseSpaceFn(grid, np.exp(-(grid.points() ** 2).sum(-1)) / np.pi)
    assert traced_peak(seminorm_table, fn, (22, 22), Z) < 40e6


def _band_abs_values(fn, b, band):
    grid = fn.grid
    lo, hi = grid.interior_range(band)
    coeffs = derivative_coefficients(np.fft.fftn(fn.values), grid, b)
    deriv = np.fft.ifftn(coeffs) if any(b) else fn.values
    return np.abs(deriv[(slice(lo, hi),) * grid.dim]), lo, hi


@pytest.mark.parametrize(
    "state, b, band",
    [(fock_state(m), Z, DEFAULT_BAND) for m in range(4)]
    + [
        (random_mixture(np.random.default_rng(4)), b, DEFAULT_BAND)
        for b in [Z, (1, 0), (0, 2), (1, 1)]
    ]
    + [(fock_state(1), Z, 0.0)],
    ids=[f"fock{m}" for m in range(4)]
    + [f"mixture-b{b[0]}{b[1]}" for b in [Z, (1, 0), (0, 2), (1, 1)]]
    + ["fock1-band0"],
)
def test_lattice_sups_match_per_entry_lattice_sup(state, b, band, grid):
    # Fock states have exact mirror ties, which np.argmax breaks in C order
    fn = wigner(as_mixed(state), grid)
    abs_vals, lo, hi = _band_abs_values(fn, b, band)
    decays = list(box((14, 14)))
    expected = [_lattice_sup(abs_vals, grid, a, lo, hi) for a in decays]
    assert _lattice_sups(abs_vals, grid, decays, lo, hi) == expected


def test_lattice_sups_match_per_entry_lattice_sup_at_box_edge():
    grid = Grid(2, 64, 6.0)
    fn = wigner(vacuum_state(1).displaced(np.array([4.5, -1.0])), grid)
    abs_vals, lo, hi = _band_abs_values(fn, Z, 0.0)
    decays = list(box((14, 14)))
    expected = [_lattice_sup(abs_vals, grid, a, lo, hi) for a in decays]
    edge = grid.axis()[[0, -1]]
    assert any(np.isin(point, edge).any() for _, point in expected)
    assert _lattice_sups(abs_vals, grid, decays, lo, hi) == expected


def test_lattice_sups_match_per_entry_on_a_two_mode_decay_table():
    # every entry of a cap (8, 8, 8, 8) table: 6561 maxima over a 26^4 band
    grid = Grid(4, 32, 8.0)
    fn = wigner(random_mixture(np.random.default_rng(2), n=2), grid)
    abs_vals, lo, hi = _band_abs_values(fn, (0, 0, 0, 0), DEFAULT_BAND)
    decays = list(box((8, 8, 8, 8)))
    sups = _lattice_sups(abs_vals, grid, decays, lo, hi)
    assert [value for value, _ in sups] == [
        _lattice_sup(abs_vals, grid, a, lo, hi)[0] for a in decays
    ]
    assert {point for _, point in sups} == {None}


def test_seminorm_rejects_high_derivative(vacuum_wigner):
    with pytest.raises(ValueError, match="12"):
        seminorm(vacuum_wigner, Z, (13, 0))


def test_seminorm_rejects_wrong_index_length(vacuum_wigner):
    with pytest.raises(ValueError):
        seminorm(vacuum_wigner, (1, 0, 0), Z)


def test_norm_sum_is_box_sum(vacuum_wigner):
    expected = seminorm(vacuum_wigner, Z, Z) + seminorm(vacuum_wigner, (1, 0), Z)
    assert abs(norm_sum(vacuum_wigner, (1, 0), Z) - expected) < 1e-10


def test_table_matches_direct_calls(vacuum_wigner):
    table = seminorm_table(vacuum_wigner, (1, 0), (0, 1))
    assert set(table) == {
        (a, b) for a in [(0, 0), (1, 0)] for b in [(0, 0), (0, 1)]
    }
    for (a, b), value in table.items():
        assert abs(value - seminorm(vacuum_wigner, a, b)) < 1e-12
    direct = norm_sum(vacuum_wigner, (1, 0), (0, 1))
    assert abs(norm_sum_from_table(table, (1, 0), (0, 1)) - direct) < 1e-10
    decay = decay_norm_from_table(table, (1, 0))
    assert abs(decay - (table[((0, 0), (0, 0))] + table[((1, 0), (0, 0))])) < 1e-15


def test_report_record_roundtrip():
    report = SeminormReport("decay", ((1, 0), (0, 1)), 0.25, 256, 12.0, 0.1)
    fields = report.row().split(",")
    assert fields[0] == "decay"
    assert fields[1] == '"1 0"'
    assert fields[2] == '"0 1"'
    assert float(fields[3]) == 0.25
    assert int(fields[4]) == 256


# --- jointly-Schwartz family seminorm -------------------------------------


def test_joint_vacuum_sup():
    # sup |psi_0| = pi^{-1/4} at the origin
    value = joint_seminorm([vacuum_state(1)], (0,), (0,))
    assert abs(value - math.pi ** -0.25) < 1e-10


def test_joint_vacuum_first_moment():
    # sup |x psi_0| = pi^{-1/4} e^{-1/2} at x = 1
    value = joint_seminorm([vacuum_state(1)], (1,), (0,))
    assert abs(value - math.pi ** -0.25 * math.exp(-0.5)) < 1e-10


def test_joint_fock_mixture_components():
    # sum of weighted densities 0.5(psi_0^2 + psi_1^2) peaks at x = 1/sqrt(2)
    rho = MixedState([0.5, 0.5], [vacuum_state(1), fock_state(1, 1)])
    value = joint_seminorm(scaled_components(rho), (0,), (0,))
    expected = math.sqrt(math.exp(-0.5) / math.sqrt(math.pi))
    assert abs(value - expected) < 1e-10


def test_joint_empty_family_is_zero():
    assert joint_seminorm([], (0,), (0,)) == 0.0


def test_joint_rejects_non_analytic():
    from phasespace import demo_state

    with pytest.raises(ValueError, match="analytic"):
        joint_seminorm([demo_state("plateau")], (0,), (0,))


def test_joint_refuses_mixed_axis_family():
    with pytest.raises(ValueError, match="share the number of axes"):
        joint_seminorm([vacuum_state(1), vacuum_state(2)], (0,), (0,))


# --- operator sandwich seminorm -------------------------------------------


def test_operator_vacuum_projector():
    # |0><0| has a single unit singular value
    value = operator_seminorm(vacuum_state(1), (0,), (0,), (0,), (0,))
    assert abs(value - 1.0) < 1e-8


def test_operator_position_sandwich():
    # ||X|0>|| = sqrt(<0|X^2|0>) = 1/sqrt(2)
    value = operator_seminorm(vacuum_state(1), (1,), (0,), (0,), (0,))
    assert abs(value - 2.0 ** -0.5) < 1e-8


def test_operator_momentum_sandwich():
    # <0|P^2|0> = 1/2 as well, by x<->p symmetry of the ground state
    value = operator_seminorm(vacuum_state(1), (0,), (1,), (0,), (0,))
    assert abs(value - 2.0 ** -0.5) < 1e-8


def test_operator_two_sided_sandwich():
    # X|0><0|X has singular value <0|X^2|0> = 1/2
    value = operator_seminorm(vacuum_state(1), (1,), (0,), (0,), (1,))
    assert abs(value - 0.5) < 1e-8


def test_operator_quartic_moment():
    # ||X^2|0>|| = sqrt(<0|X^4|0>) = sqrt(3)/2
    value = operator_seminorm(vacuum_state(1), (2,), (0,), (0,), (0,))
    assert abs(value - math.sqrt(3.0) / 2.0) < 1e-8


def test_operator_mixture_singular_value():
    # for rho = sum_m w_m |m><m| the top singular value is max w_m
    rho = MixedState([0.7, 0.3], [vacuum_state(1), fock_state(1, 1)])
    value = operator_seminorm(rho, (0,), (0,), (0,), (0,))
    assert abs(value - 0.7) < 1e-8


def test_operator_default_lattice_holds_a_far_state():
    # the default line lattice spans the suggest_grid box (L = 20 here); a fixed
    # [-12, 12) lattice cut this state and gave ||rho|| = 0.755
    far = PureState([Atom((0,), (11.5, 0.0), 1.0)])
    assert abs(operator_seminorm(far, (0,), (0,), (0,), (0,)) - 1.0) < 1e-8
    # ||X D_(11.5, 0)|0>|| = sqrt(11.5^2 + 1/2)
    value = operator_seminorm(far, (1,), (0,), (0,), (0,))
    assert abs(value - math.sqrt(11.5**2 + 0.5)) < 1e-8


def test_operator_order_cap():
    with pytest.raises(ValueError, match="cap"):
        operator_seminorm(vacuum_state(1), (0,), (5,), (4,), (0,))


def test_operator_flags_coarse_grid():
    coarse = Grid(1, 8, 12.0, kind="config")
    with pytest.raises(GridResolutionError):
        operator_seminorm(vacuum_state(1), (0,), (0,), (0,), (0,), grid=coarse)


def test_operator_rejects_phase_space_grid():
    with pytest.raises(ValueError, match="config"):
        operator_seminorm(
            vacuum_state(1), (0,), (0,), (0,), (0,), grid=Grid(2, 64, 8.0)
        )


@pytest.mark.parametrize("a, b, c, d", [
    (1, 4, 4, 0), (0, 4, 4, 0), (2, 3, 1, 2), (1, 1, 0, 0), (3, 0, 2, 1),
])
@pytest.mark.parametrize("label", ["vacuum", "fock1", "seed3", "seed11"])
def test_operator_pure_state_is_product_of_norms(label, a, b, c, d):
    # X^a P^b |psi><psi| P^c X^d = |f><g| with f = X^a P^b psi and
    # g = X^d P^c psi has the single singular value ||f|| ||g||, and
    # ||P^b h|| = ||d^b h||
    if label.startswith("seed"):
        psi = random_pure_state(np.random.default_rng(int(label[4:])))
    else:
        psi = demo_state(label)
    value = operator_seminorm(psi, (a,), (b,), (c,), (d,))
    expected = (
        psi.weighted_derivative((a,), (b,)).norm()
        * psi.weighted_derivative((d,), (c,)).norm()
    )
    assert abs(value - expected) <= 1e-12 * expected


def test_operator_never_builds_the_kernel(monkeypatch, mixture):
    def refuse(self, x, y):
        raise AssertionError("operator seminorm evaluated the kernel")

    monkeypatch.setattr(MixedState, "kernel", refuse)
    value = operator_seminorm(mixture, (1,), (1,), (0,), (1,))
    assert math.isfinite(value) and value > 0


def test_operator_flags_plateau():
    # the indicator's lattice mass moves by about 2 % under N doubling
    with pytest.raises(GridResolutionError):
        operator_seminorm(demo_state("plateau"), (0,), (0,), (0,), (0,))


# --- kernel seminorm and the factorized envelope --------------------------


def test_kernel_vacuum_values():
    # K(x,y) = psi_0(x) psi_0(y); separable sups multiply
    base = kernel_seminorm(vacuum_state(1), (0,), (0,), (0,), (0,))
    assert abs(base - 1.0 / math.sqrt(math.pi)) < 1e-10
    moment = kernel_seminorm(vacuum_state(1), (1,), (0,), (1,), (0,))
    assert abs(moment - math.exp(-1.0) / math.sqrt(math.pi)) < 1e-10


def test_kernel_bounded_by_joint_product(mixture):
    comps = scaled_components(mixture)
    for a, b, c, d in [
        ((0,), (0,), (0,), (0,)),
        ((1,), (0,), (0,), (1,)),
        ((2,), (1,), (1,), (2,)),
    ]:
        lhs = kernel_seminorm(mixture, a, b, c, d)
        rhs = joint_seminorm(comps, a, b) * joint_seminorm(comps, c, d)
        assert lhs <= rhs * (1.0 + 1e-9)


def test_kernel_rejects_non_analytic():
    from phasespace import demo_state

    with pytest.raises(ValueError, match="analytic"):
        kernel_seminorm(demo_state("plateau"), (0,), (0,), (0,), (0,))


# --- the shared lattice-then-window search against its three former loops --------
# Each oracle is the search a caller ran on its own before the callers shared
# `_zoom_max`: lattice argmax, six (heavy tail: five) windows per axis around
# the best point, strict accept, width / 3 per window.


def _oracle_joint(states, a, b):
    weighted = [ps.weighted_derivative(a, b) for ps in states]

    def sq_sum(xs):
        return sum(np.abs(g.evaluate(xs[:, None])) ** 2 for g in weighted)

    half = max(ps.reach() for ps in states) + sum(a) + sum(b)
    xs = np.linspace(-half, half, 4096)
    vals = sq_sum(xs)
    best, center = float(vals.max()), float(xs[int(np.argmax(vals))])
    width = float(xs[1] - xs[0])
    for _ in range(6):
        local = np.linspace(center - width, center + width, 33)
        vals = sq_sum(local)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, center = float(vals[i]), float(local[i])
        width /= 3.0
    return float(np.sqrt(best))


def _oracle_kernel(state, a, b, c, d):
    rho = as_mixed(state)
    half = rho.reach() + sum(a) + sum(b) + sum(c) + sum(d)
    lam = np.asarray(rho.weights)[:, None]
    left = [ps.weighted_derivative(a, b) for ps in rho.pure_states]
    right = [ps.weighted_derivative(c, d) for ps in rho.pure_states]

    def sup_on(xs, ys):
        fx = np.stack([f.evaluate(xs[:, None]) for f in left])
        gy = np.stack([g.evaluate(ys[:, None]) for g in right])
        mat = np.abs((lam * fx).T @ np.conj(gy))
        i, j = np.unravel_index(int(np.argmax(mat)), mat.shape)
        return float(mat[i, j]), float(xs[i]), float(ys[j])

    xs = np.linspace(-half, half, 1024)
    best, cx, cy = sup_on(xs, xs)
    width = float(xs[1] - xs[0])
    for _ in range(6):
        lx = np.linspace(cx - width, cx + width, 17)
        ly = np.linspace(cy - width, cy + width, 17)
        val, px, py = sup_on(lx, ly)
        if val > best:
            best, cx, cy = val, px, py
        width /= 3.0
    return best


def _oracle_heavy_tail(k_max):
    values = []
    for k in range(1, k_max + 1):
        rho = demo_state("heavy_tail", K=k)
        xs = np.arange(-4.0, float(k**3) + 4.0, 0.05)
        near = np.zeros(xs.shape, dtype=bool)
        for j in range(1, k + 1):
            near |= np.abs(xs - float(j**3)) <= 4.0
        xs = xs[near]

        def x_weighted(xs):
            return np.abs(xs * wigner_values(rho, np.stack([xs, np.zeros_like(xs)], -1)))

        vals = x_weighted(xs)
        i = int(np.argmax(vals))
        best, center, width = float(vals[i]), float(xs[i]), 0.05
        for _ in range(5):
            local = np.linspace(center - width, center + width, 17)
            lv = x_weighted(local)
            j = int(np.argmax(lv))
            if lv[j] > best:
                best, center = float(lv[j]), float(local[j])
            width /= 3.0
        values.append(best)
    return values


C12_INDICES = [(0,), (1,), (2,)]


def test_joint_search_matches_its_former_loop(mixture):
    comps = scaled_components(mixture)
    for a in C12_INDICES:
        for b in C12_INDICES:
            assert joint_seminorm(comps, a, b) == _oracle_joint(comps, a, b)


def test_kernel_search_matches_its_former_loop(mixture):
    for a, b, c, d in itertools.product(C12_INDICES, repeat=4):
        assert kernel_seminorm(mixture, a, b, c, d) == _oracle_kernel(
            mixture, a, b, c, d
        )
    vac = vacuum_state(1)
    for args in [((0,), (0,), (0,), (0,)), ((1,), (0,), (1,), (0,))]:
        assert kernel_seminorm(vac, *args) == _oracle_kernel(vac, *args)
    assert joint_seminorm([vac], (1,), (0,)) == _oracle_joint([vac], (1,), (0,))


def test_heavy_tail_search_matches_its_former_loop():
    assert heavy_tail_first_seminorms(6) == _oracle_heavy_tail(6)


def test_weighted_components_built_once_per_call(monkeypatch):
    rho = random_mixture(np.random.default_rng(5), n_components=3)
    comps = scaled_components(rho)
    built = []
    weighted_derivative = PureState.weighted_derivative

    def counting(self, a, b):
        built.append((a, b))
        return weighted_derivative(self, a, b)

    monkeypatch.setattr(PureState, "weighted_derivative", counting)
    kernel_seminorm(rho, (1,), (2,), (0,), (1,))
    assert len(built) == 2 * len(comps)
    built.clear()
    joint_seminorm(comps, (2,), (1,))
    assert len(built) == len(comps)


def test_envelope_builds_each_weighted_component_once(monkeypatch):
    rho = random_mixture(np.random.default_rng(5), n_components=3)
    steps = []
    ladder = PureState._ladder

    def counting(self, axis, diag, sign):
        steps.append(axis)
        return ladder(self, axis, diag, sign)

    monkeypatch.setattr(PureState, "_ladder", counting)
    quads = list(itertools.product(C12_INDICES, repeat=4))
    first = [kernel_seminorm(rho, *quad) for quad in quads]
    # each of the 9 distinct (a, b) is built once per component, in
    # |a| + |b| ladder steps, where 81 entries used to build 162
    once = sum(a[0] + b[0] for a in C12_INDICES for b in C12_INDICES)
    assert len(steps) == once * len(rho.pure_states)
    assert [kernel_seminorm(rho, *quad) for quad in quads] == first
    assert len(steps) == once * len(rho.pure_states)


def test_envelope_evaluates_each_kernel_row_once(monkeypatch):
    rho = random_mixture(np.random.default_rng(5), n_components=3)
    lattice, windows = [], []
    evaluate_components = seminorms_module.evaluate_components

    def counting(states, points):
        calls = lattice if len(points) == 1024 else windows
        calls.append((tuple(map(id, states)), float(points[-1, 0])))
        return evaluate_components(states, points)

    monkeypatch.setattr(seminorms_module, "evaluate_components", counting)
    quads = list(itertools.product(C12_INDICES, repeat=4))
    first = [kernel_seminorm(rho, *quad) for quad in quads]
    # 9 index pairs, each on the lattices of 5 halves reach + 0..4 (the other
    # side's order), shared by both sides: 45 rows, where one per side and
    # entry made 162; each zoom round evaluates each side's 3 components once
    assert len(lattice) == len(set(lattice)) == 45
    assert len(windows) == 2 * 6 * len(quads)
    assert {len(states) for states, _ in lattice + windows} == {3}
    lattice.clear()
    assert [kernel_seminorm(rho, *quad) for quad in quads] == first
    assert lattice == []


def test_joint_seminorm_reads_no_kernel_rows(monkeypatch):
    # c12 compares the kernel sup with a product of joint seminorms; the
    # joint side evaluates scaled_components, new states, on its own lattice
    rho = random_mixture(np.random.default_rng(5), n_components=3)
    kernel_seminorm(rho, (1,), (2,), (1,), (2,))

    def refuse(weighted, half):
        raise AssertionError("joint_seminorm read kernel rows")

    monkeypatch.setattr(seminorms_module, "_kernel_rows", refuse)
    comps = scaled_components(rho)
    assert joint_seminorm(comps, (1,), (2,)) == _oracle_joint(comps, (1,), (2,))
    assert all(not ps.weighted_derivative((1,), (2,)).kernel_rows for ps in comps)


# --- the pruned kernel lattice search against the dense product --------------

small_atoms = st.builds(
    lambda m, ax, ap, re, im: Atom((m,), (ax, ap), complex(re, im)),
    st.integers(0, 3),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
weighted_components = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e-200)),
    st.lists(small_atoms, min_size=1, max_size=3).map(PureState),
)


@settings(max_examples=40, deadline=None)
@given(
    comps=st.lists(weighted_components, min_size=1, max_size=4),
    entry=st.tuples(*[st.sampled_from(C12_INDICES)] * 4),
)
def test_pruned_kernel_search_matches_dense_oracle(comps, entry):
    # K = 1..4 components, weights drawn exactly 0 or so small that squared
    # component values would underflow
    rho = MixedState([w for w, _ in comps], [psi for _, psi in comps])
    assert kernel_seminorm(rho, *entry) == _oracle_kernel(rho, *entry)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_pruned_kernel_search_keeps_mirror_ties(m):
    # |K(x, y)| = |f(x)| |f(y)| on a symmetric lattice: mirror rows share
    # their bound and the lattice max is reached up to four times, where
    # the smallest row, then the smallest column, must win
    psi = fock_state(m)
    for a, b in itertools.product(C12_INDICES, repeat=2):
        assert kernel_seminorm(psi, a, b, a, b) == _oracle_kernel(psi, a, b, a, b)


@pytest.mark.parametrize("weights", [(0.0, 0.0), (1e-200, 0.0), (2.2e-311, 1e-320)])
def test_pruned_kernel_search_on_zero_and_tiny_kernels(weights):
    rho = MixedState(weights, [vacuum_state(1), fock_state(1)])
    for entry in [((0,), (0,), (0,), (0,)), ((1,), (2,), (0,), (1,))]:
        value = kernel_seminorm(rho, *entry)
        assert value == _oracle_kernel(rho, *entry)
        assert (value == 0.0) == (max(weights) == 0.0)
    # every bound ties with the best value 0, so no row may be pruned and
    # the peak is the dense argmax, the first lattice point
    xs = np.linspace(-3.0, 3.0, 1024)
    zero = np.zeros((2, xs.size), dtype=complex)
    assert _kernel_lattice_peak(zero, zero, xs, None) == (0.0, [xs[0], xs[0]])


def _dense_lattice_peak(rows_f, cols_g, xs):
    vals = np.abs(rows_f.T @ cols_g)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[i, j]), [float(xs[i]), float(xs[j])]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    ties=st.integers(0, 40),
    zero_rows=st.integers(0, 1024),
)
def test_pruned_lattice_peak_is_the_dense_argmax(k, seed, ties, zero_rows):
    rng = np.random.default_rng(seed)
    xs = np.linspace(-8.0, 8.0, 1024)

    def components():
        envelope = np.exp(-((xs - rng.uniform(-4.0, 4.0, (k, 1))) ** 2) / 4.0)
        noise = rng.normal(size=(2, k, xs.size))
        return envelope * (noise[0] + 1j * noise[1])

    rows_f, cols_g = components(), np.conj(components())
    # repeated rows and columns tie in bound and value; zeroed rows tie at 0
    src, dst = rng.integers(0, xs.size, (2, ties))
    rows_f[:, dst] = rows_f[:, src]
    cols_g[:, rng.permutation(dst)] = cols_g[:, src]
    rows_f[:, rng.permutation(xs.size)[:zero_rows]] = 0.0
    got = _kernel_lattice_peak(rows_f, cols_g, xs, None)
    assert got == _dense_lattice_peak(rows_f, cols_g, xs)


def test_pruned_lattice_peak_breaks_value_ties_by_row_not_bound():
    # rows 3 and 700 reach the max 2 through their first component; row
    # 700's second component meets a zero and only raises its bound, so
    # row 700 is read first, yet the dense argmax, row 3, must win
    xs = np.linspace(-1.0, 1.0, 1024)
    rows_f = np.zeros((2, xs.size), dtype=complex)
    cols_g = np.zeros((2, xs.size), dtype=complex)
    rows_f[0], cols_g[0] = 0.1, 0.1
    rows_f[:, 3], rows_f[:, 700], cols_g[:, 5] = (1.0, 0.0), (1.0, 0.5), (2.0, 0.0)
    peak = _kernel_lattice_peak(rows_f, cols_g, xs, None)
    assert peak == _dense_lattice_peak(rows_f, cols_g, xs) == (2.0, [xs[3], xs[5]])


def test_pruned_lattice_peak_finds_a_row_at_its_bound_past_two_blocks():
    # row 900 meets Cauchy-Schwarz with equality (value 1 = its bound) but
    # sorts after rows 0..127, whose larger bounds hold values of 0.9995:
    # only a bound that never falls below a value keeps row 900 read
    xs = np.linspace(-1.0, 1.0, 1024)
    rows_f = np.zeros((2, xs.size), dtype=complex)
    cols_g = np.zeros((2, xs.size), dtype=complex)
    rows_f[:, :128] = np.c_[[0.9995, 10.0]]
    rows_f[:, 900], cols_g[:, 7] = (1.0, 0.0), (1.0, 0.0)
    peak = _kernel_lattice_peak(rows_f, cols_g, xs, None)
    assert peak == _dense_lattice_peak(rows_f, cols_g, xs) == (1.0, [xs[900], xs[7]])


def test_pruned_lattice_peak_floor_covers_subnormal_rounding():
    # row 0's product rounds up past its own Cauchy-Schwarz bound in the
    # subnormal range (5.4e-323 against 5e-323); rows 1..128 reach the same
    # value with a larger bound, so without the floor row 0 would open a
    # pruned third block, while the dense argmax is row 0
    f_low = [4.985938041729444e-169 + 1.3986922330346728e-168j,
             -1.1007761368161304e-168 - 8.838969211115465e-169j]
    f_high = [8.956678053738013e-169 - 1.2829552024922615e-168j,
              2.3845931268591166e-169 + 1.5399914596311555e-168j]
    g = [9.981696814774167e-156 + 1.4297789628455409e-155j,
         2.6574903637368414e-156 - 1.7162309234688226e-155j]
    xs = np.linspace(-1.0, 1.0, 1024)
    rows_f = np.zeros((2, xs.size), dtype=complex)
    cols_g = np.zeros((2, xs.size), dtype=complex)
    rows_f[:, 0], rows_f[:, 1:129], cols_g[:, 0] = f_low, np.c_[f_high], g
    peak = _kernel_lattice_peak(rows_f, cols_g, xs, None)
    assert peak == _dense_lattice_peak(rows_f, cols_g, xs) == (5.4e-323, [xs[0], xs[0]])


@pytest.mark.parametrize("poisoned_call", [0, 1])
def test_kernel_nan_component_raises_by_name(monkeypatch, poisoned_call):
    # call 0 evaluates the left component set on the lattice, call 1 the right
    evaluate, calls = PureState.evaluate, []

    def poisoning(self, points):
        vals = evaluate(self, points)
        if len(calls) == poisoned_call:
            vals[len(vals) // 3] = complex(np.nan, 0.0)
        calls.append(len(vals))
        return vals

    monkeypatch.setattr(PureState, "evaluate", poisoning)
    named = r"a=\(1,\) b=\(0,\) c=\(2,\) d=\(1,\): component values are not finite"
    with pytest.raises(ValueError, match=named):
        kernel_seminorm(vacuum_state(1), (1,), (0,), (2,), (1,))
    assert calls == [1024, 1024]
