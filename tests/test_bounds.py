"""Inequality evaluators: Cauchy-Schwarz reports, off-diagonal seminorm
bounds, and the main product bound with its Husimi-route intermediate."""

import math

import numpy as np
import pytest

from phasespace import (
    Atom,
    BoundContext,
    BoundReport,
    Grid,
    PhaseSpaceFn,
    PureState,
    cauchy_schwarz_reports,
    fock_state,
    offdiag_bound_rhs,
    offdiag_reports,
    offdiag_wigner,
    random_mixture,
    random_pure_state,
    seminorm,
    seminorm_table,
    suggest_grid,
    vacuum_state,
    wigner,
)
from phasespace import bounds, transforms
from phasespace.bounds import chi_seminorm_table, offdiag_loose_rhs, offdiag_tight_rhs
from phasespace.grid import DEFAULT_BAND, derivative_coefficients
from phasespace.multiindex import (
    add,
    add_scalar,
    binom,
    box,
    monomial,
    order,
    scale,
    sub,
    swap_xp,
)
from phasespace.transforms import MatelSampler

Z = (0, 0)


# --- Cauchy-Schwarz --------------------------------------------------------


def test_cs_vacuum_closed_form():
    # rank-one rho makes the bound an equality; at alpha=(2,0), beta=0
    # both sides equal exp(-2)
    chi = vacuum_state(1)
    pairs = [(np.array([2.0, 0.0]), np.array([0.0, 0.0]))]
    (report,) = cauchy_schwarz_reports(vacuum_state(1), chi, pairs)
    assert abs(report.lhs - math.exp(-2.0)) < 1e-9
    assert abs(report.ratio - 1.0) < 1e-9
    assert report.passed


def test_cs_equality_on_diagonal(mixture):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.5, 2.5, size=(20, 2))
    pairs = [(p, p.copy()) for p in pts]
    for report in cauchy_schwarz_reports(mixture, vacuum_state(1), pairs):
        assert abs(report.ratio - 1.0) < 1e-12


def test_cs_strict_for_mixtures(mixture):
    rng = np.random.default_rng(11)
    draws = rng.uniform(-2.5, 2.5, size=(100, 2, 2))
    pairs = [(row[0], row[1]) for row in draws]
    reports = cauchy_schwarz_reports(mixture, vacuum_state(1), pairs)
    ratios = [r.ratio for r in reports]
    assert all(r <= 1.0 + 1e-9 for r in ratios)
    # a rank >= 2 state cannot saturate the bound at generic off-diagonal
    # pairs, so the sweep must see genuinely strict cases
    assert min(ratios) < 0.99


def cauchy_schwarz_by_three_matel(state, chi, pairs):
    """(lhs, rhs) per pair from M(alpha, beta), M(alpha, alpha) and
    M(beta, beta) as three separate `matel` calls."""
    alphas, betas = np.moveaxis(np.asarray(pairs, dtype=float), 1, 0)
    m2 = np.abs(transforms.matel(state, chi, alphas, betas)) ** 2
    q_a = transforms.matel(state, chi, alphas, alphas).real
    q_b = transforms.matel(state, chi, betas, betas).real
    return [(float(lhs), float(qa * qb)) for lhs, qa, qb in zip(m2, q_a, q_b)]


@pytest.mark.parametrize(
    "state, chi",
    [
        (fock_state(1), vacuum_state(1)),
        (random_mixture(np.random.default_rng(4), n_components=2), vacuum_state(1)),
        (
            random_mixture(np.random.default_rng(6)),
            random_pure_state(np.random.default_rng(8), n_atoms=4),
        ),
    ],
    ids=["fock1", "mixture", "four-atom-window"],
)
def test_cs_reports_equal_three_matel_route(state, chi):
    # one overlap per side serves all three sums, value for value
    draws = np.random.default_rng(12).uniform(-2.5, 2.5, size=(60, 2, 2))
    pairs = [(row[0], row[1]) for row in draws]
    reports = cauchy_schwarz_reports(state, chi, pairs)
    expected = cauchy_schwarz_by_three_matel(state, chi, pairs)
    assert [(r.lhs, r.rhs) for r in reports] == expected


# --- report mechanics ------------------------------------------------------


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_cs_reports_match_sampler_loop(seed):
    # the batched reports against one MatelSampler call per matrix element
    if seed is None:
        state = fock_state(1)
    else:
        state = random_mixture(np.random.default_rng(seed))
    chi = vacuum_state(1)
    draws = np.random.default_rng(5).uniform(-2.5, 2.5, size=(40, 2, 2))
    pairs = [(row[0], row[1]) for row in draws]
    sampler = MatelSampler(state, chi)
    reports = cauchy_schwarz_reports(state, chi, pairs)
    assert len(reports) == len(pairs)
    for report, (alpha, beta) in zip(reports, pairs):
        assert report.indices == (tuple(alpha), tuple(beta))
        assert abs(report.lhs - abs(sampler(alpha, beta)) ** 2) <= 1e-15
        rhs = sampler(alpha, alpha).real * sampler(beta, beta).real
        assert abs(report.rhs - rhs) <= 1e-15
    assert not hasattr(bounds, "MatelSampler")


def test_report_ratio_zero_rhs():
    assert BoundReport("t", (Z, Z), 0.0, 0.0).ratio == 0.0
    degenerate = BoundReport("t", (Z, Z), 1.0, 0.0)
    assert degenerate.ratio == np.inf
    assert not degenerate.passed


def test_report_row_format():
    report = BoundReport("theorem", ((1, 0), (0, 2)), 0.5, 2.0)
    fields = report.row().split(",")
    assert fields[0] == '"1 0"'
    assert fields[1] == '"0 2"'
    assert float(fields[2]) == 0.5
    assert float(fields[3]) == 2.0
    assert float(fields[4]) == 0.25
    assert fields[5] == "1"


# --- off-diagonal bounds ---------------------------------------------------


def test_loose_rhs_zero_order_is_chi_sup():
    # with a = b = 0 the loose rhs collapses to |W_chi|_{0,0} = 1/pi
    chi = vacuum_state(1)
    table = chi_seminorm_table(chi, Z, Z)
    value = offdiag_loose_rhs(table, Z, Z, [1.0, -2.0], [0.5, 3.0])
    assert abs(value - 1.0 / math.pi) < 1e-8
    tight = offdiag_tight_rhs(table, Z, Z, [1.0, -2.0], [0.5, 3.0])
    assert abs(tight - 1.0 / math.pi) < 1e-8


def lattice_table(fn, a_max, b_max, band=DEFAULT_BAND):
    """|F|_{a,b} for a <= a_max, b <= b_max as the plain lattice max of
    |x^a1 p^a2 d^b F| over the interior band, with no zoom (2-D grids)."""
    grid = fn.grid
    lo, hi = grid.interior_range(band)
    axis = grid.axis()[lo:hi]
    hat = np.fft.fftn(fn.values)
    table = {}
    for b in box(b_max):
        deriv = np.fft.ifftn(derivative_coefficients(hat, grid, b))[lo:hi, lo:hi]
        for a in box(a_max):
            weight = axis[:, None] ** a[0] * axis[None, :] ** a[1]
            table[(a, b)] = float(np.abs(weight * deriv).max())
    return table


def test_tight_below_loose():
    # same seminorm table on both sides, so the comparison is algebraic;
    # a lattice table without the zoom keeps the sweep cheap
    chi = vacuum_state(1)
    grid = Grid(2, 256, 12.0)
    table = lattice_table(wigner(chi, grid), (4, 4), (4, 4))
    rng = np.random.default_rng(23)
    pairs = pairs_up_to(4, 2)
    for _ in range(3):
        alpha = rng.uniform(-3.0, 3.0, 2)
        beta = rng.uniform(-3.0, 3.0, 2)
        for a, b in pairs:
            tight = offdiag_tight_rhs(table, a, b, alpha, beta)
            loose = offdiag_loose_rhs(table, a, b, alpha, beta)
            assert tight <= loose * (1.0 + 1e-12)


def fourfold_tight_rhs(table, a, b, alpha, beta):
    # the tight bound summed term by term over c <= b, d <= a, e <= c, f <= d
    alpha = np.abs(np.asarray(alpha, dtype=float))
    beta = np.abs(np.asarray(beta, dtype=float))
    total = 0.0
    for c in box(b):
        w_bc = binom(b, c)
        for d in box(a):
            w_ad = w_bc * binom(a, d) * 2.0 ** (-order(d))
            w_chi = table[(sub(a, d), sub(b, c))]
            if w_chi == 0.0:
                continue
            for e in box(c):
                w_ce = w_ad * binom(c, e)
                for f in box(d):
                    g_alpha = add(swap_xp(e), f)
                    g_beta = add(sub(swap_xp(c), swap_xp(e)), sub(d, f))
                    total += (
                        w_ce
                        * binom(d, f)
                        * w_chi
                        * monomial(alpha, g_alpha)
                        * monomial(beta, g_beta)
                    )
    return float(total)


def pairs_up_to(total, dim):
    """Every (a, b) of length-dim indices with |a|+|b| <= total, in box order."""
    cap = (total,) * dim
    return [(a, b) for a in box(cap) for b in box(cap) if order(a) + order(b) <= total]


def assert_matches_fourfold(table, cases):
    new = np.array([offdiag_tight_rhs(table, *case) for case in cases])
    old = np.array([fourfold_tight_rhs(table, *case) for case in cases])
    assert np.all(old > 0.0)
    assert np.max(np.abs(new - old) / old) <= 1e-14


def test_tight_matches_fourfold_on_c06_cases():
    # the 3500 (a, b, alpha, beta) cases of c06, drawn in its order
    table = chi_seminorm_table(vacuum_state(1), (4, 4), (4, 4))
    rng = np.random.default_rng(606)
    cases = []
    for _ in range(50):
        alpha = rng.uniform(-2.0, 2.0, 2)
        beta = rng.uniform(-2.0, 2.0, 2)
        cases += [(a, b, alpha, beta) for a, b in pairs_up_to(4, 2)]
    assert len(cases) == 3500
    assert_matches_fourfold(table, cases)


def test_tight_matches_fourfold_on_two_mode_tables():
    # the closed form is algebraic: any positive table of n = 2 entries will do
    rng = np.random.default_rng(41)
    pairs = pairs_up_to(3, 4)
    for _ in range(3):
        table = dict(zip(pairs, rng.lognormal(0.0, 2.0, len(pairs))))
        alpha = rng.uniform(-3.0, 3.0, 4)
        beta = rng.uniform(-3.0, 3.0, 4)
        assert_matches_fourfold(table, [(a, b, alpha, beta) for a, b in pairs])


@pytest.mark.parametrize(
    "alpha,beta",
    [([1.0], [0.5, 3.0]), ([1.0, 2.0], [0.5]), ([1.0, 2.0, 0.0], [0.5, 3.0, 0.0])],
)
def test_tight_rejects_alpha_beta_of_wrong_length(alpha, beta, monkeypatch):
    # |alpha| + |beta| would broadcast a length-1 side against the other;
    # the loose rhs and offdiag_reports refuse the same labels by name
    table = {(Z, Z): 1.0, ((1, 0), Z): 1.0, (Z, (0, 1)): 1.0, ((1, 0), (0, 1)): 1.0}
    for rhs in (offdiag_tight_rhs, offdiag_loose_rhs):
        with pytest.raises(ValueError, match="alpha and beta need 2 entries"):
            rhs(table, (1, 0), (0, 1), alpha, beta)
    with pytest.raises(ValueError):
        fourfold_tight_rhs(table, (1, 0), (0, 1), alpha, beta)

    def no_sample(*args, **kwargs):
        raise AssertionError("the off-diagonal W was sampled")

    monkeypatch.setattr(bounds, "offdiag_wigner", no_sample)
    with pytest.raises(ValueError, match="alpha and beta need 2 entries"):
        offdiag_reports(vacuum_state(1), alpha, beta, Grid(2, 32, 6.0), table,
                        [((1, 0), (0, 1))])


def test_grid_seminorm_below_tight(grid):
    chi = vacuum_state(1)
    table = chi_seminorm_table(chi, (1, 1), (1, 1), grid=grid)
    rng = np.random.default_rng(31)
    pairs = [(Z, Z), ((1, 0), Z), (Z, (0, 1)), ((1, 0), (0, 1))]
    for _ in range(3):
        alpha = rng.uniform(-2.0, 2.0, 2)
        beta = rng.uniform(-2.0, 2.0, 2)
        for tight, loose in offdiag_reports(chi, alpha, beta, grid, table, pairs):
            a, b = tight.indices
            for report, variant in ((tight, "tight"), (loose, "loose")):
                assert report.rhs == offdiag_bound_rhs(
                    chi, a, b, alpha, beta, variant, table=table
                )
            assert tight.lhs <= tight.rhs * (1.0 + 1e-7)


def test_offdiag_at_origin_is_chi_wigner(grid):
    chi = vacuum_state(1)
    zero = np.zeros(2)
    table = chi_seminorm_table(chi, Z, Z, grid=grid)
    [(tight, loose)] = offdiag_reports(chi, zero, zero, grid, table, [(Z, Z)])
    assert abs(tight.lhs - 1.0 / math.pi) < 1e-8
    assert (tight.name, loose.name) == ("offdiag-tight", "offdiag-loose")
    assert tight.lhs == loose.lhs


def test_offdiag_reports_match_per_entry_chain():
    # the per-entry route, one seminorm call per (a, b) on a fresh sample,
    # is the oracle: one table per draw must give the same numbers bit for bit
    chi = vacuum_state(1)
    table = chi_seminorm_table(chi, (4, 4), (4, 4))
    grid = Grid(2, 128, 12.0)
    pairs = pairs_up_to(4, 2)
    rng = np.random.default_rng(606)
    for _ in range(3):
        alpha = rng.uniform(-2.0, 2.0, 2)
        beta = rng.uniform(-2.0, 2.0, 2)
        reports = offdiag_reports(chi, alpha, beta, grid, table, pairs)
        assert len(reports) == len(pairs)
        fn = PhaseSpaceFn(grid, offdiag_wigner(chi, alpha, beta, grid.points()))
        for (a, b), (tight, loose) in zip(pairs, reports):
            assert tight.indices == loose.indices == (a, b)
            assert tight.lhs == loose.lhs == seminorm(fn, a, b)
            assert tight.rhs == offdiag_tight_rhs(table, a, b, alpha, beta)
            assert loose.rhs == offdiag_loose_rhs(table, a, b, alpha, beta)


def test_offdiag_unknown_variant(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a window table was built for an unknown variant")

    monkeypatch.setattr(bounds, "chi_seminorm_table", no_table)
    with pytest.raises(ValueError, match="variant"):
        offdiag_bound_rhs(vacuum_state(1), Z, Z, [0, 0], [0, 0], "snug")


@pytest.fixture
def no_wigner(monkeypatch):
    # a default two-mode grid is Grid(4, 256, 12): about 69 GB of W values
    def no_transform(*args, **kwargs):
        raise AssertionError("a Wigner transform ran")

    for module in (transforms, bounds):
        monkeypatch.setattr(module, "wigner", no_transform)


def test_chi_table_rejects_two_modes_by_name(no_wigner):
    with pytest.raises(ValueError, match="n=1, chi has n=2"):
        chi_seminorm_table(vacuum_state(2), (0,) * 4, (0,) * 4)


# --- main bound and Husimi intermediate ------------------------------------


@pytest.fixture(scope="module")
def vacuum_ctx():
    return BoundContext(vacuum_state(1))


@pytest.fixture(scope="module")
def mixture_ctx(mixture):
    return BoundContext(mixture)


SPOT_PAIRS = [(Z, Z), ((1, 0), (0, 1)), ((2, 2), Z), (Z, (2, 1))]


def test_theorem_holds_on_vacuum(vacuum_ctx):
    for a, b in SPOT_PAIRS:
        report = vacuum_ctx.theorem_report(a, b)
        assert report.passed, (a, b, report.ratio)
        assert report.lhs > 0.0
        assert np.isfinite(report.rhs)


def test_theorem_holds_on_mixture(mixture_ctx):
    for a, b in SPOT_PAIRS:
        assert mixture_ctx.theorem_report(a, b).passed


def test_husimi_route_holds(vacuum_ctx, mixture_ctx):
    for ctx in (vacuum_ctx, mixture_ctx):
        for a, b in SPOT_PAIRS:
            assert ctx.husimi_report(a, b).passed


def test_theorem_constants(vacuum_ctx):
    # lock the prefactor and index bookkeeping against accidental edits
    from phasespace.seminorms import decay_norm_from_table, norm_sum_from_table

    a, b = (1, 0), (0, 1)
    report = vacuum_ctx.theorem_report(a, b)
    flip = add(a, swap_xp(b))
    expected = (
        (2.0 * np.pi) ** 5
        * 2.0 ** (4 * (order(a) + order(b) + 1))
        * norm_sum_from_table(vacuum_ctx.chi_table(), a, b)
        * decay_norm_from_table(vacuum_ctx.chi_decay_table(), add_scalar(scale(flip, 2), 6))
        * decay_norm_from_table(vacuum_ctx.rho_decay_table(), add_scalar(scale(flip, 2), 4))
    )
    assert abs(report.rhs - expected) < 1e-9 * expected


def test_theorem_swaps_derivative_index(mixture_ctx):
    # the decay orders track the x<->p swap of b; dropping the swap must
    # change the rhs on an x/p-asymmetric state
    from phasespace.seminorms import decay_norm_from_table, norm_sum_from_table

    a, b = Z, (1, 0)
    report = mixture_ctx.theorem_report(a, b)
    unswapped = add(a, b)
    wrong = (
        (2.0 * np.pi) ** 5
        * 2.0 ** (4 * (order(a) + order(b) + 1))
        * norm_sum_from_table(mixture_ctx.chi_table(), a, b)
        * decay_norm_from_table(
            mixture_ctx.chi_decay_table(), add_scalar(scale(unswapped, 2), 6)
        )
        * decay_norm_from_table(
            mixture_ctx.rho_decay_table(), add_scalar(scale(unswapped, 2), 4)
        )
    )
    assert abs(wrong - report.rhs) > 1e-6 * report.rhs


def test_context_order_cap(vacuum_ctx):
    with pytest.raises(ValueError, match="exceeds"):
        vacuum_ctx.theorem_report((3, 2), Z)
    with pytest.raises(ValueError, match="exceeds"):
        vacuum_ctx.husimi_report(Z, (2, 3))


@pytest.mark.parametrize("n,limit", [(1, 12), (2, 5)])
def test_context_order_cap_range(no_wigner, n, limit):
    # the window decay table needs 2 * cap + 6 per axis within ORDER_CAP = 64
    grid = Grid(2 * n, 16, 6.0)
    assert BoundContext(vacuum_state(n), grid=grid, max_total_order=limit)
    for cap in (limit + 1, -1):
        with pytest.raises(ValueError, match=rf"order cap {cap} outside \[0, {limit}\]"):
            BoundContext(vacuum_state(n), grid=grid, max_total_order=cap)


def test_index_pairs_enumeration(vacuum_ctx):
    pairs = vacuum_ctx.index_pairs()
    assert len(pairs) == 70
    assert (Z, Z) in pairs
    assert (((2, 2)), Z) in pairs
    assert all(order(a) + order(b) <= 4 for a, b in pairs)


def test_lhs_table_matches_direct_seminorm(mixture_ctx):
    w_rho = mixture_ctx.w_rho()
    for a, b in [(Z, Z), ((1, 0), (0, 1)), ((2, 2), Z), (Z, (1, 3))]:
        assert mixture_ctx.lhs_seminorm(a, b) == pytest.approx(
            seminorm(w_rho, a, b), rel=1e-12
        )
    # index tuples of any integer type read the same entry
    assert mixture_ctx.lhs_seminorm(np.array([1, 0]), [0, 1]) == (
        mixture_ctx.lhs_seminorm((1, 0), (0, 1))
    )
    with pytest.raises(ValueError, match="exceeds"):
        mixture_ctx.lhs_seminorm((3, 2), Z)


def test_context_defaults(mixture_ctx):
    assert mixture_ctx.grid.dim == 2
    assert mixture_ctx.chi.atoms[0].m == (0,)


def test_context_default_grid_is_suggested(no_wigner):
    far = PureState([Atom((0,), (11.5, 0.0), 1.0)])
    assert BoundContext(far).grid == suggest_grid(far) == Grid(2, 512, 20.0)
    two_modes = vacuum_state(2)
    assert BoundContext(two_modes).grid == suggest_grid(two_modes) == Grid(4, 256, 12.0)


def test_adopt_chi_tables(mixture):
    chi = vacuum_state(1)
    grid = Grid(2, 256, 12.0)
    base = BoundContext(vacuum_state(1), chi=chi, grid=grid)
    base.chi_table()
    shared = BoundContext(mixture, chi=chi, grid=grid).adopt_chi_tables(base)
    assert shared._cache["chi_table"] is base._cache["chi_table"]
    assert shared.theorem_report((1, 0), (0, 1)).passed
    # a context holding its own chi object must refuse the handoff
    with pytest.raises(ValueError, match="chi"):
        BoundContext(mixture, grid=grid).adopt_chi_tables(base)


@pytest.mark.parametrize("chi", [None, fock_state(1)], ids=["vacuum", "fock1"])
def test_chi_table_over_index_pairs(vacuum_ctx, mixture, chi):
    # the window table holds exactly the lhs index set, each entry as the box table's
    ctx = vacuum_ctx if chi is None else BoundContext(mixture, chi=chi)
    cap = (ctx.max_total_order,) * ctx.dim
    table = ctx.chi_table()
    assert set(table) == set(ctx.index_pairs())
    full = seminorm_table(ctx.w_chi(), cap, cap, band=ctx.band)
    assert all(table[key] == full[key] for key in table)
