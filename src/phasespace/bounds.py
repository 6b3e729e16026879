"""Inequality evaluators: the matrix-element Cauchy-Schwarz bound, the
off-diagonal Wigner seminorm bounds (tight and loose variants), the main
seminorm bound, and its Husimi-route intermediate.

A BoundContext caches the grid functions and seminorm tables shared by
a sweep; lhs and rhs norms always come from the same grid so truncation
error largely cancels in the ratio.
"""

from dataclasses import dataclass

import numpy as np

from .grid import DEFAULT_BAND, DERIVATIVE_ORDER_CAP, PhaseSpaceFn, suggest_grid
from .multiindex import (
    ORDER_CAP,
    add,
    add_scalar,
    as_index,
    binom,
    box,
    monomial,
    order,
    scale,
    sub,
    swap_xp,
)
from .seminorms import (
    _quoted_indices,
    _seminorm_entries,
    decay_norm_from_table,
    norm_sum_from_table,
    seminorm_table,
)
from .states import as_mixed, vacuum_state
from .transforms import (
    _component_overlaps,
    _husimi_from_wigner,
    _matel_sum,
    offdiag_wigner,
    wigner,
)

DEFAULT_TOL = 1e-6
CS_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    name: str
    indices: tuple
    lhs: float
    rhs: float
    tol: float = DEFAULT_TOL

    @property
    def ratio(self):
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else np.inf
        return self.lhs / self.rhs

    @property
    def passed(self):
        return bool(self.ratio <= 1.0 + self.tol)

    def row(self):
        """CSV record: a,b,lhs,rhs,ratio,pass (indices space-separated)."""
        return (
            f"{_quoted_indices(self.indices)},{self.lhs:.17g},{self.rhs:.17g},"
            f"{self.ratio:.17g},{int(self.passed)}"
        )


def cauchy_schwarz_reports(state, chi, pairs):
    """|M(alpha,beta)|^2 <= Q(alpha) Q(beta), one report per pair.

    The overlaps <chi_alpha | psi_j> are computed once per side and serve
    M(alpha, beta), Q(alpha) = M(alpha, alpha) and Q(beta) alike."""
    if len(pairs) == 0:
        return []
    alphas, betas = np.moveaxis(np.asarray(pairs, dtype=float), 1, 0)
    rho = as_mixed(state)
    f_alpha = list(_component_overlaps(rho, chi, alphas))
    f_beta = list(_component_overlaps(rho, chi, betas))
    shape = alphas.shape[:-1]
    m2 = np.abs(_matel_sum(rho, f_alpha, f_beta, shape)) ** 2
    q_a = _matel_sum(rho, f_alpha, f_alpha, shape).real
    q_b = _matel_sum(rho, f_beta, f_beta, shape).real
    return [
        BoundReport(
            "cauchy-schwarz", (tuple(a), tuple(b)), float(lhs), float(qa * qb), CS_TOL
        )
        for (a, b), lhs, qa, qb in zip(pairs, m2, q_a, q_b)
    ]


# ---------------------------------------------------------------------------
# off-diagonal Wigner seminorm bounds


def chi_seminorm_table(chi, a_max, b_max, grid=None):
    """Seminorm table of W_chi (n = 1) used by the off-diagonal bound
    formulas, on `suggest_grid(chi)` unless a grid is given."""
    if chi.n != 1:
        raise ValueError(f"off-diagonal bounds implemented for n=1, chi has n={chi.n}")
    if grid is None:
        grid = suggest_grid(chi)
    return seminorm_table(wigner(as_mixed(chi), grid), a_max, b_max)


def offdiag_tight_rhs(table, a, b, alpha, beta):
    """Tight bound on |W_{chi_alpha, chi_beta}|_{a,b} from the window table:

        sum_{c <= b} sum_{d <= a} C(b, c) C(a, d) 2^{-|d|}
            |W_chi|_{a-d, b-c} s^{swap(c) + d},   s = |alpha| + |beta|,

    s componentwise; each power of s is the binomial sum over its split
    between |alpha| and |beta|, e.g. s^{swap c} = sum_{e <= c} C(c, e)
    |alpha|^{swap e} |beta|^{swap(c-e)}.
    """
    a, b = as_index(a), as_index(b)
    alpha = np.abs(np.asarray(alpha, dtype=float))
    beta = np.abs(np.asarray(beta, dtype=float))
    # a length-1 alpha would broadcast against beta, so check both shapes
    if alpha.shape != (len(a),) or beta.shape != (len(a),):
        raise ValueError(f"alpha and beta need {len(a)} entries each, got shapes "
                         f"{alpha.shape} and {beta.shape}")
    reach = alpha + beta
    by_c = [(sub(b, c), binom(b, c) * monomial(reach, swap_xp(c))) for c in box(b)]
    by_d = [(sub(a, d), binom(a, d) * 2.0 ** (-order(d)) * monomial(reach, d))
            for d in box(a)]
    terms = (w_c * w_d * table[(a_rest, b_rest)]
             for b_rest, w_c in by_c for a_rest, w_d in by_d)
    return float(sum(terms))


def offdiag_loose_rhs(table, a, b, alpha, beta):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    reach = 1.0 + np.linalg.norm(alpha) + np.linalg.norm(beta)
    total_order = order(a) + order(b)
    return float(
        4.0**total_order
        * reach**total_order
        * norm_sum_from_table(table, a, b)
    )


def offdiag_bound_rhs(chi, a, b, alpha, beta, variant, table=None):
    """Right-hand side of the chosen off-diagonal seminorm bound."""
    if variant not in ("tight", "loose"):
        raise ValueError(f"unknown variant {variant!r}; use 'tight' or 'loose'")
    if table is None:
        table = chi_seminorm_table(chi, a, b)
    rhs = offdiag_tight_rhs if variant == "tight" else offdiag_loose_rhs
    return rhs(table, a, b, alpha, beta)


def offdiag_grid_fn(chi, alpha, beta, grid):
    """Off-diagonal Wigner transform sampled on the grid via closed form."""
    vals = offdiag_wigner(chi, alpha, beta, grid.points())
    return PhaseSpaceFn(grid, vals, "offdiag-wigner")


# ---------------------------------------------------------------------------
# main theorem bound and Husimi intermediate


class BoundContext:
    """Caches W_rho, W_chi, Q and their seminorm tables for one (rho, chi),
    on `suggest_grid(state)` unless a grid is given.

    max_total_order caps |a|+|b| of the sweep; the cached index boxes are
    sized so that every norm the bounds need is a table lookup.  The window
    decay table needs 2 * max_total_order + 6 per axis within ORDER_CAP, and
    |b| stays within DERIVATIVE_ORDER_CAP: so the cap is at most 12 for one
    mode and 5 for two, checked before anything is built.
    """

    def __init__(self, state, chi=None, grid=None, band=DEFAULT_BAND,
                 max_total_order=4):
        self.rho = as_mixed(state)
        self.chi = chi if chi is not None else vacuum_state(self.rho.n)
        self.grid = grid if grid is not None else suggest_grid(self.rho)
        limit = min(DERIVATIVE_ORDER_CAP, (ORDER_CAP // self.grid.dim - 6) // 2)
        if not 0 <= max_total_order <= limit:
            raise ValueError(
                f"order cap {max_total_order} outside [0, {limit}] for "
                f"{self.grid.dim // 2} mode(s)"
            )
        self.band = band
        self.max_total_order = max_total_order
        self._cache = {}

    def _get(self, key, builder):
        """The cached value of key, built on first use; a build that raised
        is recorded and its exception raised again for every later reader."""
        if key not in self._cache:
            try:
                self._cache[key] = builder()
            except Exception as exc:
                self._cache[key] = exc
        value = self._cache[key]
        if isinstance(value, Exception):
            raise value
        return value

    @property
    def dim(self):
        return self.grid.dim

    def w_rho(self):
        return self._get("w_rho", lambda: wigner(self.rho, self.grid))

    def w_chi(self):
        return self._get(
            "w_chi", lambda: wigner(as_mixed(self.chi), self.grid)
        )

    def q_rho(self):
        if not self.chi.is_analytic:
            raise ValueError("reference chi must be an analytic state")
        return self._get(
            "q", lambda: _husimi_from_wigner(self.w_rho(), self.w_chi())
        )

    def chi_table(self):
        """|W_chi|_{a,b} over index_pairs(), the window factor of both bounds."""
        return self._get(
            "chi_table",
            lambda: _seminorm_entries(self.w_chi(), self.index_pairs(), self.band),
        )

    def _decay_table(self, key, fn, offset):
        """|F|_{a,0} for a <= 2 * max_total_order + offset on every axis."""
        cap = (2 * self.max_total_order + offset,) * self.dim
        zero = (0,) * self.dim
        return self._get(
            key, lambda: seminorm_table(fn(), cap, zero, band=self.band)
        )

    def chi_decay_table(self):
        return self._decay_table("chi_decay", self.w_chi, 6)

    def rho_decay_table(self):
        return self._decay_table("rho_decay", self.w_rho, 4)

    def q_decay_table(self):
        return self._decay_table("q_decay", self.q_rho, 4)

    def adopt_chi_tables(self, other):
        """Reuse another context's window-side caches in a sweep.

        Both contexts must hold the same chi object and matching grid
        geometry; the rho-side tables stay per-context.
        """
        if other.chi is not self.chi:
            raise ValueError("contexts must share the same chi object")
        if (other.grid, other.band, other.max_total_order) != (
            self.grid, self.band, self.max_total_order
        ):
            raise ValueError("contexts must share grid, band, and order cap")
        for key in ("w_chi", "chi_table", "chi_decay"):
            if key in other._cache:
                self._cache[key] = other._cache[key]
        return self

    def lhs_seminorm(self, a, b):
        """|W_rho|_{a,b}, read from one table over index_pairs()."""
        self._check_order(a, b)
        table = self._get(
            "lhs",
            lambda: _seminorm_entries(self.w_rho(), self.index_pairs(), self.band),
        )
        return table[(as_index(a), as_index(b))]

    def _check_order(self, a, b):
        if order(a) + order(b) > self.max_total_order:
            raise ValueError(
                f"|a|+|b| = {order(a) + order(b)} exceeds context cap "
                f"{self.max_total_order}"
            )

    def index_pairs(self):
        """Every (a, b) with |a|+|b| <= max_total_order, in box order."""
        cap = (self.max_total_order,) * self.dim
        return [
            (a, b)
            for a in box(cap)
            for b in box(cap)
            if order(a) + order(b) <= self.max_total_order
        ]

    def theorem_report(self, a, b):
        """lhs = |W_rho|_{a,b}; rhs = the full product bound."""
        self._check_order(a, b)
        n = self.dim // 2
        flip = add(a, swap_xp(b))
        idx_chi = add_scalar(scale(flip, 2), 6)
        idx_rho = add_scalar(scale(flip, 2), 4)
        rhs = (
            (2.0 * np.pi) ** (5 * n)
            * 2.0 ** (4 * (order(a) + order(b) + n))
            * norm_sum_from_table(self.chi_table(), a, b)
            * decay_norm_from_table(self.chi_decay_table(), idx_chi)
            * decay_norm_from_table(self.rho_decay_table(), idx_rho)
        )
        return BoundReport("theorem", (a, b), self.lhs_seminorm(a, b), rhs)

    def husimi_report(self, a, b):
        """Intermediate bound routed through the Husimi decay norms."""
        self._check_order(a, b)
        n = self.dim // 2
        idx_q = add_scalar(scale(add(a, swap_xp(b)), 2), 4)
        rhs = (
            (np.pi / 2.0) ** (2 * n)
            * 2.0 ** (2 * (order(a) + order(b)))
            * norm_sum_from_table(self.chi_table(), a, b)
            * decay_norm_from_table(self.q_decay_table(), idx_q)
        )
        return BoundReport("husimi-route", (a, b), self.lhs_seminorm(a, b), rhs)
