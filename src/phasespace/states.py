"""Quantum states as finite mixtures of displaced Hermite-Gauss atoms.

The analytic branch supports exact pointwise evaluation, exact derivative
and coordinate-multiplication algebra (the Hermite ladder), exact
displacement composition, and closed-form overlaps via displacement
matrix elements. Non-analytic demo states (the plateau wavefunction)
expose pointwise evaluation only; transforms fall back to quadrature.

Conventions (hbar = 1):
  phi_0(y) = pi^{-1/4} e^{-y^2/2},
  phi_{m+1}(y) = y*sqrt(2/(m+1))*phi_m(y) - sqrt(m/(m+1))*phi_{m-1}(y),
  (D_xi phi)(y) = e^{i(y - xi_x/2).xi_p} phi(y - xi_x)   [per axis],
  D_a D_b = e^{i b /\\ a / 2} D_{a+b},  D_a^dagger = D_{-a}.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import symplectic_form
from .multiindex import as_index


# phi_0 = pi^-1/4 e^{-y^2/2} goes subnormal past |y| = 37.6 and 0 past 38.6,
# and the recurrence carries that loss into phi_m; up to this order every
# |phi_m| out there is below 1e-15, so the loss stays under 1e-15 absolute
# (7.5e-16 at m = 625, 1.1e-15 at m = 626, against mpmath)
HERMITE_MAX_ORDER = 625


def hermite_values(m_max, y):
    """phi_0..phi_m_max at y; returns array of shape (m_max+1,) + y.shape."""
    y = np.asarray(y, dtype=float)
    out = np.empty((m_max + 1,) + y.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * y * y)
    if m_max >= 1:
        out[1] = np.sqrt(2.0) * y * out[0]
    for m in range(1, m_max):
        out[m + 1] = y * np.sqrt(2.0 / (m + 1)) * out[m] - np.sqrt(
            m / (m + 1.0)
        ) * out[m - 1]
    return out


@dataclass(frozen=True)
class Atom:
    """coeff * D_alpha (phi_{m_1} x ... x phi_{m_n})."""

    m: tuple
    alpha: tuple
    coeff: complex

    def __post_init__(self):
        for mi in self.m:
            if int(mi) != mi or mi < 0:
                raise ValueError(
                    f"hermite orders must be nonnegative ints, got {self.m}"
                )
            if mi > HERMITE_MAX_ORDER:
                raise ValueError(
                    f"hermite order {mi} exceeds cap {HERMITE_MAX_ORDER}: the"
                    " recurrence seed phi_0 underflows where phi_m is not small"
                )
        if len(self.alpha) != 2 * len(self.m):
            raise ValueError("displacement length must be 2 * number of axes")
        if not all(math.isfinite(v) for v in self.alpha):
            raise ValueError(f"non-finite alpha {tuple(self.alpha)}")
        if not (math.isfinite(self.coeff.real) and math.isfinite(self.coeff.imag)):
            raise ValueError(f"non-finite coeff {self.coeff}")
        # hashable, so `_merge` can key atoms on (m, alpha) whatever the
        # caller passed (an ndarray, a list or a tuple)
        object.__setattr__(self, "m", tuple(int(mi) for mi in self.m))
        object.__setattr__(self, "alpha", tuple(float(v) for v in self.alpha))

    @property
    def n(self):
        return len(self.m)


def _merge(atoms):
    """Combine atoms with identical (m, alpha); drop negligible ones."""
    acc = {}
    for at in atoms:
        key = (at.m, at.alpha)
        acc[key] = acc.get(key, 0.0) + at.coeff
    scale = max((abs(c) for c in acc.values()), default=0.0)
    return [
        Atom(m, alpha, c)
        for (m, alpha), c in acc.items()
        if abs(c) > 1e-300 and abs(c) > 1e-16 * scale
    ]


class PureState:
    """Finite superposition of displaced Hermite-Gauss atoms."""

    def __init__(self, atoms):
        atoms = list(atoms)
        if not atoms:
            raise ValueError("pure state needs at least one atom")
        n = atoms[0].n
        if any(at.n != n for at in atoms):
            raise ValueError("all atoms must share the number of axes")
        # a tuple, so the lazily built tables below cannot go stale;
        # if everything cancelled, keep an explicit zero
        self.atoms = tuple(_merge(atoms)) or (Atom(atoms[0].m, atoms[0].alpha, 0.0),)
        self._n = n

    @property
    def n(self):
        return self._n

    @property
    def is_analytic(self):
        return True

    def evaluate(self, points):
        """psi at points (..., n), or at one point (n,): `_atom_sums` of
        this state alone (`evaluate_components` evaluates several at once)."""
        (val,) = _atom_sums(self._evaluate_tables, points, [len(self.atoms)])
        return val[0] if np.ndim(points) == 1 and val.shape == (1,) else val

    @functools.cached_property
    def _evaluate_tables(self):
        """(which, alpha, orders, top, coeffs) for `_atom_sums`, built on the
        first call: the displacement index of each atom (derivatives and
        products share displacements), the distinct displacements (2n, S),
        the orders (n, atoms), the largest order per axis and the coefficients.
        Built lazily, since most intermediate ladder states are never
        evaluated; the atoms tuple does not change after __init__."""
        shifts = {}
        which = np.array(
            [shifts.setdefault(at.alpha, len(shifts)) for at in self.atoms]
        )
        alpha = np.array(list(shifts)).T
        orders = np.array([at.m for at in self.atoms]).T
        top = [int(o.max()) for o in orders]
        coeffs = np.array([at.coeff for at in self.atoms], dtype=complex)
        return which, alpha, orders, top, coeffs

    def scaled(self, c):
        return PureState([Atom(a.m, a.alpha, c * a.coeff) for a in self.atoms])

    def displaced(self, xi):
        """D_xi applied to the state, folded into atom data exactly."""
        xi = tuple(float(v) for v in np.asarray(xi, dtype=float))
        if len(xi) != 2 * self.n:
            raise ValueError("displacement length must be 2n")
        out = []
        for at in self.atoms:
            # D_xi D_alpha = e^{i alpha /\ xi / 2} D_{xi+alpha}
            phase = np.exp(
                0.5j * symplectic_form(np.asarray(at.alpha), np.asarray(xi))
            )
            new_alpha = tuple(a + x for a, x in zip(at.alpha, xi))
            out.append(Atom(at.m, new_alpha, at.coeff * phase))
        return PureState(out)

    def parity(self):
        """Pi applied exactly: Pi c D_g phi_m = (-1)^{|m|} c D_{-g} phi_m."""
        return PureState(
            [
                Atom(at.m, tuple(-a for a in at.alpha), (-1) ** sum(at.m) * at.coeff)
                for at in self.atoms
            ]
        )

    def _ladder(self, axis, diag, sign):
        """D_a(diag(a) phi_m + sqrt(m/2) phi_{m-1} + sign sqrt((m+1)/2) phi_{m+1})
        per atom: the Hermite ladder step of d/dy_axis and of y_axis."""
        out = []
        for at in self.atoms:
            m = at.m[axis]
            out.append(Atom(at.m, at.alpha, at.coeff * diag(at.alpha)))
            if m >= 1:
                mm = at.m[:axis] + (m - 1,) + at.m[axis + 1 :]
                out.append(Atom(mm, at.alpha, at.coeff * math.sqrt(m / 2.0)))
            mp = at.m[:axis] + (m + 1,) + at.m[axis + 1 :]
            out.append(Atom(mp, at.alpha, sign * at.coeff * math.sqrt((m + 1) / 2.0)))
        return PureState(out)

    def derivative(self, axis):
        """d/dy_axis, exact: D_a(i a_p phi_m + phi_m') per atom."""
        return self._ladder(axis, lambda alpha: 1j * alpha[self.n + axis], -1.0)

    def times_coordinate(self, axis):
        """Multiplication by y_axis, exact: D_a((y + a_x) phi_m) per atom."""
        return self._ladder(axis, lambda alpha: alpha[axis], 1.0)

    def weighted_derivative(self, a, b):
        """x^a d^b psi with configuration multi-indices a, b (length n),
        built on the first call for each (a, b) and kept with the state.
        Two threads racing on one (a, b) build equal states; either is kept."""
        a, b = as_index(a), as_index(b)
        if len(a) != self.n or len(b) != self.n:
            raise ValueError("indices must have length n")
        if (a, b) not in self._weighted_derivatives:
            state = self
            for axis, bi in enumerate(b):
                for _ in range(bi):
                    state = state.derivative(axis)
            for axis, ai in enumerate(a):
                for _ in range(ai):
                    state = state.times_coordinate(axis)
            self._weighted_derivatives[(a, b)] = state
        return self._weighted_derivatives[(a, b)]

    @functools.cached_property
    def _weighted_derivatives(self):
        """{(a, b): x^a d^b psi} filled by `weighted_derivative`."""
        return {}

    @functools.cached_property
    def kernel_rows(self):
        """{half: psi on linspace(-half, half, 1024)}, the kernel lattice
        rows that `seminorms.kernel_seminorm` fills and keeps with each
        weighted derivative."""
        return {}

    def norm(self):
        return math.sqrt(max(pure_overlap(self, self).real, 0.0))

    def normalized(self):
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / nrm)

    def plus(self, other):
        if other.n != self.n:
            raise ValueError("axis count mismatch")
        return PureState(self.atoms + other.atoms)

    def reach(self):
        """Radius beyond which the state is numerically negligible."""
        return max(
            max(abs(v) for v in at.alpha[: self.n]) + math.sqrt(2 * max(at.m) + 1)
            for at in self.atoms
        ) + 10.0

    def extent(self):
        """Phase-space box size where the Gaussian envelopes still live.

        Unlike reach(), this carries no quadrature padding; add a decay
        margin when sizing grids from it.
        """
        return max(
            max(abs(v) for v in at.alpha) + math.sqrt(2 * max(at.m) + 1)
            for at in self.atoms
        )


def _atom_sums(tables, points, ends):
    """One sum of atom terms per state, at points (..., n) or (n,).

    tables are `_evaluate_tables` (which, alpha, orders, top, coeffs) of
    one or more states laid end to end, state k owning the atoms before
    ends[k]: one hermite_values call (up to the largest order) and one
    phase per axis, on each displacement column once.  Each state then
    multiplies its terms coeff prod_i e^{i(y_i - a_x,i/2) a_p,i}
    phi_{m_i}(y_i - a_x,i) in axis order and adds them in atom order, on
    arrays of its own size: numpy computes a large product in place into
    its right-hand temporary, which swaps the operands of a complex
    multiply, and that can move the last bit with the array's size."""
    which, alpha, orders, top, coeffs = tables
    n = len(top)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != n:
        raise ValueError(f"points last axis must be {n}")
    lead = (-1,) + (1,) * (pts.ndim - 1)  # atoms first, then the points
    alpha = alpha.reshape(2 * n, *lead)
    parts = [slice(lo, hi) for lo, hi in zip([0, *ends[:-1]], ends)]
    terms = [coeffs[part].reshape(lead) for part in parts]
    for i in range(n):
        y, ax, ap = pts[..., i], alpha[i], alpha[n + i]
        hermite = hermite_values(top[i], y - ax)
        phis = [hermite[orders[i, part], which[part]] for part in parts]
        # freed before the phase is allocated: large evaluations are bound
        # by fresh pages
        del hermite
        phase = np.exp(1j * (y - 0.5 * ax) * ap)
        terms = [
            t * phase[which[part]] * phi for t, part, phi in zip(terms, parts, phis)
        ]
    return [sum(t[1:], start=t[0]) for t in terms]


def evaluate_components(states, points):
    """(K, ...) array of psi_1..psi_K at points (..., n), or (K,) at one
    point (n,), for one or more analytic states sharing n.

    The states' `_evaluate_tables` are laid end to end, so one
    hermite_values call per axis serves them all, and every value sees the
    float operations of its own state's `evaluate`."""
    states = list(states)
    if any(ps.n != states[0].n for ps in states):
        raise ValueError("all states must share the number of axes")
    if len(states) == 1:
        # one state needs no joined table: it is its own `evaluate`
        return states[0].evaluate(points)[None]
    whiches, alphas, orders, tops, coeffs = zip(
        *(ps._evaluate_tables for ps in states)
    )
    offsets = np.cumsum([0] + [alpha.shape[1] for alpha in alphas[:-1]])
    joined = (
        np.concatenate([which + k for which, k in zip(whiches, offsets)]),
        np.concatenate(alphas, axis=1),
        np.concatenate(orders, axis=1),
        [max(top) for top in zip(*tops)],
        np.concatenate(coeffs),
    )
    ends = np.cumsum([len(ps.atoms) for ps in states]).tolist()
    vals = np.stack(_atom_sums(joined, points, ends))
    return vals[:, 0] if np.ndim(points) == 1 else vals


class PlateauState:
    """The indicator wavefunction of [0, 1]: unit norm, not Schwartz."""

    n = 1
    atoms = None
    is_analytic = False

    def evaluate(self, points):
        pts = np.asarray(points, dtype=float)
        y = pts[..., 0] if pts.ndim else pts
        return ((y >= 0.0) & (y <= 1.0)).astype(complex)

    def norm(self):
        return 1.0

    def displaced(self, xi):
        raise ValueError("displacement needs an analytic state")

    def reach(self):
        return 4.0

    def extent(self):
        # the momentum tail only decays polynomially
        return math.inf


class MixedState:
    """Sum_j weight_j |psi_j><psi_j| with weights >= 0."""

    def __init__(self, weights, pure_states):
        weights = [float(w) for w in weights]
        pure_states = list(pure_states)
        if len(weights) != len(pure_states):
            raise ValueError("need one weight per pure state")
        if not pure_states:
            raise ValueError("mixed state needs at least one component")
        if any(w < 0 or not math.isfinite(w) for w in weights):
            raise ValueError("weights must be finite and nonnegative")
        n = pure_states[0].n
        if any(ps.n != n for ps in pure_states):
            raise ValueError("all components must share the number of axes")
        self.weights = tuple(weights)
        self.pure_states = tuple(pure_states)
        self._n = n

    @property
    def n(self):
        return self._n

    @property
    def is_analytic(self):
        return all(ps.is_analytic for ps in self.pure_states)

    def kernel(self, x, y):
        """K(x, y) = sum_j w_j psi_j(x) conj(psi_j(y)); x, y broadcastable."""
        total = 0.0
        for w, ps in zip(self.weights, self.pure_states):
            if w == 0.0:
                continue
            total = total + w * ps.evaluate(x) * np.conj(ps.evaluate(y))
        return total + np.zeros(np.broadcast_shapes(
            np.shape(np.asarray(x))[:-1], np.shape(np.asarray(y))[:-1]
        ), dtype=complex)

    def trace(self):
        return sum(w * ps.norm() ** 2 for w, ps in zip(self.weights, self.pure_states))

    def reach(self):
        return max(ps.reach() for ps in self.pure_states)

    def extent(self):
        return max(ps.extent() for ps in self.pure_states)


def as_mixed(state):
    """Wrap a pure state as a weight-1 mixture; pass mixtures through."""
    if isinstance(state, MixedState):
        return state
    return MixedState([1.0], [state])


def vacuum_state(n=1):
    return PureState([Atom((0,) * n, (0.0,) * (2 * n), 1.0)])


def fock_state(m, n=1):
    if isinstance(m, (int, np.integer)):
        m = (int(m),) * n
    return PureState([Atom(tuple(m), (0.0,) * (2 * n), 1.0)])


# ---------------------------------------------------------------------------
# closed-form overlaps via displacement matrix elements


def _factorial_ratio_sqrt(small, large):
    """sqrt(small! / large!) for small <= large.

    Dividing term by term keeps the running value finite where the
    product large!/small! would overflow.
    """
    ratio = 1.0
    for j in range(small + 1, large + 1):
        ratio /= math.sqrt(j)
    return ratio


# e^{+-700} is still a normal double
_LOG_RANGE = 700.0
# a running Laguerre value past this is rescaled to [0.5, 1) by its exponent
_LAGUERRE_RESCALE = 2.0**256


def _genlaguerre(n, k, x):
    """(value, e) with L_n^(k)(x) = value * 2**e, for integers n, k >= 0, x >= 0.

    scipy's integer-order eval_genlaguerre: n = 0, n = 1 (-x + k + 1), else
    d = -x/(k+1), p = d + 1, n - 1 normalized steps and binom(n + k, n) by
    the product loop.  Rescaling by exact powers of two keeps e = 0 and the
    value scipy's, bit for bit, wherever scipy's is finite and min(n, k) < 20.
    """
    x = np.asarray(x, dtype=float)
    e = np.zeros(x.shape, dtype=int)
    if n < 2:
        return (np.ones_like(x) if n == 0 else -x + k + 1), e
    # |L| <= binom(n + k, n) e^{x/2} (Szego) bounds |p| by e^{x/2}: below
    # x = 2 ln 2^256 no running value comes near the rescale threshold
    watch = np.max(x, initial=0.0) > 350.0
    d = -x / (k + 1.0)
    p = d + 1
    for j in range(1, n):
        den = j + k + 1.0
        d = -x / den * p + (j / den) * d
        p = d + p
        if watch and (big := np.abs(p) > _LAGUERRE_RESCALE).any():
            s = np.where(big, np.frexp(p)[1], 0)
            p, d, e = np.ldexp(p, -s), np.ldexp(d, -s), e + s
    small, num, den = min(n, k), 1.0, 1.0
    for i in range(1, small + 1):
        num, den = num * (i + float(n + k) - small), den * i
        if abs(num) > 1e50:
            num, den = num / den, 1.0
            if num > _LAGUERRE_RESCALE:
                num, s = math.frexp(num)
                e = e + s
    value = num / den * p
    if not e.any():
        return value, e
    with np.errstate(over="ignore"):
        folded = np.ldexp(value, e)
    inside = np.isfinite(folded)
    return np.where(inside, folded, value), np.where(inside, 0, e)


def _dme_axis(m, n, zeta):
    """<phi_m | D(zeta) | phi_n> for one axis; zeta any complex array.

    With k = |m - n| and w = zeta (m >= n) or -conj(zeta) (m < n) this is
    sqrt(min! / max!) w^k e^{-|zeta|^2/2} L_min^(k)(|zeta|^2).  Where one of
    the four factors would leave the double range (high orders, or a
    Gaussian factor that goes subnormal) log|L| = log|value| + e ln 2 joins
    the log-space amplitude and the phase e^{ik arg w} is put back
    afterwards; elsewhere the direct product is kept.
    """
    zeta = np.asarray(zeta, dtype=complex)
    r2 = (zeta * np.conj(zeta)).real
    small, k = min(m, n), abs(m - n)
    base = zeta if m >= n else -np.conj(zeta)
    log_ratio = 0.5 * (math.lgamma(small + 1) - math.lgamma(small + k + 1))
    with np.errstate(divide="ignore"):
        log_pow = 0.5 * k * np.log(r2) if k else np.zeros_like(r2)
    in_range = (log_ratio > -_LOG_RANGE) & (log_pow < _LOG_RANGE) & (
        r2 < 2.0 * _LOG_RANGE
    )
    lag, e = _genlaguerre(small, k, r2)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        amp = _factorial_ratio_sqrt(small, small + k) * base**k * np.exp(-0.5 * r2)
        out = np.asarray(amp * lag)
    far = ~(in_range & (e == 0))
    if np.any(far):
        log_amp = log_ratio + log_pow[far] - 0.5 * r2[far]
        log_lag = np.log(np.abs(lag[far])) + e[far] * math.log(2.0)
        out[far] = np.sign(lag[far]) * np.exp(
            log_amp + log_lag + 1j * k * np.angle(base[far])
        )
    return out


def displacement_matrix_element(m, n, xi):
    """<phi_m | D_xi | phi_n> for multi-axis orders; xi shape (..., 2n).

    Uses the generalized-Laguerre closed form with zeta_i =
    (xi_x,i + i xi_p,i)/sqrt(2) per axis.
    """
    m = tuple(m)
    n_ = tuple(n)
    xi = np.asarray(xi, dtype=float)
    naxes = len(m)
    if len(n_) != naxes or xi.shape[-1] != 2 * naxes:
        raise ValueError("order/displacement dimensions disagree")
    zeta = (xi[..., :naxes] + 1j * xi[..., naxes:]) / np.sqrt(2.0)
    out = np.ones(xi.shape[:-1], dtype=complex)
    for i in range(naxes):
        out = out * _dme_axis(m[i], n_[i], zeta[..., i])
    return out


def pure_overlap(phi, psi):
    """<phi | psi> in closed form for analytic states."""
    if not (phi.is_analytic and psi.is_analytic):
        raise ValueError("closed-form overlap needs analytic states")
    return complex(displaced_overlaps(phi, np.zeros(2 * psi.n), psi))


def displaced_overlaps(chi, alphas, psi):
    """<D_alpha chi | psi> for a batch of alphas, shape (..., 2n)."""
    alphas = np.asarray(alphas, dtype=float)
    out = np.zeros(alphas.shape[:-1], dtype=complex)
    for ac in chi.atoms:
        delta = np.asarray(ac.alpha, dtype=float)
        chi_phase = -0.5j * symplectic_form(delta, alphas)
        shifted = alphas + delta
        for ap in psi.atoms:
            gamma = np.asarray(ap.alpha, dtype=float)
            phase = np.exp(chi_phase - 0.5j * symplectic_form(gamma, shifted))
            out += (
                np.conj(ac.coeff)
                * ap.coeff
                * phase
                * displacement_matrix_element(ac.m, ap.m, gamma - alphas - delta)
            )
    return out


def quasichar_values(state, xis):
    """tr[rho D_xi] in closed form for analytic states; xis shape (..., 2n).

    Each component contributes <psi | D_xi psi> = <D_{-xi} psi | psi>.
    """
    rho = as_mixed(state)
    if not rho.is_analytic:
        raise ValueError("closed-form quasicharacteristic needs analytic states")
    xis = np.asarray(xis, dtype=float)
    out = np.zeros(xis.shape[:-1], dtype=complex)
    for w, ps in zip(rho.weights, rho.pure_states):
        if w != 0.0:
            out += w * displaced_overlaps(ps, -xis, ps)
    return out


def wigner_values(state, points):
    """W_rho at arbitrary points in closed form for analytic states.

    points has shape (..., 2n); the result is real with shape (...,).
    Uses the parity-displacement identity W_rho(z) = pi^{-n} tr[rho D_z Pi
    D_z^dagger] = pi^{-n} tr[rho D_{2z} Pi] (Grossmann 1976; Royer, Phys.
    Rev. A 15, 449 (1977)), so each component contributes
    <psi | D_{2z} Pi psi> = <D_{-2z} psi | Pi psi>.
    """
    rho = as_mixed(state)
    if not rho.is_analytic:
        raise ValueError("closed-form Wigner values need analytic states")
    z = np.asarray(points, dtype=float)
    if z.shape[-1] != 2 * rho.n:
        raise ValueError(f"points last axis must be {2 * rho.n}")
    out = np.zeros(z.shape[:-1])
    for w, ps in zip(rho.weights, rho.pure_states):
        if w != 0.0:
            out += w * displaced_overlaps(ps, -2.0 * z, ps.parity()).real
    return out / np.pi**rho.n


# ---------------------------------------------------------------------------
# demo states, random ensembles, JSON serialization

HEAVY_TAIL_MAX_K = 20


def demo_state(name, K=None):
    """Built-in states: vacuum, fock1, plateau, heavy_tail (truncated)."""
    key = str(name).replace("-", "_")
    if key == "vacuum":
        return vacuum_state(1)
    if key == "fock1":
        return fock_state(1, 1)
    if key == "plateau":
        return PlateauState()
    if key == "heavy_tail":
        K = 3 if K is None else int(K)
        if K < 1:
            raise ValueError("heavy_tail needs K >= 1")
        if K > HEAVY_TAIL_MAX_K:
            raise ValueError(
                f"heavy_tail K={K} puts centers k^3 far outside any desk grid"
                f" (cap {HEAVY_TAIL_MAX_K})"
            )
        raw = [(6.0 / np.pi**2) * k ** (-2.0) for k in range(1, K + 1)]
        total = sum(raw)
        comps = [
            PureState([Atom((0,), (float(k**3), 0.0), 1.0)]) for k in range(1, K + 1)
        ]
        return MixedState([w / total for w in raw], comps)
    raise ValueError(f"unknown demo state {name!r}")


def random_pure_state(rng, n_atoms=3, n=1, max_order=3, disp=1.2):
    """Normalized random superposition; displacements bounded by disp."""
    atoms = []
    for _ in range(n_atoms):
        m = tuple(int(v) for v in rng.integers(0, max_order + 1, size=n))
        alpha = tuple(float(v) for v in rng.uniform(-disp, disp, size=2 * n))
        coeff = complex(rng.normal(), rng.normal())
        atoms.append(Atom(m, alpha, coeff))
    return PureState(atoms).normalized()


def random_mixture(rng, n_components=2, n_atoms=3, n=1, max_order=3, disp=1.2):
    """Random mixture with Gram-Schmidt-orthonormalized components."""
    comps = []
    while len(comps) < n_components:
        cand = random_pure_state(rng, n_atoms, n, max_order, disp)
        for prev in comps:
            cand = cand.plus(prev.scaled(-pure_overlap(prev, cand)))
        if pure_overlap(cand, cand).real > 0.05:
            comps.append(cand.normalized())
    weights = rng.uniform(0.2, 1.0, size=n_components)
    weights = weights / weights.sum()
    return MixedState(weights.tolist(), comps)


def state_to_dict(state):
    rho = as_mixed(state)
    if not rho.is_analytic:
        raise ValueError("only analytic states can be serialized")
    return {
        "weights": list(rho.weights),
        "pure_states": [
            {
                "atoms": [
                    {
                        "m": list(at.m) if len(at.m) > 1 else at.m[0],
                        "alpha": [float(v) for v in at.alpha],
                        "coeff": [float(at.coeff.real), float(at.coeff.imag)],
                    }
                    for at in ps.atoms
                ]
            }
            for ps in rho.pure_states
        ],
    }


def save_state(state, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh, indent=1)
        fh.write("\n")


def _load_atom(entry, where):
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: atom must be an object")
    unknown = set(entry) - {"m", "alpha", "coeff"}
    if unknown:
        raise ValueError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    for key in ("m", "alpha", "coeff"):
        if key not in entry:
            raise ValueError(f"{where}: missing key {key!r}")
    m = entry["m"]
    m = (int(m),) if isinstance(m, (int, float)) else tuple(int(v) for v in m)
    alpha = [float(v) for v in entry["alpha"]]
    if len(alpha) != 2 * len(m):
        raise ValueError(f"{where}: alpha must have length {2 * len(m)}")
    coeff = entry["coeff"]
    if not (isinstance(coeff, (list, tuple)) and len(coeff) == 2):
        raise ValueError(f"{where}: coeff must be a [re, im] pair")
    try:
        return Atom(m, tuple(alpha), complex(float(coeff[0]), float(coeff[1])))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def state_from_dict(doc):
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    unknown = set(doc) - {"weights", "pure_states"}
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r} in state document")
    if "weights" not in doc or "pure_states" not in doc:
        raise ValueError("state document needs 'weights' and 'pure_states'")
    weights = [float(w) for w in doc["weights"]]
    pures = []
    for i, ps in enumerate(doc["pure_states"]):
        if not isinstance(ps, dict):
            raise ValueError(f"pure_states[{i}] must be an object")
        unknown = set(ps) - {"atoms"}
        if unknown:
            raise ValueError(f"pure_states[{i}]: unknown key {sorted(unknown)[0]!r}")
        atoms = [
            _load_atom(at, f"pure_states[{i}].atoms[{j}]")
            for j, at in enumerate(ps.get("atoms", []))
        ]
        pures.append(PureState(atoms))
    return MixedState(weights, pures)


def load_state(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return state_from_dict(doc)
