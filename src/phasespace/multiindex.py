"""Multi-index bookkeeping for monomial weights and derivative orders.

A multi-index is a tuple of non-negative integers, one entry per axis.
Phase-space indices have even length 2n and are ordered as (position
block, momentum block); configuration-space indices have length n.
Everything here is exact integer arithmetic.
"""

import itertools
import math

import numpy as np

# Bound formulas at desk scale need |a|+|b| <= ~16; beyond 64 is unvalidated.
ORDER_CAP = 64


def as_index(a):
    """Coerce ``a`` to a validated multi-index tuple.

    Accepts a single integer (length-1 index) or any iterable of
    integer-valued entries. Rejects negative or fractional entries and
    total order above ORDER_CAP.
    """
    if isinstance(a, (int, np.integer)):
        a = (a,)
    entries = []
    for v in a:
        iv = int(v)
        if iv != v:
            raise ValueError(f"multi-index entries must be integers, got {v!r}")
        if iv < 0:
            raise ValueError(f"multi-index entries must be nonnegative, got {iv}")
        entries.append(iv)
    if not entries:
        raise ValueError("multi-index needs at least one entry")
    out = tuple(entries)
    if sum(out) > ORDER_CAP:
        raise ValueError(f"total order {sum(out)} exceeds cap {ORDER_CAP}")
    return out


def order(a):
    """|a| = sum of entries."""
    return sum(as_index(a))


def leq(b, a):
    """Componentwise b <= a (same length required)."""
    b, a = as_index(b), as_index(a)
    if len(b) != len(a):
        raise ValueError(f"length mismatch: {len(b)} vs {len(a)}")
    return all(bi <= ai for bi, ai in zip(b, a))


def add(a, b):
    a, b = as_index(a), as_index(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return as_index(tuple(x + y for x, y in zip(a, b)))


def sub(a, b):
    """a - b, rejecting any negative component."""
    a, b = as_index(a), as_index(b)
    if not leq(b, a):
        raise ValueError(f"{b} is not <= {a} componentwise")
    return tuple(x - y for x, y in zip(a, b))


def scale(a, k):
    if int(k) != k or k < 0:
        raise ValueError(f"scale factor must be a nonnegative integer, got {k!r}")
    return as_index(tuple(int(k) * x for x in as_index(a)))


def add_scalar(a, k):
    """Add the integer k to every component."""
    if int(k) != k or k < 0:
        raise ValueError(f"scalar must be a nonnegative integer, got {k!r}")
    return as_index(tuple(x + int(k) for x in as_index(a)))


def binom(a, b):
    """Product of componentwise binomial coefficients C(a_i, b_i)."""
    a, b = as_index(a), as_index(b)
    if not leq(b, a):
        raise ValueError(f"binom requires b <= a componentwise, got a={a}, b={b}")
    return math.prod(math.comb(x, y) for x, y in zip(a, b))


def swap_xp(a):
    """Exchange the position and momentum blocks: (a_x, a_p) -> (a_p, a_x)."""
    a = as_index(a)
    if len(a) % 2:
        raise ValueError(f"phase-space index must have even length, got {len(a)}")
    n = len(a) // 2
    return a[n:] + a[:n]


def monomial(points, a):
    """Evaluate x**a = prod_i x_i**a_i at points of shape (..., len(a)).

    Convention 0**0 = 1, so a zero index gives the constant 1.
    Returns an array of shape points.shape[:-1] (or a scalar).
    """
    a = as_index(a)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0 or pts.shape[-1] != len(a):
        raise ValueError(f"points last axis must have length {len(a)}")
    out = np.ones(pts.shape[:-1])
    for i, ai in enumerate(a):
        if ai:
            out = out * pts[..., i] ** ai
    return out if out.ndim else float(out)


def box(a):
    """Iterate every index c <= a componentwise, in lexicographic order."""
    a = as_index(a)
    return itertools.product(*(range(x + 1) for x in a))

