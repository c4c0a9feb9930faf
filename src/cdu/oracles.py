"""Independent root-counting oracles: quadratics, quartics over F_{2^m},
Gold-type trinomials, and the closed-form inverse-function predictions.

Every one is behind ``cdu oracle``, and ``predict`` uses the
inverse-function classes; the tests hold each closed form against an
exhaustive count of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .gf import NSQ, SQ, ZERO, CduError, FieldCtx


class DegenerateQuartic(CduError):
    pass


class IdentityC(CduError):
    pass


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

def quadratic_root_count(ctx: FieldCtx, a, b):
    """Number of roots of x^2 + a*x + b in F_q: 0, 1 or 2.

    Even characteristic with a*b != 0 follows the trace criterion
    Tr(b/a^2); the degenerate cases are x^2 = b (one root, Frobenius is a
    bijection) and x*(x+a) = 0 (two roots when a != 0).  Odd characteristic
    reads the discriminant a^2 - 4b.
    """
    if ctx.p == 2:
        if a == 0:
            return 1
        if b == 0:
            return 2
        w = ctx.mul(b, ctx.inv(ctx.mul(a, a)))
        return 2 if ctx.trace1(w) == 0 else 0
    disc = ctx.sub(ctx.mul(a, a), ctx.mul(4 % ctx.p, b))
    cls = ctx.is_square(disc)
    if cls == ZERO:
        return 1
    return 2 if cls == SQ else 0


# ---------------------------------------------------------------------------
# quartics over F_{2^m}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuarticType:
    """Degree multiset of the irreducible factors, e.g. (1,1,2) or (4)."""

    pattern: tuple


def _cubic_roots(ctx, a2, a1):
    ys = np.arange(ctx.q, dtype=np.int32)
    vals = ctx.add_vec(
        ctx.add_vec(ctx.pow_vec(ys, 3), ctx.mul_vec(np.int32(a2), ys)),
        np.int32(a1))
    return [int(r) for r in np.flatnonzero(vals == 0)]


def quartic_factor_type(ctx: FieldCtx, a2, a1, a0) -> QuarticType:
    """Factorization type of x^4 + a2*x^2 + a1*x + a0 over F_{2^m}, a0*a1 != 0.

    Classified through the resolvent cubic y^3 + a2*y + a1 (roots by
    exhaustive scan) and the traces of w_i = a0*r_i^2 / a1^2.
    """
    if ctx.p != 2:
        raise DegenerateQuartic("quartic classification is for characteristic 2")
    if a0 == 0 or a1 == 0:
        raise DegenerateQuartic("need a0*a1 != 0")
    roots = _cubic_roots(ctx, a2, a1)
    a1sq_inv = ctx.inv(ctx.mul(a1, a1))
    traces = [ctx.trace1(ctx.mul(ctx.mul(a0, ctx.mul(r, r)), a1sq_inv))
              for r in roots]
    if len(roots) == 0:
        return QuarticType((1, 3))
    if len(roots) == 1:
        return QuarticType((1, 1, 2) if traces[0] == 0 else (4,))
    assert len(roots) == 3, "resolvent cubic of a valid quartic has 0, 1 or 3 roots"
    ones = sum(traces)
    assert ones % 2 == 0, "trace pattern of the three w_i must have even weight"
    return QuarticType((1, 1, 1, 1) if ones == 0 else (2, 2))


# ---------------------------------------------------------------------------
# Gold-type trinomials x^(p^k+1) + a*x + b
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BluherCount:
    root_count: int
    d: int


def _gold_values(ctx, k):
    xs = np.arange(ctx.q, dtype=np.int32)
    return xs, ctx.gold_vec(xs, k)


def bluher_root_count(ctx: FieldCtx, k, a, b) -> BluherCount:
    """Roots of x^(p^k+1) + a*x + b by exhaustive scan.

    For a, b in F_q* the count is asserted to lie in {0, 1, 2, p^d + 1}
    with d = gcd(m, k).
    """
    xs, gold = _gold_values(ctx, k)
    vals = ctx.add_vec(ctx.add_vec(gold, ctx.mul_vec(np.int32(a), xs)),
                       np.int32(b))
    n = int(np.count_nonzero(vals == 0))
    d = gcd(ctx.m, k)
    if a != 0 and b != 0:
        assert n in (0, 1, 2, ctx.p ** d + 1), f"root count {n} outside Bluher set"
    return BluherCount(n, d)


def bluher_special_b_count(ctx: FieldCtx, k):
    """Exhaustive count of b in F_q* for which x^(p^k+1) + x + b has p^d+1 roots."""
    xs, gold = _gold_values(ctx, k)
    vals = ctx.add_vec(gold, xs)
    hist = np.bincount(vals, minlength=ctx.q)
    d = gcd(ctx.m, k)
    want = ctx.p ** d + 1
    # roots of gold(x) + x = -b, indexed by b
    per_b = hist[ctx.neg_table[np.arange(ctx.q)]]
    return int(np.count_nonzero(per_b[1:] == want))


def bluher_special_b_formula(ctx: FieldCtx, k):
    """Closed form (p^((r-1)d) - p^(eps*d)) / (p^(2d) - 1), eps = 0 iff r odd."""
    d = gcd(ctx.m, k)
    r = ctx.m // d
    eps = 0 if r % 2 == 1 else 1
    num = ctx.p ** ((r - 1) * d) - ctx.p ** (eps * d)
    den = ctx.p ** (2 * d) - 1
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# inverse function c-uniformity (closed form)
# ---------------------------------------------------------------------------

def inverse_c_uniformity_predict(ctx: FieldCtx, c):
    """c-differential uniformity of x^(q-2) for c != 1: one of 1, 2, 3.

    Even q: 1 at c=0; 2 when Tr(c) = Tr(1/c) = 1; else 3.
    Odd q: 1 at c=0; 2 when c in {4, 1/4} or both c^2-4c and 1-4c are
    non-squares; else 3.  For q = 3 and 4 the map is x resp. x^2, which is
    additive, so F(x+a) - c*F(x) = (1-c)*F(x) + F(a) is a bijection: 1.
    """
    if c == 1:
        raise IdentityC("the inverse-function predictions exclude c = 1")
    if c == 0 or ctx.q <= 4:
        return 1
    if ctx.p == 2:
        if ctx.trace1(c) == 1 and ctx.trace1(ctx.inv(c)) == 1:
            return 2
        return 3
    four = 4 % ctx.p
    if four == 1:
        in_exceptional = False  # c = 4 = 1 is excluded already (p = 3)
    else:
        in_exceptional = c == four or c == ctx.inv(four)
    if in_exceptional:
        return 2
    c2_4c = ctx.sub(ctx.mul(c, c), ctx.mul(four, c))
    one_4c = ctx.sub(1, ctx.mul(four, c))
    if ctx.is_square(c2_4c) == NSQ and ctx.is_square(one_4c) == NSQ:
        return 2
    return 3
