"""Exhaustive references for the root-counting lemmas of ``cdu.oracles``,
and the univariate lift of a pair-plane table.

Each root count runs over every x, for every coefficient tuple at once,
with the field's vector arithmetic only, so it shares no step with the
closed form it is held against.
"""

import numpy as np


def quadratic_root_counts(ctx):
    """counts[a, b]: the number of roots of x^2 + a*x + b in F_q, for every
    (a, b); x is a root exactly when b = -(x^2 + a*x)."""
    q = ctx.q
    x = np.arange(q, dtype=np.int32)
    a = x[:, None]
    b = ctx.neg_table[ctx.add_vec(ctx.mul_vec(x, x), ctx.mul_vec(a, x))]
    return np.bincount((a * q + b).ravel(), minlength=q * q).reshape(q, q)


def quartic_patterns(ctx):
    """{(a2, a1, a0): the degree multiset of the irreducible factors of
    x^4 + a2*x^2 + a1*x + a0 over F_{2^m}}, for every a0*a1 != 0.

    Such a quartic is squarefree (its derivative is a1), so it has 0, 1,
    2 or 4 roots, and they give the pattern unless there are none; then it
    is (2, 2) exactly when some monic x^2 + u*x + v divides it.  The
    quotient is x^2 + c1*x + c0 with c1 = u and c0 = a2 + v + u*c1, and
    the remainder (a1 + u*c0 + v*c1)*x + (a0 + v*c0) is 0 exactly at
    a1 = u*c0 + v*c1 and a0 = v*c0."""
    assert ctx.p == 2
    q = ctx.q
    x = np.arange(q, dtype=np.int32)
    a2, a1 = x[:, None, None], x[None, :, None]
    x2 = ctx.mul_vec(x, x)
    # x is a root exactly when a0 = x^4 + a2*x^2 + a1*x
    a0 = ctx.add_vec(ctx.add_vec(ctx.mul_vec(x2, x2), ctx.mul_vec(a2, x2)),
                     ctx.mul_vec(a1, x))
    roots = np.bincount(((a2 * q + a1) * q + a0).ravel(),
                        minlength=q ** 3).reshape(q, q, q)
    u, v = x[None, :, None], x[None, None, :]
    c1 = u
    c0 = ctx.add_vec(ctx.add_vec(a2, v), ctx.mul_vec(u, c1))
    split = np.zeros((q, q, q), dtype=bool)
    split[a2, ctx.add_vec(ctx.mul_vec(u, c0), ctx.mul_vec(v, c1)),
          ctx.mul_vec(v, c0)] = True
    by_roots = {4: (1, 1, 1, 1), 2: (1, 1, 2), 1: (1, 3), 0: (4,)}
    return {(i, j, k): (2, 2) if split[i, j, k] and not roots[i, j, k]
            else by_roots[roots[i, j, k]]
            for i in range(q) for j in range(1, q) for k in range(1, q)}


def lift(qctx, tabs):
    """z -> phi(F(phi^-1(z))) for the pair-plane tables of F, as values of
    F_{q^2} to itself: under phi(g, h) = g + beta*h, the bivariate system
    at c is the lift's at phi(c)."""
    return qctx.phi_table[tabs.key[qctx.phi_inv_table]]
