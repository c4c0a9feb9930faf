"""Pairing F_q x F_q with F_{q^2} through a root beta of x^2 + x + t.

The parameter t makes x^2 + x + t irreducible over F_q (trace condition in
even characteristic, non-square discriminant in odd characteristic).  With
beta a root in F_{q^2}, the map phi(x, y) = x + beta*y identifies pairs with
extension elements, and pair multiplication

    (x1, y1) * (x2, y2) = (x1*x2 - t*y1*y2, x1*y2 + x2*y1 - y1*y2)

agrees with the F_{q^2} product transported through phi.

Both tables come from their definitions: ``embed`` is the first power map
of F_q^* into F_{q^2}^* that is also additive, ``phi_inv_table`` is the
inverse permutation of ``phi_table``, and ``_verify`` checks beta, that
phi is a bijection and that the embedding keeps both field operations.
"""

from __future__ import annotations

from functools import cache
from math import gcd

import numpy as np

from .gf import NSQ, CduError, FieldCtx, make_field


class InvalidT(CduError):
    pass


class NoRootFound(CduError):
    pass


def t_condition_holds(base, t):
    """Whether x^2 + x + t is irreducible over the base field."""
    if base.p == 2:
        return base.trace1(t) == 1
    disc = base.sub(1, base.mul(4 % base.p, t))
    return base.is_square(disc) == NSQ


def select_t(base, override=None):
    """Pick t: the override if valid, else the first valid power of the primitive."""
    if override is not None:
        if not t_condition_holds(base, override):
            raise InvalidT(
                f"t = {base.elem_str(override)} fails the irreducibility condition")
        return override
    qm1 = base.q - 1
    for j in range(1, qm1 + 1):
        t = int(base.antilog_table[j % qm1])
        if t_condition_holds(base, t):
            return t
    raise InvalidT("no valid t exists (cannot happen for a genuine field)")


class QuadExtCtx:
    """The paired model: base F_q, ext F_{q^2}, t, beta, embedding and phi tables.

    Immutable after construction.  beta is the smaller-index root of
    x^2 + x + t and beta_bar the other; no report depends on that choice,
    since the pair product reads t alone.
    """

    def __init__(self, base: FieldCtx, t=None):
        self.base = base
        self.t = select_t(base, t)
        self.ext = make_field(base.p, 2 * base.m)
        self._build_embedding()
        self.t_ext = int(self.embed[self.t])
        self._find_beta()
        self._build_phi_tables()
        self._verify()

    def _build_embedding(self):
        """embed: the power map w^i -> W^(i*j*(Q-1)/(q-1)) of the first j
        prime to q - 1 that sends 1 + x to 1 + embed(x) at every x; being
        multiplicative, it is then a field homomorphism."""
        base, ext = self.base, self.ext
        q, Q = base.q, ext.q
        i = np.arange(q - 1, dtype=np.int64) * ((Q - 1) // (q - 1))
        x = np.arange(q, dtype=np.int32)
        embed = np.zeros(q, dtype=np.int32)
        for j in range(1, q):
            if gcd(j, q - 1) != 1:
                continue
            embed[base.antilog_table] = ext.antilog_table[i * j % (Q - 1)]
            if (embed[base.add_vec(1, x)] == ext.add_vec(1, embed)).all():
                break
        else:
            raise NoRootFound("no embedding of the base field found")
        self.embed = embed
        unembed = np.full(Q, -1, dtype=np.int32)
        unembed[embed] = x
        self.unembed = unembed

    def _find_beta(self):
        ext = self.ext
        z = np.arange(ext.q, dtype=np.int32)
        vals = ext.add_vec(ext.add_vec(ext.mul_vec(z, z), z),
                           np.int32(self.t_ext))
        roots = np.flatnonzero(vals == 0)
        if len(roots) != 2:
            raise NoRootFound(
                f"x^2+x+t has {len(roots)} roots in the extension, expected 2")
        self.beta, self.beta_bar = int(roots[0]), int(roots[1])

    def _build_phi_tables(self):
        """phi_table[x*q + y] = embed(x) + beta*embed(y), and phi_inv_table
        its inverse permutation (``_verify`` checks that it is one)."""
        base, ext = self.base, self.ext
        q = base.q
        mb = ext.mul_vec(np.int32(self.beta), self.embed)
        phi = ext.add_vec(self.embed[:, None], mb[None, :])  # [x, y]
        self.phi_table = phi.reshape(q * q).astype(np.int32)
        self.phi_inv_table = np.full(ext.q, -1, dtype=np.int32)
        self.phi_inv_table[self.phi_table] = np.arange(q * q, dtype=np.int32)

    def _verify(self):
        base, ext = self.base, self.ext
        assert self.unembed[self.beta] < 0, "beta lies in the embedded base field"
        b2 = ext.mul(self.beta, self.beta)
        assert ext.add(ext.add(b2, self.beta), self.t_ext) == 0
        assert ext.add(self.beta, self.beta_bar) == ext.neg(1)
        assert ext.mul(self.beta, self.beta_bar) == self.t_ext
        rt = self.phi_inv_table[self.phi_table]
        assert (rt == np.arange(base.q * base.q, dtype=np.int32)).all()
        rt2 = self.phi_table[self.phi_inv_table]
        assert (rt2 == np.arange(ext.q, dtype=np.int32)).all()
        # embedding respects both field operations
        q = base.q
        u = np.repeat(np.arange(q, dtype=np.int32), q)
        v = np.tile(np.arange(q, dtype=np.int32), q)
        assert (self.embed[base.add_vec(u, v)]
                == ext.add_vec(self.embed[u], self.embed[v])).all()
        assert (self.embed[base.mul_vec(u, v)]
                == ext.mul_vec(self.embed[u], self.embed[v])).all()

    # -- point helpers ---------------------------------------------------------

    def pt(self, xi, yi):
        """Pack coordinate indices into the flat point index x*q + y."""
        return xi * self.base.q + yi

    def norm_one_minus_c(self, c1, c2):
        """t*c2^2 + (1-c1)*c2 + (1-c1)^2, the norm to F_q of 1 - phi(c1, c2):
        N(x + beta*y) = x^2 - x*y + t*y^2, as beta + beta_bar = -1 and
        beta*beta_bar = t."""
        base = self.base
        one_c1 = base.sub(1, c1)
        return base.add(
            base.add(base.mul(self.t, base.mul(c2, c2)), base.mul(one_c1, c2)),
            base.mul(one_c1, one_c1))

    def __repr__(self):
        return (f"QuadExtCtx(q={self.base.q}, t={self.base.elem_str(self.t)}, "
                f"beta={self.ext.elem_str(self.beta, 'W')})")


_quadext = cache(QuadExtCtx)


def make_quadext(base, t=None):
    """The QuadExtCtx over the given base field, built once per process and
    keyed by the t it selects.  beta is the smaller-index root of x^2+x+t;
    reports do not depend on that choice, as the pair product reads t alone."""
    return _quadext(base, select_t(base, t))
