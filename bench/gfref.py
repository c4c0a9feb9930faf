"""Reference arithmetic in GF(p^m) for checking cdu reports, sharing no code with cdu.

An element is an integer index: the base-p digits of its coefficient vector,
constant term least significant (the encoding cdu prints).  ``w`` is the
smallest index of multiplicative order q-1; ``w^k`` in a report means that
element to the k.  The extension F_{q^2} uses the smallest irreducible
polynomial of degree 2m, in the order of the base-p integer that encodes
its coefficients, and the base field embeds through the first j coprime to
q-1 for which w -> W^(j*(q+1)) is a field map.  These are the conventions a
report depends on; the header names only the base modulus, t and beta.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# polynomials over F_p: coefficient lists, constant term first, no trailing 0

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] * inv_lead % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _trim(a[:df])


def _polymulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _polymod(_trim(out), f, p)


def _polygcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _polymod(a, b, p)
    return a


def _irreducible(f, p):
    """No factor of degree <= deg(f)/2: gcd(f, x^(p^d) - x) = 1 for each such d."""
    n = len(f) - 1
    if f[0] == 0:
        return False
    h = [0, 1]
    for _ in range(n // 2):
        acc, base, e = [1], h, p
        while e:
            if e & 1:
                acc = _polymulmod(acc, base, f, p)
            base = _polymulmod(base, base, f, p)
            e >>= 1
        h = acc
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if len(_polygcd(f, _trim(diff), p)) > 1:
            return False
    return True


def smallest_irreducible(p, n):
    """Monic irreducible of degree n whose base-p integer encoding is smallest."""
    for code in range(p ** n):
        f = [(code // p ** i) % p for i in range(n)] + [1]
        if _irreducible(f, p):
            return f
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{p}")


class GF:
    """GF(p^m) from an explicit modulus, with numpy operations on index arrays."""

    def __init__(self, p, modulus):
        self.p = p
        self.mod = [int(c) % p for c in modulus]
        self.m = len(self.mod) - 1
        self.q = p ** self.m
        q, m = self.q, self.m
        idx = np.arange(q, dtype=np.int64)
        self.digits = np.stack([(idx // p ** i) % p for i in range(m)], axis=1)
        self.pw = p ** np.arange(m, dtype=np.int64)
        self.w = self._first_primitive()
        exp = np.zeros(q - 1, dtype=np.int64)
        cur = 1
        for k in range(q - 1):
            exp[k] = cur
            cur = self._mul_raw(cur, self.w)
        if cur != 1 or len(np.unique(exp)) != q - 1:
            raise ValueError(f"modulus {modulus} does not give a field")
        self.exp = exp
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[exp] = np.arange(q - 1)

    def _poly(self, x):
        return _trim([(x // self.p ** i) % self.p for i in range(self.m)])

    def _index(self, poly):
        return sum(c * self.p ** i for i, c in enumerate(poly))

    def _mul_raw(self, a, b):
        return self._index(_polymulmod(self._poly(a), self._poly(b), self.mod, self.p))

    def _pow_raw(self, a, e):
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_raw(acc, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return acc

    def _first_primitive(self):
        n = self.q - 1
        for g in range(1, self.q):
            if self._pow_raw(g, n) != 1:
                raise ValueError(f"modulus {self.mod} does not give a field")
            if all(self._pow_raw(g, n // r) != 1 for r in _prime_factors(n)):
                return g
        raise ValueError("no primitive element")

    # -- element strings -------------------------------------------------------

    def parse(self, s, letter="w"):
        """'0', '<letter>^k' or a decimal prime-field literal, as an index."""
        s = s.strip()
        if s.startswith(letter + "^"):
            return int(self.exp[int(s[2:]) % (self.q - 1)])
        if s.isdigit():
            return int(s) % self.p
        raise ValueError(f"cannot read element {s!r}")

    # -- vector arithmetic -----------------------------------------------------

    def add(self, u, v):
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        if self.p == 2:
            return u ^ v
        return ((self.digits[u] + self.digits[v]) % self.p) @ self.pw

    def neg(self, u):
        u = np.asarray(u, dtype=np.int64)
        if self.p == 2:
            return u
        return ((-self.digits[u]) % self.p) @ self.pw

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def mul(self, u, v):
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        k = (self.log[u] + self.log[v]) % (self.q - 1)
        return np.where((u == 0) | (v == 0), 0, self.exp[k])

    def pow(self, u, e):
        """u^e for an integer e >= 1, with 0^e = 0."""
        u = np.asarray(u, dtype=np.int64)
        k = (self.log[u] * (e % (self.q - 1))) % (self.q - 1)
        return np.where(u == 0, 0, self.exp[k])

    def inv0(self, u):
        """u^(q-2): the inverse, with 0 -> 0."""
        return self.pow(u, self.q - 2)

    def trace(self, u):
        """Absolute trace to F_p, as an index < p."""
        acc = np.asarray(u, dtype=np.int64)
        cur = acc
        for _ in range(self.m - 1):
            cur = self.pow(cur, self.p)
            acc = self.add(acc, cur)
        return acc

    def is_square(self, x):
        """x != 0 is a square: x^((q-1)/2) = 1 for odd q, always for even q."""
        return self.p == 2 or int(self.pow(x, (self.q - 1) // 2)) == 1

    def in_subfield(self, x, d):
        """x lies in F_{p^d}: x^(p^d) = x."""
        return int(self.pow(x, self.p ** d)) == int(x)


class Extension:
    """F_{q^2} over a base GF, with the embedding, trace and norm down to F_q."""

    def __init__(self, base: GF):
        self.base = base
        p, q = base.p, base.q
        self.ext = ext = GF(p, smallest_irreducible(p, 2 * base.m))
        step = (ext.q - 1) // (q - 1)
        xs = np.arange(q)
        for j in range(1, q):
            if gcd(j, q - 1) != 1:
                continue
            emb = np.zeros(q, dtype=np.int64)
            emb[base.exp] = ext.exp[(np.arange(q - 1) * j * step) % (ext.q - 1)]
            lhs = emb[base.add(xs[:, None], xs[None, :])]
            if (lhs == ext.add(emb[xs][:, None], emb[xs][None, :])).all():
                break
        else:
            raise ValueError("no embedding of the base field")
        self.embed = emb
        self.unembed = np.full(ext.q, -1, dtype=np.int64)
        self.unembed[emb] = xs

    def down(self, z):
        out = self.unembed[z]
        if (out < 0).any():
            raise ValueError("value outside the embedded base field")
        return out

    def trace(self, z):
        """Tr_{q^2/q}(z) = z + z^q, as base-field indices."""
        return self.down(self.ext.add(z, self.ext.pow(z, self.base.q)))

    def norm(self, z):
        """z^(q+1), as base-field indices."""
        return self.down(self.ext.pow(z, self.base.q + 1))
