"""c-DDT measurement engine: entries, row spectra, uniformity, sweeps.

The bivariate c-derivative of F = (G, H) at c = (c1, c2), a = (a1, a2) is

    D1 = G(x+a1, y+a2) - c1*G(x,y) + t*c2*H(x,y)
    D2 = H(x+a1, y+a2) - (c1-c2)*H(x,y) - c2*G(x,y)

and the DDT entry at (a, b) counts domain points with (D1, D2) = b.
Univariate functions use Definition-style F(z+a) - c*F(z).  Every domain
shape (pair plane, F_{q^2} with pair output, a field to itself) goes through
one row kernel, ``_row_blocks``, which histograms the domain once per (c, a):

* Key packing.  Each value of F is one intp key, g*q + h for pair output or
  the field index, and so is the per-c term -c*F(x).  Row a histograms
  F(x+a) + (-c*F(x)) over x; the key is also the reported b.
* Addition.  Points and keys are base-p digit vectors, pair points x*q + y
  and F_{q^2} indices alike, so an index splits into a high and a low half
  that add separately in one table of the smaller field (XOR for p = 2).
  The shift x + a is a row gather by the high digit of a, once per slab of
  a values sharing it, then a column gather by the low digit.  The key sum
  is one XOR for p = 2 and two lookups in that table for odd p.
* Blocks.  Rows are bincounted about 2^16 points at a time, so keys and bins
  stay in cache.
* Memory.  Besides the block buffers and the field addition tables that gf
  caps, no array is larger than a small multiple of the domain (q^2
  points).  There is no table of point+a over all (a, x): one c at q = 125
  runs in ~35 MB.

Every report asserts row mass conservation (each row sums to the domain size).
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gf import CduError
from .quadext import BivElem, QuadExtCtx
from .funcs import (BIV, G_PLUS_BETA_H, FuncSpec, PairTables, UniTable,
                    DomainMismatch, tables_for, univariate_lift)


@dataclass(frozen=True)
class CParam:
    """The multiplier c: a pair (c1, c2) over F_q or a scalar over F_{q^2}."""

    kind: str
    c1: int = 0
    c2: int = 0
    c: int = 0

    @staticmethod
    def biv(c1, c2):
        return CParam("biv", c1=int(c1), c2=int(c2))

    @staticmethod
    def uni(c):
        return CParam("uni", c=int(c))

    @property
    def is_identity(self):
        """True for c = (1,0) resp. c = 1, which switches the a-quantifier."""
        if self.kind == "biv":
            return self.c1 == 1 and self.c2 == 0
        return self.c == 1


@dataclass
class CDdtReport:
    """Uniformity, full entry spectrum and a witness for one (function, c)."""

    c: CParam
    uniformity: int
    spectrum: dict
    witness: tuple  # (a index, b index) in domain/codomain encoding
    classification: str


def classify(uniformity):
    if uniformity == 1:
        return "PcN"
    if uniformity == 2:
        return "APcN"
    return f"(c,{uniformity})"


# ---------------------------------------------------------------------------
# the row kernel
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16  # points bincounted at once: keys and bins stay in cache


def _row_blocks(field, key, trans):
    """Yield (a0, bins) with bins[i, b] = #{x : key[x + a0 + i] + trans[x] = b}.

    Domain and codomain have n = p^M elements and add digitwise, as indices
    of ``field`` do.  An index splits into high and low halves, both below
    hi = p^ceil(M/2) <= field.q, that add in one hi x hi table.
    """
    key = np.asarray(key, dtype=np.intp)
    trans = np.asarray(trans, dtype=np.intp)
    n, p = len(key), field.p
    lo_n = 1
    while (lo_n * p) ** 2 <= n:
        lo_n *= p
    hi = n // lo_n  # an index is x_hi * lo_n + x_lo, both halves below hi
    i = np.arange(hi)
    add = field.add_vec(i[:, None], i[None, :]).astype(np.intp)
    # a block is s slabs (values of a_hi) of l values of a_lo each: whole
    # slabs when they fit in the budget, else part of one
    s = l = 1
    while l < lo_n and l * p * n <= _BLOCK:
        l *= p
    while l == lo_n and s < hi and s * p * lo_n * n <= _BLOCK:
        s *= p
    # points are laid out [x_lo, x_hi]; a block is [a_lo, x_lo, a_hi, x_hi]
    off = ((np.arange(s) * lo_n)[None, :] + np.arange(l)[:, None]) * n
    off = off.reshape(l, 1, s, 1)

    def layout(v):
        return np.ascontiguousarray(v.reshape(hi, lo_n).T)

    if p == 2:
        srcs = [layout(key)]
        # key + trans is XOR, and the row offset is a bit field above it
        toff = np.bitwise_xor(layout(trans)[None, :, None, :], off)
    else:
        srcs = [layout(key // lo_n * hi), layout(key % lo_n * hi)]
        t_hi, t_lo = layout(trans // lo_n), layout(trans % lo_n)
        add_hi, add_lo = (add * lo_n).ravel(), add.ravel()
    bufs = [np.empty((l, lo_n, s, hi), dtype=np.intp) for _ in srcs]
    out = np.empty_like(bufs[0])
    for a_hi in range(0, hi, s):
        # row gather: the hi digit of every point moves by each slab's a_hi
        slabs = [np.take(v, add[a_hi:a_hi + s], axis=1) for v in srcs]
        for a_lo in range(0, lo_n, l):
            # column gather inside the slabs: the lo digit moves by a_lo
            idx = add[a_lo:a_lo + l, :lo_n]
            for v, buf in zip(slabs, bufs):
                np.take(v, idx, axis=0, out=buf, mode="clip")
            if p == 2:
                np.bitwise_xor(bufs[0], toff, out=out)
            else:
                g, h = bufs
                g += t_hi[:, None, :]
                h += t_lo[:, None, :]
                np.take(add_hi, g, out=out, mode="clip")
                out += np.take(add_lo, h, out=g, mode="clip")
                out += off
            # a key past the block's bins is dropped here and then fails
            # the row mass check
            bins = np.bincount(out.ravel(), minlength=s * l * n)
            yield a_hi * lo_n + a_lo, bins[:s * l * n].reshape(s * l, n)


def _report(blocks, n, c):
    """Max entry, spectrum and lexicographically first witness over all rows."""
    best = (-1, -1, -1)
    spectrum = np.zeros(n + 1, dtype=np.int64)
    for a0, bins in blocks:
        if not (bins.sum(axis=1) == n).all():
            raise CduError("row mass conservation violated (engine bug)")
        start = 1 if (c.is_identity and a0 == 0) else 0
        sub = bins[start:]
        if sub.size == 0:
            continue
        hist = np.bincount(sub.ravel())
        spectrum[:len(hist)] += hist
        bm = len(hist) - 1
        if bm > best[0]:
            flat = int(np.argmax(sub == bm))
            best = (bm, a0 + start + flat // n, flat % n)
    spectrum = {int(v): int(k) for v, k in enumerate(spectrum) if k}
    return CDdtReport(c, best[0], spectrum, best[1:], classify(best[0]))


def _pair_blocks(qctx, tabs, c):
    base = qctx.base
    g, h = tabs.g, tabs.h
    u = base.add_vec(base.mul_row(base.neg(c.c1))[g],
                     base.mul_row(base.mul(qctx.t, c.c2))[h])
    v = base.add_vec(base.mul_row(base.neg(base.sub(c.c1, c.c2)))[h],
                     base.mul_row(base.neg(c.c2))[g])
    # an F_{q^2} index is a digit vector too, so its halves add in F_q
    return _row_blocks(base, tabs.key, u.astype(np.intp) * base.q + v)


def _uni_blocks(field, table, c):
    return _row_blocks(field, table, field.mul_row(field.neg(c.c))[table])


def pair_report(qctx, tabs: PairTables, c: CParam) -> CDdtReport:
    return _report(_pair_blocks(qctx, tabs, c), len(tabs.g), c)


def uni_report(field, table, c: CParam) -> CDdtReport:
    return _report(_uni_blocks(field, table, c), len(table), c)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def c_derivative(spec: FuncSpec, qctx: QuadExtCtx, c: CParam, a, point):
    """One c-derivative value; shapes follow the spec's domain."""
    tabs = tables_for(spec, qctx)
    base = qctx.base
    if isinstance(tabs, UniTable):
        f = tabs.f
        z, av = point.idx, a.idx
        ext = qctx.ext
        return ext.elem(ext.sub(int(f[ext.add(z, av)]),
                                ext.mul(c.c, int(f[z]))))
    if tabs.domain == BIV:
        if not isinstance(point, BivElem) or not isinstance(a, BivElem):
            raise DomainMismatch("bivariate derivative expects BivElem a and point")
        pt = qctx.pt(point.x.idx, point.y.idx)
        sh = qctx.pt(base.add(point.x.idx, a.x.idx),
                     base.add(point.y.idx, a.y.idx))
    else:
        pt = point.idx
        sh = qctx.ext.add(point.idx, a.idx)
    g, h = int(tabs.g[pt]), int(tabs.h[pt])
    d1 = base.add(base.sub(int(tabs.g[sh]), base.mul(c.c1, g)),
                  base.mul(qctx.t, base.mul(c.c2, h)))
    d2 = base.sub(base.sub(int(tabs.h[sh]), base.mul(base.sub(c.c1, c.c2), h)),
                  base.mul(c.c2, g))
    return qctx.biv(d1, d2)


def c_row_spectrum(spec: FuncSpec, qctx: QuadExtCtx, c: CParam, a_index):
    """Histogram over the codomain for one (c, a); a_index is the domain index."""
    tabs = tables_for(spec, qctx)
    if isinstance(tabs, UniTable):
        blocks = _uni_blocks(qctx.ext, tabs.f, c)
    else:
        blocks = _pair_blocks(qctx, tabs, c)
    for a0, bins in blocks:
        if a0 <= a_index < a0 + len(bins):
            return bins[a_index - a0]
    raise CduError(f"a index {a_index} outside the domain")


def c_uniformity(spec: FuncSpec, qctx: QuadExtCtx, c: CParam) -> CDdtReport:
    tabs = tables_for(spec, qctx)
    if isinstance(tabs, UniTable):
        return uni_report(qctx.ext, tabs.f, c)
    return pair_report(qctx, tabs, c)


def sweep(spec: FuncSpec, qctx: QuadExtCtx, c_list, threads=1):
    """One report per c, in the order given; parallel over c when threads > 1."""
    tabs = tables_for(spec, qctx)  # shared read-only by workers

    def one(c):
        if isinstance(tabs, UniTable):
            return uni_report(qctx.ext, tabs.f, c)
        return pair_report(qctx, tabs, c)

    if threads <= 1:
        return [one(c) for c in c_list]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, c_list))


# ---------------------------------------------------------------------------
# c-set selectors
# ---------------------------------------------------------------------------

def c_all_biv(q, include_identity=False):
    out = [CParam.biv(c1, c2) for c1 in range(q) for c2 in range(q)]
    if include_identity:
        return out
    return [c for c in out if not c.is_identity]


def c_line_biv(q):
    """F_q x {0} minus the identity (1, 0)."""
    return [CParam.biv(c1, 0) for c1 in range(q) if c1 != 1]


def c_sample_biv(q, n, seed):
    pool = c_all_biv(q)
    rng = random.Random(seed)
    return rng.sample(pool, min(n, len(pool)))


def c_all_uni(big_q):
    return [CParam.uni(c) for c in range(big_q) if c != 1]


# ---------------------------------------------------------------------------
# bivariate <-> univariate consistency
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceRow:
    c1: int
    c2: int
    biv_uniformity: int
    uni_uniformity: int
    match: bool


@dataclass
class EquivalenceReport:
    ordering: str
    rows: list
    all_match: bool


def equivalence_check(spec: FuncSpec, qctx: QuadExtCtx,
                      ordering=G_PLUS_BETA_H) -> EquivalenceReport:
    """Compare bivariate uniformity against the lifted univariate one per c.

    The univariate side runs at c = phi(c1, c2); a and b sweep the whole
    extension field, i.e. the images of all pairs under phi.
    """
    if spec.domain != BIV:
        raise DomainMismatch("equivalence_check needs a bivariate spec")
    tabs = tables_for(spec, qctx)
    lift = univariate_lift(spec, qctx, ordering)
    ltab = tables_for(lift, qctx).f
    q = qctx.base.q
    rows = []
    ok = True
    for c1 in range(q):
        for c2 in range(q):
            b = pair_report(qctx, tabs, CParam.biv(c1, c2))
            ce = int(qctx.phi_table[qctx.pt(c1, c2)])
            u = uni_report(qctx.ext, ltab, CParam.uni(ce))
            match = b.uniformity == u.uniformity
            ok = ok and match
            rows.append(EquivalenceRow(c1, c2, b.uniformity, u.uniformity, match))
    return EquivalenceReport(ordering, rows, ok)
