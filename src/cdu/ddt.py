"""c-DDT measurement engine: entries, row spectra, uniformity, sweeps.

The bivariate c-derivative of F = (G, H) at c = (c1, c2), a = (a1, a2) is

    D1 = G(x+a1, y+a2) - c1*G(x,y) + t*c2*H(x,y)
    D2 = H(x+a1, y+a2) - (c1-c2)*H(x,y) - c2*G(x,y)

and the DDT entry at (a, b) counts domain points with (D1, D2) = b.
Univariate functions use Definition-style F(z+a) - c*F(z).  Every domain
shape (pair plane, F_{q^2} with pair output, a field to itself) goes through
one report path, ``_kernel_report``, which histograms the domain once per
(c, a) and reduces all rows of one c to its uniformity, spectrum and witness.

Native kernel.  ``_rowk.c`` does a whole c in one C call.  One pass over the
points fills a block of four rows: at p = 2 the rows a, a^1, a^2, a^3,
which share every key and trans load; at odd p four rows of one a_lo group,
which share each permuted trans load.  Each row of the block counts
key[x + a] + trans[x] into its own row of 16-bit bins, or 32-bit bins when
n >= 2^16, where an entry can reach 2^16.  The bins and the trans scratch
are allocated here and passed in, so the C code keeps no state and
threads may share it.  Then one branch-free, vectorized pass per row (16
lanes to an AVX2 op) sums the row mass exactly, takes the row maximum and
counts the entries below a small bound in registers.  Only rows whose
maximum reaches that bound take a scalar pass for their larger entries,
and only rows that beat the best maximum so far, or tie it at a smaller a,
are scanned for the first witness.  It is compiled on first use with
``cc -O3 -shared -fPIC`` (no -march, so the file stays portable; on x86-64
the reduction carries an AVX2 clone that is picked at load time) and cached
as $XDG_CACHE_HOME/cdu/rowk-<sha256 of source and flags>.so, default
~/.cache/cdu; ctypes releases the GIL during the call, so threaded sweeps
run c values in parallel.  ``_bind`` declares the signatures on any build,
so the tests can also run a sanitizer build.  Where it cannot be built or
loaded (no compiler, unwritable cache, compile error) every report falls
back to the numpy reference ``_rows`` below, which the tests also hold the
native kernel to.
It is one expression over the field's own ``add_vec``, with no addition
logic of its own:

* Keys.  Each value of F is one integer key, g*q + h for pair output or the
  field index, and so is the per-c term -c*F(x).  Row a histograms
  F(x+a) + (-c*F(x)) over x; the key is also the reported b.
* Addition.  Points and keys are indices of one field, F_{q^2} for pair
  shapes (a pair point x*q + y and a key g*q + h are F_{q^2} digit
  vectors), so the shift x + a and the key sum are both ``add_vec``.  The
  per-c term of a pair shape is the F_{q^2} product -phi(c)*phi(F(x)),
  carried back through phi^-1.  At odd p the native kernel adds the same
  way, on the field's carry-free wide codes: it is handed wide[key] and
  wide[trans], and each point costs one integer add and two small lookups.
* Blocks.  ``_row_blocks`` hands ``_rows`` max(1, _BLOCK // n) rows at a
  time; row i of a block is offset by i*n, so one bincount fills them all
  and keys and bins stay in cache.
* Memory.  Besides the field's wide codes (one int32 per index, and two
  lookups of at most 73^2 entries), no array is larger than a small
  multiple of the domain (q^2 points) or of a block.  There is no table
  of point+a over all (a, x): one c at q = 125 runs in ~35 MB.

Both kernels check row mass conservation (each row sums to the domain size)
on every report, and every key and -c*F(x) value is checked to lie in the
codomain before the C code indexes with it.
"""

from __future__ import annotations

import ctypes
import os
import random
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:  # the builtin sha256, as random uses for sha512: hashlib would load
    from _sha2 import sha256  # OpenSSL, 3 MB more resident in every process
except ImportError:  # Python < 3.12
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

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


def _rows(field, key, trans, a):
    """bins[i, b] = #{x : key[x + a[i]] + trans[x] = b}, added in ``field``."""
    n, add = field.q, field.add_vec
    off = np.arange(len(a))[:, None] * n
    out = add(key[add(a[:, None], np.arange(n))], trans) + off
    # a key past the last bin is dropped here and then fails the mass check
    return np.bincount(out.ravel(), minlength=out.size)[:out.size].reshape(out.shape)


def _row_blocks(field, key, trans):
    """Yield (a0, bins) for every a, about _BLOCK points per block."""
    n = field.q
    step = max(1, _BLOCK // n)
    for a0 in range(0, n, step):
        yield a0, _rows(field, key, trans, np.arange(a0, min(a0 + step, n)))


def _make_report(c, best, spectrum):
    """best = (max entry, a, b); spectrum[v] = number of entries equal to v."""
    spectrum = {int(v): int(k) for v, k in enumerate(spectrum) if k}
    top, a, b = (int(v) for v in best)
    return CDdtReport(c, top, spectrum, (a, b), classify(top))


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
    return _make_report(c, best, spectrum)


# ---------------------------------------------------------------------------
# the native row kernel
# ---------------------------------------------------------------------------

_ROWK_SRC = Path(__file__).with_name("_rowk.c")
_ROWK_FLAGS = ("-O3", "-shared", "-fPIC")  # no -march: the cached .so stays portable
_rowk_lock = threading.Lock()
_rowk = []  # [] until the first call, then [the loaded library or None]


def _compile_rowk():
    """Build and load _rowk.c through ctypes; None if anything fails.

    The .so is cached under $XDG_CACHE_HOME/cdu (default ~/.cache/cdu), named
    by the sha256 of the source and flags, and written through a temp file
    and os.replace so that concurrent builders never load a partial file.
    """
    try:
        src = _ROWK_SRC.read_bytes()
        tag = sha256(src + " ".join(_ROWK_FLAGS).encode()).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "cdu"
        so = cache / f"rowk-{tag[:16]}.so"
        if not so.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(["cc", *_ROWK_FLAGS, "-o", tmp, str(_ROWK_SRC)],
                               check=True, capture_output=True, timeout=300)
                os.replace(tmp, so)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(so))
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
    return _bind(lib)


def _bind(lib):
    """Declare the kernel signatures on a loaded build of _rowk.c; returns
    lib, with ``block_rows``, the row count of the bins it expects.  Any
    build loads this way, as the sanitizer run of the tests does."""
    i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    c_int = ctypes.c_int
    for bits in (16, 32):
        bins = np.ctypeslib.ndpointer(f"uint{bits}", ndim=2,
                                      flags="C_CONTIGUOUS")
        tail = [c_int, bins, i64, i64]  # start, bins, spec, best
        xor = getattr(lib, f"cdu_rows_xor{bits}")
        add = getattr(lib, f"cdu_rows_add{bits}")
        xor.argtypes = [c_int, i32, i32] + tail
        add.argtypes = [c_int, c_int] + [i32] * 6 + tail
        xor.restype = add.restype = c_int
    lib.block_rows = c_int.in_dll(lib, "cdu_block_rows").value
    return lib


def _native():
    """The native row kernel library, built once per process, or None."""
    with _rowk_lock:
        if not _rowk:
            _rowk.append(_compile_rowk())
            if _rowk[0] is None:  # stderr only: stdout stays the same
                print("cdu: native row kernel unavailable; using the numpy "
                      "reference", file=sys.stderr)
        return _rowk[0]


def _kernel_report(field, key, trans, c):
    """Report over every row: one native call, or the numpy blocks without
    a compiler.  Values are checked first, since the C code indexes bins and
    keys with them unchecked."""
    n = field.q
    if len(key) != n or len(trans) != n:
        raise CduError("value tables do not span the field (engine bug)")
    if min(key.min(), trans.min()) < 0 or max(key.max(), trans.max()) >= n:
        raise CduError("value table outside the codomain (engine bug)")
    key = np.ascontiguousarray(key, dtype=np.int32)
    trans = np.ascontiguousarray(trans, dtype=np.int32)
    lib = _native()
    if lib is None:
        return _report(_row_blocks(field, key, trans), n, c)
    start = 1 if c.is_identity else 0
    bits = 16 if n < 1 << 16 else 32  # an entry is at most n
    bins = np.zeros((lib.block_rows, n), dtype=f"uint{bits}")
    spec = np.zeros(n + 1, dtype=np.int64)
    best = np.full(3, -1, dtype=np.int64)
    if field.p == 2:
        rc = getattr(lib, f"cdu_rows_xor{bits}")(n, key, trans, start, bins,
                                                  spec, best)
    else:
        wide, r_hi, r_lo = field.carry_free
        rc = getattr(lib, f"cdu_rows_add{bits}")(
            n, field.lo, wide, r_hi, r_lo, wide[key], wide[trans],
            np.empty_like(key), start, bins, spec, best)
    if rc:
        raise CduError("row mass conservation violated (engine bug)")
    return _make_report(c, best, spec)


def _pair_trans(qctx, tabs, c):
    """-c*F(x) as packed pair keys: the pair product is the F_{q^2} product
    carried through phi, so this is phi^-1(-phi(c) * phi(F(x)))."""
    ext = qctx.ext
    neg_c = ext.neg(int(qctx.phi_table[qctx.pt(c.c1, c.c2)]))
    return qctx.phi_inv_table[ext.mul_vec(neg_c, qctx.phi_table[tabs.key])]


def _uni_trans(field, table, c):
    """-c*F(x) for a function of a field to itself."""
    return field.mul_row(field.neg(c.c))[table]


def pair_report(qctx, tabs: PairTables, c: CParam) -> CDdtReport:
    return _kernel_report(qctx.ext, tabs.key, _pair_trans(qctx, tabs, c), c)


def uni_report(field, table, c: CParam) -> CDdtReport:
    return _kernel_report(field, table, _uni_trans(field, table, c), c)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def c_derivative(spec: FuncSpec, qctx: QuadExtCtx, c: CParam, a, point):
    """One c-derivative value; shapes follow the spec's domain."""
    tabs = tables_for(spec, qctx)
    base, ext = qctx.base, qctx.ext
    if isinstance(tabs, UniTable):
        f = tabs.f
        z = point.idx
        return ext.elem(ext.sub(int(f[ext.add(z, a.idx)]),
                                ext.mul(c.c, int(f[z]))))
    if tabs.domain == BIV:
        if not isinstance(point, BivElem) or not isinstance(a, BivElem):
            raise DomainMismatch("bivariate derivative expects BivElem a and point")
        pt = qctx.pt(point.x.idx, point.y.idx)
        av = qctx.pt(a.x.idx, a.y.idx)
    else:
        pt, av = point.idx, a.idx
    sh = ext.add(pt, av)  # pair points add digitwise, as F_{q^2} indices
    g, h = int(tabs.g[pt]), int(tabs.h[pt])
    d1 = base.add(base.sub(int(tabs.g[sh]), base.mul(c.c1, g)),
                  base.mul(qctx.t, base.mul(c.c2, h)))
    d2 = base.sub(base.sub(int(tabs.h[sh]), base.mul(base.sub(c.c1, c.c2), h)),
                  base.mul(c.c2, g))
    return qctx.biv(d1, d2)


def c_row_spectrum(spec: FuncSpec, qctx: QuadExtCtx, c: CParam, a_index):
    """Histogram over the codomain for one (c, a); a_index is the domain index."""
    tabs = tables_for(spec, qctx)
    field = qctx.ext
    if isinstance(tabs, UniTable):
        key, trans = tabs.f, _uni_trans(field, tabs.f, c)
    else:
        key, trans = tabs.key, _pair_trans(qctx, tabs, c)
    if not 0 <= a_index < field.q:
        raise CduError(f"a index {a_index} outside the domain")
    return _rows(field, key, trans, np.array([a_index]))[0]


def c_uniformity(spec: FuncSpec, qctx: QuadExtCtx, c: CParam) -> CDdtReport:
    return sweep(spec, qctx, [c])[0]


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
    """Compare the bivariate report against the lifted univariate one per c.

    The univariate side runs at c = phi(c1, c2); a and b sweep the whole
    extension field, i.e. the images of all pairs under phi.  A row matches
    when uniformity and spectrum are both equal.
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
            match = (b.uniformity, b.spectrum) == (u.uniformity, u.spectrum)
            ok = ok and match
            rows.append(EquivalenceRow(c1, c2, b.uniformity, u.uniformity, match))
    return EquivalenceReport(ordering, rows, ok)
