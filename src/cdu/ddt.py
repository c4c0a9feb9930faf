"""c-DDT measurement engine: uniformity, spectrum and witness per c, sweeps.

The bivariate c-derivative of F = (G, H) at c = (c1, c2), a = (a1, a2) is

    D1 = G(x+a1, y+a2) - c1*G(x,y) + t*c2*H(x,y)
    D2 = H(x+a1, y+a2) - (c1-c2)*H(x,y) - c2*G(x,y)

and the DDT entry at (a, b) counts domain points with (D1, D2) = b.
Tables of a field to itself (the univariate lift, the inner functions
``predict`` measures) use Definition-style F(z+a) - c*F(z).  Every domain
shape (pair plane, F_{q^2} with pair output, a field to itself) goes through
one report path, ``_kernel_report``, which histograms the domain once per
row (c, a) it runs and reduces the rows of one c to its uniformity,
spectrum and witness.

Row weights.  Most constructions are homogeneous: F(lam*z) = N(F(z)) with
N(g, h) = (mu*g, nu*h) for every lam of a subgroup of F_q^*, lam*z being
(lam*x, lam*y) on a pair point and embed(lam)*z on a point of F_{q^2}.
Where N commutes with the product by c, N_c(lam*a, N(b)) = N_c(a, b):
substitute x = lam*x' in F(x + lam*a) - c*F(x) = N(b).  So row lam*a holds
the entries of row a, relabelled, and one row per orbit of a under the
subgroup stands for all of them.  N commutes with every c on the line
c2 = 0, where c is the scalar c1; off it, only on the subgroup <lam^j>
with mu^j = nu^j, which may be trivial.  A table's first report finds the
order of both subgroups (``_scaling``).  Row a is an element of F_{q^2},
phi(a) for a pair point, in which lam*a is the product by embed(lam); so
the orbit of a nonzero row under the subgroup of order r is its coset of
F_{q^2}^*, the rows whose logs agree mod (q^2 - 1)/r.  Row a weighs wt[a]
(``_row_weights``): r at the smallest row of its coset, else 0; row 0
weighs 1, and 0 at the identity c, as the a-quantifier excludes it.  Both
kernels run only the rows of nonzero weight and add each row's entry
counts wt[a] times to the spectrum.  The maximum is the same on every row
of an orbit, so the smallest a attaining it is an orbit's smallest point,
and the report is identical to that of every row: one c of goldpair at
q = 64 runs 66 rows, not 4096.  Tables with no scaling, and every table of
a field to itself, run every row at weight 1 (order 1).

Native kernel.  ``_rowk.c`` does a whole c in one C call.  One pass over
the points fills a block of four rows: at p = 2 the rows a, a^1, a^2, a^3,
which share every key and trans load; at odd p four rows of one a_lo group,
which share each permuted trans load.  A block whose four rows all weigh 0
is skipped, and at odd p so is an a_lo group, with its permutation.  Each
row of the block counts key[x + a] + trans[x] into its own row of 16-bit
bins, or 32-bit bins when n >= 2^16, where an entry can reach 2^16.  The
bins and the trans scratch are allocated here and passed in, so the C code
keeps no state and threads may share it.  Then one branch-free, vectorized
pass per weighed row (16 lanes to an AVX2 op) sums the row mass exactly,
takes the row maximum and counts the entries below a small bound in
registers.  Only rows whose maximum reaches that bound take a scalar pass
for their larger entries, and only rows that beat the best maximum so far,
or tie it at a smaller a, are scanned for the first witness.  It is
compiled on first use with ``cc -O3 -shared -fPIC`` (no -march, so the file
stays portable; on x86-64 the reduction carries an AVX2 clone that is
picked at load time) and cached as $XDG_CACHE_HOME/cdu/rowk-<sha256 of
source and flags>.so, default ~/.cache/cdu; ctypes releases the GIL during
the call, so threaded sweeps run c values in parallel.  ``_bind`` declares
the signatures on any build, so the tests can also run a sanitizer build.
Arrays pass as bare addresses: those of a table (its key or its wide
codes, the field's codes, its row weights) are taken once, where the arrays
are built and checked to be read-only contiguous int32 (``_address``), and
live with them; only the per-c arrays are converted on each call.  Where it
cannot be built or loaded (no compiler, unwritable cache, compile error)
every report falls back to the numpy reference ``_rows`` below, which the
tests also hold the native kernel to.
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
* Per table.  ``funcs`` builds values only.  What the kernel reads of a
  table whatever the c is derived here, read-only (``_kernel_inputs``):
  the checked int32 key, its wide codes at odd p, and their addresses.  A
  pair table keeps one record of it in its ``engine`` dict, with the
  F_{q^2} logs of phi(key) and the row weights, by its scaling
  subgroups, of a line, the identity and an off-line c, built whole on
  its first report from any worker thread (``_table_inputs``).  A c then
  costs its -c*F(x) term (one add and two gathers), that term's check,
  and one kernel call.  A value array of a field to itself has its inputs
  and weights built on every ``uni_report``.
* Threads.  A sweep with threads > 1 maps its c values over a pool of
  min(threads, number of c, CPUs) workers (``_pool``); a larger pool would
  only add idle OS threads.  Workers run per-c reports only, never
  ``sweep``, so no sweep can wait on itself.
* Lifetimes.  Per process: fields, contexts, the CLI parser and the sweep
  pools (``functools.cache``), the value tables of the 16 most recently
  used (spec, context) pairs (``funcs.tables_for``, an ``lru_cache``), and
  the native library (``_native``, under a lock, so that workers build it
  once).  Per table: its record.

Both kernels check row mass conservation (each row sums to the domain size)
on every report.  Each key is checked to lie in the codomain once, when its
kernel inputs are built, and each -c*F(x) term on every c, before the C
code indexes with them.
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
from functools import cache
from math import gcd
from pathlib import Path
from typing import NamedTuple

import numpy as np

try:  # the builtin sha256, as random uses for sha512: hashlib would load
    from _sha2 import sha256  # OpenSSL, 3 MB more resident in every process
except ImportError:  # Python < 3.12
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .gf import CduError
from .quadext import QuadExtCtx
from .funcs import (BIV, FuncSpec, PairTables, DomainMismatch, _read_only,
                    tables_for, univariate_lift)


class CParam(NamedTuple):
    """The multiplier c = (c1, c2) over F_q.  For a function of a field to
    itself, c1 is the multiplier, an element of that field, and c2 is 0."""

    c1: int
    c2: int = 0

    @staticmethod
    def biv(c1, c2):
        return CParam(int(c1), int(c2))

    @staticmethod
    def uni(c):
        return CParam(int(c))

    @property
    def is_identity(self):
        """True for c = (1, 0), which switches the a-quantifier."""
        return self.c1 == 1 and self.c2 == 0


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


def _row_blocks(field, key, trans, rows):
    """Yield (a, bins) for the rows ``rows``, about _BLOCK points per block."""
    step = max(1, _BLOCK // field.q)
    for i in range(0, len(rows), step):
        a = rows[i:i + step]
        yield a, _rows(field, key, trans, a)


def _make_report(c, best, spectrum):
    """best = (max entry, a, b); spectrum[v] = number of entries equal to v."""
    values = np.flatnonzero(spectrum)
    spectrum = dict(zip(values.tolist(), spectrum[values].tolist()))
    top, a, b = (int(v) for v in best)
    return CDdtReport(c, top, spectrum, (a, b), classify(top))


def _report(blocks, n, c, wt):
    """Max entry, spectrum and lexicographically first witness over rows
    given in increasing a, row a counted wt[a] times in the spectrum."""
    best = (-1, -1, -1)
    spectrum = np.zeros(n + 1, dtype=np.int64)
    for a, bins in blocks:
        if not (bins.sum(axis=1) == n).all():
            raise CduError("row mass conservation violated (engine bug)")
        r = len(a)  # row i's entries counted at i*(n+1) + v
        hist = np.bincount((bins + np.arange(r)[:, None] * (n + 1)).ravel(),
                           minlength=r * (n + 1))
        spectrum += wt[a] @ hist.reshape(r, n + 1)
        bm = bins.max()
        if bm > best[0]:
            flat = int(np.argmax(bins == bm))
            best = (bm, a[flat // n], flat % n)
    return _make_report(c, best, spectrum)


# ---------------------------------------------------------------------------
# row symmetry
# ---------------------------------------------------------------------------

def _ratio(base, v, w):
    """mu with w = mu*v at every point, None when v = w = 0 everywhere (any
    mu then holds), and 0 when there is no such mu."""
    nz = np.flatnonzero(v)
    if not len(nz):
        return None if not w.any() else 0
    mu = base.div(int(w[nz[0]]), int(v[nz[0]]))
    return mu if (base.mul_row(mu)[v] == w).all() else 0


def _scaling(qctx, tab):
    """(order, off_order) of the pair table ``tab`` (see "Row weights"
    above): the order of the largest subgroup <lam> = <w^d> of F_q^* with
    F(lam*z) = (mu*G(z), nu*H(z)) at every point z, and that of its
    subgroup <lam^j> on which mu^j = nu^j; (1, 1) when only lam = 1 holds.
    Every divisor d of q - 1 is tried, smallest first: the set of such lam
    is a subgroup, so the first d that holds gives the largest."""
    base, ext = qctx.base, qctx.ext
    qm1 = base.q - 1
    elems = rows = np.arange(ext.q)  # the F_{q^2} element of each point, and back
    if tab.domain == BIV:
        elems, rows = qctx.phi_table, qctx.phi_inv_table
    for d in (d for d in range(1, qm1) if qm1 % d == 0):
        lam = np.int32(qctx.embed[base.antilog_table[d]])
        # fail fast on about 64 points spread over the domain (from q = 64
        # a pair table's first 64 lie on x = 0), then check every point
        for part in (slice(0, None, ext.q // 64 + 1), slice(None)):
            perm = rows[ext.mul_vec(lam, elems[part])]  # lam*z
            mu, nu = (_ratio(base, v[part], v[perm]) for v in (tab.g, tab.h))
            if mu == 0 or nu == 0:
                break
        else:
            mu, nu = mu or nu or 1, nu or mu or 1  # a zero half takes any mu
            order = qm1 // d
            # mu^j = nu^j for the multiples j of the order of mu/nu
            j = qm1 // gcd(int(base.log_table[base.div(mu, nu)]), qm1)
            return order, order // j
    return 1, 1


def _row_weights(field, rows, order, identity):
    """Row weights, with their address, for rows of the elements of
    ``field``, ``rows[e]`` being the row of element e (rows[0] = 0), under
    the subgroup of ``field``'s units of the given order.  The orbit of a
    nonzero row is its coset: the elements whose logs agree mod
    k = (|field| - 1)/order, a column of the logs laid out as order x k.
    wt[a] is the order at the smallest row of each coset, 1 at row 0 (0 at
    the identity c) and 0 elsewhere: every row weighs 1 at order 1."""
    cosets = rows[field.antilog_table].reshape(order, -1)
    wt = np.zeros(len(rows), dtype=np.int32)
    wt[cosets.min(axis=0)] = order
    wt[0] = not identity
    return _read_only(wt), _address(wt)


def _weights(qctx, tab, c):
    """Row weights of the pair table ``tab`` at c, with their address, from
    its record (``_table_inputs``): by the cosets of its scaling subgroup on
    the line c2 = 0, of the subgroup of order ``off_order`` off it."""
    line, identity, off = _table_inputs(qctx, tab).weights
    return identity if c.is_identity else line if c.c2 == 0 else off


# ---------------------------------------------------------------------------
# kernel inputs
# ---------------------------------------------------------------------------

def _address(a):
    """The address of ``a`` for the native kernel, which reads it unchecked
    in later calls: so ``a`` must be a read-only, C-contiguous int32 array,
    kept alive while the address is used."""
    if a.dtype != np.int32 or not a.flags.c_contiguous or a.flags.writeable:
        raise CduError("kernel input is not a read-only int32 array (engine bug)")
    return a.ctypes.data


def _kernel_inputs(field, values):
    """(key, arrays, addresses): the value table ``values`` over ``field`` as
    the kernel reads it whatever the c.  The key is a read-only int32 copy,
    checked here to span the field and to lie in it, since the native kernel
    indexes with it unchecked.  ``addresses`` are those of ``arrays``, which
    the native kernel takes for the table: the key at p = 2, and at odd p
    the field's three carry-free code arrays (``FieldCtx.carry_free``) and
    the key's wide codes.  Keep the arrays as long as their addresses."""
    n, values = field.q, np.asarray(values)
    if len(values) != n:
        raise CduError("value tables do not span the field (engine bug)")
    if values.min() < 0 or values.max() >= n:
        raise CduError("value table outside the codomain (engine bug)")
    key = _read_only(np.array(values, dtype=np.int32))
    arrays = ((key,) if field.p == 2 else
              (*field.carry_free, _read_only(field.carry_free[0][key])))
    return key, arrays, tuple(map(_address, arrays))


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
    build loads this way, as the sanitizer run of the tests does.  Arrays
    pass as addresses: a table's own where they are built (``_address``),
    and the per-c ones in ``_kernel_report``."""
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    for bits in (16, 32):
        tail = [ptr] * 4  # wt, bins, spec, best
        xor = getattr(lib, f"cdu_rows_xor{bits}")
        add = getattr(lib, f"cdu_rows_add{bits}")
        xor.argtypes = [c_int, ptr, ptr] + tail
        add.argtypes = [c_int, c_int] + [ptr] * 6 + tail
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


def _kernel_report(field, inputs, weights, trans, c):
    """Report over the rows of a table given by its kernel ``inputs``
    (``_kernel_inputs``), row a weighing wt[a] for ``weights`` = (wt, its
    address): one native call, or the numpy blocks without a compiler.  The
    key was checked when its inputs were built; trans is checked here, for
    every c, since the C code indexes bins and keys with both unchecked."""
    (key, _, args), (wt, wt_at) = inputs, weights
    n = field.q
    if len(key) != n or len(trans) != n:
        raise CduError("value tables do not span the field (engine bug)")
    if trans.min() < 0 or trans.max() >= n:
        raise CduError("value table outside the codomain (engine bug)")
    trans = np.ascontiguousarray(trans, dtype=np.int32)
    lib = _native()
    if lib is None:
        return _report(_row_blocks(field, key, trans, np.flatnonzero(wt)),
                       n, c, wt)
    bits = 16 if n < 1 << 16 else 32  # an entry is at most n
    bins = np.zeros((lib.block_rows, n), dtype=f"uint{bits}")
    spec = np.zeros(n + 1, dtype=np.int64)
    best = np.full(3, -1, dtype=np.int64)
    tail = (wt_at, bins.ctypes.data, spec.ctypes.data, best.ctypes.data)
    if field.p == 2:
        rc = getattr(lib, f"cdu_rows_xor{bits}")(
            n, *args, trans.ctypes.data, *tail)
    else:
        tw = field.carry_free[0][trans]
        twp = np.empty_like(trans)
        rc = getattr(lib, f"cdu_rows_add{bits}")(
            n, field.lo, *args, tw.ctypes.data, twp.ctypes.data,
            *tail)
    if rc:
        raise CduError("row mass conservation violated (engine bug)")
    return _make_report(c, best, spec)


def _pair_trans(qctx, log_phi, c):
    """-c*F(x) as packed pair keys: the pair product is the F_{q^2} product
    carried through phi, so this is phi^-1(-phi(c) * phi(F(x))), taken on
    log_phi, the F_{q^2} logs of phi(F(x))."""
    neg_c = qctx.ext.neg(int(qctx.phi_table[qctx.pt(c.c1, c.c2)]))
    return qctx.phi_inv_table[qctx.ext.mul_log_vec(log_phi, neg_c)]


def _uni_trans(field, table, c):
    """-c*F(x) for a function of a field to itself."""
    return field.mul_row(field.neg(c.c1))[table]


class _Record(NamedTuple):
    """What the kernel reads of a pair table whatever the c."""

    inputs: tuple  # _kernel_inputs of its key
    log_phi: np.ndarray  # the F_{q^2} logs of phi(key)
    weights: tuple  # on the line, at the identity c, off the line


def _table_inputs(qctx, tab):
    """The record of the pair table ``tab``: built whole on its first report
    and kept as ``tab.engine["record"]``, from any thread: two threads may
    build it, and one record is kept."""
    rec = tab.engine.get("record")
    if rec is None:
        order, off_order = _scaling(qctx, tab)
        rows = qctx.phi_inv_table if tab.domain == BIV else np.arange(len(tab.key))
        rec = tab.engine.setdefault("record", _Record(
            _kernel_inputs(qctx.ext, tab.key),
            _read_only(qctx.ext.log_table[qctx.phi_table[tab.key]]),
            tuple(_row_weights(qctx.ext, rows, r, identity) for r, identity
                  in ((order, False), (order, True), (off_order, False)))))
    return rec


def pair_report(qctx, tabs: PairTables, c: CParam) -> CDdtReport:
    """Report of a function with pair output (see ``_table_inputs``)."""
    rec = _table_inputs(qctx, tabs)
    return _kernel_report(qctx.ext, rec.inputs, _weights(qctx, tabs, c),
                          _pair_trans(qctx, rec.log_phi, c), c)


def uni_report(field, values, c: CParam) -> CDdtReport:
    """Report of a function of ``field`` to itself, given by its value
    array; its kernel inputs and its weights, 1 per row, are built for this
    call, and the array is left as it was."""
    inputs = _kernel_inputs(field, values)
    wt = _row_weights(field, np.arange(field.q), 1, c.is_identity)
    return _kernel_report(field, inputs, wt, _uni_trans(field, inputs[0], c), c)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def c_uniformity(spec: FuncSpec, qctx: QuadExtCtx, c: CParam) -> CDdtReport:
    return sweep(spec, qctx, [c])[0]


def sweep(spec: FuncSpec, qctx: QuadExtCtx, c_list, threads=1):
    """One report per c, in the order given; parallel over c when threads > 1,
    on at most one worker per c and per CPU."""
    tabs = tables_for(spec, qctx)  # shared read-only by workers

    def one(c):
        return pair_report(qctx, tabs, c)

    workers = min(threads, len(c_list), os.cpu_count() or 1)
    if workers <= 1:
        return [one(c) for c in c_list]
    return list(_pool(workers).map(one, c_list))


@cache
def _pool(threads):
    """The process's pool of ``threads`` workers (see "Threads" above).
    Two sweeps that reach it first at once may each start a pool; one is
    kept, and the other is freed when its sweep ends."""
    return ThreadPoolExecutor(threads, thread_name_prefix=f"cdu-sweep{threads}")


# ---------------------------------------------------------------------------
# c-set selectors
# ---------------------------------------------------------------------------

def c_all_biv(q):
    """F_q x F_q minus the identity (1, 0)."""
    return [CParam.biv(c1, c2) for c1 in range(q) for c2 in range(q)
            if (c1, c2) != (1, 0)]


def c_line_biv(q):
    """F_q x {0} minus the identity (1, 0)."""
    return [CParam.biv(c1, 0) for c1 in range(q) if c1 != 1]


def c_sample_biv(q, n, seed):
    pool = c_all_biv(q)
    rng = random.Random(seed)
    return rng.sample(pool, min(n, len(pool)))


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
    rows: list
    all_match: bool


def equivalence_check(spec: FuncSpec, qctx: QuadExtCtx) -> EquivalenceReport:
    """Compare the bivariate report against the lifted univariate one per c.

    The univariate side runs at c = phi(c1, c2); a and b sweep the whole
    extension field, i.e. the images of all pairs under phi.  A row matches
    when uniformity and spectrum are both equal.
    """
    if spec.domain != BIV:
        raise DomainMismatch("equivalence_check needs a bivariate spec")
    tabs = tables_for(spec, qctx)
    lift = univariate_lift(spec, qctx)
    q = qctx.base.q
    rows = []
    ok = True
    for c1 in range(q):
        for c2 in range(q):
            b = pair_report(qctx, tabs, CParam.biv(c1, c2))
            ce = int(qctx.phi_table[qctx.pt(c1, c2)])
            u = uni_report(qctx.ext, lift, CParam.uni(ce))
            match = (b.uniformity, b.spectrum) == (u.uniformity, u.spectrum)
            ok = ok and match
            rows.append(EquivalenceRow(c1, c2, b.uniformity, u.uniformity, match))
    return EquivalenceReport(rows, ok)
