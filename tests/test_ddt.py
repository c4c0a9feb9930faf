import contextlib
import os
import random
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdu
from cdu import (equivalence_check, func_spec, make_field, make_quadext,
                 parse_func_spec, univariate_lift)
from cdu import ddt
from cdu.ddt import CParam
from cdu.funcs import BIV, EXT, PairTables, tables_for
from cdu.quadext import select_t


def _pair_terms(qctx, tabs, c):
    """Scalar pieces of the pair-output c-derivative: it is
    add(vals[shift(x, a)], trans[x]), with trans the -c*F(x) part."""
    base, ext = qctx.base, qctx.ext
    q = base.q
    vals = [(int(g), int(h)) for g, h in zip(tabs.g, tabs.h)]
    trans = [(base.add(base.neg(base.mul(c.c1, g)),
                       base.mul(qctx.t, base.mul(c.c2, h))),
              base.sub(base.neg(base.mul(base.sub(c.c1, c.c2), h)),
                       base.mul(c.c2, g)))
             for g, h in vals]
    if tabs.domain == BIV:
        def shift(x, a):
            return qctx.pt(base.add(x // q, a // q), base.add(x % q, a % q))
    else:
        shift = ext.add

    def add(v, t):
        return base.add(v[0], t[0]) * q + base.add(v[1], t[1])

    return shift, vals, trans, add


def _uni_terms(field, table, c):
    vals = [int(v) for v in table]
    return field.add, vals, [field.neg(field.mul(c.c1, v)) for v in vals], field.add


def _naive_row(terms, a):
    shift, vals, trans, add = terms
    hist = {}
    for x in range(len(vals)):
        b = add(vals[shift(x, a)], trans[x])
        hist[b] = hist.get(b, 0) + 1
    return hist


def naive_row_histogram(qctx, tabs, c, a):
    """Independent solution counting for one (c, a): evaluate the
    c-derivative at every domain point with scalar field ops.  Returns
    {b: count}, b in the engine's codomain encoding g*q + h."""
    return _naive_row(_pair_terms(qctx, tabs, c), a)


def naive_report(terms, identity):
    """(uniformity, spectrum, witness) from every admissible row's naive
    histogram; the witness is the first maximal (a, b) in (a, b) order."""
    n = len(terms[1])
    best, witness, spectrum = -1, None, {}
    for a in range(1 if identity else 0, n):
        hist = _naive_row(terms, a)
        spectrum[0] = spectrum.get(0, 0) + n - len(hist)
        for b in sorted(hist):
            spectrum[hist[b]] = spectrum.get(hist[b], 0) + 1
            if hist[b] > best:
                best, witness = hist[b], (a, b)
    return best, {v: k for v, k in spectrum.items() if k}, witness


def _engine_row(qctx, tabs, c, a):
    """The engine's row a at c, on the numpy reference: bins[b] for every
    codomain index b."""
    log_phi = qctx.ext.log_table[qctx.phi_table[tabs.key]]
    return ddt._rows(qctx.ext, tabs.key, ddt._pair_trans(qctx, log_phi, c),
                     np.array([a]))[0]


def test_c_derivative_at_identity_c(qx16):
    tabs = tables_for(parse_func_spec("genlinh{L=x;h=inv}"), qx16)
    shift, vals, trans, add = _pair_terms(qx16, tabs, CParam.biv(1, 0))
    for x, y in [(0, 0), (3, 7), (15, 1)]:
        pt = qx16.pt(x, y)
        assert add(vals[shift(pt, 0)], trans[pt]) == 0


def test_c_derivative_at_c_zero_is_shift(qx16):
    tabs = tables_for(parse_func_spec("genlinh{L=x;h=inv}"), qx16)
    shift, vals, trans, add = _pair_terms(qx16, tabs, CParam.biv(0, 0))
    a = qx16.pt(5, 9)
    for x, y in [(0, 0), (2, 13)]:
        pt = qx16.pt(x, y)
        shifted = qx16.pt(qx16.base.add(x, 5), qx16.base.add(y, 9))
        assert (add(vals[shift(pt, a)], trans[pt])
                == qx16.pt(int(tabs.g[shifted]), int(tabs.h[shifted])))


def test_c_derivative_identity_function_product_law(qx16):
    # F = id, a = 0: derivative is (x,y) - c*(x,y) under the pair product
    tabs = tables_for(parse_func_spec("identity"), qx16)
    base = qx16.base
    rng = random.Random(1)
    for _ in range(30):
        c1, c2 = rng.randrange(16), rng.randrange(16)
        x, y = rng.randrange(16), rng.randrange(16)
        shift, vals, trans, add = _pair_terms(qx16, tabs, CParam.biv(c1, c2))
        pt = qx16.pt(x, y)
        # (c1, c2)*(x, y) = (c1*x - t*c2*y, c1*y + c2*x - c2*y)
        g = base.sub(base.mul(c1, x), base.mul(qx16.t, base.mul(c2, y)))
        h = base.sub(base.add(base.mul(c1, y), base.mul(c2, x)), base.mul(c2, y))
        assert (add(vals[shift(pt, 0)], trans[pt])
                == qx16.pt(base.sub(x, g), base.sub(y, h)))


def test_row_spectrum_examples(qx16):
    q = qx16.base.q
    # bijection at c = 0: every bucket 1
    tabs = tables_for(parse_func_spec("genlinh{L=x;h=inv}"), qx16)
    row = _engine_row(qx16, tabs, CParam.biv(0, 0), qx16.pt(3, 4))
    assert (row == 1).all()
    # identity F at c = (1,0), a = (1,0): constant derivative a
    tabs = tables_for(parse_func_spec("identity"), qx16)
    row = _engine_row(qx16, tabs, CParam.biv(1, 0), qx16.pt(1, 0))
    assert row[qx16.pt(1, 0)] == q * q and row.sum() == q * q


def test_uniformity_identity_function(qx16):
    spec = parse_func_spec("identity")
    r0 = ddt.c_uniformity(spec, qx16, CParam.biv(0, 0))
    assert r0.uniformity == 1 and r0.classification == "PcN"
    r1 = ddt.c_uniformity(spec, qx16, CParam.biv(1, 0))
    assert r1.uniformity == qx16.base.q ** 2


def test_engine_matches_naive_counting_q4(qx4):
    rng = random.Random(11)
    q = 4
    gt = tuple(rng.randrange(q) for _ in range(q * q))
    ht = tuple(rng.randrange(q) for _ in range(q * q))
    spec = func_spec("genericbiv", gtable=gt, htable=ht)
    tabs = tables_for(spec, qx4)
    for c1 in range(q):
        for c2 in range(q):
            c = CParam.biv(c1, c2)
            for apt in range(q * q):
                hist = naive_row_histogram(qx4, tabs, c, apt)
                row = _engine_row(qx4, tabs, c, apt)
                for b in range(q * q):
                    assert row[b] == hist.get(b, 0)


def test_engine_matches_naive_counting_q8_sampled(qx8):
    spec = parse_func_spec("genlinh{L=x^2+x;h=inv}")
    tabs = tables_for(spec, qx8)
    rng = random.Random(5)
    q = 8
    for _ in range(25):
        c = CParam.biv(rng.randrange(q), rng.randrange(q))
        apt = rng.randrange(q * q)
        hist = naive_row_histogram(qx8, tabs, c, apt)
        row = _engine_row(qx8, tabs, c, apt)
        for b in range(q * q):
            assert row[b] == hist.get(b, 0)


@pytest.mark.parametrize("field", [(3, 1), (3, 2), (5, 2)])
def test_row_spectrum_and_derivative_match_naive_odd_p(field):
    """Odd p: the engine's row agrees with the scalar naive counter."""
    qctx = make_quadext(make_field(*field))
    q, n = qctx.base.q, qctx.ext.q
    rng = np.random.default_rng(q)
    g, h = rng.integers(0, q, (2, n))
    spec = func_spec("genericbiv", gtable=tuple(g.tolist()),
                     htable=tuple(h.tolist()))
    cs = [CParam.biv(1, 0), CParam.biv(0, 0), CParam.biv(*rng.integers(0, q, 2))]
    tabs = tables_for(spec, qctx)
    for c in cs:
        terms = _pair_terms(qctx, tabs, c)
        for a in (0, n - 1, int(rng.integers(1, n - 1))):
            row = _engine_row(qctx, tabs, c, a)
            hist = _naive_row(terms, a)
            assert row.tolist() == [hist.get(b, 0) for b in range(n)]


# F_4, F_8, F_9, F_25, F_3, F_7: both characteristics, p >= 5, and prime
# fields, whose uni-base shape adds by (u + v) % p
_PROPERTY_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 1), (7, 1)]


@contextlib.contextmanager
def _kernel(kernel):
    """Run the engine on the native kernel or on the numpy fallback."""
    saved = ddt._native
    if kernel == "numpy":
        ddt._native = lambda: None
    elif ddt._native() is None:
        pytest.skip("no C compiler: the native kernel cannot be built")
    try:
        yield
    finally:
        ddt._native = saved


@pytest.mark.parametrize("kernel", ["native", "numpy"])
@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(_PROPERTY_FIELDS),
       shape=st.sampled_from(["biv", "ext", "uni", "uni-base"]),
       seed=st.integers(0, 2 ** 32 - 1), identity=st.booleans(),
       block=st.sampled_from([ddt._BLOCK, 8, 100]))
def test_report_matches_naive_counter(kernel, field, shape, seed, identity,
                                      block):
    """Uniformity, spectrum and witness of random generic tables in every
    shape; uni-base is a univariate table over F_q itself, as predict uses.
    Small block budgets make the numpy kernel's blocks one or a few rows
    long, so many block seams fall inside one report."""
    default_block, ddt._BLOCK = ddt._BLOCK, block
    try:
        with _kernel(kernel):
            _check_against_naive(field, shape, seed, identity)
    finally:
        ddt._BLOCK = default_block


def _case(qctx, shape, f, c):
    """(report function, naive terms) for the value table f of one shape;
    pair output is given packed, f = g*q + h."""
    q = qctx.base.q
    f = np.asarray(f, dtype=np.int32)
    if shape in ("biv", "ext"):
        g, h = f // q, f % q
        if shape == "biv":
            spec = func_spec("genericbiv", gtable=tuple(g.tolist()),
                             htable=tuple(h.tolist()))
            return (lambda: ddt.c_uniformity(spec, qctx, c),
                    _pair_terms(qctx, tables_for(spec, qctx), c))
        tabs = PairTables(EXT, g, h, qctx)
        return (lambda: ddt.pair_report(qctx, tabs, c),
                _pair_terms(qctx, tabs, c))
    field_ctx = qctx.ext if shape == "uni" else qctx.base
    return (lambda: ddt.uni_report(field_ctx, f, c),
            _uni_terms(field_ctx, f, c))


def _random_case(field, shape, seed, identity):
    """(report function, naive terms, c) for random generic tables."""
    qctx = make_quadext(make_field(*field))
    q = qctx.base.q
    rng = np.random.default_rng(seed)
    if shape in ("biv", "ext"):
        g, h = rng.integers(0, q, (2, q * q))
        c = CParam.biv(1, 0) if identity else CParam.biv(*rng.integers(0, q, 2))
        return (*_case(qctx, shape, g * q + h, c), c)
    n = qctx.ext.q if shape == "uni" else q
    f = rng.integers(0, n, n)
    c = CParam.uni(1 if identity else int(rng.integers(0, n)))
    return (*_case(qctx, shape, f, c), c)


def _check_against_naive(field, shape, seed, identity):
    report, terms, c = _random_case(field, shape, seed, identity)
    rep = report()
    assert (rep.uniformity, rep.spectrum, rep.witness) \
        == naive_report(terms, c.is_identity)
    assert rep.classification == ddt.classify(rep.uniformity)


@pytest.mark.parametrize("field", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                   (5, 2)])
@pytest.mark.parametrize("shape", ["biv", "ext", "uni", "uni-base"])
def test_native_report_equals_numpy(field, shape):
    """Field for field, on random generic tables, with the identity c."""
    for seed in range(4):
        report, _, _ = _random_case(field, shape, seed, identity=seed == 0)
        with _kernel("native"):
            native = report()
        with _kernel("numpy"):
            reference = report()
        assert native == reference


# entries below SMALL are counted in registers by the native kernel, larger
# ones in a separate pass that random tables seldom reach
SMALL = int(re.search(r"#define SMALL (\d+)", ddt._ROWK_SRC.read_text())[1])


def _high_entry_tables(n, rng):
    """(table, its largest value multiplicity) over n points: constant,
    two-valued, and one value exactly SMALL - 1, SMALL or SMALL + 1 times
    with every other value at most once."""
    out = [(np.full(n, rng.integers(n)), n)]
    two = rng.choice(rng.choice(n, 2, replace=False), n)
    out.append((two, np.bincount(two).max()))
    for k in (SMALL - 1, SMALL, SMALL + 1):
        if k <= n:
            f = rng.permutation(n)
            at = rng.choice(n, k, replace=False)
            f[at] = f[at[0]]
            out.append((f, k))
    return out


@pytest.mark.parametrize("field", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
@pytest.mark.parametrize("shape", ["biv", "ext", "uni", "uni-base"])
def test_high_entries_native_numpy_naive(field, shape):
    """Rows whose entries reach SMALL or pass it, at c = 0 (every row is
    the table's value histogram, so its maximum is the largest
    multiplicity), at the identity c and at one other c."""
    qctx = make_quadext(make_field(*field))
    q = qctx.base.q
    rng = np.random.default_rng(sum(field) * 10 + len(shape))
    n = q if shape == "uni-base" else q * q
    if shape in ("biv", "ext"):
        cs = [CParam.biv(0, 0), CParam.biv(1, 0),
              CParam.biv(*rng.integers(1, q, 2))]
    else:
        cs = [CParam.uni(0), CParam.uni(1), CParam.uni(rng.integers(2, n))]
    for f, top in _high_entry_tables(n, rng):
        for c in cs:
            report, terms = _case(qctx, shape, f, c)
            with _kernel("native"):
                native = report()
            with _kernel("numpy"):
                reference = report()
            assert native == reference
            assert (native.uniformity, native.spectrum, native.witness) \
                == naive_report(terms, c.is_identity)
            if c == cs[0]:
                assert native.uniformity == top


@pytest.mark.parametrize("p, m, spec", [
    (2, 3, "sumprod{i=0;j=1;alpha=1}"),
    (3, 2, "genlingold{L=x;k=1;alpha=w^1}"),
    (5, 1, "traceinv{gamma=W^1}"),
    (3, 2, "uni"),
])
def test_table_kernel_inputs_fresh_and_read_only(p, m, spec):
    """What the kernel reads of a table for every c is derived by ``ddt``,
    on a pair table's first report: equal to a fresh computation, and
    read-only.  "uni" is a value array of F_{q^2} to itself, the shape of
    the univariate lift."""
    qctx = make_quadext(make_field(p, m))
    ext = qctx.ext
    if spec == "uni":
        key = np.random.default_rng(p).integers(0, ext.q, ext.q)
        got, arrays, args = ddt._kernel_inputs(ext, key)
        inputs = [got]
    else:
        built = tables_for(parse_func_spec(spec), qctx)
        tabs = PairTables(built.domain, built.g, built.h, qctx)
        key = tabs.g.astype(np.int64) * qctx.base.q + tabs.h
        assert tabs.key.dtype == np.int32 and (tabs.key == key).all()
        assert tabs.engine == {}
        ddt.pair_report(qctx, tabs, CParam.biv(0, 0))
        [rec] = tabs.engine.values()
        (got, arrays, args), log_phi = rec.inputs, rec.log_phi
        assert (log_phi == ext.log_table[qctx.phi_table[key]]).all()
        inputs = [tabs.key, got, log_phi, *(wt for wt, _ in rec.weights)]
        for c1, c2 in [(0, 0), (1, 1), (2, 1), (0, p - 1)]:
            neg_c = ext.neg(int(qctx.phi_table[qctx.pt(c1, c2)]))
            assert (ddt._pair_trans(qctx, log_phi, CParam.biv(c1, c2))
                    == qctx.phi_inv_table[ext.mul_vec(
                        neg_c, qctx.phi_table[key])]).all()
    assert got.dtype == np.int32 and (got == key).all()
    if p == 2:
        assert len(arrays) == 1
    else:
        assert (arrays[-1] == ext.carry_free[0][key]).all()
        inputs.append(arrays[-1])
    for a in inputs:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # the kernel reads the arrays by address, and the inputs keep them
    assert args == tuple(a.ctypes.data for a in arrays)
    kept = (got,) if p == 2 else (*ext.carry_free, arrays[-1])
    assert list(map(id, arrays)) == list(map(id, kept))


def test_uni_report_leaves_values_as_they_were(qx4):
    """uni_report copies the caller's value array into its kernel inputs:
    the array stays writeable, with its values and dtype."""
    rng = np.random.default_rng(5)
    for dtype in (np.int64, np.int32):
        values = rng.integers(0, 16, 16).astype(dtype)
        before = values.copy()
        for c in (0, 1, 7):
            ddt.uni_report(qx4.ext, values, CParam.uni(c))
        assert values.flags.writeable and values.dtype == dtype
        assert (values == before).all()


def _native_rows(lib, field, key, trans, wt, bins, spec, best):
    """One native kernel call on int32 arrays, passed by address as
    ``ddt._kernel_report`` passes them; row a weighs wt[a]."""
    def at(a):
        assert a.flags.c_contiguous
        return a.ctypes.data

    n = field.q
    bits = 8 * bins.itemsize
    wt = np.ascontiguousarray(wt, dtype=np.int32)
    tail = (at(wt), at(bins), at(spec), at(best))
    if field.p == 2:
        return getattr(lib, f"cdu_rows_xor{bits}")(n, at(key), at(trans), *tail)
    wide, r_hi, r_lo = field.carry_free
    kw, tw, twp = wide[key], wide[trans], np.empty_like(key)
    return getattr(lib, f"cdu_rows_add{bits}")(
        n, field.lo, at(wide), at(r_hi), at(r_lo), at(kw), at(tw), at(twp),
        *tail)


def test_row_mass_check_rejects_broken_row():
    """A row whose bins do not sum to n makes the numpy reduction raise, and
    stops the native kernel before that row reaches the spectrum."""
    bins = np.zeros((2, 9), dtype=np.intp)
    bins[:, 0] = 9
    bins[1, 5] = 1
    with pytest.raises(cdu.CduError, match="row mass"):
        ddt._report(iter([(np.arange(2), bins)]), 9, CParam.uni(0),
                    np.ones(9, dtype=np.int32))
    lib = ddt._native()
    if lib is None:
        pytest.skip("no C compiler: the native kernel cannot be built")
    for field in (make_field(2, 3), make_field(3, 2)):
        n = field.q
        key = np.arange(n, dtype=np.int32)
        bins = np.zeros((lib.block_rows, n), dtype=np.uint16)
        bins[0, 5] = 1  # a count that belongs to no row
        spec = np.zeros(n + 1, dtype=np.int64)
        best = np.full(3, -1, dtype=np.int64)
        rc = _native_rows(lib, field, key, key, np.ones(n), bins, spec, best)
        assert rc == -1
        assert not spec.any() and (best == -1).all()


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (3, 3), (5, 3)])
@pytest.mark.parametrize("identity", [False, True])
def test_row_blocks_with_a_short_tail(field, identity):
    """The native kernel fills rows in blocks; these uni-base shapes leave a
    shorter last block: n = 2 at p = 2, and odd-p groups of hi = n / lo
    rows with hi % 4 != 0 (hi = 3, 9, 25 for F_3, F_27, F_125).  The
    identity c starts at a = 1, inside the first block."""
    for seed in range(3):
        report, terms, c = _random_case(field, "uni-base", seed, identity)
        with _kernel("native"):
            native = report()
        with _kernel("numpy"):
            reference = report()
        assert native == reference
        assert (native.uniformity, native.spectrum, native.witness) \
            == naive_report(terms, c.is_identity)


@pytest.mark.parametrize("field", [(2, 3), (3, 2), (3, 3)])
def test_native_kernel_reports_rows_from_start(field):
    """With weights 0 below start and 1 from it, the kernel reports exactly
    the rows a >= start, as the numpy rows of those a give them; starts fall
    on, inside and past the edges of its row blocks, so whole blocks (and
    at odd p whole a_lo groups) of weight 0 are skipped."""
    lib = ddt._native()
    if lib is None:
        pytest.skip("no C compiler: the native kernel cannot be built")
    f = make_field(*field)
    n = f.q
    key, trans = np.random.default_rng(n).integers(0, n, (2, n), dtype=np.int32)
    for start in sorted({1, 2, 5, n - 4, n - 3, n - 1}):
        rows = ddt._rows(f, key, trans, np.arange(start, n))
        top = rows.max()
        flat = int(np.argmax(rows == top))
        bins = np.zeros((lib.block_rows, n), dtype=np.uint16)
        spec = np.zeros(n + 1, dtype=np.int64)
        best = np.full(3, -1, dtype=np.int64)
        rc = _native_rows(lib, f, key, trans, np.arange(n) >= start, bins,
                          spec, best)
        assert rc == 0 and not bins.any()
        assert spec.tolist() == np.bincount(rows.ravel(), minlength=n + 1).tolist()
        assert best.tolist() == [top, start + flat // n, flat % n]


@pytest.mark.parametrize("field", [(2, 2), (2, 8), (3, 2), (3, 5), (5, 3)])
def test_native_kernel_weighs_rows(field):
    """Row a adds wt[a] times its entries to the spectrum, and the witness
    is the first maximal (a, b) over the rows of nonzero weight, for sparse
    weights of any size, as the numpy reference reduces the same rows."""
    lib = ddt._native()
    if lib is None:
        pytest.skip("no C compiler: the native kernel cannot be built")
    f = make_field(*field)
    n = f.q
    rng = np.random.default_rng(n)
    key, trans = rng.integers(0, n, (2, n), dtype=np.int32)
    for density in (0.02, 0.3, 1.0):
        wt = np.where(rng.random(n) < density, rng.integers(1, 300, n), 0)
        wt[rng.integers(n)] = 1  # at least one row runs
        wt = wt.astype(np.int32)
        rows = np.flatnonzero(wt)
        ref = ddt._report(ddt._row_blocks(f, key, trans, rows), n,
                          CParam.uni(0), wt)
        bins = np.zeros((lib.block_rows, n), dtype=np.uint16)
        spec = np.zeros(n + 1, dtype=np.int64)
        best = np.full(3, -1, dtype=np.int64)
        assert _native_rows(lib, f, key, trans, wt, bins, spec, best) == 0
        assert not bins.any()
        assert ddt._make_report(CParam.uni(0), best, spec) == ref
        full = ddt._rows(f, key, trans, rows)
        assert spec.tolist() == [int(wt[rows] @ (full == v).sum(axis=1))
                                 for v in range(n + 1)]


def test_native_kernel_at_n_2_16_counts_past_16_bits():
    """At n = 2^16 one entry can be 2^16, past 16-bit bins: with key and
    trans the identity, row a puts all n points in bin a."""
    lib = ddt._native()
    if lib is None:
        pytest.skip("no C compiler: the native kernel cannot be built")
    f = make_field(2, 16)
    n = f.q
    key = np.arange(n, dtype=np.int32)
    bins = np.zeros((lib.block_rows, n), dtype=np.uint32)
    spec = np.zeros(n + 1, dtype=np.int64)
    best = np.full(3, -1, dtype=np.int64)
    wt = np.arange(n) >= n - 4
    assert _native_rows(lib, f, key, key, wt, bins, spec, best) == 0
    assert spec[n] == 4 and spec[0] == 4 * (n - 1)
    assert spec.sum() == 4 * n
    assert best.tolist() == [n, n - 4, n - 4]
    assert not bins.any()


def _scale(qctx, domain, lam, z):
    """lam*z for the domain index z, by scalar field operations."""
    base = qctx.base
    if domain == BIV:
        x, y = divmod(z, base.q)
        return qctx.pt(base.mul(lam, x), base.mul(lam, y))
    return qctx.ext.mul(int(qctx.embed[lam]), z)


def _planted_tables(qctx, domain, d, e1, e2, rng):
    """Random pair tables with F(lam*z) = (lam^e1*G(z), lam^e2*H(z)) for
    lam = w^d: random values at the first point of each orbit of <lam>,
    carried along the orbit."""
    base = qctx.base
    n = base.q ** 2
    lam = int(base.antilog_table[d])
    mus = (base.pow(lam, e1), base.pow(lam, e2))
    g, h = np.full((2, n), -1)
    for z0 in range(n):
        if g[z0] >= 0:
            continue
        orbit = [z0]
        while (z := _scale(qctx, domain, lam, orbit[-1])) != z0:
            orbit.append(z)
        vals = [int(v) for v in rng.integers(0, base.q, 2)]
        for i, mu in enumerate(mus):  # the orbit {0}: F(0) = N(F(0))
            if base.pow(mu, len(orbit)) != 1:
                vals[i] = 0
        for z in orbit:
            g[z], h[z] = vals
            vals = [base.mul(mu, v) for mu, v in zip(mus, vals)]
    return PairTables(domain, g.astype(np.int32), h.astype(np.int32), qctx)


def _unreduced(qctx, tabs):
    """The same tables with no scaling found, so every row runs at weight 1."""
    plain = PairTables(tabs.domain, tabs.g, tabs.h, qctx)
    with mock.patch.object(ddt, "_scaling", return_value=(1, 1)):
        ddt._table_inputs(qctx, plain)
    return plain


# (p, m, d, e1, e2): F(lam*z) = (lam^e1*G(z), lam^e2*H(z)) for lam = w^d
_PLANTED = [
    (2, 2, 1, 1, 2),    # F_4: mu/nu of order 3, the line c only
    (2, 3, 1, 3, 1),    # F_8: the line c only
    (2, 4, 1, 2, 5),    # F_16, as normfirst: off the line, <lam^5>
    (2, 4, 3, 1, 1),    # F_16: mu = nu on <w^3>, every c
    (3, 2, 1, 1, -1),   # F_9, as traceinv: off the line, lam = -1
    (5, 1, 1, 1, 3),    # F_5: off the line, lam = -1
    (5, 2, 2, 1, 1),    # F_25: mu = nu on <w^2>, every c
    (3, 4, 1, 2, 2),    # F_81: mu = nu on all of F_q^*, every c
    (3, 2, 0, 0, 0),    # F_9, random tables: no symmetry
]


@pytest.mark.parametrize("domain", [BIV, EXT])
@pytest.mark.parametrize("p, m, d, e1, e2", _PLANTED)
def test_planted_scaling_reports_exact(p, m, d, e1, e2, domain):
    """Tables homogeneous by construction: the native and numpy kernels,
    each on one row per orbit, give the uniformity, spectrum and witness of
    the naive counter (of every row on the native kernel from q = 25), at a
    line c, c = 0, the identity c and an off-line c; and the rows that run
    are the orbit minima of the whole subgroup on the line."""
    qctx = make_quadext(make_field(p, m))
    base = qctx.base
    q, n = base.q, base.q ** 2
    rng = np.random.default_rng([p, m, d, e1 % q, e2 % q, domain == BIV])
    if d:
        tabs = _planted_tables(qctx, domain, d, e1, e2, rng)
        order = (q - 1) // d
        found, off = ddt._scaling(qctx, tabs)
        assert found % order == 0
        if e1 == e2:
            assert off == found
    else:
        g, h = rng.integers(0, q, (2, n), dtype=np.int32)
        tabs = PairTables(domain, g, h, qctx)
        found, off = ddt._scaling(qctx, tabs)
        assert (found, off) == (1, 1)
    c1 = int(rng.integers(2, q)) if q > 2 else 0
    cs = [CParam.biv(c1, 0), CParam.biv(0, 0), CParam.biv(1, 0),
          CParam.biv(int(rng.integers(0, q)), int(rng.integers(1, q)))]
    for c in cs:
        wt, _ = ddt._weights(qctx, tabs, c)
        assert wt.sum() == n - c.is_identity
        if c.c2 == 0:
            assert np.count_nonzero(wt) == 1 + (n - 1) // found - c.is_identity
        with _kernel("native"):
            native = ddt.pair_report(qctx, tabs, c)
            full = ddt.pair_report(qctx, _unreduced(qctx, tabs), c)
        with _kernel("numpy"):
            reference = ddt.pair_report(qctx, tabs, c)
        assert native == reference == full
        if n <= 81:
            assert (native.uniformity, native.spectrum, native.witness) \
                == naive_report(_pair_terms(qctx, tabs, c), c.is_identity)


def test_goldpair_line_c_runs_q_plus_2_rows(qx16, monkeypatch):
    """goldpair{L=x} is homogeneous under all of F_q^*: (lam*x, lam*y) maps
    F to (lam^(p^k+1)*G, lam*H).  So a line c runs one row per orbit,
    1 + (q^2 - 1)/(q - 1) = q + 2 of them, weighted to cover all q^2, and
    reports what every row gives."""
    q = qx16.base.q
    tabs = tables_for(parse_func_spec("goldpair{k=1;gamma=w^5;L=x}"), qx16)
    c = CParam.biv(qx16.base.parse_elem("w^3"), 0)
    wt, _ = ddt._weights(qx16, tabs, c)
    assert np.count_nonzero(wt) == q + 2 and wt.sum() == q * q
    ran, rows = [], ddt._rows
    monkeypatch.setattr(ddt, "_rows",
                        lambda f, k, t, a: ran.extend(a.tolist()) or rows(f, k, t, a))
    with _kernel("numpy"):
        reduced = ddt.pair_report(qx16, tabs, c)
        full = ddt.pair_report(qx16, _unreduced(qx16, tabs), c)
    assert ran[:q + 2] == np.flatnonzero(wt).tolist() and len(ran) == q + 2 + q * q
    assert reduced == full


def test_weights_at_n_2_16_past_16_bits():
    """The identity map F(z) = z at q = 256 scales with mu = nu = lam, so
    every c runs 258 of the 2^16 rows, on 32-bit bins.  Its c-DDT is known
    whole: (1 - c)*z + a is a bijection for c != 1, so every entry is 1 and
    the first is at (0, 0); at the identity c, row a != 0 puts all 2^16
    points in bin a."""
    qctx = make_quadext(make_field(2, 8))
    n = qctx.ext.q
    tabs = tables_for(parse_func_spec("identity"), qctx)
    assert ddt._scaling(qctx, tabs) == (255, 255)
    cases = [(CParam.biv(0, 0), 1, {1: n * n}, (0, 0)),
             (CParam.biv(7, 0), 1, {1: n * n}, (0, 0)),
             (CParam.biv(3, 9), 1, {1: n * n}, (0, 0)),
             (CParam.biv(1, 0), n, {0: (n - 1) ** 2, n: n - 1}, (1, 1))]
    for kernel in ("native", "numpy"):
        with _kernel(kernel):
            for c, top, spectrum, witness in cases:
                assert np.count_nonzero(ddt._weights(qctx, tabs, c)[0]) \
                    == 258 - c.is_identity
                rep = ddt.pair_report(qctx, tabs, c)
                assert (rep.uniformity, rep.spectrum, rep.witness) \
                    == (top, spectrum, witness)


# one spec of every family, valid at each q of the scaling scan below
_SCALING_SPECS = [
    "genlinh{L=x;h=inv}", "genlingold{L=x;k=1;alpha=w^1}",
    "sumprod{i=0;j=1;alpha=1}", "sumprod{i=1;j=1;alpha=1}",
    "goldpair{k=1;gamma=w^5;L=x}", "prodlin{gammas=1:1;L=x}",
    "splitgh{g=id;h1=inv;h2=gold:1;L1=x;L2=x;gamma1=w^1;gamma2=1}",
    "traceinv{gamma=W^3}", "tracext{H=gold;k=1;gamma=W^1}",
    "tracext{H=norm}", "normfirst{H=tr5}", "identity", "genericbiv",
]


def _brute_scale_perm(qctx, domain, lam):
    """z -> lam*z as point indices: (lam*x, lam*y) coordinatewise on a pair
    point, the F_{q^2} product by embed(lam) on F_{q^2}; not through phi."""
    base = qctx.base
    if domain == BIV:
        x, y = np.divmod(np.arange(base.q ** 2), base.q)
        return qctx.pt(base.mul_vec(np.int32(lam), x), base.mul_vec(np.int32(lam), y))
    return qctx.ext.mul_row(int(qctx.embed[lam]))


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
@pytest.mark.parametrize("spec", _SCALING_SPECS)
def test_scaling_and_weights_equal_brute_force(p, m, spec):
    """The (order, off_order) that ``ddt`` finds equals a scan of every lam
    of F_q^* and every mu and nu, checked at every point: order counts the
    lam with F(lam*z) = (mu*G(z), nu*H(z)) for some mu and nu, off_order
    those where mu = nu can be taken.  The row weights of a line c, an
    off-line c and the identity c equal a walk of the orbits: row a weighs
    the number of rows with the orbit minimum min_k lam^k*a equal to a."""
    qctx = make_quadext(make_field(p, m))
    base = qctx.base
    q, n = base.q, base.q ** 2
    if spec == "genericbiv":
        g, h = np.random.default_rng([p, m]).integers(0, q, (2, n))
        tabs = tables_for(func_spec(spec, gtable=g, htable=h), qctx)
    else:
        tabs = tables_for(parse_func_spec(spec), qctx)
    perms, order, off_order = {}, 0, 0
    for lam in range(1, q):
        perms[lam] = perm = _brute_scale_perm(qctx, tabs.domain, lam)
        mus, nus = ({mu for mu in range(1, q)
                     if (base.mul_vec(np.int32(mu), v) == v[perm]).all()}
                    for v in (tabs.g, tabs.h))
        order += bool(mus and nus)
        off_order += bool(mus & nus)
    assert ddt._scaling(qctx, tabs) == (order, off_order)
    for c in (CParam.biv(0, 0), CParam.biv(0, 1), CParam.biv(1, 0)):
        r = order if c.c2 == 0 else off_order
        lam = int(base.antilog_table[(q - 1) // r % (q - 1)])
        low = step = np.arange(n)
        for _ in range(r - 1):
            step = perms[lam][step]
            low = np.minimum(low, step)
        want = np.bincount(low, minlength=n)
        want[0] = not c.is_identity
        assert (ddt._weights(qctx, tabs, c)[0] == want).all()


def test_scaling_fails_fast_off_the_line(monkeypatch):
    """``_scaling`` tries each divisor of q - 1 on a sample of points spread
    over the domain before it checks them all.  genlinh with h = inv,
    (x, 1/y + x), scales on the line x = 0 alone, so a sample taken there
    would pass and every point would be checked at each divisor d < 63 of
    63; the spread sample rules each one out."""
    qctx = make_quadext(make_field(2, 6))
    tabs = tables_for(parse_func_spec("genlinh{L=x;h=inv}"), qctx)
    sizes, ratio = [], ddt._ratio
    monkeypatch.setattr(ddt, "_ratio", lambda base, v, w:
                        sizes.append(len(v)) or ratio(base, v, w))
    assert ddt._scaling(qctx, tabs) == (1, 1)
    assert sizes and sizes.count(qctx.ext.q) == 0


def test_native_kernel_compiles_without_warnings(tmp_path):
    """Any compiler warning in the C kernel fails, not just prints."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    run = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-O3",
                          "-shared", "-fPIC", "-o", str(tmp_path / "rowk.so"),
                          str(ddt._ROWK_SRC)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(_PROPERTY_FIELDS + [(3, 3)]),
       shape=st.sampled_from(["biv", "ext", "uni", "uni-base"]),
       seed=st.integers(0, 2 ** 32 - 1), identity=st.booleans())
def test_spectrum_mass(field, shape, seed, identity):
    """n*n_b entries in all, summing to n^2: n_b admissible rows of n."""
    report, terms, c = _random_case(field, shape, seed, identity)
    rep = report()
    n = len(terms[1])
    rows = n - 1 if c.is_identity else n
    assert sum(rep.spectrum.values()) == n * rows
    assert sum(v * k for v, k in rep.spectrum.items()) == n * rows
    assert max(rep.spectrum) == rep.uniformity


def check_spectrum_invariants(qctx, spec, tabs, rep):
    """Identities of the spectrum of ``spec``'s pair table ``tabs`` at
    rep.c, which is not the identity c; they hold at sizes the naive
    counter does not reach.  With M_u(v) = #{z : F(z+u) - F(z) = v} over
    the n points and c*w the pair product on keys, phi^-1(phi(c)*phi(w)):

      second moment  sum_v v^2*spectrum[v] = sum_u sum_w M_u(w)*M_u(c*w),
                     counting the (x, y, a) with equal row-a entries; at
                     c = 0 every c*w is 0 and the right side is
                     n*sum_u M_u(0)
      c = 0          spectrum[v] = n*#{b : |F^-1(b)| = v}, as every row
                     is the value histogram of F
      tracext{H=norm} on the line c2 = 0, spectrum = {0: n*q(q-1)/2,
                     1: n*q, 2: n*q(q-1)/2}"""
    ext, key = qctx.ext, tabs.key
    n = len(key)
    pts = np.arange(n, dtype=np.int32)
    deriv = ext.sub_vec(key[ext.add_vec(pts[:, None], pts)], key)  # [u, z]
    M = np.bincount((deriv + pts[:, None] * n).ravel(),
                    minlength=n * n).reshape(n, n)
    phi_c = np.int32(qctx.phi_table[qctx.pt(*rep.c)])
    c_w = qctx.phi_inv_table[ext.mul_vec(phi_c, qctx.phi_table)]
    v, count = np.array(list(rep.spectrum.items())).T
    second = int((M * M[:, c_w]).sum())
    assert int(count @ v ** 2) == second
    if phi_c == 0:
        assert second == n * int(M[:, 0].sum())
        preimages = np.bincount(np.bincount(key, minlength=n))
        assert rep.spectrum == {v: n * int(k)
                                for v, k in enumerate(preimages) if k}
    if spec == parse_func_spec("tracext{H=norm}") and rep.c.c2 == 0:
        q = qctx.base.q
        assert rep.spectrum == {0: n * q * (q - 1) // 2, 1: n * q,
                                2: n * q * (q - 1) // 2}


# weighted rows (a scaling subgroup of order > 1) and, last, rows of
# weight 1 (genlingold with alpha != 0 has no scaling)
_INVARIANT_SPECS = ["goldpair{k=1;gamma=w^5;L=x}", "traceinv{gamma=W^3}",
                    "tracext{H=norm}", "sumprod{i=1;j=1;alpha=1}",
                    "genlingold{L=x;k=1;alpha=w^1}"]


@pytest.mark.parametrize("kernel", ["native", "numpy"])
@pytest.mark.parametrize("p, m", [(2, 4), (5, 2)])
@pytest.mark.parametrize("spec", _INVARIANT_SPECS)
def test_spectrum_invariants(kernel, p, m, spec):
    """The spectrum identities of ``check_spectrum_invariants`` at c = 0,
    three more c of the line c2 = 0 and eight drawn from every c, on both
    kernels."""
    qctx, spec = make_quadext(make_field(p, m)), parse_func_spec(spec)
    q = qctx.base.q
    tabs = tables_for(spec, qctx)
    order = ddt._scaling(qctx, tabs)[0]
    assert (order == 1) == (spec.family == "genlingold")
    cs = ddt.c_line_biv(q)[:4] + ddt.c_sample_biv(q, 8, seed=p)
    with _kernel(kernel):
        for rep in ddt.sweep(spec, qctx, cs):
            check_spectrum_invariants(qctx, spec, tabs, rep)


def test_loader_returning_none_falls_back_to_numpy(qx16, monkeypatch):
    spec = parse_func_spec("sumprod{i=0;j=1;alpha=1}")
    cs = ddt.c_sample_biv(16, 6, seed=2) + [CParam.biv(1, 0)]
    native = ddt.sweep(spec, qx16, cs)
    monkeypatch.setattr(ddt, "_native", lambda: None)
    assert ddt.sweep(spec, qx16, cs, threads=2) == native


def test_fallback_says_so_once_on_stderr(qx4, capsys, monkeypatch):
    monkeypatch.setattr(ddt, "_rowk", [])
    monkeypatch.setattr(ddt, "_compile_rowk", lambda: None)
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    ddt.sweep(spec, qx4, ddt.c_line_biv(4))
    assert ddt._native() is None
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cdu: native row kernel unavailable; using the numpy reference\n"


def test_native_kernel_cached_by_source_hash(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    lib = ddt._compile_rowk()
    if lib is None:
        pytest.skip("no C compiler")
    (so,) = (tmp_path / "cdu").iterdir()
    assert so.name.startswith("rowk-") and so.suffix == ".so"
    mtime = so.stat().st_mtime_ns
    assert ddt._compile_rowk() is not None  # loaded, not rebuilt
    assert [p.name for p in (tmp_path / "cdu").iterdir()] == [so.name]
    assert so.stat().st_mtime_ns == mtime


def test_native_kernel_unbuildable_gives_none(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")  # the cache directory cannot be made under a file
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert ddt._compile_rowk() is None
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))  # no cc to run
    assert ddt._compile_rowk() is None
    assert not list((tmp_path / "cdu").iterdir())  # no temp file left


def test_kernel_rejects_values_outside_codomain(qx4):
    key = np.arange(16, dtype=np.int32)
    inputs = ddt._kernel_inputs(qx4.ext, key)
    wt = ddt._row_weights(qx4.ext, np.arange(16), 1, False)
    for bad in (16, -1):
        trans = key.copy()
        trans[3] = bad
        with pytest.raises(cdu.CduError, match="outside the codomain"):
            ddt._kernel_report(qx4.ext, inputs, wt, trans, CParam.biv(0, 0))
        with pytest.raises(cdu.CduError, match="outside the codomain"):
            ddt._kernel_inputs(qx4.ext, trans)  # a key is checked once
        with pytest.raises(cdu.CduError, match="outside the codomain"):
            ddt.uni_report(qx4.ext, trans, CParam.uni(0))
    # 16 pair points span F_16, not the base field F_4
    with pytest.raises(cdu.CduError, match="do not span the field"):
        ddt._kernel_report(qx4.base, inputs, wt, key, CParam.biv(0, 0))
    with pytest.raises(cdu.CduError, match="do not span the field"):
        ddt._kernel_inputs(qx4.base, key)
    # the kernel reads addresses only of read-only int32 arrays
    wide = key.astype(np.int64)
    wide.flags.writeable = False
    for bad in (key, wide, inputs[0][::2]):  # writeable, int64, strided
        with pytest.raises(cdu.CduError, match="read-only int32"):
            ddt._address(bad)


def test_one_c_at_q125_in_2gib_address_space():
    """q = 125 must fit: the engine builds no table of q^4 entries."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from cdu.cli import main\n"
        "sys.exit(main(['sweep', '-p', '5', '-m', '3', '--c', 'w^1,w^2',\n"
        "               '--spec', 'genlingold{L=x;k=2;alpha=w^1}']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cdu.__file__)))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.splitlines()[-1] == 'w^1,w^2,6,"(c,6)","(0,0)","(0,w^119)"'


def test_row_mass_and_spectrum_accounting(qx27):
    spec = parse_func_spec("genlingold{L=x;k=1;alpha=0}")
    q = qx27.base.q
    n = q * q
    for c in [CParam.biv(0, 0), CParam.biv(2, 5), CParam.biv(1, 0)]:
        rep = ddt.c_uniformity(spec, qx27, c)
        rows = n - 1 if c.is_identity else n
        total_pairs = sum(rep.spectrum.values())
        assert total_pairs == rows * n
        mass = sum(v * cnt for v, cnt in rep.spectrum.items())
        assert mass == rows * n
        assert rep.uniformity >= 1


def test_shift_covariance(qx8):
    # adding output constants does not change any uniformity
    base = qx8.base
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    tabs = tables_for(spec, qx8)
    rng = random.Random(2)
    for _ in range(3):
        k1, k2 = rng.randrange(8), rng.randrange(8)
        shifted = func_spec(
            "genericbiv",
            gtable=tuple(int(v) for v in base.add_vec(tabs.g, np.int32(k1))),
            htable=tuple(int(v) for v in base.add_vec(tabs.h, np.int32(k2))))
        for c in [CParam.biv(0, 0), CParam.biv(3, 5), CParam.biv(7, 2)]:
            assert (ddt.c_uniformity(spec, qx8, c).uniformity
                    == ddt.c_uniformity(shifted, qx8, c).uniformity)


def test_c_zero_pcn_iff_bijection(qx4):
    rng = random.Random(9)
    q = 4
    for _ in range(12):
        gt = tuple(rng.randrange(q) for _ in range(q * q))
        ht = tuple(rng.randrange(q) for _ in range(q * q))
        spec = func_spec("genericbiv", gtable=gt, htable=ht)
        rep = ddt.c_uniformity(spec, qx4, CParam.biv(0, 0))
        combined = {(g, h) for g, h in zip(gt, ht)}
        is_bij = len(combined) == q * q
        assert (rep.uniformity == 1) == is_bij


def test_equivalence_identity(qx4):
    rep = equivalence_check(parse_func_spec("identity"), qx4)
    assert rep.all_match


def test_equivalence_random_table_all_c(qx4):
    rng = random.Random(7)
    q = 4
    gt = tuple(rng.randrange(q) for _ in range(q * q))
    ht = tuple(rng.randrange(q) for _ in range(q * q))
    spec = func_spec("genericbiv", gtable=gt, htable=ht)
    rep = equivalence_check(spec, qx4)
    assert rep.all_match and len(rep.rows) == 16


@settings(max_examples=12, deadline=None)
@given(field=st.sampled_from(_PROPERTY_FIELDS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bivariate_equals_lifted_univariate(field, seed):
    """Under G+bH, every c = (c1, c2) of a random table gives the lifted
    univariate function's uniformity and spectrum at c = phi(c1, c2)."""
    qctx = make_quadext(make_field(*field))
    q = qctx.base.q
    g, h = np.random.default_rng(seed).integers(0, q, (2, q * q))
    spec = func_spec("genericbiv", gtable=tuple(g.tolist()),
                     htable=tuple(h.tolist()))
    rep = equivalence_check(spec, qctx)
    assert len(rep.rows) == q * q and rep.all_match


def test_beta_choice_independence():
    # identical uniformities under both conjugate roots, q in {4, 8, 16}
    for p, m, t in ((2, 2, None), (2, 3, 1), (2, 4, None)):
        base = make_field(p, m)
        lo = make_quadext(base, t)
        hi = make_quadext(base, t, conjugate_beta=True)
        spec = parse_func_spec("genlinh{L=x;h=inv}")
        lift_lo = univariate_lift(spec, lo)
        lift_hi = univariate_lift(spec, hi)
        for c1 in range(base.q):
            for c2 in range(base.q):
                b_lo = ddt.c_uniformity(spec, lo, CParam.biv(c1, c2))
                b_hi = ddt.c_uniformity(spec, hi, CParam.biv(c1, c2))
                assert b_lo.uniformity == b_hi.uniformity
                u_lo = ddt.uni_report(lo.ext, lift_lo,
                                      CParam.uni(int(lo.phi_table[lo.pt(c1, c2)])))
                u_hi = ddt.uni_report(hi.ext, lift_hi,
                                      CParam.uni(int(hi.phi_table[hi.pt(c1, c2)])))
                assert u_lo.uniformity == u_hi.uniformity == b_lo.uniformity


def test_sweep_thread_determinism(qx16):
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    cs = ddt.c_sample_biv(16, 24, seed=4)
    seq = ddt.sweep(spec, qx16, cs, threads=1)
    par = ddt.sweep(spec, qx16, cs, threads=4)
    assert [(r.c, r.uniformity, r.witness, r.spectrum) for r in seq] \
        == [(r.c, r.uniformity, r.witness, r.spectrum) for r in par]


def test_row_weights_built_from_many_threads(qx16, monkeypatch):
    """Eight threads (more than the cores) report on one fresh table at
    once, with the interpreter switching threads every microsecond, so the
    table's record is built while others read it.  Every report equals the
    serial one, the table keeps one record, every report ran on it, and it
    holds the weights of a line, the identity and an off-line c."""
    spec = parse_func_spec("normfirst{H=tr5}")  # order 15 on the line, 3 off
    g, h = tables_for(spec, qx16).g, tables_for(spec, qx16).h
    cs = [CParam.biv(c1, c2) for c1 in range(16) for c2 in (0, 5)] * 2
    serial = [ddt.pair_report(qx16, PairTables(EXT, g, h, qx16), c) for c in cs]
    tabs = PairTables(EXT, g, h, qx16)
    used, report = [], ddt._kernel_report
    monkeypatch.setattr(ddt, "_kernel_report", lambda field, inputs, *rest:
                        used.append(inputs) or report(field, inputs, *rest))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(ddt.pair_report, qx16, tabs, c) for c in cs]
            reports = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert reports == serial
    [rec] = tabs.engine.values()
    assert ddt._scaling(qx16, tabs) == (15, 3)
    slots = [(15, False), (15, True), (3, False)]  # line, identity, off-line
    for (wt, _), slot in zip(rec.weights, slots, strict=True):
        assert (wt == ddt._row_weights(qx16.ext, np.arange(256), *slot)[0]).all()
    for c in cs:
        assert ddt._weights(qx16, tabs, c) \
            is rec.weights[slots.index((15 if c.c2 == 0 else 3, c.is_identity))]
    assert len(used) == len(cs) and all(u is rec.inputs for u in used)


def test_sweep_workers_capped_by_c_count_and_cpus(qx4, monkeypatch,
                                                  serial_pool):
    """A sweep starts at most one worker per c and per CPU, whatever the
    threads asked for."""
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    cs = ddt.c_all_biv(4)  # 15 c
    want = ddt.sweep(spec, qx4, cs)
    monkeypatch.setattr(ddt.os, "cpu_count", lambda: 3)
    assert ddt.sweep(spec, qx4, cs, threads=5000) == want
    assert ddt.sweep(spec, qx4, cs[:2], threads=5000) == want[:2]
    assert ddt.sweep(spec, qx4, cs[:1], threads=5000) == want[:1]
    assert ddt.sweep(spec, qx4, cs, threads=2) == want
    monkeypatch.setattr(ddt.os, "cpu_count", lambda: None)  # unknown: 1
    assert ddt.sweep(spec, qx4, cs, threads=5000) == want
    assert serial_pool == [3, 2, 2]


def test_constructor_caches_keep_their_keys():
    """Fields, contexts and sweep pools are built once per process, under a
    key that does not depend on how the arguments were spelled: a modulus as
    a list or a tuple, the default t or the same t given, conjugate_beta as
    1 or True."""
    assert make_field(2, 4, [1, 1, 0, 0, 1]) is make_field(2, 4, (1, 1, 0, 0, 1))
    b = make_field(3, 2)
    assert make_quadext(b) is make_quadext(b, select_t(b))
    assert make_quadext(b, conjugate_beta=1) is make_quadext(b, conjugate_beta=True)
    assert make_quadext(b) is not make_quadext(b, conjugate_beta=True)
    assert ddt._pool(2) is ddt._pool(2)


def test_c_set_helpers():
    assert len(ddt.c_all_biv(16)) == 255
    assert CParam.biv(1, 0) not in ddt.c_all_biv(16)
    assert len(ddt.c_line_biv(16)) == 15
    assert ddt.c_sample_biv(16, 0, seed=1) == []
    assert ddt.c_sample_biv(16, 10, seed=1) == ddt.c_sample_biv(16, 10, seed=1)
    assert len(ddt.c_sample_biv(16, 10_000, seed=1)) == 255
    assert CParam.biv(1, 0).is_identity and CParam.uni(1).is_identity
    assert not CParam.biv(0, 1).is_identity


def test_witness_attains_uniformity(qx16):
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    for c in [CParam.biv(0, 0), CParam.biv(3, 7), CParam.biv(1, 0)]:
        rep = ddt.c_uniformity(spec, qx16, c)
        a_idx, b_idx = rep.witness
        row = _engine_row(qx16, tables_for(spec, qx16), c, a_idx)
        assert row[b_idx] == rep.uniformity
