import pickle
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cdu import make_field, make_quadext, parse_func_spec, parse_linpoly
from cdu import ddt, predict
from cdu.funcs import tables_for
from cdu.oracles import IdentityC, c_ddt_spectrum, inverse_c_uniformity_predict
from cdu.predict import (EXACT, NOT_COVERED, UPPER, Prediction,
                         compute_AB, judge, verify)


# -- compute_AB -----------------------------------------------------------------

def test_compute_AB_at_zero(qx16):
    a, b = compute_AB(qx16, 0, 0)
    assert (a, b) == (0, 1)


@pytest.mark.parametrize("fixture", ["qx16", "qx27"])
def test_compute_AB_on_c_line(fixture, request):
    # with c2 = 0: A = c1*(1-c1), B = 1-c1, so A/B = c1
    qx = request.getfixturevalue(fixture)
    base = qx.base
    for c1 in range(base.q):
        if c1 == 1:
            continue
        a, b = compute_AB(qx, c1, 0)
        assert a == base.mul(c1, base.sub(1, c1))
        assert b == base.sub(1, c1)
        if a != 0:
            assert base.div(a, b) == c1


def test_compute_AB_b_zero_gives_pcn(qx16):
    # B = 0 at c2 = (c1-1)/t; those c are PcN for (x, 1/y + x)
    base = qx16.base
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    hits = 0
    for c1 in range(base.q):
        c2 = base.div(base.sub(c1, 1), qx16.t)
        if (c1, c2) == (1, 0):
            continue
        a, b = compute_AB(qx16, c1, c2)
        assert b == 0
        rep = ddt.c_uniformity(spec, qx16, ddt.CParam.biv(c1, c2))
        assert rep.uniformity == 1
        hits += 1
    assert hits == base.q - 1


@pytest.mark.parametrize("fixture", ["qx8", "qx16", "qx27"])
def test_ratio_never_one(fixture, request):
    qx = request.getfixturevalue(fixture)
    base = qx.base
    for c1 in range(base.q):
        for c2 in range(base.q):
            if (c1, c2) == (1, 0):
                continue
            a, b = compute_AB(qx, c1, c2)
            if a != 0 and b != 0:
                assert base.div(a, b) != 1


def test_compute_AB_variants(qx27):
    with pytest.raises(IdentityC):
        compute_AB(qx27, 1, 0)


# -- family predictors ----------------------------------------------------------

def test_genlinh_reduces_to_h_uniformity_on_c_line(qx16):
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    for c1 in range(16):
        if c1 == 1:
            continue
        pred = predict.predict(spec, qx16, c1, 0)
        assert pred.value == inverse_c_uniformity_predict(qx16.base, c1)


def test_genlinh_odd_inverse_uses_theorem_A(qx27):
    # Corollary 2's printed A is the negative of the theorem's; brute force
    # sides with the theorem, so exact predictions must all match
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    for q, qx in ((9, make_quadext(make_field(3, 2))), (27, qx27)):
        cs = ddt.c_sample_biv(q, 40, seed=3)
        res = verify(spec, qx, cs)
        assert res.ok
        assert all(r.verdict == "MATCH" for r in res.rows)


def _pair_product(qx, c1, c2):
    """delta1*delta2 for (x, 1/y + x): the uniformity of g(x) = x at
    c1 - t*c2 times that of h(y) = 1/y at c1 - (1-t)*c2, both measured."""
    base = qx.base
    cg = base.sub(c1, base.mul(qx.t, c2))
    ch = base.sub(c1, base.mul(base.sub(1, qx.t), c2))
    x = np.arange(base.q, dtype=np.int32)
    d1 = ddt.uni_report(base, x, ddt.CParam(cg)).uniformity
    d2 = ddt.uni_report(base, base.inv_table[x], ddt.CParam(ch)).uniformity
    return d1 * d2


def test_pair_bound_exact_on_c_line(qx8):
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    for c1 in range(8):
        if c1 == 1:
            continue
        obs = ddt.c_uniformity(spec, qx8, ddt.CParam.biv(c1, 0)).uniformity
        assert obs == _pair_product(qx8, c1, 0)


def test_pair_bound_product_fails_off_the_line(qx8):
    # the delta1*delta2 product is not a bound for c2 != 0 (the exact
    # transfer goes through A/B); the q=8, t=1, c=(0, 2) witness stays pinned
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    obs = ddt.c_uniformity(spec, qx8, ddt.CParam.biv(0, 2)).uniformity
    assert _pair_product(qx8, 0, 2) == 1 and obs == 3


def test_prodlin_prediction(qx16):
    spec = parse_func_spec("prodlin{gammas=4:1,2:1;L=x}")
    base = qx16.base
    covered = []
    for c1 in range(16):
        if c1 == 1:
            continue
        pred = predict.predict(spec, qx16, c1, 0)
        if base.in_subfield(c1, 2):
            assert pred.kind == EXACT and pred.value == 2
            covered.append(c1)
        else:
            assert pred.kind == NOT_COVERED
    assert len(covered) == 3
    assert predict.predict(spec, qx16, 0, 3).kind == NOT_COVERED


def test_goldpair_branches(qx27):
    base = qx27.base
    spec_g1 = parse_func_spec("goldpair{k=2;gamma=1;L=x^3+x}")
    spec_gw = parse_func_spec("goldpair{k=2;gamma=w^1;L=x^3+x}")
    # gamma = 1 in F_3: exact gcd(10, 26) = 2 on c in F_3, else 4
    p1 = predict.predict(spec_g1, qx27, 2, 0)
    assert p1.kind == EXACT and p1.value == 2
    pw = predict.predict(spec_g1, qx27, base.parse_elem("w^1"), 0)
    assert (pw.kind, pw.value) == (EXACT, 4)
    # gamma = w outside F_3: always 4
    for c1 in (0, 2, base.parse_elem("w^1")):
        pr = predict.predict(spec_gw, qx27, c1, 0)
        assert (pr.kind, pr.value) == (EXACT, 4)
    res = verify(spec_g1, qx27, ddt.c_line_biv(27))
    assert res.ok and all(r.verdict == "MATCH" for r in res.rows)


def test_sumprod_not_covered_branch(qx16):
    spec = parse_func_spec("sumprod{i=2;j=1;alpha=1}")
    assert predict.predict(spec, qx16, 0, 0).kind == NOT_COVERED


def test_traceinv_prediction_kinds(qx16):
    spec = parse_func_spec("traceinv{gamma=W^1}")
    p0 = predict.predict(spec, qx16, 0, 0)
    assert p0.kind == EXACT and p0.value == 2
    p_line = predict.predict(spec, qx16, 5, 0)
    assert (p_line.kind, p_line.value) == (UPPER, 4)
    p_open = predict.predict(spec, qx16, 2, 3)
    assert p_open.kind == UPPER and p_open.value in (4, 6)


@pytest.mark.parametrize("p, gamma, observed", [
    (2, "W^1", 1), (2, "W^2", 1), (3, "W^1", 2), (3, "W^2", 1), (3, "W^3", 2),
    (3, "W^5", 2), (3, "W^6", 1), (3, "W^7", 2)])
def test_traceinv_c0_at_q2_and_q3(p, gamma, observed):
    """At q <= 3, z -> (Tr z, Tr(gamma/z)) is a bijection of F_{q^2} onto
    F_q^2 exactly when gamma is a square in F_{q^2}: every gamma at q = 2
    (for gamma = W it sends 0, 1, W, W^2 to (0,0), (0,1), (1,0), (1,1)),
    and W^2, W^6 at q = 3.  So c = 0 is PcN there and APcN otherwise; these
    are all the gamma outside F_q.  The other c keep their bounds."""
    qx = make_quadext(make_field(p, 1))
    res = verify(parse_func_spec(f"traceinv{{gamma={gamma}}}"), qx,
                 ddt.c_all_biv(p))
    assert res.ok
    assert (res.rows[0].c, res.rows[0].observed) == ((0, 0), observed)
    assert res.rows[0].verdict == "MATCH"
    assert all(r.verdict == "BOUND-OK" for r in res.rows[1:])


@pytest.mark.parametrize("p,m,k,observed", [
    (2, 3, 0, 1), (2, 3, 3, 2), (2, 3, 6, 1), (3, 2, 2, 2), (3, 2, 4, 2),
    (2, 1, 1, 2), (3, 1, 1, 2)])
def test_tracext_gold_not_covered_when_m_divides_k(p, m, k, observed):
    """For m | k, z^(p^k) is z or z^q, so h is Tr(gamma*z^2) or
    Tr(gamma)*N(z), not a Gold map.  The Gold value p^gcd(k,m) + 1 = p^m + 1
    failed on every c of the line; brute force gives `observed` there."""
    qx = make_quadext(make_field(p, m))
    spec = parse_func_spec(f"tracext{{H=gold;k={k};gamma=W^1}}")
    res = verify(spec, qx, ddt.c_line_biv(p ** m))
    assert res.ok and len(res.rows) == p ** m - 1
    assert {(r.verdict, r.observed) for r in res.rows} == {("NOT-COVERED", observed)}
    assert all("m | k" in r.prediction.trace["reason"] for r in res.rows)


def test_tracext_gold_line_value_when_m_does_not_divide_k(qx8):
    res = verify(parse_func_spec("tracext{H=gold;k=2;gamma=W^1}"), qx8,
                 ddt.c_line_biv(8))
    assert {(r.verdict, r.observed) for r in res.rows} == {("MATCH", 3)}


@pytest.mark.parametrize("p,m,k,off_line", [
    (2, 3, 1, {("BOUND-OK", 5): 14, ("BOUND-OK", 6): 42}),
    (2, 3, 2, {("BOUND-OK", 5): 14, ("BOUND-OK", 6): 42}),
    (3, 2, 1, {("NOT-COVERED", 6): 24, ("NOT-COVERED", 8): 48}),
    (3, 3, 1, {("NOT-COVERED", 10): 702}),
    (3, 3, 2, {("NOT-COVERED", 8): 78, ("NOT-COVERED", 10): 624}),
    (5, 2, 1, {("NOT-COVERED", 10): 120, ("NOT-COVERED", 13): 480})])
def test_tracext_gold_off_line_bound_only_in_characteristic_2(p, m, k, off_line):
    """Off the line (c2 != 0) with gcd(k, m) = 1 the bound 6 holds at p = 2
    and fails at odd p, so odd p is not covered there; on the line the Gold
    value p + 1 matches everywhere (default t, gamma = W^1)."""
    qx = make_quadext(make_field(p, m))
    spec = parse_func_spec(f"tracext{{H=gold;k={k};gamma=W^1}}")
    res = verify(spec, qx, ddt.c_all_biv(p ** m))
    assert res.ok
    line = [r for r in res.rows if r.c.c2 == 0]
    off = [r for r in res.rows if r.c.c2 != 0]
    assert {(r.verdict, r.observed) for r in line} == {("MATCH", p + 1)}
    assert Counter((r.verdict, r.observed) for r in off) == off_line
    if p > 2:
        assert all("only for p = 2" in r.prediction.trace["reason"] for r in off)


_M5_OFF_LINE = [(19, 30), (8, 6), (23, 24), (11, 16), (25, 15), (22, 4),
                (30, 6), (26, 30)]


@pytest.mark.parametrize("k,off_line", [
    (1, {("BOUND-OK", 6): 8}),
    (2, {("NOT-COVERED", 7): 4, ("NOT-COVERED", 8): 3, ("NOT-COVERED", 9): 1}),
    (3, {("NOT-COVERED", 7): 2, ("NOT-COVERED", 8): 6}),
    (4, {("BOUND-OK", 6): 8}),
    (5, {("NOT-COVERED", 33): 8}),
    (6, {("BOUND-OK", 6): 8}),
    (7, {("NOT-COVERED", 7): 2, ("NOT-COVERED", 8): 6}),
    (8, {("NOT-COVERED", 7): 2, ("NOT-COVERED", 8): 4, ("NOT-COVERED", 9): 2}),
    (9, {("BOUND-OK", 6): 8})])
def test_tracext_gold_off_line_bound_only_for_k_plus_minus_1(k, off_line):
    """At p = 2, m = 5 the off-line bound 6 holds for k = 1, 4, 6, 9, the
    k = +-1 mod m, and fails for k = 2, 3, 7, 8 (a full run of the 992
    off-line c gives 7 to 9), which are therefore not covered; m | k is
    not a Gold map.  Every line c matches 3, except at k = 5."""
    qx = make_quadext(make_field(2, 5))
    spec = parse_func_spec(f"tracext{{H=gold;k={k};gamma=W^1}}")
    off = [ddt.CParam.biv(*c) for c in _M5_OFF_LINE]
    res = verify(spec, qx, ddt.c_line_biv(32) + off)
    assert res.ok
    line = Counter((r.verdict, r.observed) for r in res.rows[:31])
    assert line == ({("NOT-COVERED", 2): 31} if k == 5 else {("MATCH", 3): 31})
    assert Counter((r.verdict, r.observed) for r in res.rows[31:]) == off_line
    if k in (2, 3, 7, 8):
        assert all("k = +-1 mod m" in r.prediction.trace["reason"]
                   for r in res.rows[31:])


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2), (5, 2), (7, 2), (2, 6)])
def test_normfirst_equals_engine_on_every_line_c(p, m):
    """The normfirst predictor counts the c-DDT of its lift to F_{q^2} on
    row 0 and one row per coset of F_q^* in F_{q^2}^*; its exact value is
    the engine's uniformity on every line c, at q = 8, 9, 25, 49 and 64,
    for two exponents e of H = Tr(z^e).  At q = 64 the 66 rows go in blocks
    of 16, the last one of 2."""
    qctx = make_quadext(make_field(p, m))
    cs = ddt.c_line_biv(qctx.base.q)
    for e in (3, 5):
        spec = parse_func_spec(f"normfirst{{H=tr{e}}}")
        for c, rep in zip(cs, ddt.sweep(spec, qctx, cs)):
            pred = predict.predict(spec, qctx, c.c1, c.c2)
            assert (pred.kind, pred.value) == (EXACT, rep.uniformity), (e, c)


def test_identity_c_rejected(qx16):
    with pytest.raises(IdentityC):
        predict.predict(parse_func_spec("genlinh{L=x;h=inv}"), qx16, 1, 0)


_SPLITGH = "splitgh{g=id;h1=inv;h2=gold:1;L1=x;L2=x;gamma1=w^1;gamma2=1}"


@pytest.mark.parametrize("spec, p, m", [
    ("genlinh{L=x;h=pow:3}", 2, 3), ("genlinh{L=x;h=pow:3}", 3, 3),
    ("genlinh{L=x;h=gold:1}", 2, 3),
    ("genlinh{L=x^2+x;h=id}", 2, 3), ("genlinh{L=x^2+x;h=id}", 2, 4),
    (_SPLITGH, 2, 3), (_SPLITGH, 3, 2),
    ("normfirst{H=tr5}", 2, 3), ("normfirst{H=tr5}", 3, 2)])
def test_predictions_never_call_the_engine(spec, p, m, monkeypatch):
    """verify judges the engine's reports, so a prediction must not come
    from the engine: with every report path made to raise, predict still
    answers every c of these specs, whose h or g permutes, counting the
    uniformity of h or g, or normfirst's lift, by ``c_ddt_spectrum``;
    normfirst is predicted at every line c."""
    qctx = make_quadext(make_field(p, m))
    spec = parse_func_spec(spec)

    def engine(*args):
        raise AssertionError("a prediction called the engine")

    counted = []
    monkeypatch.setattr(ddt, "uni_report", engine)
    monkeypatch.setattr(ddt, "_kernel_report", engine)
    monkeypatch.setattr(predict, "c_ddt_spectrum",
                        lambda *args: counted.append(args) or c_ddt_spectrum(*args))
    covered = [c for c in ddt.c_all_biv(qctx.base.q)
               if predict.predict(spec, qctx, c.c1, c.c2).kind != NOT_COVERED]
    if spec.family == "normfirst":
        assert covered == ddt.c_line_biv(qctx.base.q)
    assert counted


# -- verify harness ---------------------------------------------------------------

def test_upper_bounds_dominate_full_sweeps(qx8, qx16):
    for qx, spec_s in ((qx8, "genlinh{L=x^2+x;h=inv}"),
                       (qx16, "sumprod{i=0;j=1;alpha=1}"),
                       (qx16, "traceinv{gamma=W^1}")):
        res = verify(parse_func_spec(spec_s), qx, ddt.c_all_biv(qx.base.q))
        assert res.ok, spec_s


def test_judge_verdicts():
    assert judge(Prediction(EXACT, 4), 4) == "MATCH"
    assert judge(Prediction(EXACT, 4), 3) == "VIOLATION"
    assert judge(Prediction(EXACT, 2), 2) == "MATCH"
    assert judge(Prediction(UPPER, 6), 6) == "BOUND-OK"
    assert judge(Prediction(UPPER, 6), 7) == "VIOLATION"
    assert judge(Prediction(NOT_COVERED), 99) == "NOT-COVERED"


def test_corrupted_prediction_reports_violation(qx16, monkeypatch):
    # harness self-test: an off-by-one prediction must surface as VIOLATION
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    real = predict._FAMILY_PREDICTORS["genlinh"]

    def corrupted(spec, qctx, c1, c2):
        pred = real(spec, qctx, c1, c2)
        if pred.kind == EXACT:
            return Prediction(EXACT, max(1, pred.value - 1), pred.trace)
        return pred

    monkeypatch.setitem(predict._FAMILY_PREDICTORS, "genlinh", corrupted)
    res = verify(spec, qx16, [ddt.CParam.biv(0, 5), ddt.CParam.biv(3, 0)])
    assert not res.ok
    bad = [r for r in res.rows if r.verdict == "VIOLATION"]
    assert bad and all(r.witness is not None for r in bad)


def test_verify_skips_identity_c_by_construction(qx16):
    # the default c sets never contain (1,0)
    cs = ddt.c_all_biv(16)
    assert all(not c.is_identity for c in cs)


@pytest.mark.parametrize("fixture, spec, c, trace", [
    ("qx8", "genlingold{L=x^2+x;k=1;alpha=0}", ("w^1", "0"),
     {"reason": "L is not a permutation"}),
    ("qx8", "splitgh{g=inv;h1=inv;h2=gold:1;L1=x;L2=x^2;gamma1=w^1;gamma2=1}",
     ("w^1", "0"), {"reason": "g is not PcN at c1 (delta=3)"}),
    ("qx16", "tracext{H=gold;k=2;gamma=W^1}", ("w^1", "w^2"),
     {"reason": "needs gcd(k,m)=1 or c2=0", "d": 2}),
])
def test_not_covered_reason(fixture, spec, c, trace, request):
    """A NOT-COVERED prediction names the condition that failed."""
    qx = request.getfixturevalue(fixture)
    c1, c2 = (qx.base.parse_elem(s) for s in c)
    pred = predict.predict(parse_func_spec(spec), qx, c1, c2)
    assert (pred.kind, pred.trace) == (NOT_COVERED, trace)


@pytest.mark.parametrize("fixture, L1, L2", [
    ("qx16", "x", "x^2"), ("qx16", "x", "x^4"), ("qx16", "x^2+x", "x^8"),
    ("qx27", "x", "x^3"), ("qx27", "x^3+x", "x^9")])
def test_splitgh_reports_the_first_wide_kernel(fixture, L1, L2, request):
    """Once g is PcN at c1, splitgh's bound needs every L2 + gamma*L1 to
    have at most 2 roots; the reason names the first gamma that has more,
    as a scalar scan over gamma finds it, and is the same for every c."""
    qx = request.getfixturevalue(fixture)
    base = qx.base
    spec = parse_func_spec(f"splitgh{{g=id;h1=inv;h2=id;L1={L1};L2={L2};"
                           f"gamma1=w^1;gamma2=1}}")
    l1, l2 = (parse_linpoly(L, base).table for L in (L1, L2))
    want = None
    for gamma in range(base.q):
        s = sum(base.add(int(l2[x]), base.mul(gamma, int(l1[x]))) == 0
                for x in range(base.q))
        if s > 2:
            want = f"L2 + gamma*L1 has kernel {s} at gamma={base.elem_str(gamma)}"
            break
    for c1 in (0, 2, 0):
        pred = predict.predict(spec, qx, c1, 0)
        if want is None:
            assert (pred.kind, pred.value) == (UPPER, 2)
        else:
            assert (pred.kind, pred.trace) == (NOT_COVERED, {"reason": want})
    assert (want is None) == (L2 == "x^2")


# the specs of the q = 16 goldens, every family that verify runs at q = 16
GOLDEN_Q16_SPECS = sorted({
    line.removeprefix("# spec: ")
    for path in (Path(__file__).parent / "golden").glob("*-q16.csv")
    for line in path.read_text().splitlines() if line.startswith("# spec: ")})


@pytest.mark.parametrize("spec", GOLDEN_Q16_SPECS)
def test_predicting_leaves_the_cached_tables_as_built(qx16, spec):
    """Predictors read a table's parsed parameters and values and write
    neither: after verify on the line and off it, the cache holds the same
    tables, unchanged."""
    spec = parse_func_spec(spec)
    tabs = tables_for(spec, qx16)

    def snapshot():
        return pickle.dumps(tabs.args), tabs.g.tobytes(), tabs.h.tobytes()

    before = snapshot()
    off_line = [ddt.CParam.biv(c1, c2) for c1, c2 in ((0, 1), (2, 3), (1, 7))]
    verify(spec, qx16, ddt.c_line_biv(16) + off_line)
    assert snapshot() == before
    assert tables_for(spec, qx16) is tabs
