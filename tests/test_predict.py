from collections import Counter

import numpy as np
import pytest

from cdu import make_field, make_quadext, parse_func_spec
from cdu import ddt, predict
from cdu.oracles import IdentityC, inverse_c_uniformity_predict
from cdu.predict import (CLASS, EXACT, NOT_COVERED, UPPER, Prediction,
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
    d1 = ddt.uni_report(base, x, ddt.CParam.uni(cg)).uniformity
    d2 = ddt.uni_report(base, base.inv_table[x], ddt.CParam.uni(ch)).uniformity
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
            assert pred.kind == CLASS and pred.value == 2
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
    assert p1.kind == CLASS and p1.value == 2
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
    assert p0.kind == CLASS and p0.value == 2
    p_line = predict.predict(spec, qx16, 5, 0)
    assert (p_line.kind, p_line.value) == (UPPER, 4)
    p_open = predict.predict(spec, qx16, 2, 3)
    assert p_open.kind == UPPER and p_open.value in (4, 6)


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


def test_identity_c_rejected(qx16):
    with pytest.raises(IdentityC):
        predict.predict(parse_func_spec("genlinh{L=x;h=inv}"), qx16, 1, 0)


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
    assert judge(Prediction(CLASS, 2, "APcN"), 2) == "MATCH"
    assert judge(Prediction(UPPER, 6), 6) == "BOUND-OK"
    assert judge(Prediction(UPPER, 6), 7) == "VIOLATION"
    assert judge(Prediction(NOT_COVERED), 99) == "NOT-COVERED"


def test_corrupted_prediction_reports_violation(qx16, monkeypatch):
    # harness self-test: an off-by-one prediction must surface as VIOLATION
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    real = predict._FAMILY_PREDICTORS["genlinh"]

    def corrupted(spec, qctx, c1, c2):
        pred = real(spec, qctx, c1, c2)
        if pred.kind in (EXACT, CLASS):
            return Prediction(EXACT, max(1, pred.value - 1), "", pred.trace)
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
