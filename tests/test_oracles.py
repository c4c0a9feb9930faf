import numpy as np
import pytest

from cdu import make_field
from cdu import ddt
from cdu.funcs import parse_inner
from cdu.oracles import (BluherCount, DegenerateQuartic, IdentityC,
                         bluher_root_count, bluher_special_b_count,
                         bluher_special_b_formula, inverse_c_uniformity_predict,
                         quadratic_root_count, quartic_factor_type)
from refs import quadratic_root_counts, quartic_patterns


# -- quadratics ----------------------------------------------------------------

def test_quadratic_examples(f2, f4):
    assert quadratic_root_count(f2, 1, 1) == 0  # x^2+x+1 over F_2
    f3 = make_field(3, 1)
    assert quadratic_root_count(f3, 0, 2) == 2  # x^2 - 1 = (x-1)(x+1)
    w = f4.primitive
    assert f4.trace1(w) == 1
    assert quadratic_root_count(f4, 1, w) == 0  # x^2+x+w, Tr(w)=1


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 3), (5, 2)])
def test_quadratic_agrees_with_scan(p, m):
    ctx = make_field(p, m)
    want = quadratic_root_counts(ctx)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert quadratic_root_count(ctx, a, b) == want[a, b], (a, b)


# -- quartics over F_{2^m} -------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4])
def test_quartic_criteria_agree_with_factorization(m):
    ctx = make_field(2, m)
    for (a2, a1, a0), want in quartic_patterns(ctx).items():
        got = quartic_factor_type(ctx, a2, a1, a0).pattern
        assert got == want, (a2, a1, a0)


def test_quartic_split_case_has_zero_traces(f16):
    # find a fully split quartic, then confirm the Lemma criterion holds
    a2, a1, a0 = next(k for k, v in quartic_patterns(f16).items()
                      if v == (1, 1, 1, 1))
    ys = np.arange(16, dtype=np.int32)
    g = f16.add_vec(f16.add_vec(f16.pow_vec(ys, 3),
                                f16.mul_vec(np.int32(a2), ys)), np.int32(a1))
    roots = [int(r) for r in np.flatnonzero(g == 0)]
    assert len(roots) == 3
    inv = f16.inv(f16.mul(a1, a1))
    ws = [f16.mul(f16.mul(a0, f16.mul(r, r)), inv) for r in roots]
    assert all(f16.trace1(w) == 0 for w in ws)


def test_quartic_no_resolvent_root_means_1_3(f8):
    # resolvent with no root in the field forces the (1,3) pattern
    hits = 0
    for a2 in range(8):
        for a1 in range(1, 8):
            ys = np.arange(8, dtype=np.int32)
            g = f8.add_vec(f8.add_vec(f8.pow_vec(ys, 3),
                                      f8.mul_vec(np.int32(a2), ys)), np.int32(a1))
            if (g != 0).all():
                for a0 in range(1, 8):
                    assert quartic_factor_type(f8, a2, a1, a0).pattern == (1, 3)
                    hits += 1
    assert hits > 0


def test_quartic_f4_each_w(f4):
    for w in range(1, 4):
        got = quartic_factor_type(f4, 0, 1, w)  # x^4 + x + w
        assert got.pattern == quartic_patterns(f4)[0, 1, w]


def test_quartic_degenerate(f16):
    with pytest.raises(DegenerateQuartic):
        quartic_factor_type(f16, 1, 0, 1)
    with pytest.raises(DegenerateQuartic):
        quartic_factor_type(make_field(3, 3), 1, 1, 1)


# -- Gold trinomials -------------------------------------------------------------

@pytest.mark.parametrize("p,m,k", [(2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 4, 2),
                                   (3, 3, 1), (3, 3, 2)])
def test_bluher_counts_in_allowed_set(p, m, k):
    ctx = make_field(p, m)
    from math import gcd
    d = gcd(m, k)
    allowed = {0, 1, 2, p ** d + 1}
    for a in range(1, ctx.q):
        for b in range(1, ctx.q):
            r = bluher_root_count(ctx, k, a, b)
            assert r.root_count in allowed


def test_bluher_f8_example(f8):
    r = bluher_root_count(f8, 1, 1, 1)  # x^3 + x + 1 over F_8
    assert isinstance(r, BluherCount)
    assert r.root_count in (0, 1, 2, 3)
    xs = np.arange(8, dtype=np.int32)
    vals = f8.add_vec(f8.add_vec(f8.pow_vec(xs, 3), xs), np.int32(1))
    assert r.root_count == int(np.count_nonzero(vals == 0))


@pytest.mark.parametrize("p,m,k,expected", [(2, 3, 1, 1), (2, 4, 1, 2),
                                            (2, 4, 2, 0), (3, 3, 1, 1)])
def test_bluher_special_b_formula_vs_scan(p, m, k, expected):
    ctx = make_field(p, m)
    scan = bluher_special_b_count(ctx, k)
    formula = bluher_special_b_formula(ctx, k)
    assert scan == formula == expected


def test_bluher_m_eq_2k_never_attains_max(f16):
    # r = 2: no b gives p^d + 1 roots of x^(p^k+1) + x + b
    assert bluher_special_b_formula(f16, 2) == 0
    assert bluher_special_b_count(f16, 2) == 0


# -- inverse function predictions --------------------------------------------------

def test_inverse_predict_pcn_at_zero():
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        assert inverse_c_uniformity_predict(make_field(p, m), 0) == 1


def test_inverse_predict_rejects_identity(f16):
    with pytest.raises(IdentityC):
        inverse_c_uniformity_predict(f16, 1)


# over F_2, F_3 and F_4 the map is x, x resp. x^2, so every c != 1 gives 1
@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (2, 3), (2, 4),
                                 (3, 3), (5, 2)])
def test_inverse_predict_matches_brute_force(p, m):
    ctx = make_field(p, m)
    tab = parse_inner("inv", ctx).table
    for c in range(ctx.q):
        if c == 1:
            continue
        want = inverse_c_uniformity_predict(ctx, c)
        got = ddt.uni_report(ctx, tab, ddt.CParam.uni(c)).uniformity
        assert want == got, c


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_bluher_gold_exponent_taken_mod_m(p, m):
    """x^(p^k) = x^(p^(k mod m)) on F_q: k and k + m count the same roots."""
    ctx = make_field(p, m)
    for k in (1, 2):
        assert (bluher_special_b_count(ctx, k)
                == bluher_special_b_count(ctx, k + m))
        for a, b in ((1, 1), (2, ctx.q - 1)):
            assert (bluher_root_count(ctx, k, a, b)
                    == bluher_root_count(ctx, k + m, a, b))
