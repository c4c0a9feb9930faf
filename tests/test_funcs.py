import random

import numpy as np
import pytest

from cdu import (eval_func, func_spec, linpoly_props, make_field, make_quadext,
                 parse_func_spec, parse_linpoly, predict, univariate_lift)
from cdu.funcs import (DomainMismatch, InvalidParams, SpecParseError, UniTable,
                       parse_inner, tables_for)


# -- parsing ------------------------------------------------------------------

def test_parse_round_trip():
    for s in ("identity",
              "genlinh{L=x;h=inv}",
              "genlingold{L=x;alpha=w^1;k=2}",
              "sumprod{alpha=1;i=0;j=1}",
              "goldpair{L=x;gamma=w^5;k=2}",
              "prodlin{L=x;gammas=4:1,2:1}",
              "traceinv{gamma=W^3}",
              "tracext{H=gold;gamma=W^1;k=1}",
              "normfirst{H=tr5}"):
        spec = parse_func_spec(s)
        assert parse_func_spec(spec.to_string()) == spec


def test_parse_errors_have_positions():
    with pytest.raises(SpecParseError, match="position 0"):
        parse_func_spec("nosuchfamily{a=1}")
    with pytest.raises(SpecParseError, match="position"):
        parse_func_spec("genlinh{L=x;h}")
    with pytest.raises(SpecParseError):
        parse_func_spec("genlinh{L=x")


def test_no_univariate_family():
    """A univariate map is no catalog family: only the lift builds one."""
    with pytest.raises(SpecParseError, match="unknown family"):
        func_spec("genericuni", table=(0, 1, 2, 3))
    with pytest.raises(SpecParseError, match="unknown family"):
        parse_func_spec("genericuni")


# -- linearized polynomials ---------------------------------------------------

def test_linpoly_identity(f16):
    L = parse_linpoly("x", f16)
    props = linpoly_props(L, f16)
    assert props.kernel_size == 1 and props.is_permutation


def test_linpoly_s_to_1_over_f8(f8):
    # x^2 + x has kernel {0, 1}
    props = linpoly_props(parse_linpoly("x^2+x", f8), f8)
    assert props.kernel_size == 2 and not props.is_permutation
    tab = parse_linpoly("x^2+x", f8).table(f8)
    assert tab[0] == 0 and tab[1] == 0


def test_linpoly_permutation_over_f27(f27):
    props = linpoly_props(parse_linpoly("x^3+x", f27), f27)
    assert props.kernel_size == 1 and props.is_permutation


def test_linpoly_additive(f16):
    tab = parse_linpoly("w^3*x^4+x^2+x", f16).table(f16)
    xs = np.arange(16, dtype=np.int32)
    pairs = f16.add_vec(xs[:, None], xs[None, :])
    assert (tab[pairs] == f16.add_vec(tab[xs][:, None], tab[xs][None, :])).all()


def test_linpoly_rejects_non_p_power(f16):
    with pytest.raises(InvalidParams):
        parse_linpoly("x^3", f16)
    with pytest.raises(SpecParseError):
        parse_linpoly("y^2", f16)


def test_inner_funcs(f16):
    inv = parse_inner("inv").table_over(f16)
    assert inv[0] == 0
    for y in range(1, 16):
        assert f16.mul(y, int(inv[y])) == 1
    gold = parse_inner("gold:2").table_over(f16)
    assert (gold == f16.pow_vec(np.arange(16, dtype=np.int32), 5)).all()
    assert (parse_inner("id").table_over(f16) == np.arange(16)).all()


# -- evaluation ---------------------------------------------------------------

def test_eval_genlinh_zero(qx16):
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    out = eval_func(spec, qx16, qx16.biv(0, 0))
    assert out == qx16.biv(0, 0)  # 0^-1 := 0


def test_eval_sumprod_direct_substitution(qx16):
    # p=2, i=0, j=1, alpha=1 at (1,1): (1+1, 1*1 + 1*1^2) = (0, 0)
    spec = parse_func_spec("sumprod{i=0;j=1;alpha=1}")
    assert eval_func(spec, qx16, qx16.biv(1, 1)) == qx16.biv(0, 0)


def test_eval_traceinv_f4_over_f2(qx2):
    # gamma = beta: at z=1, (Tr(1), Tr(beta)) = (0, 1) since beta+conj(beta)=1
    gamma = qx2.ext.elem_str(qx2.beta, "W")
    spec = parse_func_spec(f"traceinv{{gamma={gamma}}}")
    out = eval_func(spec, qx2, qx2.ext.elem(1))
    assert out == qx2.biv(0, 1)


def test_eval_domain_mismatch(qx16):
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    with pytest.raises(DomainMismatch):
        eval_func(spec, qx16, qx16.ext.elem(3))
    with pytest.raises(DomainMismatch):
        eval_func(parse_func_spec("traceinv{gamma=W^1}"), qx16, qx16.biv(1, 1))


def test_prodlin_first_coordinate_symmetric(qx16):
    spec = parse_func_spec("prodlin{gammas=4:1,2:1;L=x}")
    tabs = tables_for(spec, qx16)
    q = qx16.base.q
    g = tabs.g.reshape(q, q)
    assert (g == g.T).all()


def test_genlinh_bijective_when_parts_permute(qx16, qx8):
    for qx in (qx8, qx16):
        spec = parse_func_spec("genlinh{L=x;h=inv}")
        tabs = tables_for(spec, qx)
        q = qx.base.q
        combined = tabs.g.astype(int) * q + tabs.h
        assert len(np.unique(combined)) == q * q


def test_family_param_validation(qx16):
    with pytest.raises(InvalidParams):
        tables_for(parse_func_spec("genlingold{L=x;k=4;alpha=0}"), qx16)
    with pytest.raises(InvalidParams):
        tables_for(parse_func_spec("sumprod{i=0;j=1;alpha=0}"), qx16)
    with pytest.raises(InvalidParams):
        tables_for(parse_func_spec("goldpair{k=2;gamma=1;L=x}"), qx16)  # gamma=-1
    with pytest.raises(InvalidParams):
        # W^17 generates the embedded F_16 inside F_256
        tables_for(parse_func_spec("traceinv{gamma=W^17}"), qx16)
    with pytest.raises(InvalidParams):
        tables_for(parse_func_spec("splitgh{g=id;h1=inv;h2=id;L1=x;L2=x;"
                                   "gamma1=0;gamma2=0}"), qx16)
    with pytest.raises(InvalidParams):
        # Tr(gamma) = 0 for gamma in F_q
        tables_for(parse_func_spec("tracext{H=gold;k=1;gamma=W^0}"), qx16)


@pytest.mark.parametrize("spec, name", [
    ("traceinv", "gamma"),
    ("tracext{H=gold;k=1}", "gamma"),
    ("tracext", "H"),
    ("normfirst", "H"),
    ("genlinh{h=inv}", "L"),
    ("genlingold{L=x;alpha=0}", "k"),
    ("sumprod{i=0;j=1}", "alpha"),
    ("splitgh{g=id;h1=inv;L1=x;L2=x;gamma1=0;gamma2=1}", "h2"),
])
def test_missing_parameter_is_named(qx16, spec, name):
    spec = parse_func_spec(spec)
    message = f"^{spec.family} needs parameter {name}$"
    with pytest.raises(InvalidParams, match=message):
        tables_for(spec, qx16)
    if (spec.family, name) == ("tracext", "H"):  # predict reads H first
        with pytest.raises(InvalidParams, match=message):
            predict.predict(spec, qx16, 0, 1)


# -- univariate lift ----------------------------------------------------------

def test_lift_identity(qx4):
    lift = univariate_lift(parse_func_spec("identity"), qx4)
    assert (lift.f == np.arange(qx4.ext.q)).all()


@pytest.mark.parametrize("field", [(2, 2), (3, 2)])
def test_lift_is_read_only_table_over_ext(field):
    qctx = make_quadext(make_field(*field))
    ext = qctx.ext
    lift = univariate_lift(parse_func_spec("sumprod{i=0;j=1;alpha=1}"), qctx)
    assert isinstance(lift, UniTable) and len(lift) == ext.q
    assert lift.f.dtype == np.int32
    inputs = [lift.f]
    if ext.p == 2:
        assert lift.wide_key is None
    else:
        assert (lift.wide_key == ext.carry_free[0][lift.f]).all()
        inputs.append(lift.wide_key)
    for a in inputs:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_lift_of_linear_function_is_linear(qx4):
    # F(x,y) = (x, y + x): both coordinates F_q-linear, so the lift is too
    spec = parse_func_spec("genlinh{L=x;h=id}")
    tab = univariate_lift(spec, qx4).f
    ext = qx4.ext
    zs = np.arange(ext.q, dtype=np.int32)
    sums = ext.add_vec(zs[:, None], zs[None, :])
    assert (tab[sums] == ext.add_vec(tab[zs][:, None], tab[zs][None, :])).all()
    for lam_base in range(qx4.base.q):
        lam = np.int32(qx4.embed[lam_base])
        assert (tab[ext.mul_vec(lam, zs)] == ext.mul_vec(lam, tab[zs])).all()


def test_lift_round_trip_pointwise(qx4):
    rng = random.Random(3)
    q = qx4.base.q
    gt = tuple(rng.randrange(q) for _ in range(q * q))
    ht = tuple(rng.randrange(q) for _ in range(q * q))
    spec = func_spec("genericbiv", gtable=gt, htable=ht)
    lift = univariate_lift(spec, qx4)
    for x in range(q):
        for y in range(q):
            z = qx4.phi(qx4.biv(x, y))
            image = qx4.ext.elem(int(lift.f[z.idx]))
            back = qx4.phi_inv(image)
            assert back == eval_func(spec, qx4, qx4.biv(x, y))


def test_lift_requires_bivariate(qx16):
    with pytest.raises(DomainMismatch):
        univariate_lift(parse_func_spec("traceinv{gamma=W^1}"), qx16)
