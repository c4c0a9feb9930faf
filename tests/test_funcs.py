import random
from pathlib import Path

import numpy as np
import pytest

from cdu import (ddt, func_spec, make_field, make_quadext, parse_func_spec,
                 parse_linpoly, predict, univariate_lift)
from cdu.funcs import (FAMILIES, DomainMismatch, InvalidParams, SpecParseError,
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


# -- the declaration table ----------------------------------------------------

def _readme_specs():
    """family -> the construction strings of README's "Construction strings"."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Construction strings:\n\n```\n", 1)[1].split("```", 1)[0]
    out = {}
    for line in block.splitlines():
        if line and not line[0].isspace():
            s = line.split()[0]
            out.setdefault(s.split("{")[0], []).append(s)
    return out


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "genericbiv"])
def test_readme_example_per_family(qx16, family):
    """Every family but genericbiv (library only) has a README example that
    parses, round-trips through to_string and builds."""
    for s in _readme_specs()[family]:
        spec = parse_func_spec(s)
        assert parse_func_spec(spec.to_string()) == spec
        tables_for(spec, qx16)


@pytest.mark.parametrize("family, key", [(f, k) for f, (_, keys) in FAMILIES.items()
                                         for k in keys])
def test_misspelt_key_is_named(family, key):
    params = {k: "1" for k in FAMILIES[family][1] if k != key}
    params[key + key[-1]] = "1"
    message = f"^unknown key '{key + key[-1]}' for {family}, "
    with pytest.raises(SpecParseError, match=message):
        func_spec(family, **params)
    if family != "genericbiv":  # no spec string names it
        body = ";".join(f"{k}={v}" for k, v in params.items())
        with pytest.raises(SpecParseError, match=message):
            parse_func_spec(f"{family}{{{body}}}")


def test_unknown_key_in_library_call():
    with pytest.raises(SpecParseError, match="'zzz'"):
        func_spec("genlinh", L="x", h="inv", zzz=1)


def test_predictors_are_declared_families():
    assert set(predict._FAMILY_PREDICTORS) <= set(FAMILIES)


@pytest.mark.parametrize("spec, right", [
    ("traceinv{gamma=w^3}", "traceinv{gamma=W^3}"),
    ("goldpair{k=1;gamma=W^5;L=x}", "goldpair{k=1;gamma=w^5;L=x}"),
    ("genlinh{L=W^1*x^2+x;h=inv}", "genlinh{L=w^1*x^2+x;h=inv}"),
])
def test_spec_element_in_the_wrong_letter_is_rejected(qx16, spec, right):
    """The letter of a spec element names its field, though parse_elem
    reads either case: w^3 of F_16 is W^51 of F_256, not W^3.  The wrong
    letter is an error, where it was read as the right one."""
    tables_for(parse_func_spec(right), qx16)
    with pytest.raises(SpecParseError, match="an element of F_"):
        tables_for(parse_func_spec(spec), qx16)


# -- linearized polynomials ---------------------------------------------------

def test_linpoly_identity(f16):
    L = parse_linpoly("x", f16)
    assert L.kernel_size == 1 and L.permutes
    assert (L.table == np.arange(16)).all()


def test_linpoly_s_to_1_over_f8(f8):
    # x^2 + x has kernel {0, 1}
    L = parse_linpoly("x^2+x", f8)
    assert L.kernel_size == 2 and not L.permutes
    assert L.table[0] == 0 and L.table[1] == 0


def test_linpoly_permutation_over_f27(f27):
    L = parse_linpoly("x^3+x", f27)
    assert L.kernel_size == 1 and L.permutes


def test_linpoly_additive(f16):
    tab = parse_linpoly("w^3*x^4+x^2+x", f16).table
    xs = np.arange(16, dtype=np.int32)
    pairs = f16.add_vec(xs[:, None], xs[None, :])
    assert (tab[pairs] == f16.add_vec(tab[xs][:, None], tab[xs][None, :])).all()


def test_linpoly_rejects_non_p_power(f16):
    with pytest.raises(InvalidParams):
        parse_linpoly("x^3", f16)
    with pytest.raises(SpecParseError):
        parse_linpoly("y^2", f16)


def test_inner_funcs(f16):
    inv = parse_inner("inv", f16)
    assert inv.tag == "inv" and inv.permutes and inv.table[0] == 0
    for y in range(1, 16):
        assert f16.mul(y, int(inv.table[y])) == 1
    gold = parse_inner("gold:2", f16)
    assert gold.tag == "gold" and not gold.permutes  # gcd(5, 15) = 5
    assert (gold.table == f16.pow_vec(np.arange(16, dtype=np.int32), 5)).all()
    assert (parse_inner("id", f16).table == np.arange(16)).all()
    lin = parse_inner("lin:x^2+x", f16)
    assert lin.tag == "lin" and not lin.permutes
    assert (lin.table == parse_linpoly("x^2+x", f16).table).all()
    # value tables are read-only int32 arrays, shared by every report
    for tab in (inv.table, gold.table, lin.table, parse_linpoly("x", f16).table):
        assert tab.dtype == np.int32 and not tab.flags.writeable


@pytest.mark.parametrize("spec, step", [
    ("goldpair{{k={k};gamma=w^5;L=x}}", 1),
    ("genlinh{{L=x;h=gold:{k}}}", 1),
    ("tracext{{H=gold;k={k};gamma=W^1}}", 2),  # a Gold map of F_{q^2}
])
def test_gold_exponent_taken_mod_degree(qx16, qx27, spec, step):
    """x^(p^k) = x^(p^(k mod m)) on F_q, so k and k + m give one table
    (k + 2m over F_{q^2}); tests/golden pins the tables of small k."""
    for qx in (qx16, qx27):
        for k in (0, 1, 2):
            want = tables_for(parse_func_spec(spec.format(k=k)), qx).key
            other = spec.format(k=k + step * qx.base.m)
            assert (tables_for(parse_func_spec(other), qx).key == want).all()


def test_generic_table_outside_the_field_is_named(qx4):
    """A genericbiv value outside [0, q) is the caller's fault: an
    InvalidParams naming the table, not an engine bug in the kernel."""
    for name, gt, ht in [("gtable", (7,) * 16, (0,) * 16),
                         ("htable", (0,) * 16, (0,) * 15 + (-1,))]:
        spec = func_spec("genericbiv", gtable=gt, htable=ht)
        with pytest.raises(InvalidParams, match=f"^{name} has a value outside"):
            ddt.c_uniformity(spec, qx4, ddt.CParam.biv(0, 0))


def test_generic_tables_as_arrays_or_tuples(qx4):
    """genericbiv takes its tables as numpy arrays as well as tuples: the
    spec keeps them as tuples of ints, so both hash to the same spec and
    give the same report, and a value outside [0, q) is still named."""
    g, h = np.random.default_rng(4).integers(0, 4, (2, 16))
    arrays = func_spec("genericbiv", gtable=g, htable=h.astype(np.int32))
    tuples = func_spec("genericbiv", gtable=tuple(g.tolist()),
                       htable=tuple(h.tolist()))
    assert arrays == tuples and hash(arrays) == hash(tuples)
    assert dict(arrays.params)["gtable"] == tuple(g.tolist())
    for c in ddt.c_all_biv(4)[:5]:
        assert ddt.c_uniformity(arrays, qx4, c) == ddt.c_uniformity(tuples, qx4, c)
    g[5] = 4
    spec = func_spec("genericbiv", gtable=g, htable=h)
    with pytest.raises(InvalidParams, match="^gtable has a value outside"):
        ddt.c_uniformity(spec, qx4, ddt.CParam.biv(0, 0))


# -- evaluation ---------------------------------------------------------------

def value_at(spec, qctx, pt):
    """F at the domain index pt (x*q + y, or an F_{q^2} index) as the index
    pair (g, h)."""
    tabs = tables_for(spec, qctx)
    return int(tabs.g[pt]), int(tabs.h[pt])


def test_eval_genlinh_zero(qx16):
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    assert value_at(spec, qx16, qx16.pt(0, 0)) == (0, 0)  # 0^-1 := 0


def test_eval_sumprod_direct_substitution(qx16):
    # p=2, i=0, j=1, alpha=1 at (1,1): (1+1, 1*1 + 1*1^2) = (0, 0)
    spec = parse_func_spec("sumprod{i=0;j=1;alpha=1}")
    assert value_at(spec, qx16, qx16.pt(1, 1)) == (0, 0)


def test_eval_traceinv_f4_over_f2(qx2):
    # gamma = beta: at z=1, (Tr(1), Tr(beta)) = (0, 1) since beta+conj(beta)=1
    gamma = qx2.ext.elem_str(qx2.beta, "W")
    spec = parse_func_spec(f"traceinv{{gamma={gamma}}}")
    assert value_at(spec, qx2, 1) == (0, 1)


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
    # an index and tables that only func_spec can give, as no spec string can
    with pytest.raises(InvalidParams, match="^gamma=99 is not an element index"):
        tables_for(func_spec("goldpair", k=1, gamma=99, L="x"), qx16)
    with pytest.raises(InvalidParams, match="must have q\\^2 entries"):
        tables_for(func_spec("genericbiv", gtable=(0,) * 5, htable=(0,) * 5), qx16)


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
    assert (lift == np.arange(qx4.ext.q)).all()


@pytest.mark.parametrize("field", [(2, 2), (3, 2)])
def test_lift_is_read_only_table_over_ext(field):
    qctx = make_quadext(make_field(*field))
    ext = qctx.ext
    lift = univariate_lift(parse_func_spec("sumprod{i=0;j=1;alpha=1}"), qctx)
    assert isinstance(lift, np.ndarray) and len(lift) == ext.q
    assert lift.dtype == np.int32
    with pytest.raises(ValueError, match="read-only"):
        lift[0] = 0


def test_lift_of_linear_function_is_linear(qx4):
    # F(x,y) = (x, y + x): both coordinates F_q-linear, so the lift is too
    spec = parse_func_spec("genlinh{L=x;h=id}")
    tab = univariate_lift(spec, qx4)
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
            image = lift[qx4.phi_table[qx4.pt(x, y)]]
            back = divmod(int(qx4.phi_inv_table[image]), q)
            assert back == value_at(spec, qx4, qx4.pt(x, y))


def test_lift_requires_bivariate(qx16):
    with pytest.raises(DomainMismatch):
        univariate_lift(parse_func_spec("traceinv{gamma=W^1}"), qx16)
