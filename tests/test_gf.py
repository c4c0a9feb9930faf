import os
import subprocess
import sys
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdu
from cdu import make_field, NSQ, SQ, ZERO
from cdu.gf import (CduError, CompositeCharacteristic, DivisionByZero, FieldCtx, FieldTooLarge,
                    NonDivisorSubfield, ReducibleModulus, SpecParseError,
                    default_modulus, is_irreducible, parse_count, parse_modulus)


def brute_irreducible_quartic(coeffs):
    """Independent irreducibility check over F_2 for degree 4: no roots and
    not divisible by the unique irreducible quadratic x^2+x+1."""
    if coeffs[0] == 0 or sum(coeffs) % 2 == 0:  # f(0) or f(1) vanishes
        return False
    r = list(coeffs)
    for i in range(len(r) - 1, 1, -1):
        if r[i]:
            r[i - 1] ^= r[i]
            r[i - 2] ^= r[i]
            r[i] = 0
    return any(r[:2])


def test_make_field_f2():
    f2 = make_field(2, 1)
    assert f2.q == 2
    assert f2.modulus == (1, 1)  # x + 1
    assert f2.primitive == 1


def test_make_field_f16_smallest_quartic():
    # enumerate monic quartics in lex order with an independent check
    for n in range(16):
        coeffs = [(n >> i) & 1 for i in range(4)] + [1]
        if brute_irreducible_quartic(coeffs):
            break
    assert tuple(coeffs) == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)


def test_make_field_f27_primitive_order():
    f27 = make_field(3, 3)
    # order by repeated multiplication, independent of the log tables
    cur = f27.primitive
    order = 1
    while cur != 1:
        cur = f27.mul(cur, f27.primitive)
        order += 1
    assert order == 26


# the smallest index of multiplicative order q-1, per (p, m); the reference
# checker in bench/gfref.py relies on this choice
_PRIMITIVES = {(2, 1): 1, (2, 2): 2, (2, 3): 2, (2, 4): 2, (2, 5): 2,
               (2, 6): 2, (2, 7): 2, (2, 8): 3, (3, 1): 2, (3, 2): 4,
               (3, 3): 3, (3, 4): 3, (3, 5): 3, (5, 1): 2, (5, 2): 6,
               (5, 3): 9}


def _schoolbook_mul(a, b, p, f):
    """a*b mod f on base-p digit indices: long multiplication, then division."""
    m = len(f) - 1
    da, db = ([x // p ** i % p for i in range(m)] for x in (a, b))
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for i in range(2 * m - 2, m - 1, -1):  # f monic: clear x^i with x^(i-m)*f
        c = prod[i] % p
        for j in range(m + 1):
            prod[i - m + j] -= c * f[j]
    return sum(prod[i] % p * p ** i for i in range(m))


@pytest.mark.parametrize("p, m", sorted(_PRIMITIVES))
def test_primitive_and_antilog_pinned(p, m):
    f = FieldCtx(p, m)
    g, qm1 = f.primitive, f.q - 1
    assert g == _PRIMITIVES[p, m]
    chain = [1]
    for _ in range(qm1 - 1):
        chain.append(_schoolbook_mul(chain[-1], g, p, f.modulus))
    assert f.antilog_table.tolist() == chain
    assert sorted(chain) == list(range(1, f.q))
    # every smaller index has a shorter power cycle
    assert all(gcd(int(f.log_table[x]), qm1) > 1 for x in range(1, g))


def test_make_field_errors():
    with pytest.raises(CompositeCharacteristic):
        make_field(4, 1)
    with pytest.raises(FieldTooLarge):
        make_field(2, 17)
    with pytest.raises(ReducibleModulus):
        make_field(2, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, (1, 1, 1, 1))  # wrong degree


def test_default_modulus_deterministic():
    a = FieldCtx(2, 4)
    b = FieldCtx(2, 4)
    assert a.modulus == b.modulus
    assert a.primitive == b.primitive
    assert (a.antilog_table == b.antilog_table).all()
    assert default_modulus(3, 3) == make_field(3, 3).modulus


def test_is_irreducible_rejects_x():
    assert not is_irreducible((0, 1), 2)
    assert is_irreducible((1, 1), 2)


def _mobius(n):
    out = 1
    for r in range(2, n + 1):
        if n % r == 0 and all(r % s for s in range(2, r)):
            if n % (r * r) == 0:
                return 0
            out = -out
    return out


@pytest.mark.parametrize("p,mmax", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_is_irreducible_counts_match_gauss(p, mmax):
    """Over every monic polynomial of degree m, is_irreducible accepts
    (1/m) sum_{d | m} mu(d) p^(m/d) of them (Gauss's count), less x for
    m = 1; with a leading coefficient other than 1 it accepts none."""
    for m in range(1, mmax + 1):
        want = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1)
                   if m % d == 0) // m - (m == 1)
        monic = [[n // p ** i % p for i in range(m)] + [1] for n in range(p ** m)]
        assert sum(is_irreducible(f, p) for f in monic) == want
        for lead in range(2, p):
            assert not any(is_irreducible(f[:-1] + [lead], p) for f in monic[:50])


def test_arith_basics(f2, f16):
    assert f2.add(1, 1) == 0
    # w^4 = w + 1 under x^4 + x + 1; index of w+1 is 3
    assert f16.pow(2, 4) == 3
    # Lagrange: x^(q-1) = 1 for x != 0
    for ctx in (f16, make_field(3, 3)):
        xs = np.arange(1, ctx.q, dtype=np.int32)
        assert (ctx.pow_vec(xs, ctx.q - 1) == 1).all()
    assert f16.pow(0, 0) == 1
    assert f16.pow(0, 5) == 0


def test_pow_vec_widens_large_exponents():
    """log x * (e mod (q-1)) passes 2^31 at q = 2^16, past int32 logs."""
    f = make_field(2, 16)
    assert f.log_table.dtype == np.int32
    xs = np.arange(f.q, dtype=np.int32)
    assert (f.pow_vec(xs, f.q - 2) == f.inv_table).all()


def test_division(f16):
    for x in range(1, 16):
        assert f16.mul(x, f16.inv(x)) == 1
    with pytest.raises(DivisionByZero):
        f16.inv(0)
    with pytest.raises(DivisionByZero):
        f16.div(5, 0)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 3), (5, 2)])
def test_field_axioms_exhaustive(p, m):
    ctx = make_field(p, m)
    q = ctx.q
    i = np.arange(q, dtype=np.int32)
    x = i[:, None, None]
    y = i[None, :, None]
    z = i[None, None, :]
    assert (ctx.add_vec(ctx.add_vec(x, y), z)
            == ctx.add_vec(x, ctx.add_vec(y, z))).all()
    assert (ctx.mul_vec(ctx.mul_vec(x, y), z)
            == ctx.mul_vec(x, ctx.mul_vec(y, z))).all()
    assert (ctx.mul_vec(x, ctx.add_vec(y, z))
            == ctx.add_vec(ctx.mul_vec(x, y), ctx.mul_vec(x, z))).all()
    xy = ctx.add_vec(i[:, None], i[None, :])
    assert (xy == xy.T).all()
    m2 = ctx.mul_vec(i[:, None], i[None, :])
    assert (m2 == m2.T).all()
    assert (ctx.add_vec(i, ctx.neg_table[i]) == 0).all()
    nz = i[1:]
    assert (ctx.mul_vec(nz, ctx.inv_table[nz]) == 1).all()


def _digitwise(p, m, fn, *xs):
    """fn applied to the base-p digits of the indices xs, digit by digit."""
    xs = [np.asarray(x, dtype=np.int64) for x in xs]
    out = np.zeros(np.broadcast(*xs).shape, dtype=np.int64)
    pw = 1
    for _ in range(m):
        out += fn(*(x // pw % p for x in xs)) % p * pw
        pw *= p
    return out


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (3, 4), (3, 6),
                                 (5, 5), (3, 8), (37, 3), (65521, 1)])
def test_add_matches_digitwise_reference(p, m):
    """add, add_vec and neg_table agree with digitwise arithmetic mod p: on
    every pair up to F_729, on sampled pairs (and the largest index) above."""
    ctx = make_field(p, m)
    q = ctx.q
    if q <= 729:
        u, v = (a.ravel() for a in np.meshgrid(np.arange(q), np.arange(q)))
    else:
        u, v = np.random.default_rng(q).integers(0, q, size=(2, 50000))
        u[:2], v[:2] = q - 1, [q - 1, 0]
    want = _digitwise(p, m, np.add, u, v)
    got = ctx.add_vec(u.astype(np.int32), v.astype(np.int32))
    assert got.dtype == np.int32 and (got == want).all()
    assert (ctx.add_vec(u, np.int32(v[0]))
            == _digitwise(p, m, np.add, u, v[0])).all()
    assert [ctx.add(a, b) for a, b in zip(u[:3000].tolist(), v[:3000].tolist())] \
        == want[:3000].tolist()
    assert (ctx.neg_table == _digitwise(p, m, np.negative, np.arange(q))).all()


def test_carry_free_codes_fit_every_odd_extension():
    """Over every odd-p extension gf allows, each half of a sum of two wide
    codes is below its lookup table's length, at most 73^2 (F_{37^3}) and
    so below 2^16, and add and add_vec match digitwise sums on sampled
    pairs."""
    rng = np.random.default_rng(0)
    fields = [(p, m) for p in range(3, 256) if cdu.gf._is_prime(p)
              for m in range(2, 16) if p ** m <= cdu.gf.MAX_FIELD_ORDER]
    assert (37, 3) in fields and (251, 2) in fields and (3, 10) in fields
    for p, m in fields:
        ctx = FieldCtx(p, m)
        wide, r_hi, r_lo = ctx.carry_free
        hi, lo = 2 * int((wide >> 16).max()), 2 * int((wide & 0xffff).max())
        assert hi < len(r_hi) <= 73 ** 2 and lo < len(r_lo) <= 73 ** 2
        u, v = rng.integers(0, ctx.q, size=(2, 200))
        u[0] = v[0] = ctx.q - 1  # every digit p - 1: the largest codes
        want = _digitwise(p, m, np.add, u, v)
        assert (ctx.add_vec(u, v) == want).all()
        assert [ctx.add(a, b) for a, b in zip(u.tolist(), v.tolist())] \
            == want.tolist()


def _rss_growth_mb(statement):
    """Peak RSS growth in MB from running statement in a fresh interpreter.

    The peak is VmHWM where there is one: exec resets it, while Linux's
    ru_maxrss starts at the peak of this (larger) test process and hides any
    growth below that."""
    script = ("import resource\n"
              "from cdu.gf import FieldCtx\n"
              "def peak():\n"
              "    try:\n"
              "        with open('/proc/self/status') as f:\n"
              "            return next(int(l.split()[1]) for l in f\n"
              "                        if l.startswith('VmHWM:'))\n"
              "    except OSError:\n"
              "        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "r0 = peak()\n"
              f"{statement}\n"
              "print((peak() - r0) / 1024)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cdu.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return float(run.stdout)


def test_add_table_build_memory():
    """F_3125's addition must not go through a q x q x m int64 array."""
    assert _rss_growth_mb("FieldCtx(5, 5)") < 100


def test_extension_field_has_no_q_squared_table():
    """A full q x q addition table is 55 MB for F_{61^2}; F_{37^3} once held
    a 1369 x 1369 one, 7.5 MB, and grew peak RSS by 12.9 MB."""
    assert _rss_growth_mb("FieldCtx(61, 2)") < 5
    assert _rss_growth_mb("FieldCtx(37, 3)") < 5


def test_trace_rel_examples(f4):
    # Tr^2_1(w) = w + w^2 = 1 over F_4 with modulus x^2+x+1
    w = f4.primitive
    assert f4.add(w, f4.mul(w, w)) == 1
    assert f4.trace_rel_vec(1, [w, 0]).tolist() == [1, 0]
    assert f4.trace_rel_vec(2, [w]).tolist() == [w]  # l = m: single summand
    assert (f4.trace1_table == f4.trace_rel_vec(1, np.arange(4))).all()
    with pytest.raises(NonDivisorSubfield):
        make_field(2, 4).trace_rel_vec(3, [1])


@pytest.mark.parametrize("p,m,l", [(2, 4, 1), (2, 4, 2), (2, 6, 3), (3, 3, 1)])
def test_trace_rel_linear_surjective(p, m, l):
    ctx = make_field(p, m)
    xs = np.arange(ctx.q, dtype=np.int32)
    tr = ctx.trace_rel_vec(l, xs)
    # image lies in the subfield and covers all of it
    assert (ctx.pow_vec(tr, p ** l) == tr).all()
    assert len(np.unique(tr)) == p ** l
    # additivity on all pairs
    pairs = ctx.add_vec(xs[:, None], xs[None, :])
    assert (ctx.trace_rel_vec(l, pairs)
            == ctx.add_vec(tr[:, None], tr[None, :])).all()


def test_frobenius(f4, f16):
    w = f4.primitive
    assert f4.frobenius(w, 1) == f4.mul(w, w)
    for x in range(16):
        assert f16.frobenius(x, f16.m) == x
    # norm z * conjugate(z) lands in F_4 inside F_16 viewed as F_(4^2)
    for z in range(16):
        nrm = f16.mul(z, f16.frobenius(z, 2))
        assert f16.in_subfield(nrm, 2)


def test_is_square(f16, f27):
    assert f16.is_square(0) == ZERO
    assert all(f16.is_square(x) == SQ for x in range(1, 16))
    f3 = make_field(3, 1)
    assert f3.is_square(2) == NSQ
    assert f27.is_square(f27.primitive) == NSQ
    for ctx in (f27, make_field(5, 2), f3):
        n_sq = sum(1 for x in range(1, ctx.q) if ctx.is_square(x) == SQ)
        assert n_sq == (ctx.q - 1) // 2


def test_in_subfield(f16):
    w = f16.primitive
    w5 = f16.pow(w, 5)
    assert f16.in_subfield(0, 2) and f16.in_subfield(1, 2)
    assert f16.in_subfield(w5, 2)
    assert f16.pow(w5, 4) == w5
    assert not f16.in_subfield(w, 2)
    assert f16.pow(w, 4) != w
    with pytest.raises(NonDivisorSubfield):
        f16.in_subfield(w, 3)


_DIGITS = "0123456789"


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(),
    # ASCII digits mixed with what int() also takes: signs, spaces, "_" and
    # other scripts' digits (superscript two, Arabic-Indic three)
    st.text(alphabet=_DIGITS + "+- _\t\u00b2\u0663", max_size=8),
    st.text(alphabet=_DIGITS, max_size=8),
    st.integers(4298, 4302).flatmap(
        lambda n: st.text(alphabet=_DIGITS, min_size=n, max_size=n))))
def test_parse_count_reads_ascii_digits_only(text):
    """parse_count returns int(text) exactly when text is 1 to 4300 ASCII
    digits, and raises SpecParseError, naming what it read, otherwise."""
    if 1 <= len(text) <= 4300 and all(ch in _DIGITS for ch in text):
        assert parse_count(text, "n") == int(text)
    else:
        with pytest.raises(SpecParseError, match="^the count "):
            parse_count(text, "the count")


def test_elem_formatting_and_parsing(f16):
    assert f16.elem_str(0) == "0"
    assert f16.elem_str(1) == "w^0"
    assert f16.parse_elem("0") == 0
    assert f16.parse_elem("1") == 1
    for x in range(16):
        assert f16.parse_elem(f16.elem_str(x)) == x
    assert parse_modulus(f16.modulus_str()) == f16.modulus
    with pytest.raises(SpecParseError, match="written w"):
        f16.parse_elem("W^3")  # the letter names the field
    f3 = make_field(3, 1)
    assert f3.parse_elem("2") == 2
    with pytest.raises(CduError, match="not in 0..2"):
        f3.parse_elem("7")
