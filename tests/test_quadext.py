import hashlib

import numpy as np
import pytest

from cdu import make_field, make_quadext, select_t
from cdu.funcs import parse_func_spec, tables_for
from cdu.quadext import InvalidT, QuadExtCtx, t_condition_holds
from cdu.gf import NSQ, _is_prime


def test_select_t_f2(f2):
    assert select_t(f2) == 1


def test_select_t_paper_overrides(f16, f27):
    # q = 2^4, t = w^3: Tr(w^3) = 1 under x^4+x+1
    t16 = f16.parse_elem("w^3")
    assert f16.trace1(t16) == 1
    assert select_t(f16, t16) == t16
    # q = 3^3, t = w^2: 1 - 4t is a non-square
    t27 = f27.parse_elem("w^2")
    assert f27.is_square(f27.sub(1, f27.mul(1, t27))) == NSQ  # 4 = 1 in F_3
    assert select_t(f27, t27) == t27


def test_select_t_rejects_invalid(f16):
    # Tr(w) = 0 under x^4+x+1, so t = w is not allowed
    w = f16.primitive
    assert f16.trace1(w) == 0
    with pytest.raises(InvalidT):
        select_t(f16, w)


def test_select_t_default_is_first_valid_power(f16):
    t = select_t(f16)
    k = int(f16.log_table[t])
    assert t_condition_holds(f16, t)
    for j in range(1, k):
        assert not t_condition_holds(f16, int(f16.antilog_table[j]))


def test_make_quadext_f2(qx2):
    assert qx2.ext.q == 4
    assert qx2.t == 1
    b = qx2.beta
    ext = qx2.ext
    assert ext.add(ext.add(ext.mul(b, b), b), qx2.t_ext) == 0
    assert qx2.unembed[b] < 0  # beta outside the embedded base field
    # smaller-index root chosen
    other = qx2.beta_bar
    assert b < other


def test_make_quadext_f16(qx16):
    ext = qx16.ext
    b = qx16.beta
    assert ext.q == 256
    assert ext.add(ext.add(ext.mul(b, b), b), qx16.t_ext) == 0
    assert qx16.unembed[b] < 0


def test_beta_conjugate_relations(qx16, qx27):
    for qx in (qx16, qx27):
        ext = qx.ext
        assert ext.add(qx.beta, qx.beta_bar) == ext.neg(1)
        assert ext.mul(qx.beta, qx.beta_bar) == qx.t_ext
        assert qx.beta_bar == ext.frobenius(qx.beta, qx.base.m)


def test_phi_basics(qx16):
    assert qx16.phi_table[qx16.pt(0, 0)] == 0
    assert qx16.phi_table[qx16.pt(1, 0)] == int(qx16.embed[1]) == 1
    assert qx16.phi_inv_table[qx16.beta] == qx16.pt(0, 1)


def test_phi_round_trip_exhaustive(qx16):
    n = qx16.base.q ** 2
    assert (qx16.phi_inv_table[qx16.phi_table] == np.arange(n)).all()
    assert (qx16.phi_table[qx16.phi_inv_table]
            == np.arange(qx16.ext.q)).all()


def test_biv_mul_examples(qx16):
    # the pair product through phi: (1, 0)*(x, y) = (x, y), (0, 1)^2 = (-t, -1)
    base, ext, phi = qx16.base, qx16.ext, qx16.phi_table
    x, y = 7, 11
    assert ext.mul(phi[qx16.pt(1, 0)], phi[qx16.pt(x, y)]) == phi[qx16.pt(x, y)]
    assert (ext.mul(phi[qx16.pt(0, 1)], phi[qx16.pt(0, 1)])
            == phi[qx16.pt(base.neg(qx16.t), base.neg(1))])


def test_biv_mul_matches_extension_product(qx8):
    # phi(u * v) = phi(u) * phi(v) on all 4096 pairs at q = 8
    base, ext = qx8.base, qx8.ext
    q = base.q
    i = np.arange(q, dtype=np.int32)
    x1 = i[:, None, None, None]
    y1 = i[None, :, None, None]
    x2 = i[None, None, :, None]
    y2 = i[None, None, None, :]
    g = base.sub_vec(base.mul_vec(x1, x2),
                     base.mul_vec(np.int32(qx8.t), base.mul_vec(y1, y2)))
    h = base.sub_vec(base.add_vec(base.mul_vec(x1, y2), base.mul_vec(x2, y1)),
                     base.mul_vec(y1, y2))
    phi = qx8.phi_table.reshape(q, q)
    lhs = phi[g, h]
    rhs = ext.mul_vec(phi[x1, y1], phi[x2, y2])
    assert (lhs == rhs).all()
    # additive structure too: componentwise pair sum maps to the extension sum
    lhs_add = phi[base.add_vec(x1, x2), base.add_vec(y1, y2)]
    rhs_add = ext.add_vec(phi[x1, y1], phi[x2, y2])
    assert (lhs_add == rhs_add).all()


def test_check_nonvanishing(qx16, qx27):
    """N(1 - phi(c)) vanishes exactly at c = (1, 0)."""
    assert qx16.norm_one_minus_c(1, 0) == 0
    assert qx16.norm_one_minus_c(0, 0) != 0
    for qx in (qx16, qx27):
        q = qx.base.q
        bad = [(c1, c2) for c1 in range(q) for c2 in range(q)
               if qx.norm_one_minus_c(c1, c2) == 0]
        assert bad == [(1, 0)]


def test_norm_one_minus_c_is_the_norm_of_one_minus_phi_c(qx16, qx27):
    """norm_one_minus_c(c1, c2), which the genlingold predictor reads, is
    N(1 - phi(c)) = (1 - phi(c))^(q+1) over F_{q^2}, at every c."""
    for qx in (qx16, qx27):
        q, ext = qx.base.q, qx.ext
        for c1 in range(q):
            for c2 in range(q):
                z = ext.sub(1, int(qx.phi_table[qx.pt(c1, c2)]))
                norm = int(qx.unembed[ext.pow(z, q + 1)])
                assert qx.norm_one_minus_c(c1, c2) == norm


def test_check_nonvanishing_every_valid_t(f8):
    for t in range(1, 8):
        if not t_condition_holds(f8, t):
            continue
        qx = make_quadext(f8, t)
        bad = [(c1, c2) for c1 in range(8) for c2 in range(8)
               if qx.norm_one_minus_c(c1, c2) == 0]
        assert bad == [(1, 0)]


def test_conjugate_beta_choice(f16):
    lo = make_quadext(f16, f16.parse_elem("w^3"))
    hi = make_quadext(f16, f16.parse_elem("w^3"), conjugate_beta=True)
    assert lo.beta != hi.beta
    assert lo.beta == hi.beta_bar and hi.beta == lo.beta_bar


def test_embedding_is_deterministic(f16):
    a = QuadExtCtx(f16, f16.parse_elem("w^3"))
    b = QuadExtCtx(f16, f16.parse_elem("w^3"))
    assert (a.embed == b.embed).all()
    assert a.beta == b.beta


def test_identification_digest_over_every_default_context():
    """t, beta, embed, phi_table and phi_inv_table of the default context of
    every field with q^2 <= 2^16 (70 fields, F_2 to F_256), hashed as
    little-endian int64: the identification F_q^2 = F_{q^2} stays the same
    however the context builds it."""
    fields = [(p, m) for p in range(2, 257) if _is_prime(p)
              for m in range(1, 9) if p ** m <= 256]
    assert len(fields) == 70
    digest = hashlib.sha256()
    for p, m in fields:
        qx = make_quadext(make_field(p, m))
        for a in ([qx.t, qx.beta], qx.embed, qx.phi_table, qx.phi_inv_table):
            digest.update(np.asarray(a, dtype="<i8").tobytes())
    assert digest.hexdigest() == (
        "fb94a204644df0ac087c79d1dd033a1ad466916e7b8a5158880f3ebe00d568a1")


def test_tables_cached_per_process_and_bounded(f4):
    """One cache for the process, keyed by spec and context, holds the
    tables of its maxsize most recently used keys."""
    ctx, other = QuadExtCtx(f4), QuadExtCtx(f4)
    spec = parse_func_spec("identity")
    tabs = tables_for(spec, ctx)
    assert tables_for(spec, ctx) is tabs
    assert tables_for(spec, other) is not tabs
    maxsize = tables_for.cache_info().maxsize
    for e in range(maxsize):
        tables_for(parse_func_spec(f"genlinh{{L=x;h=pow:{e}}}"), ctx)
    assert tables_for.cache_info().currsize == maxsize
    assert tables_for(spec, ctx) is not tabs  # evicted, then built again
