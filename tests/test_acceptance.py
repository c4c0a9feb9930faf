"""Acceptance gate: every criterion is a brute-force reproduction of a
published classification pattern, computed with this package's own field
tables and compared as exact integers (no tolerances).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import random
import time
from contextlib import contextmanager
from math import gcd

import numpy as np

from cdu import make_field, make_quadext, parse_func_spec, func_spec
from cdu import ddt
from cdu.ddt import CParam
from cdu.funcs import BIV, PairTables, tables_for
from cdu.oracles import (bluher_root_count, bluher_special_b_count,
                         bluher_special_b_formula, inverse_c_uniformity_predict,
                         quadratic_root_count, quartic_factor_type)
from cdu.predict import compute_AB, _sumprod_in_A
from refs import lift, quadratic_root_counts, quartic_patterns


@contextmanager
def gate(n, desc, budget=None):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {n}: FAIL - {desc}")
        raise
    dt = time.time() - t0
    print(f"ACCEPTANCE {n}: PASS ({dt:.1f}s) - {desc}")
    if budget is not None:
        assert dt < budget, f"criterion {n} exceeded its {budget}s budget ({dt:.1f}s)"


def sweep_map(spec_s, qctx, cs, threads=1):
    reports = ddt.sweep(parse_func_spec(spec_s), qctx, cs, threads=threads)
    return {(c.c1, c.c2): r.uniformity for c, r in zip(cs, reports)}


def test_criterion_1_corollary_1(qx16):
    base = qx16.base
    with gate(1, "q=16 inverse construction matches Corollary 1 on all 255 c", budget=5):
        got = sweep_map("genlinh{L=x;h=inv}", qx16, ddt.c_all_biv(16))
        for (c1, c2), u in got.items():
            a, b = compute_AB(qx16, c1, c2)
            if a == 0 or b == 0:
                want = 1
            else:
                r = base.div(a, b)
                tr = base.trace1(r) * base.trace1(base.inv(r))
                want = 3 if tr == 0 else 2
            assert u == want, ((c1, c2), u, want)


def test_criterion_2_s_to_1_remark(qx8):
    with gate(2, "q=8 with 2-to-1 L: uniformity 2 when AB=0, else 6", budget=1):
        got = sweep_map("genlinh{L=x^2+x;h=inv}", qx8, ddt.c_all_biv(8))
        for (c1, c2), u in got.items():
            a, b = compute_AB(qx8, c1, c2)
            want = 2 if (a == 0 or b == 0) else 6
            assert u == want, ((c1, c2), u, want)


def _lg_ratio(qctx, c1, c2):
    base = qctx.base
    one_c1 = base.sub(1, c1)
    a1 = base.add(base.add(base.mul(qctx.t, base.mul(c2, c2)),
                           base.mul(one_c1, c2)), base.mul(one_c1, one_c1))
    return base.div(base.add(one_c1, base.mul(qctx.t, c2)), a1)


def test_criterion_3_gold_even(qx16):
    base = qx16.base
    cs = ddt.c_all_biv(16)
    with gate(3, "q=16 (x, y^5+ay+x): APcN iff a!=0 and ratio in F_4, else (c,5)", budget=15):
        for alpha in ("0", "w^1", "1"):
            got = sweep_map(f"genlingold{{L=x;k=2;alpha={alpha}}}", qx16, cs)
            a_val = base.parse_elem(alpha)
            for (c1, c2), u in got.items():
                in_f4 = base.in_subfield(_lg_ratio(qx16, c1, c2), 2)
                want = 2 if (a_val != 0 and in_f4) else 5
                assert u == want, (alpha, (c1, c2), u, want)


def test_criterion_4_gold_odd(qx27):
    base = qx27.base
    cs = ddt.c_all_biv(27)
    with gate(4, "q=27 (x, y^10+ay+x): APcN iff a=0 and ratio in F_3, else (c,4)", budget=60):
        for alpha in ("0", "w^1"):
            got = sweep_map(f"genlingold{{L=x;k=2;alpha={alpha}}}", qx27, cs,
                            threads=4)
            a_val = base.parse_elem(alpha)
            for (c1, c2), u in got.items():
                in_f3 = base.in_subfield(_lg_ratio(qx27, c1, c2), 1)
                want = 2 if (a_val == 0 and in_f3) else 4
                assert u == want, (alpha, (c1, c2), u, want)


def test_criterion_5_sumprod_even(qx16):
    cs = ddt.c_all_biv(16)
    with gate(5, "q=16 (x+y, x^(2^i)y+a*xy^(2^j)): the four published patterns", budget=30):
        for spec_s, on_line, on_set, elsewhere in (
                ("sumprod{i=0;j=1;alpha=1}", 3, 17, 4),
                ("sumprod{i=0;j=3;alpha=1}", 4, 17, 4),
                ("sumprod{i=1;j=1;alpha=w^1}", 3, 6, 6),
                ("sumprod{i=3;j=3;alpha=w^1}", 3, 6, 6)):
            got = sweep_map(spec_s, qx16, cs)
            for (c1, c2), u in got.items():
                if c2 == 0:
                    want = on_line
                elif _sumprod_in_A(qx16, c1, c2):
                    want = on_set
                else:
                    want = elsewhere
                assert u == want, (spec_s, (c1, c2), u, want)


def test_criterion_6_sumprod_odd(qx27):
    cs = ddt.c_all_biv(27)
    with gate(6, "q=27 (x+y, x^(3^i)y+a*xy^(3^j)): the four published patterns", budget=180):
        for spec_s, on_line, on_set, elsewhere in (
                ("sumprod{i=0;j=1;alpha=2}", 4, 29, 6),
                ("sumprod{i=0;j=2;alpha=2}", 4, 29, 6),
                ("sumprod{i=1;j=1;alpha=w^1}", 4, 12, 12),
                ("sumprod{i=2;j=2;alpha=w^1}", 4, 12, 12)):
            got = sweep_map(spec_s, qx27, cs, threads=4)
            for (c1, c2), u in got.items():
                if c2 == 0:
                    want = on_line
                elif _sumprod_in_A(qx27, c1, c2):
                    want = on_set
                else:
                    want = elsewhere
                assert u == want, (spec_s, (c1, c2), u, want)


def test_criterion_7_goldpair():
    f64 = make_field(2, 6)
    qx64 = make_quadext(f64)
    f4_scalars = [x for x in range(64) if f64.in_subfield(x, 2)]
    with gate(7, "q=64 Gold pair: PcN on F_4 line, (c,5) off it; q=27: (c,4)"):
        for gamma in f4_scalars:
            if gamma == 1:
                continue  # gamma != -1 = 1
            spec = func_spec("goldpair", k=2, gamma=gamma, L="x")
            for c1 in f4_scalars:
                if c1 == 1:
                    continue
                rep = ddt.c_uniformity(spec, qx64, CParam.biv(c1, 0))
                assert rep.uniformity == 1, (gamma, c1, rep.uniformity)
        pool = [CParam.biv(c1, 0) for c1 in range(64)
                if not f64.in_subfield(c1, 2)]
        rng = random.Random(7)
        sample = rng.sample(pool, min(64, len(pool)))
        spec = func_spec("goldpair", k=2, gamma=f4_scalars[2], L="x")
        reps = ddt.sweep(spec, qx64, sample, threads=4)
        assert all(r.uniformity == 5 for r in reps)

        f27 = make_field(3, 3)
        qx27 = make_quadext(f27, f27.parse_elem("w^2"))
        got = sweep_map("goldpair{k=2;gamma=w^1;L=x^3+x}", qx27,
                        ddt.c_line_biv(27))
        assert all(u == 4 for u in got.values())
        assert gcd(3 ** 2 + 1, 3 ** 3 - 1) == 2  # the other branch's exact value
        got1 = sweep_map("goldpair{k=2;gamma=1;L=x^3+x}", qx27,
                         [CParam.biv(0, 0), CParam.biv(2, 0)])
        assert all(u == 2 for u in got1.values())


def test_criterion_8_prodlin(qx16):
    base = qx16.base
    with gate(8, "q=16 (xy, (xy)^16+(xy)^4+x+y): APcN on F_4 minus 1, exact", budget=5):
        got = sweep_map("prodlin{gammas=4:1,2:1;L=x}", qx16,
                        ddt.c_line_biv(16))
        f4 = {x for x in range(16) if base.in_subfield(x, 2)}
        for (c1, _), u in got.items():
            if c1 in f4:
                assert u == 2, (c1, u)
        assert sum(1 for (c1, _) in got if c1 in f4) == 3


def test_criterion_9_trace_inverse(qx16):
    base = qx16.base
    with gate(9, "F_256 (Tr(z), Tr(g/z)): <=6 always, <=4 on the named c set, "
                 "APcN at c=0", budget=10):
        got = sweep_map("traceinv{gamma=W^1}", qx16, ddt.c_all_biv(16))
        assert got[(0, 0)] == 2
        for (c1, c2), u in got.items():
            assert u <= 6, ((c1, c2), u)
            lhs = base.mul(base.sub(1, c1), base.sub(c1, c2))
            rhs = base.mul(qx16.t, base.mul(c2, c2))
            if c1 == 1 or c2 == 0 or lhs == rhs:
                assert u <= 4, ((c1, c2), u)


def test_criterion_10_normfirst(qx16):
    base = qx16.base
    with gate(10, "F_256 (z^17, Tr(z^5)): APcN for c1 in F_4 minus 1, else (c,6)"):
        got = sweep_map("normfirst{H=tr5}", qx16, ddt.c_line_biv(16))
        for (c1, _), u in got.items():
            want = 2 if base.in_subfield(c1, 2) else 6
            assert u == want, (c1, u, want)


def test_criterion_11_oracle_suite():
    with gate(11, "lemma oracles agree with exhaustive scans and formulas", budget=30):
        # quadratic criteria vs scans, every (a, b)
        for p, m in ((2, 2), (2, 3), (2, 4), (3, 3)):
            ctx = make_field(p, m)
            want = quadratic_root_counts(ctx)
            for a in range(ctx.q):
                for b in range(ctx.q):
                    assert quadratic_root_count(ctx, a, b) == want[a, b]
        # quartic criteria vs trial factorization, every a0*a1 != 0
        for m in (2, 3, 4):
            ctx = make_field(2, m)
            patterns = quartic_patterns(ctx)
            assert len(patterns) == ctx.q * (ctx.q - 1) ** 2
            for (a2, a1, a0), want in patterns.items():
                assert quartic_factor_type(ctx, a2, a1, a0).pattern == want
        # Gold trinomial root counts stay in {0,1,2,p^d+1} on full scans
        for p, m, ks in ((2, 2, (1,)), (2, 3, (1, 2)), (2, 4, (1, 2, 3)),
                         (3, 3, (1, 2))):
            ctx = make_field(p, m)
            for k in ks:
                d = gcd(m, k)
                allowed = {0, 1, 2, p ** d + 1}
                for a in range(1, ctx.q):
                    for b in range(1, ctx.q):
                        assert bluher_root_count(ctx, k, a, b).root_count in allowed
        # special-b closed formula vs exhaustive counts
        for p, m, k in ((2, 3, 1), (2, 4, 1), (2, 4, 2), (3, 3, 1)):
            ctx = make_field(p, m)
            assert bluher_special_b_count(ctx, k) == bluher_special_b_formula(ctx, k)
        # inverse-function predictions vs brute force for every c != 1
        for p, m in ((2, 3), (2, 4), (3, 3), (5, 2)):
            ctx = make_field(p, m)
            tab = ctx.pow_vec(np.arange(ctx.q, dtype=np.int32), ctx.q - 2)
            for c in range(ctx.q):
                if c == 1:
                    continue
                assert (inverse_c_uniformity_predict(ctx, c)
                        == ddt.uni_report(ctx, tab, CParam(c)).uniformity)


def test_criterion_12_structural_invariants(qx4, qx8, qx16, qx27):
    with gate(12, "axioms, pair/extension isomorphism, nonvanishing, row mass, "
                  "bivariate = lifted univariate under G+bH"):
        # field axioms, exhaustive triples for every sampled field up to q=64
        for p, m in ((2, 1), (2, 2), (2, 3), (2, 4), (5, 2), (3, 3), (2, 6)):
            ctx = make_field(p, m)
            i = np.arange(ctx.q, dtype=np.int32)
            x, y, z = i[:, None, None], i[None, :, None], i[None, None, :]
            assert (ctx.add_vec(ctx.add_vec(x, y), z)
                    == ctx.add_vec(x, ctx.add_vec(y, z))).all()
            assert (ctx.mul_vec(ctx.mul_vec(x, y), z)
                    == ctx.mul_vec(x, ctx.mul_vec(y, z))).all()
            assert (ctx.mul_vec(x, ctx.add_vec(y, z))
                    == ctx.add_vec(ctx.mul_vec(x, y), ctx.mul_vec(x, z))).all()
        # (pairs, pair product) isomorphic to the extension via phi, exhaustive q<=16
        for qx in (qx4, qx8, qx16):
            base, ext = qx.base, qx.ext
            q = base.q
            i = np.arange(q, dtype=np.int32)
            x1, y1 = i[:, None, None, None], i[None, :, None, None]
            x2, y2 = i[None, None, :, None], i[None, None, None, :]
            g = base.sub_vec(base.mul_vec(x1, x2),
                             base.mul_vec(np.int32(qx.t), base.mul_vec(y1, y2)))
            h = base.sub_vec(
                base.add_vec(base.mul_vec(x1, y2), base.mul_vec(x2, y1)),
                base.mul_vec(y1, y2))
            phi = qx.phi_table.reshape(q, q)
            assert (phi[g, h] == ext.mul_vec(phi[x1, y1], phi[x2, y2])).all()
            assert (phi[base.add_vec(x1, x2), base.add_vec(y1, y2)]
                    == ext.add_vec(phi[x1, y1], phi[x2, y2])).all()
        # Eq-(1)-style nonvanishing: exhaustive per field
        for qx in (qx8, qx16, qx27):
            q = qx.base.q
            bad = [(c1, c2) for c1 in range(q) for c2 in range(q)
                   if qx.norm_one_minus_c(c1, c2) == 0]
            assert bad == [(1, 0)]
        # row mass is asserted inside every engine pass; cross-check the
        # spectrum accounting on one sweep
        spec = parse_func_spec("genlinh{L=x;h=inv}")
        for c, rep in zip(ddt.c_all_biv(16),
                          ddt.sweep(spec, qx16, ddt.c_all_biv(16))):
            n = 256
            assert sum(v * k for v, k in rep.spectrum.items()) == n * n
        # bivariate uniformity equals the lifted univariate one, exhaustive
        rng = random.Random(12)
        for qx in (qx4, qx8):
            q = qx.base.q
            for tabs in (tables_for(parse_func_spec("genlinh{L=x;h=inv}"), qx),
                         PairTables(BIV, [rng.randrange(q) for _ in range(q * q)],
                                    [rng.randrange(q) for _ in range(q * q)], qx)):
                lifted = lift(qx, tabs)
                for c1 in range(q):
                    for c2 in range(q):
                        b = ddt.pair_report(qx, tabs, CParam.biv(c1, c2))
                        u = ddt.uni_report(qx.ext, lifted, CParam(
                            int(qx.phi_table[qx.pt(c1, c2)])))
                        assert (b.uniformity, b.spectrum) == (u.uniformity, u.spectrum)
