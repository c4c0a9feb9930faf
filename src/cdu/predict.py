"""Closed-form uniformity predictions per construction family.

For each family and admissible c the predictor evaluates the governing
condition and emits an exact value (described as PcN or APcN at 1 and 2)
or an upper bound, together with a trace of the intermediate quantities.
``verify`` runs the brute-force engine next to it: exact predictions must
match, bounds must dominate, and any violation is reported with the
offending witness rather than silently downgraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .gf import SQ
from .quadext import QuadExtCtx
from .funcs import FuncSpec, tables_for
from .oracles import IdentityC, c_ddt_spectrum, inverse_c_uniformity_predict
from . import ddt

EXACT = "exact"
UPPER = "upper"
NOT_COVERED = "not_covered"


@dataclass
class Prediction:
    kind: str
    value: int = 0
    trace: dict = field(default_factory=dict)

    def describe(self):
        if self.kind == NOT_COVERED:
            return "-"
        if self.kind == UPPER:
            return f"<={self.value}"
        return {1: "PcN", 2: "APcN"}.get(self.value, str(self.value))


def _exact(value, **trace):
    return Prediction(EXACT, value, trace)


def _upper(value, **trace):
    return Prediction(UPPER, value, trace)


def _not_covered(**trace):
    return Prediction(NOT_COVERED, trace=trace)


# ---------------------------------------------------------------------------
# the A/B machinery shared by the (L(x), h(y)+L(x)) family
# ---------------------------------------------------------------------------

def compute_AB(qctx: QuadExtCtx, c1, c2):
    """A = (c1-c2)*B + t*c2*(1-c1) and B = 1 - c1 + t*c2 for the theorem
    governing (L(x), h(y)+L(x)).

    Corollary 2 prints the negative of this A for odd q with h the inverse;
    brute force sides with the theorem's A, which is used for every q.
    When both are nonzero, A/B != 1 (a consequence of the nonvanishing
    condition on t, c).
    """
    if c1 == 1 and c2 == 0:
        raise IdentityC("A/B is not defined at the identity c")
    base = qctx.base
    one_c1 = base.sub(1, c1)
    b = base.add(one_c1, base.mul(qctx.t, c2))
    tc2_1c1 = base.mul(qctx.t, base.mul(c2, one_c1))
    a = base.add(base.mul(base.sub(c1, c2), b), tc2_1c1)
    return a, b


def _predict_genlinh(tabs, qctx, c1, c2):
    base = qctx.base
    h = tabs.args["h"]
    if not h.permutes:
        return _not_covered(reason="h is not a permutation")
    s = tabs.args["L"].kernel_size
    a, b = compute_AB(qctx, c1, c2)
    tr = {"A": base.elem_str(a), "B": base.elem_str(b), "s": s}
    if a == 0 or b == 0:
        return _exact(s, **tr)
    ratio = base.div(a, b)
    assert ratio != 1, "A/B = 1 contradicts the nonvanishing condition"
    if h.tag == "inv":  # delta of h at A/B: the closed form, else a count
        delta = inverse_c_uniformity_predict(base, ratio)
    else:
        delta = max(c_ddt_spectrum(base, h.table, ratio))
    tr.update({"A/B": base.elem_str(ratio), "delta_h": delta})
    if s == 1:
        return _exact(delta, **tr)
    return _upper(delta * s, **tr)


def _predict_genlingold(tabs, qctx, c1, c2):
    base = qctx.base
    p, m = base.p, base.m
    k, alpha = tabs.args["k"], tabs.args["alpha"]
    if not tabs.args["L"].permutes:
        return _not_covered(reason="L is not a permutation")
    d = gcd(m, k)
    b = base.add(base.sub(1, c1), base.mul(qctx.t, c2))
    ratio = base.div(b, qctx.norm_one_minus_c(c1, c2))
    tr = {"ratio": base.elem_str(ratio), "d": d}
    if m != 2 * k:
        if alpha == 0 and base.in_subfield(ratio, d):
            return _exact(gcd(p ** k + 1, base.q - 1), **tr)
        return _exact(p ** d + 1, **tr)
    if alpha != 0 and base.in_subfield(ratio, k):
        return _exact(2, **tr)
    return _exact(p ** k + 1, **tr)


def _sumprod_in_A(qctx, c1, c2):
    base = qctx.base
    if c2 == 0:
        return False
    one_c1 = base.sub(1, c1)
    tc2_inv = base.inv(base.mul(qctx.t, c2))
    t1 = base.trace1(base.mul(one_c1, tc2_inv))
    inner = base.sub(
        base.mul(base.mul(base.add(one_c1, c2), base.neg(one_c1)), tc2_inv), c2)
    t2 = base.trace1(inner)
    return t1 == 0 and t2 == 0


def _predict_sumprod(tabs, qctx, c1, c2):
    base = qctx.base
    p, m, q = base.p, base.m, base.q
    i, j, alpha = tabs.args["i"], tabs.args["j"], tabs.args["alpha"]
    minus_one = base.neg(1)
    in_a = _sumprod_in_A(qctx, c1, c2)
    tr = {"in_A": in_a, "alpha": base.elem_str(alpha), "i": i, "j": j}
    if alpha == minus_one and (i, j) == (0, 1):
        if c2 == 0:
            return _upper(p + 1, **tr)
        if in_a:
            return _upper(q + p - 1, **tr)
        return _upper(2 * p, **tr)
    if alpha == minus_one and (i, j) == (0, m - 1):
        if in_a:
            return _exact(q + p - 1, **tr)
        return _upper(2 * p, **tr)
    if alpha != minus_one and (i, j) in ((1, 1), (m - 1, m - 1)):
        if c2 == 0:
            return _upper(p + 1, **tr)
        return _upper(p * p + p, **tr)
    return _not_covered(reason="(alpha, i, j) outside the theorem's branches")


def _predict_traceinv(tabs, qctx, c1, c2):
    base = qctx.base
    if c1 == 0 and c2 == 0:
        if base.q <= 3:
            # brute force over every gamma (q <= 3 has one t and one embedding):
            # F is a bijection exactly when gamma is a square in F_{q^2}
            square = qctx.ext.is_square(tabs.args["gamma"]) == SQ
            return _exact(1 if square else 2, branch="c=0", gamma_square=square)
        return _exact(2, branch="c=0")
    lhs = base.mul(base.sub(1, c1), base.sub(c1, c2))
    rhs = base.mul(qctx.t, base.mul(c2, c2))
    restricted = c1 == 1 or c2 == 0 or lhs == rhs
    if restricted:
        return _upper(4, restricted=True)
    return _upper(6, restricted=False)


def _predict_splitgh(tabs, qctx, c1, c2):
    base = qctx.base
    if c2 != 0:
        return _not_covered(reason="covers only c = (c1, 0)")
    args = tabs.args
    g_uni = max(c_ddt_spectrum(base, args["g"].table, c1))
    if g_uni != 1:
        return _not_covered(reason=f"g is not PcN at c1 (delta={g_uni})")
    gammas = np.arange(base.q, dtype=np.int32)[:, None]  # one q x q scan
    comb = base.add_vec(args["L2"].table, base.mul_vec(gammas, args["L1"].table))
    sizes = np.count_nonzero(comb == 0, axis=1)
    wide = np.flatnonzero(sizes > 2)  # the first such gamma is reported
    if len(wide):
        return _not_covered(reason=f"L2 + gamma*L1 has kernel {int(sizes[wide[0]])} "
                                   f"at gamma={base.elem_str(int(wide[0]))}")
    return _upper(2, g_uniformity=1)


def _predict_goldpair(tabs, qctx, c1, c2):
    base = qctx.base
    if c2 != 0:
        return _not_covered(reason="covers only c = (c1, 0)")
    k, gamma = tabs.args["k"], tabs.args["gamma"]
    d = gcd(base.m, k)
    dgold = gcd(pow(base.p, k, base.q - 1) + 1, base.q - 1)
    both_in = base.in_subfield(c1, d) and base.in_subfield(gamma, d)
    tr = {"d": d, "gcd(p^k+1,q-1)": dgold, "c,gamma in F_p^d": both_in}
    if both_in:
        return _exact(dgold, **tr)
    return _exact(base.p ** d + 1, **tr)


def _predict_prodlin(tabs, qctx, c1, c2):
    base = qctx.base
    if c2 != 0:
        return _not_covered(reason="covers only c = (c1, 0)")
    d = base.m
    for i, _ in tabs.args.get("gammas", ()):
        d = gcd(d, i)
    tr = {"d": d}
    if base.in_subfield(c1, d):
        return _exact(2, **tr)
    return _not_covered(reason="c1 outside F_p^d", **tr)


def _predict_tracext(tabs, qctx, c1, c2):
    base = qctx.base
    if tabs.args["H"] == "norm":
        if c2 != 0:
            return _not_covered(reason="norm branch covers only c = (c1, 0)")
        return _exact(2, branch="norm")
    k = tabs.args["k"]
    d = gcd(k, base.m)
    if k % base.m == 0:
        # z^(p^k) is z or z^q, so h is Tr(gamma*z^2) or Tr(gamma)*N(z)
        return _not_covered(reason="m | k: h is not a Gold map", d=d)
    if c2 == 0:
        return _exact(base.p ** d + 1, d=d)
    if d == 1 and base.p == 2 and k % base.m in (1, base.m - 1):
        return _upper(6, d=d)
    if d == 1 and base.p == 2:  # brute force gives 7-9 at m = 5, k = 2, 3, 7, 8
        return _not_covered(reason="off the line the bound 6 holds only "
                                   "for k = +-1 mod m", d=d)
    if d == 1:  # brute force gives 8, 10 and 13 at q = 9, 27, 25
        return _not_covered(reason="off the line the bound 6 holds only "
                                   "for p = 2", d=d)
    return _not_covered(reason="needs gcd(k,m)=1 or c2=0", d=d)


def _predict_normfirst(tabs, qctx, c1, c2):
    """Exact delta by scanning H(x+a) - c1*H(x) over every norm coset.

    The first coordinate pins the solutions of the system to one coset
    beta*U + a/(c1-1) per b1, so the maximum over (a, coset, b2) is exactly
    the c-differential uniformity.  The coset of z is N(z - a/(c1-1)), so
    one bincount of N(z - shift) * q + hd(z) counts every (coset, b2) of a
    row a.  Rows a and lam*a, for lam in F_q^*, have the same maximum:
    z = lam*z' multiplies N(z - lam*a/(c1-1)) by lam^2 and H(z + lam*a) -
    c1*H(z) = Tr((z + lam*a)^e) - c1*Tr(z^e) by lam^e, so row lam*a is row a
    with its (coset, b2) bins relabelled.  Row 0 and the rows W^i, 0 <= i
    <= q, one per coset of F_q^* = <W^(q+1)> in F_{q^2}^*, thus stand for
    all q^2 rows.  Rows go max(1, 2^16 // q^2) at a time, row i of a block
    offset by i*q^2, so one bincount serves the block.
    """
    base, ext = qctx.base, qctx.ext
    if c2 != 0:
        return _not_covered(reason="covers only c = (c1, 0)")
    n, htab = ext.q, tabs.h
    zs = np.arange(n, dtype=np.int32)
    norm_q = tabs.g.astype(np.intp) * base.q  # g is the norm z^(q+1)
    shift_unit = np.int32(qctx.embed[base.inv(base.sub(c1, 1))])
    c1h = base.mul_row(c1)[htab]
    rows = np.append(0, ext.antilog_table[:base.q + 1]).astype(np.int32)
    step = max(1, (1 << 16) // n)
    delta = 0
    for i in range(0, len(rows), step):
        a = rows[i:i + step, None]
        hd = base.sub_vec(htab[ext.add_vec(zs, a)], c1h)
        minus_shift = ext.neg_table[ext.mul_vec(a, shift_unit)]
        key = (norm_q[ext.add_vec(zs, minus_shift)] + hd
               + np.arange(len(a))[:, None] * n)
        delta = max(delta, int(np.bincount(key.ravel()).max()))
    return _exact(delta, coset_scan=True)


_FAMILY_PREDICTORS = {
    "genlinh": _predict_genlinh,
    "genlingold": _predict_genlingold,
    "sumprod": _predict_sumprod,
    "traceinv": _predict_traceinv,
    "splitgh": _predict_splitgh,
    "goldpair": _predict_goldpair,
    "prodlin": _predict_prodlin,
    "tracext": _predict_tracext,
    "normfirst": _predict_normfirst,
}


def predict(spec: FuncSpec, qctx: QuadExtCtx, c1, c2) -> Prediction:
    """Closed-form prediction for one c; NotCovered outside the theorems.
    A predictor reads, and never writes, the spec's tables and its
    parameters, parsed once with them (see ``tables_for``)."""
    if c1 == 1 and c2 == 0:
        raise IdentityC("predictions exclude the identity c")
    fn = _FAMILY_PREDICTORS.get(spec.family)
    if fn is None:
        return _not_covered(reason=f"no closed form for family {spec.family!r}")
    return fn(tables_for(spec, qctx), qctx, c1, c2)


# ---------------------------------------------------------------------------
# prediction vs brute force
# ---------------------------------------------------------------------------

@dataclass
class VerdictRow:
    c: ddt.CParam
    prediction: Prediction
    observed: int
    verdict: str
    witness: tuple


@dataclass
class VerifyResult:
    rows: list
    violations: int

    @property
    def ok(self):
        return self.violations == 0


def judge(prediction: Prediction, observed):
    if prediction.kind == NOT_COVERED:
        return "NOT-COVERED"
    if prediction.kind == UPPER:
        return "BOUND-OK" if observed <= prediction.value else "VIOLATION"
    return "MATCH" if observed == prediction.value else "VIOLATION"


def verify(spec: FuncSpec, qctx: QuadExtCtx, c_list, threads=1) -> VerifyResult:
    """Predict and brute-force every c; exact values must match, bounds dominate."""
    reports = ddt.sweep(spec, qctx, c_list, threads=threads)
    rows = []
    violations = 0
    for c, rep in zip(c_list, reports):
        pred = predict(spec, qctx, c.c1, c.c2)
        verdict = judge(pred, rep.uniformity)
        if verdict == "VIOLATION":
            violations += 1
        rows.append(VerdictRow(c, pred, rep.uniformity, verdict, rep.witness))
    return VerifyResult(rows, violations)
