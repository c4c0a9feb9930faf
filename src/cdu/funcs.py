"""Construction catalog: parametrized function families and their value tables.

Every family is materialized as value tables (q^2 entries), trading memory
for uniform O(1) evaluation inside sweeps.  Both shapes have pair output:

  biv   F_q x F_q -> F_q x F_q      tables (g, h) indexed by pt = x*q + y
  ext   F_{q^2}   -> F_q x F_q      tables (g, h) indexed by the ext element

The univariate lift of a biv function, z -> phi(F(phi^-1(z))), is no family:
``univariate_lift`` returns it as a value table of F_{q^2} to itself.
Tables here are values only; what the c-DDT kernel derives of them is
``ddt``'s (see ``PairTables``).

Inverses follow the 0 -> 0 convention: y^-1 is y^(q-2) and gamma/x is
gamma * x^(q^2-2), so every family is total on its domain.

Spec strings (the CLI mini-language), one per family in ``FAMILIES``:

  genlinh{L=x;h=inv}                   (L(x), h(y)+L(x))
  genlingold{L=x;k=2;alpha=w^1}        (L(x), y^(p^k+1)+alpha*y+L(x))
  sumprod{i=0;j=1;alpha=1}             (x+y, x^(p^i)*y+alpha*x*y^(p^j))
  goldpair{k=2;gamma=w^5;L=x}          (x^(p^k+1)+gamma*y^(p^k+1), L(x+y))
  prodlin{gammas=4:1,2:1;L=x}          (xy, sum gamma_i*(xy)^(p^i) + L(x+y))
  splitgh{g=...;h1=...;h2=...;L1=...;L2=...;gamma1=...;gamma2=...}
  traceinv{gamma=W^3}                  z -> (Tr(z), Tr(gamma/z))
  tracext{H=gold;k=1;gamma=W^1}        z -> (Tr(z), Tr(gamma*z^(p^k+1)))
  tracext{H=norm}                      z -> (Tr(z), z^(q+1))
  normfirst{H=tr5}                     z -> (z^(q+1), Tr(z^5))
  identity                             (x, y)

A key the family does not declare is an error, and so is a missing one,
except prodlin's gammas (default: none) and tracext's k and gamma, which
only H=gold reads.  Elements are read by ``FieldCtx.parse_elem``: "w^k" in
F_q and "W^k" in F_{q^2}, the other letter being an error.  genericbiv
takes value tables of F_q indices, which only ``func_spec`` can pass.

A linearized polynomial is a sum of terms "x", "x^E" or "<el>*x^E", every
exponent E a power of p; ``parse_linpoly`` reads it over F_q straight to its
value table, kernel size and permutation flag.  An inner function, for h
slots, is "inv", "id", "gold:<k>" (k >= 0), "pow:<e>" or "lin:<linpoly>";
``parse_inner`` reads it over F_q straight to its tag, its value table and
whether it permutes F_q.  A Gold exponent k of any size costs the same:
x^(p^k+1) is x^(p^(k mod m)) * x (``FieldCtx.gold_vec``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gf import CduError, FieldCtx, SpecParseError
from .quadext import QuadExtCtx

BIV = "biv"
EXT = "ext"


class DomainMismatch(CduError):
    pass


class InvalidParams(CduError):
    pass


def _int(s, what):
    """int(s), or a SpecParseError naming the value that is not an integer."""
    try:
        return int(s)
    except ValueError:
        raise SpecParseError(f"{what} must be an integer, got {s!r}") from None


# ---------------------------------------------------------------------------
# linearized polynomials and inner functions, parsed over a field
# ---------------------------------------------------------------------------

class LinPoly(NamedTuple):
    """A linearized polynomial over F_q: its value table (a read-only int32
    array), its kernel size s (the image has q/s elements) and whether it
    permutes F_q."""

    table: np.ndarray
    kernel_size: int
    permutes: bool


def parse_linpoly(s, ctx: FieldCtx) -> LinPoly:
    """Parse "x", "x^3+x", "w^3*x^9+x", ... over ``ctx``; every exponent
    must be a power of p.  The kernel is counted by exhaustive scan."""
    xs = np.arange(ctx.q, dtype=np.int32)
    table = np.zeros(ctx.q, dtype=np.int32)
    for raw in s.split("+"):
        raw = raw.strip()
        if not raw:
            raise SpecParseError(f"empty term in linearized polynomial {s!r}")
        coeff = 1
        if "*" in raw:
            cs, raw = raw.split("*", 1)
            coeff = ctx.parse_elem(cs)
        raw = raw.strip()
        if raw == "x":
            e = 1
        elif raw.startswith("x^"):
            e = _int(raw[2:], f"exponent in {s!r}")
        else:
            raise SpecParseError(f"bad linearized term {raw!r} in {s!r}")
        i = 0
        pe = 1
        while pe < e:
            pe *= ctx.p
            i += 1
        if pe != e:
            raise InvalidParams(
                f"exponent {e} in {s!r} is not a power of p={ctx.p}")
        term = ctx.frobenius_vec(xs, i)
        table = ctx.add_vec(table, term if coeff == 1
                            else ctx.mul_vec(np.int32(coeff), term))
    size = int(np.count_nonzero(table == 0))
    assert size >= 1 and ctx.q % size == 0
    return LinPoly(_read_only(table), size, size == 1)


class Inner(NamedTuple):
    """An inner function of F_q (for h slots): its tag, its value table (a
    read-only int32 array) and whether it permutes F_q."""

    tag: str
    table: np.ndarray
    permutes: bool


def parse_inner(s, ctx: FieldCtx) -> Inner:
    """Parse "inv", "id", "gold:<k>" (k >= 0), "pow:<e>" or "lin:<linpoly>"
    over ``ctx``."""
    s = s.strip()
    tag, xs = s.split(":", 1)[0], np.arange(ctx.q, dtype=np.int32)
    if s in ("inv", "id"):
        values = ctx.inv_table if s == "inv" else xs
    elif s.startswith("gold:"):
        k = _int(s[5:], "gold exponent")
        if k < 0:
            raise SpecParseError(f"gold exponent must be >= 0, got {k}")
        values = ctx.gold_vec(xs, k)
    elif s.startswith("pow:"):
        values = ctx.pow_vec(xs, _int(s[4:], "pow exponent"))
    elif s.startswith("lin:"):
        values = parse_linpoly(s[4:], ctx).table
    else:
        raise SpecParseError(f"unknown inner function spec {s!r}")
    table = _read_only(np.array(values, dtype=np.int32))
    return Inner(tag, table, len(np.unique(table)) == ctx.q)


# ---------------------------------------------------------------------------
# function specs
# ---------------------------------------------------------------------------

# family -> (domain, {parameter: kind}), in the order parse_params reads
# them; it lists the kinds.  A "?" marks an optional parameter.
FAMILIES = {
    "genlinh": (BIV, {"L": "linpoly", "h": "inner"}),
    "genlingold": (BIV, {"k": "int", "alpha": "base", "L": "linpoly"}),
    "sumprod": (BIV, {"i": "int", "j": "int", "alpha": "base"}),
    "goldpair": (BIV, {"k": "gold_k", "gamma": "base", "L": "linpoly"}),
    "prodlin": (BIV, {"L": "linpoly", "gammas": "gammas?"}),
    "splitgh": (BIV, {"gamma1": "base", "gamma2": "base", "g": "inner",
                      "h1": "inner", "h2": "inner", "L1": "linpoly",
                      "L2": "linpoly"}),
    "traceinv": (EXT, {"gamma": "ext"}),
    "tracext": (EXT, {"H": "variant", "k": "gold_k?", "gamma": "ext?"}),
    "normfirst": (EXT, {"H": "variant"}),
    "identity": (BIV, {}),
    "genericbiv": (BIV, {"gtable": "table", "htable": "table"}),
}


@dataclass(frozen=True)
class FuncSpec:
    """A construction-family descriptor: the family and its (key, value)
    parameters as given, sorted by key."""

    family: str
    params: tuple = ()

    @property
    def domain(self):
        return FAMILIES[self.family][0]

    def to_string(self):
        body = ";".join(f"{k}={v}" for k, v in self.params
                        if k not in ("gtable", "htable"))
        return f"{self.family}{{{body}}}" if body else self.family

    def __repr__(self):
        return self.to_string()


def func_spec(family, **params):
    """The FuncSpec of ``family`` with ``params``; a value table (any
    sequence of ints, a numpy array among them) is kept as a tuple of ints,
    so that specs hash and compare by value."""
    if family not in FAMILIES:
        raise SpecParseError(f"unknown family {family!r}")
    declared = FAMILIES[family][1]
    for k, v in params.items():
        if k not in declared:
            raise SpecParseError(f"unknown key {k!r} for {family}, which takes "
                                 f"{', '.join(declared) or 'no parameters'}")
        if declared[k] == "table":
            params[k] = tuple(map(int, v))
    return FuncSpec(family, tuple(sorted(params.items())))


def parse_func_spec(s) -> FuncSpec:
    """Parse one construction string, e.g. ``genlinh{L=x;h=inv}``.

    genericbiv takes its value tables from ``func_spec`` only, so no string
    names it.
    """
    s = s.strip()
    head = s.split("{", 1)[0]
    if head not in FAMILIES:
        raise SpecParseError(f"unknown family {head!r} (position 0)")
    if head == "genericbiv":
        raise SpecParseError(
            f"{head} takes its tables from the library (func_spec), not a spec string")
    if head == s:
        return FuncSpec(s)
    if not s.endswith("}"):
        raise SpecParseError(f"missing closing brace in {s!r} (position {len(s)})")
    body = s[len(head) + 1:-1]
    params = {}
    pos = len(head) + 1
    for part in body.split(";"):
        if not part:
            pos += 1
            continue
        if "=" not in part:
            raise SpecParseError(f"expected key=value at position {pos} in {s!r}")
        k, v = part.split("=", 1)
        k = k.strip()
        if k in params:
            raise SpecParseError(f"repeated key {k!r} at position {pos} in {s!r}")
        params[k] = v.strip()
        pos += len(part) + 1
    return func_spec(head, **params)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass
class PairTables:
    """Value tables of a function with pair output (g, h), values in [0, q).

    ``key`` packs each pair into the one codomain index g*q + h, the
    encoding of reported b values, as a read-only int32 array; both domains
    have q^2 points.  ``args`` holds the spec's parameters as
    ``parse_params`` parsed them, which the predictors read.  ``engine`` is
    for ``ddt`` alone, which keeps there one record, as long as the tables
    live, of what it derives of them for its kernel, the function's row
    symmetry among it.
    """

    domain: str
    g: np.ndarray
    h: np.ndarray
    qctx: InitVar[QuadExtCtx]
    args: dict = None

    def __post_init__(self, qctx):
        self.key = _read_only(
            (self.g.astype(np.intp) * qctx.base.q + self.h).astype(np.int32))
        self.engine = {}


def parse_params(spec: FuncSpec, qctx: QuadExtCtx) -> dict:
    """Every parameter of ``spec`` parsed by its kind in ``FAMILIES``, into:

      int, gold_k   an int; gold_k, a Gold exponent index k >= 0
      base, ext     an element of F_q, of F_{q^2} (an int index is one of F_q)
      linpoly       its LinPoly over F_q: table, kernel size, permutation
      inner         its Inner over F_q: tag, table, permutation
      gammas        prodlin's [(i, gamma_i)] from "4:1,2:w^3"
      variant       the string, which the family's builder checks
      table         an int32 array of F_q indices, from func_spec only

    A missing parameter that is not optional is an InvalidParams error."""
    base, fam = qctx.base, spec.family
    given, args = dict(spec.params), {}
    for name, kind in FAMILIES[fam][1].items():
        if name not in given:
            if not kind.endswith("?"):
                raise InvalidParams(f"{fam} needs parameter {name}")
            continue
        v, kind = given[name], kind.rstrip("?")
        if kind in ("int", "gold_k"):
            v = _int(v, f"{fam} parameter {name}")
            if kind == "gold_k" and v < 0:
                raise InvalidParams(f"{fam} needs {name} >= 0, got {name}={v}")
        elif kind == "base" and isinstance(v, int):
            if not 0 <= v < base.q:
                raise InvalidParams(f"{name}={v} is not an element index of F_{base.q}")
        elif kind == "base":
            v = base.parse_elem(str(v))
        elif kind == "ext":
            v = qctx.ext.parse_elem(str(v), "W")
        elif kind == "linpoly":
            v = parse_linpoly(str(v), base)
        elif kind == "inner":
            v = parse_inner(str(v), base)
        elif kind == "gammas":
            terms, v = v, []
            for term in filter(None, terms.split(",")):
                i, sep, c = term.partition(":")
                if not sep:
                    raise SpecParseError(f"prodlin gamma term {term!r} is not i:gamma")
                v.append((_int(i, "prodlin exponent index"), base.parse_elem(c)))
        elif kind == "table":
            v = np.asarray(v, dtype=np.int32)
            if ((v < 0) | (v >= base.q)).any():
                raise InvalidParams(f"{name} has a value outside F_{base.q}, "
                                    f"whose indices are 0..{base.q - 1}")
        else:
            v = str(v)  # variant
        args[name] = v
    return args


def _trace_to_base(qctx, vals):
    """Tr^n_m of extension elements, mapped back to base-field indices."""
    out = qctx.unembed[qctx.ext.trace_rel_vec(qctx.base.m, vals)]
    assert (out >= 0).all()
    return out.astype(np.int32)


def build_tables(spec: FuncSpec, qctx: QuadExtCtx):
    """Materialize the value tables of a spec over the given contexts, with
    its parameters parsed (``parse_params``) and checked."""
    args = parse_params(spec, qctx)
    g, h = _values(spec.family, args, qctx)
    return PairTables(spec.domain, g, h, qctx, args)


def _values(fam, args, qctx: QuadExtCtx):
    """(g, h) of family ``fam`` with parameters ``args``, once they pass the
    family's validity checks."""
    base, ext = qctx.base, qctx.ext
    q = base.q

    if FAMILIES[fam][0] == BIV:
        X = np.repeat(np.arange(q, dtype=np.int32), q)
        Y = np.tile(np.arange(q, dtype=np.int32), q)

        if fam == "identity":
            return X, Y
        if fam == "genericbiv":
            g, h = args["gtable"], args["htable"]
            if len(g) != q * q or len(h) != q * q:
                raise InvalidParams("generic bivariate tables must have q^2 entries")
            return g, h
        if fam == "genlinh":
            g = args["L"].table[X]
            return g, base.add_vec(args["h"].table[Y], g)
        if fam == "genlingold":
            k, alpha = args["k"], args["alpha"]
            if not 0 < k < base.m:
                raise InvalidParams(f"genlingold needs 0 < k < m, got k={k}")
            g = args["L"].table[X]
            hy = base.gold_vec(np.arange(q, dtype=np.int32), k)
            if alpha:
                hy = base.add_vec(hy, base.mul_row(alpha))
            return g, base.add_vec(hy[Y], g)
        if fam == "sumprod":
            i, j, alpha = args["i"], args["j"], args["alpha"]
            if alpha == 0:
                raise InvalidParams("sumprod needs alpha != 0")
            if not (0 <= i < base.m and 0 <= j < base.m):
                raise InvalidParams("sumprod exponents must satisfy 0 <= i,j < m")
            h = base.add_vec(
                base.mul_vec(base.frobenius_vec(X, i), Y),
                base.mul_vec(np.int32(alpha),
                             base.mul_vec(X, base.frobenius_vec(Y, j))))
            return base.add_vec(X, Y), h
        if fam == "goldpair":
            gamma, L = args["gamma"], args["L"]
            if gamma == base.neg(1):
                raise InvalidParams("goldpair needs gamma != -1")
            if not L.permutes:
                raise InvalidParams("goldpair needs a linearized permutation L")
            pk = base.gold_vec(np.arange(q, dtype=np.int32), args["k"])
            g = base.add_vec(pk[X], base.mul_vec(np.int32(gamma), pk[Y]))
            return g, L.table[base.add_vec(X, Y)]
        if fam == "prodlin":
            L = args["L"]
            if not L.permutes:
                raise InvalidParams("prodlin needs a linearized permutation L")
            xy = base.mul_vec(X, Y)
            h = L.table[base.add_vec(X, Y)]
            for i, coeff in args.get("gammas", ()):
                if not 1 <= i <= base.m:
                    raise InvalidParams("prodlin exponent indices must be in 1..m")
                term = base.pow_vec(xy, base.p ** (i % base.m))
                h = base.add_vec(h, base.mul_vec(np.int32(coeff), term))
            return xy, h
        if fam == "splitgh":
            if args["gamma2"] == 0:
                raise InvalidParams("splitgh needs gamma2 != 0")
            gt, h1, h2 = (args[name].table for name in ("g", "h1", "h2"))
            L1, L2 = args["L1"].table, args["L2"].table
            h = base.add_vec(
                base.add_vec(base.mul_vec(h1[X], L1[Y]),
                             base.mul_vec(np.int32(args["gamma1"]), h2[X])),
                base.mul_vec(np.int32(args["gamma2"]), L2[Y]))
            return gt[X], h
        raise InvalidParams(f"unhandled bivariate family {fam!r}")

    Z = np.arange(ext.q, dtype=np.int32)
    tr = _trace_to_base(qctx, Z)
    if fam == "traceinv":
        gamma = args["gamma"]
        if qctx.unembed[gamma] >= 0:
            raise InvalidParams("traceinv needs gamma outside F_q")
        return tr, _trace_to_base(qctx, ext.mul_vec(np.int32(gamma), ext.inv_table))
    if fam == "tracext":
        variant = args["H"]
        if variant == "gold":
            for name in ("k", "gamma"):  # optional for H=norm only
                if name not in args:
                    raise InvalidParams(f"tracext needs parameter {name}")
            k, gamma = args["k"], args["gamma"]
            if ext.add(ext.frobenius(gamma, base.m), gamma) == 0:
                raise InvalidParams("tracext gold needs Tr(gamma) != 0")
            h = _trace_to_base(qctx, ext.mul_vec(np.int32(gamma), ext.gold_vec(Z, k)))
        elif variant == "norm":
            h = qctx.unembed[ext.pow_vec(Z, q + 1)].astype(np.int32)
        else:
            raise InvalidParams(f"tracext H must be gold or norm, got {variant!r}")
        return tr, h
    if fam == "normfirst":
        variant = args["H"]
        if not variant.startswith("tr"):
            raise InvalidParams(f"normfirst H must look like tr<e>, got {variant!r}")
        e = _int(variant[2:], "normfirst exponent")
        g = qctx.unembed[ext.pow_vec(Z, q + 1)].astype(np.int32)
        return g, _trace_to_base(qctx, ext.pow_vec(Z, e))
    raise InvalidParams(f"unhandled extension-domain family {fam!r}")


@lru_cache(maxsize=16)
def tables_for(spec: FuncSpec, qctx: QuadExtCtx):
    """The spec's value tables over qctx, kept for the process's 16 most
    recently used (spec, context) pairs."""
    return build_tables(spec, qctx)


# ---------------------------------------------------------------------------
# the univariate lift
# ---------------------------------------------------------------------------

def univariate_lift(spec: FuncSpec, qctx: QuadExtCtx) -> np.ndarray:
    """The correspondence z -> phi(F(phi^-1(z))) as a value table of F_{q^2}
    to itself, a read-only int32 array.

    phi(g, h) = g + beta*h is the identification under which the bivariate
    differential system is exactly c*(lifted F).
    """
    if spec.domain != BIV:
        raise DomainMismatch("univariate_lift needs a bivariate spec")
    key = tables_for(spec, qctx).key  # F(pt) as the pair point g*q + h
    return _read_only(qctx.phi_table[key[qctx.phi_inv_table]])
