"""Independent checks of cdu CLI reports.

Each (spec, c) row of a ``verify``, ``sweep`` or ``ddt`` report passes only if

  (a) its uniformity meets the paper's closed form for that family and c:
      the exact value where the paper publishes one, else the paper's bound;
  (b) for ``ddt``, its spectrum holds every DDT entry once:
      sum(value * count) = n^2 and sum(count) = n * n_b, with the largest
      value equal to the uniformity;
  (c) for ``sweep`` and ``ddt``, re-counting the solutions of the bivariate
      c-differential system at the reported witness (c, a, b), over every
      domain point, gives the reported uniformity.

The arithmetic is ``gfref``, built from the modulus in the report header;
nothing here imports cdu.  A non-zero exit fails every row of the run.
"""

from __future__ import annotations

import csv
import io
from math import gcd

import numpy as np

from gfref import GF, Extension
from workloads import argv_options

# Exact (on the line c2 = 0, on the set A, elsewhere) values of
# (x+y, x^(p^i) y + alpha x y^(p^j)) published for q = 16 and q = 27,
# keyed by (q, t, i, j, alpha).
SUMPROD_PUBLISHED = {
    (16, "w^3", 0, 1, "1"): (3, 17, 4),
    (16, "w^3", 0, 3, "1"): (4, 17, 4),
    (16, "w^3", 1, 1, "w^1"): (3, 6, 6),
    (16, "w^3", 3, 3, "w^1"): (3, 6, 6),
    (27, "w^2", 0, 1, "2"): (4, 29, 6),
    (27, "w^2", 0, 2, "2"): (4, 29, 6),
    (27, "w^2", 1, 1, "w^1"): (4, 12, 12),
    (27, "w^2", 2, 2, "w^1"): (4, 12, 12),
}

EXT_FAMILIES = ("traceinv", "normfirst")


def parse_spec(s):
    """'family{k=v;...}' -> (family, {k: v})."""
    if "{" not in s:
        return s, {}
    head, body = s.rstrip("}").split("{", 1)
    return head, dict(part.split("=", 1) for part in body.split(";") if part)


def parse_output(text):
    """A report as (header dict, list of row dicts)."""
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("# ") and ": " in line and not body:
            k, v = line[2:].split(": ", 1)
            header[k] = v
        else:
            body.append(line)
    return header, list(csv.DictReader(io.StringIO("\n".join(body))))


def c_pairs(c_arg):
    return [tuple(pair.split(",")) for pair in c_arg.split(";") if pair]


def class_label(u):
    return {1: "PcN", 2: "APcN"}.get(u, f"(c,{u})")


class _Ctx:
    """Base field, t and lazily the extension of one report header."""

    def __init__(self, key, header):
        self.key = key
        self.F = GF(int(header["p"]), [int(c) for c in header["modulus"].split(",")])
        self.t_s = header["t"]
        self.t = self.F.parse(self.t_s)
        self.beta_s = header["beta"]
        q = self.F.q
        self.X = np.repeat(np.arange(q), q)
        self.Y = np.tile(np.arange(q), q)
        self._ext = None

    @property
    def ext(self):
        if self._ext is None:
            e = Extension(self.F)
            E = e.ext
            beta = E.parse(self.beta_s, "W")
            if int(E.add(E.add(E.mul(beta, beta), beta), e.embed[self.t])) != 0:
                raise ValueError("header beta is not a root of x^2 + x + t")
            self._ext = e
        return self._ext


class Checker:
    """Checks report rows; every derived table and value is cached per input."""

    def __init__(self):
        self._ctx = {}
        self._tables = {}
        self._expect = {}
        self._count = {}

    # -- one CLI run -------------------------------------------------------------

    def check_run(self, argv, rc, text):
        """One (ok, reason) per c that argv asks for, in order."""
        opts = argv_options(argv)
        wanted = c_pairs(opts["--c"])
        if rc != 0:
            return [(False, f"exit code {rc}")] * len(wanted)
        try:
            header, rows = parse_output(text)
            for key, opt in (("cmd", None), ("p", "-p"), ("m", "-m"),
                             ("spec", "--spec"), ("c", "--c"), ("t", "-t")):
                want = argv[0] if opt is None else opts.get(opt)
                if want is not None and header.get(key) != want:
                    raise ValueError(f"header {key}={header.get(key)!r}, ran {want!r}")
            ctx = self._context(header)
        except (ValueError, KeyError) as e:
            return [(False, f"bad report: {e}")] * len(wanted)
        spec = parse_spec(header["spec"])
        out = []
        for i, c in enumerate(wanted):
            if i >= len(rows):
                out.append((False, "row missing"))
                continue
            try:
                out.append(self.check_row(ctx, header["spec"], spec, argv[0], c, rows[i]))
            except (ValueError, KeyError, IndexError) as e:
                out.append((False, f"unreadable row: {e}"))
        if len(rows) > len(wanted):
            out = [(False, "extra rows")] * len(wanted)
        return out

    def _context(self, header):
        key = (header["p"], header["modulus"], header["t"], header["beta"])
        if key not in self._ctx:
            self._ctx[key] = _Ctx(key, header)
        return self._ctx[key]

    def check_row(self, ctx, spec_s, spec, cmd, c, row):
        if (row["c1"], row["c2"]) != c:
            return False, f"row c=({row['c1']},{row['c2']}), asked {c}"
        F = ctx.F
        c1, c2 = F.parse(c[0]), F.parse(c[1])
        u = int(row["observed" if cmd == "verify" else "uniformity"])
        ekey = (ctx.key, spec_s, c1, c2)
        if ekey not in self._expect:
            self._expect[ekey] = self.expected(ctx, spec, c1, c2)
        exp = self._expect[ekey]
        if exp is not None:
            kind, v = exp
            if (kind == "exact" and u != v) or (kind == "upper" and u > v):
                return False, f"uniformity {u}, paper gives {kind} {v}"
        if cmd == "verify":
            if row["verdict"] == "VIOLATION":
                return False, "verdict VIOLATION"
            return True, ""
        if row["class"] != class_label(u):
            return False, f"class {row['class']} for uniformity {u}"
        n = F.q ** 2
        if cmd == "ddt":
            spectrum = {}
            for item in row["spectrum"].split():
                v, k = item.split(":")
                spectrum[int(v)] = int(k)
            if sum(v * k for v, k in spectrum.items()) != n * n:
                return False, "spectrum mass differs from n^2"
            if sum(spectrum.values()) != n * n:
                return False, "spectrum entry count differs from n * n_b"
            if max(v for v, k in spectrum.items() if k) != u:
                return False, "largest spectrum value is not the uniformity"
        a, b = self._witness(ctx, spec, row["witness_a"], row["witness_b"])
        ckey = (ctx.key, spec_s, c1, c2, a, b)
        if ckey not in self._count:
            self._count[ckey] = self.recount(ctx, spec_s, spec, c1, c2, a, b)
        got = self._count[ckey]
        if got != u:
            return False, f"witness solves {got} points, reported {u}"
        return True, ""

    # -- witnesses and the differential system -----------------------------------

    @staticmethod
    def _pair(F, s):
        x, y = s.strip("()").split(",")
        return F.parse(x), F.parse(y)

    def _witness(self, ctx, spec, a_s, b_s):
        F = ctx.F
        b = self._pair(F, b_s)
        if spec[0] in EXT_FAMILIES:
            return ctx.ext.ext.parse(a_s, "W"), b
        return self._pair(F, a_s), b

    def recount(self, ctx, spec_s, spec, c1, c2, a, b):
        """Points P with G(P+a) - c1 G(P) + t c2 H(P) = b1 and
        H(P+a) - (c1-c2) H(P) - c2 G(P) = b2."""
        F = ctx.F
        G, H = self.tables(ctx, spec_s, spec)
        if spec[0] in EXT_FAMILIES:
            E = ctx.ext.ext
            s = E.add(np.arange(E.q), a)
        else:
            s = F.add(ctx.X, a[0]) * F.q + F.add(ctx.Y, a[1])
        d1 = F.add(F.sub(G[s], F.mul(c1, G)), F.mul(F.mul(ctx.t, c2), H))
        d2 = F.sub(F.sub(H[s], F.mul(F.sub(c1, c2), H)), F.mul(c2, G))
        return int(np.count_nonzero((d1 == b[0]) & (d2 == b[1])))

    def tables(self, ctx, spec_s, spec):
        key = (ctx.key, spec_s)
        if key not in self._tables:
            self._tables[key] = self._build(ctx, *spec)
        return self._tables[key]

    @staticmethod
    def _lin(F, s, x):
        """A linearized polynomial 'x', 'x^E', 'el*x^E', joined by '+'."""
        acc = np.zeros_like(x)
        for term in s.split("+"):
            coef = 1
            if "*" in term:
                cs, term = term.split("*")
                coef = F.parse(cs)
            e = 1 if term.strip() == "x" else int(term.strip()[2:])
            acc = F.add(acc, F.mul(coef, F.pow(x, e)))
        return acc

    def _build(self, ctx, fam, par):
        """(G, H) over the domain, from the construction's formula."""
        F, X, Y = ctx.F, ctx.X, ctx.Y
        p = F.p
        el = F.parse
        if fam == "genlinh":
            if par["h"] != "inv":
                raise ValueError(f"checker has no h={par['h']}")
            g = self._lin(F, par["L"], X)
            return g, F.add(F.inv0(Y), g)
        if fam == "genlingold":
            g = self._lin(F, par["L"], X)
            h = F.add(F.pow(Y, p ** int(par["k"]) + 1), F.mul(el(par["alpha"]), Y))
            return g, F.add(h, g)
        if fam == "sumprod":
            i, j = int(par["i"]), int(par["j"])
            h = F.add(F.mul(F.pow(X, p ** i), Y),
                      F.mul(el(par["alpha"]), F.mul(X, F.pow(Y, p ** j))))
            return F.add(X, Y), h
        if fam == "goldpair":
            e = p ** int(par["k"]) + 1
            g = F.add(F.pow(X, e), F.mul(el(par["gamma"]), F.pow(Y, e)))
            return g, self._lin(F, par["L"], F.add(X, Y))
        if fam == "prodlin":
            xy = F.mul(X, Y)
            h = self._lin(F, par["L"], F.add(X, Y))
            for term in par["gammas"].split(","):
                i, coef = term.split(":")
                h = F.add(h, F.mul(el(coef), F.pow(xy, p ** int(i))))
            return xy, h
        e = ctx.ext
        E = e.ext
        Z = np.arange(E.q)
        if fam == "traceinv":
            gamma = E.parse(par["gamma"], "W")
            return e.trace(Z), e.trace(E.mul(gamma, E.inv0(Z)))
        if fam == "normfirst" and par["H"].startswith("tr"):
            return e.norm(Z), e.trace(E.pow(Z, int(par["H"][2:])))
        raise ValueError(f"checker has no construction {fam}")

    # -- the paper's closed forms -----------------------------------------------

    def expected(self, ctx, spec, c1, c2):
        """('exact', v), ('upper', v) or None where the paper says nothing."""
        fam, par = spec
        F, t = ctx.F, ctx.t
        p, m, q = F.p, F.m, F.q

        def add(u, v):
            return int(F.add(u, v))

        def sub(u, v):
            return int(F.sub(u, v))

        def mul(u, v):
            return int(F.mul(u, v))

        def div(u, v):
            return int(F.mul(u, F.inv0(v)))

        def tr(u):
            return int(F.trace(u))

        one_c1 = sub(1, c1)
        B = add(one_c1, mul(t, c2))
        if fam == "genlinh" and par.get("h") == "inv" and par.get("L") == "x":
            # PcN when A or B vanishes, else the inverse function's
            # c-uniformity at A/B (Corollary 1 for even q; for odd q the
            # corrected sign of A, with Ellingsen et al.'s inverse classes)
            A = add(mul(sub(c1, c2), B), mul(t, mul(c2, one_c1)))
            if A == 0 or B == 0:
                return "exact", 1
            r = div(A, B)
            if p == 2:
                return "exact", 2 if tr(r) == 1 and tr(div(1, r)) == 1 else 3
            four = 4 % p
            if four != 1 and r in (four, div(1, four)):
                return "exact", 2
            nonsq = [u != 0 and not F.is_square(u)
                     for u in (sub(mul(r, r), mul(four, r)), sub(1, mul(four, r)))]
            return "exact", 2 if all(nonsq) else 3
        if fam == "genlingold" and par.get("L") == "x":
            k = int(par["k"])
            alpha = F.parse(par["alpha"])
            A1 = add(add(mul(t, mul(c2, c2)), mul(one_c1, c2)), mul(one_c1, one_c1))
            ratio = div(B, A1)
            if m == 2 * k:
                return "exact", 2 if alpha and F.in_subfield(ratio, k) else p ** k + 1
            d = gcd(m, k)
            if alpha == 0 and F.in_subfield(ratio, d):
                return "exact", gcd(p ** k + 1, q - 1)
            return "exact", p ** d + 1
        if fam == "sumprod":
            key = (q, ctx.t_s, int(par["i"]), int(par["j"]), par["alpha"])
            if key not in SUMPROD_PUBLISHED:
                return None
            line, on_a, other = SUMPROD_PUBLISHED[key]
            if c2 == 0:
                return "exact", line
            tc2 = mul(t, c2)
            in_a = (tr(div(one_c1, tc2)) == 0
                    and tr(sub(div(mul(add(one_c1, c2), sub(0, one_c1)), tc2), c2)) == 0)
            return "exact", on_a if in_a else other
        if fam == "goldpair" and c2 == 0 and par.get("L") == "x":
            k = int(par["k"])
            d = gcd(m, k)
            if F.in_subfield(c1, d) and F.in_subfield(F.parse(par["gamma"]), d):
                return "exact", gcd(p ** k + 1, q - 1)
            return "exact", p ** d + 1
        if fam == "prodlin" and c2 == 0 and par.get("L") == "x":
            d = m
            for term in par["gammas"].split(","):
                d = gcd(d, int(term.split(":")[0]))
            return ("exact", 2) if F.in_subfield(c1, d) else None
        if fam == "traceinv":
            if c1 == 0 and c2 == 0:
                return "exact", 2
            named = (c1 == 1 or c2 == 0
                     or mul(one_c1, sub(c1, c2)) == mul(t, mul(c2, c2)))
            return "upper", 4 if named else 6
        if (fam == "normfirst" and (q, ctx.t_s) == (16, "w^3") and par.get("H") == "tr5"
                and c2 == 0):
            return "exact", 2 if F.in_subfield(c1, 2) else 6
        return None
