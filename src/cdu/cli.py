"""Batch front-end: build contexts, parse specs, run sweeps and verifications.

Every emitted report starts with a header that fully records the run
configuration (field, modulus, t, beta, spec string, c selector, seed,
threads), so any output file can be reproduced from its own header.
Exit codes: 0 ok, 1 usage or construction error, 2 prediction VIOLATION.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from .gf import CduError, make_field, parse_count, parse_modulus
from .quadext import make_quadext, select_t, t_condition_holds
from .funcs import parse_func_spec
from . import ddt, predict
from .oracles import (bluher_root_count, bluher_special_b_count,
                      bluher_special_b_formula, inverse_c_uniformity_predict,
                      quadratic_root_count, quartic_factor_type)


def _count(option):
    """The argparse type of an integer option: ``parse_count``, naming it."""
    return functools.partial(parse_count, what=option)


def _add_field_args(sub):
    sub.add_argument("-p", type=_count("-p"), required=True, help="prime characteristic")
    sub.add_argument("-m", type=_count("-m"), required=True, help="extension degree")
    sub.add_argument("--modulus", help="comma-separated coefficients, constant first")


def _add_run_args(sub):
    _add_field_args(sub)
    sub.add_argument("-t", help="t parameter (w^k notation); default: first valid")
    sub.add_argument("--spec", required=True, help="construction string")
    sub.add_argument("--c", default="all",
                     help="all | cq0 | sample:N | explicit list 'c1,c2;c1,c2'")
    sub.add_argument("--format", default="csv", choices=("csv", "json", "pretty"))
    sub.add_argument("--threads", type=_count("--threads"), default=1)
    sub.add_argument("--seed", type=_count("--seed"), default=0)
    sub.add_argument("-o", dest="outfile", help="output file (default stdout)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are CduErrors: one ``error:`` line."""

    def error(self, message):
        raise CduError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it as it
    was, so every ``main`` call shares it."""
    ap = _Parser(
        prog="cdu",
        description="c-differential uniformity of bivariate finite-field functions")
    sp = ap.add_subparsers(dest="cmd", required=True)

    f = sp.add_parser("field", help="field summary: modulus, primitive, t candidates")
    _add_field_args(f)

    for name, hlp in (("ddt", "per-c reports with spectra"),
                      ("sweep", "uniformity table over a c set"),
                      ("verify", "predictions vs brute force; exit 2 on violation")):
        s = sp.add_parser(name, help=hlp)
        _add_run_args(s)

    o = sp.add_parser("oracle", help="ad-hoc root-counting queries")
    o.add_argument("which", choices=("quad", "quartic", "bluher", "bluhercount",
                                     "invpred"))
    _add_field_args(o)
    o.add_argument("--a")
    o.add_argument("--b")
    o.add_argument("--a2")
    o.add_argument("--a1")
    o.add_argument("--a0")
    o.add_argument("--k", type=_count("--k"))
    o.add_argument("--c")
    return ap


def _make_field(args):
    modulus = None if args.modulus is None else parse_modulus(args.modulus)
    return make_field(args.p, args.m, modulus)


def _make_contexts(args):
    base = _make_field(args)
    t = None if getattr(args, "t", None) is None else base.parse_elem(args.t)
    qctx = make_quadext(base, t)
    return base, qctx


def _parse_cset(args, base):
    sel = args.c
    q = base.q
    if sel == "all":
        return ddt.c_all_biv(q)
    if sel == "cq0":
        return ddt.c_line_biv(q)
    if sel.startswith("sample:"):
        n = parse_count(sel.split(":", 1)[1], "the N of --c sample:N")
        return ddt.c_sample_biv(q, n, args.seed)
    out = []
    for pair in sel.split(";"):
        if not pair:
            continue
        if pair.count(",") != 1:
            raise CduError(f"--c expects pairs c1,c2 separated by ';', got {pair!r}")
        c1s, c2s = pair.split(",")
        out.append(ddt.CParam.biv(base.parse_elem(c1s), base.parse_elem(c2s)))
    return out


def _config_lines(args, base, qctx):
    cfg = [("cmd", args.cmd), ("p", base.p), ("m", base.m),
           ("modulus", base.modulus_str()),
           ("t", base.elem_str(qctx.t)),
           ("beta", qctx.ext.elem_str(qctx.beta, "W")),
           ("spec", args.spec), ("c", args.c), ("format", args.format),
           ("threads", args.threads), ("seed", args.seed)]
    return cfg


def argv_from_header(text):
    """Rebuild the argv of a run from the header of its own output."""
    kv = {}
    for line in text.splitlines():
        if line.startswith("# ") and ": " in line:
            k, v = line[2:].split(": ", 1)
            kv[k] = v
        elif not line.startswith("#"):
            break
    argv = [kv["cmd"], "-p", kv["p"], "-m", kv["m"], "--modulus", kv["modulus"],
            "-t", kv["t"], "--spec", kv["spec"], "--c", kv["c"],
            "--format", kv["format"], "--threads", kv["threads"],
            "--seed", kv["seed"]]
    return argv


def _fmt_witness(qctx, spec, rep):
    a_idx, b_idx = rep.witness
    base = qctx.base
    q = base.q
    b_str = f"({base.elem_str(b_idx // q)},{base.elem_str(b_idx % q)})"
    if spec.domain == "ext":
        return qctx.ext.elem_str(a_idx, "W"), b_str
    a_str = f"({base.elem_str(a_idx // q)},{base.elem_str(a_idx % q)})"
    return a_str, b_str


def _c_cols(qctx, c):
    return qctx.base.elem_str(c.c1), qctx.base.elem_str(c.c2)


def _emit(out, args, header, columns, rows):
    """Write the header and the rows, one cell per column; a spectrum cell
    is a {str(v): n} dict in value order, written "v:n v:n" outside JSON."""
    if args.format == "json":
        doc = {"config": dict(header), "columns": columns,
               "rows": [dict(zip(columns, r)) for r in rows]}
        out.write(json.dumps(doc, indent=1, sort_keys=True))
        out.write("\n")
        return
    rows = [[" ".join(f"{v}:{n}" for v, n in x.items()) if isinstance(x, dict)
             else x for x in r] for r in rows]
    for k, v in header:
        out.write(f"# {k}: {v}\n")
    if args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)
        return
    widths = [max(len(str(r[i])) for r in rows + [columns]) for i in range(len(columns))]
    out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def cmd_field(args, out):
    base = _make_field(args)
    out.write(f"field: p={base.p} m={base.m} q={base.q}\n")
    out.write(f"modulus: {base.modulus_str()}\n")
    out.write(f"primitive: index {base.primitive} (= w)\n")
    cands = [x for x in range(1, base.q) if t_condition_holds(base, x)]
    shown = " ".join(base.elem_str(x) for x in cands[:8])
    more = "" if len(cands) <= 8 else f" (+{len(cands) - 8} more)"
    out.write(f"t default: {base.elem_str(select_t(base))}\n")
    out.write(f"t candidates: {shown}{more}\n")
    return 0


def cmd_ddt_or_sweep(args, out, with_spectrum):
    base, qctx = _make_contexts(args)
    spec = parse_func_spec(args.spec)
    cs = _parse_cset(args, base)
    reports = ddt.sweep(spec, qctx, cs, threads=args.threads)
    header = _config_lines(args, base, qctx)
    columns = ["c1", "c2", "uniformity", "class", "witness_a", "witness_b"]
    if with_spectrum:
        columns.append("spectrum")
    rows = []
    for rep in reports:
        row = [*_c_cols(qctx, rep.c), rep.uniformity, rep.classification,
               *_fmt_witness(qctx, spec, rep)]
        if with_spectrum:
            row.append({str(v): n for v, n in rep.spectrum.items()})
        rows.append(row)
    _emit(out, args, header, columns, rows)
    return 0


def cmd_verify(args, out):
    base, qctx = _make_contexts(args)
    spec = parse_func_spec(args.spec)
    cs = _parse_cset(args, base)
    result = predict.verify(spec, qctx, cs, threads=args.threads)
    header = _config_lines(args, base, qctx)
    columns = ["c1", "c2", "predicted", "observed", "verdict"]
    rows = [[*_c_cols(qctx, r.c), r.prediction.describe(), r.observed, r.verdict]
            for r in result.rows]
    _emit(out, args, header, columns, rows)
    if not result.ok:
        for r in result.rows:
            if r.verdict == "VIOLATION":
                c1s, c2s = _c_cols(qctx, r.c)
                wa, wb = _fmt_witness(qctx, spec, r)
                sys.stderr.write(
                    f"VIOLATION at c=({c1s},{c2s}): predicted "
                    f"{r.prediction.describe()}, observed {r.observed}, "
                    f"witness ({wa}, {wb}), trace {r.prediction.trace}\n")
        return 2
    return 0


_ORACLE_ARGS = {"quad": ("a", "b"), "quartic": ("a2", "a1", "a0"),
                "bluher": ("k", "a", "b"), "bluhercount": ("k",),
                "invpred": ("c",)}


def cmd_oracle(args, out):
    missing = [f"--{n}" for n in _ORACLE_ARGS[args.which]
               if getattr(args, n) is None]
    if missing:
        raise CduError(f"oracle {args.which} needs {' '.join(missing)}")
    ctx = _make_field(args)
    el = ctx.parse_elem
    if args.which == "quad":
        n = quadratic_root_count(ctx, el(args.a), el(args.b))
        out.write(f"roots of x^2 + ({args.a})x + ({args.b}): {n}\n")
    elif args.which == "quartic":
        t = quartic_factor_type(ctx, el(args.a2), el(args.a1), el(args.a0))
        out.write(f"factor type: {t.pattern}\n")
    elif args.which == "bluher":
        r = bluher_root_count(ctx, args.k, el(args.a), el(args.b))
        out.write(f"roots of x^(p^{args.k}+1) + ({args.a})x + ({args.b}): "
                  f"{r.root_count} (allowed: 0, 1, 2, {ctx.p ** r.d + 1})\n")
    elif args.which == "bluhercount":
        scan = bluher_special_b_count(ctx, args.k)
        form = bluher_special_b_formula(ctx, args.k)
        out.write(f"b with p^d+1 roots: scan={scan} formula={form}\n")
    else:
        u = inverse_c_uniformity_predict(ctx, el(args.c))
        out.write(f"inverse-function c-uniformity at c={args.c}: {u}\n")
    return 0


def main(argv=None):
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:  # --help; the parser's errors raise CduError
            return 1 if e.code else 0
        if getattr(args, "threads", 1) < 1:
            raise CduError("--threads must be >= 1")
        # the output is written only once the run is done, so a run that
        # fails (a bad spec, field or c set) leaves what -o's file held
        buf = io.StringIO()
        code = _run(args, buf)
        _write(getattr(args, "outfile", None), buf.getvalue())
        return code
    except CduError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def _write(path, text):
    """Write a run's output to the file at ``path``, or to stdout."""
    if not path:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader stopped early, as ``| head`` does
            # what stdout still holds goes to devnull: the flush at exit is quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:  # a write may fail as late as the close, with the last flush
        with open(path, "w") as out:
            out.write(text)
    except OSError as e:
        raise CduError(f"cannot write {path}: {e.strerror}") from e


def _run(args, out):
    if args.cmd == "field":
        return cmd_field(args, out)
    if args.cmd == "ddt":
        return cmd_ddt_or_sweep(args, out, with_spectrum=True)
    if args.cmd == "sweep":
        return cmd_ddt_or_sweep(args, out, with_spectrum=False)
    if args.cmd == "verify":
        return cmd_verify(args, out)
    return cmd_oracle(args, out)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
