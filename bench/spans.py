"""Spans around calls into cdu's public functions, kept in memory.

``Tracer.install`` rebinds the listed functions, in every cdu module that
imported them, to wrappers that record (name, start, end, parent);
``uninstall`` binds the originals again.  A span
opened in a worker thread with no span of its own takes the main thread's
innermost open span as parent, so the per-c spans of a threaded sweep hang
under ``ddt.sweep``.
"""

from __future__ import annotations

import functools
import inspect
import resource
import statistics
import sys
import threading
import time

TARGETS = {
    "gf": ("make_field",),
    "quadext": ("make_quadext",),
    "funcs": ("parse_func_spec", "tables_for"),
    "ddt": ("sweep", "pair_report", "uni_report"),
    "oracles": None,  # every public function
    "predict": ("predict", "verify"),
    "cli": ("main",),
}
PER_C = ("ddt.pair_report", "ddt.uni_report")


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, parent, start, end, attrs]
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._bindings = []  # (module, name, original, wrapper)

    def install(self, package):
        """Bind the wrappers (made on the first call) in every cdu module."""
        if not self._bindings:
            mods = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in TARGETS]
            for layer, names in TARGETS.items():
                mod = sys.modules[f"{package.__name__}.{layer}"]
                if names is None:
                    names = [n for n, v in vars(mod).items()
                             if inspect.isfunction(v) and v.__module__ == mod.__name__
                             and not n.startswith("_")]
                for n in names:
                    orig = getattr(mod, n)
                    wrapped = self._wrap(orig, f"{layer}.{n}")
                    self._bindings += [(m, k, orig, wrapped) for m in mods
                                       for k, v in vars(m).items() if v is orig]
        for m, k, _, wrapped in self._bindings:
            setattr(m, k, wrapped)

    def uninstall(self):
        """Bind the original functions again."""
        for m, k, orig, _ in self._bindings:
            setattr(m, k, orig)

    def _wrap(self, fn, name):
        per_c = name in PER_C

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            with self._lock:
                sid = len(self.spans)
                rec = [sid, name, parent, 0.0, 0.0, {}]
                self.spans.append(rec)
            if per_c:
                # args: (qctx, tables, c) or (field, table, c); rows are the a values
                n = len(args[1].g) if hasattr(args[1], "g") else len(args[1])
                rows = n - 1 if args[2].is_identity else n
                rec[5].update(rows=rows, points=rows * n, rss0_kb=_maxrss_kb())
            stack.append(sid)
            rec[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                if per_c:
                    rec[5]["rss1_kb"] = _maxrss_kb()

        return traced

    @staticmethod
    def span_cost(calls=20000, repeats=5):
        """Seconds a wrapper adds to one call: best of ``repeats`` timings."""
        def noop():
            pass

        best = {}
        for fn in (noop, Tracer()._wrap(noop, "noop")):
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                best[fn] = min(best.get(fn, 1e9), time.perf_counter() - t0)
        plain, wrapped = best.values()
        return (wrapped - plain) / calls

    def records(self, workload):
        return [dict(id=s, name=n, parent=p, start=t0, end=t1, workload=workload, **a)
                for s, n, p, t0, t1, a in self.spans]


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(records):
    """Span id -> duration minus the part its direct children cover."""
    kids = {}
    for r in records:
        if r["parent"] is not None:
            kids.setdefault(r["parent"], []).append(r)
    out = {}
    for r in records:
        inner = [(max(k["start"], r["start"]), min(k["end"], r["end"]))
                 for k in kids.get(r["id"], ())]
        out[r["id"]] = r["end"] - r["start"] - _union([iv for iv in inner if iv[1] > iv[0]])
    return out


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(records):
    """Per-layer metrics of one traced process, as name -> (value, unit)."""
    selft = self_times(records)

    def layer_self(layer):
        return sum(selft[r["id"]] for r in records if r["name"].split(".")[0] == layer)

    per_c = [r for r in records if r["name"] in PER_C]
    first = per_c[0] if per_c else None
    warm = [1e3 * (r["end"] - r["start"]) for r in per_c[1:]]
    ddt_busy = layer_self("ddt")
    pred = [1e3 * (r["end"] - r["start"]) for r in records if r["name"] == "predict.predict"]
    orc = [r for r in records if r["name"].startswith("oracles.")]
    return {
        "gf.make_field_ms": (1e3 * layer_self("gf"), "ms"),
        "quadext.make_quadext_ms": (1e3 * layer_self("quadext"), "ms"),
        "funcs.tables_ms": (1e3 * layer_self("funcs"), "ms"),
        "ddt.first_c_ms": (1e3 * (first["end"] - first["start"]) if first else 0.0, "ms"),
        "ddt.rss_growth_mb": ((first["rss1_kb"] - first["rss0_kb"]) / 1024 if first else 0.0,
                              "MB"),
        "ddt.c_ms_p50": (_pct(warm, 50), "ms"),
        "ddt.c_ms_p90": (_pct(warm, 90), "ms"),
        "ddt.busy_s": (ddt_busy, "s"),
        "ddt.rows": (sum(r["rows"] for r in per_c), "count"),
        "ddt.points_per_s": (sum(r["points"] for r in per_c) / ddt_busy if ddt_busy else 0.0,
                             "1/s"),
        "predict.c_ms_p50": (_pct(pred, 50), "ms"),
        "predict.busy_s": (layer_self("predict"), "s"),
        "oracles.calls": (len(orc), "count"),
        "oracles.busy_ms": (1e3 * layer_self("oracles"), "ms"),
        "cli.self_s": (layer_self("cli"), "s"),
    }
