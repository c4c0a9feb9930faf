"""One fresh process of a benchmark run: set-up, timed rounds, optional extras.

Reads its job as JSON on stdin and writes one JSON payload on stdout:

  src       the checkout's src directory, the only place cdu is imported from
  t_spawn   time.monotonic() just before the parent started this process
  setup     argv of the first CLI run: one spec at one c
  round     argvs of one round; rounds repeat until ``budget`` seconds have
            passed and at least ``min_rounds`` rounds are done
  trace     record spans around cdu's public functions during the set-up run
            and every odd round; even rounds run untraced, for the overhead
  speedup   also time ddt.sweep at 1 and 2 threads on the round's first run

Every CLI run goes through ``cdu.cli.main`` with stdout and stderr captured.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from workloads import argv_options


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a crash fails the run's reports; the process goes on
        rc = -1
        err.write(traceback.format_exc())
    return dict(rc=rc, dt=time.perf_counter() - t0, out=out.getvalue(),
                err=err.getvalue()[-2000:])


def sweep_speedup(argv, budget_s=2.0):
    """Median ddt.sweep time at 1 thread over that at 2, on argv's spec and c."""
    from cdu import ddt, make_field, make_quadext, parse_func_spec
    opts = argv_options(argv)
    base = make_field(int(opts["-p"]), int(opts["-m"]))
    qctx = make_quadext(base, base.parse_elem(opts["-t"]) if "-t" in opts else None)
    spec = parse_func_spec(opts["--spec"])
    cs = [ddt.CParam.biv(*(base.parse_elem(e) for e in pair.split(",")))
          for pair in opts["--c"].split(";")]
    times = {1: [], 2: []}
    t_end = time.monotonic() + budget_s
    while not times[1] or time.monotonic() < t_end:
        for threads in (1, 2):
            t0 = time.perf_counter()
            ddt.sweep(spec, qctx, cs, threads=threads)
            times[threads].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def main():
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import cdu
    from cdu import cli
    if not os.path.realpath(cdu.__file__).startswith(src + os.sep):
        sys.exit(f"cdu imported from {cdu.__file__}, not from {src}")
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(cdu)

    runs = [dict(run_cli(cli, job["setup"]), argv=job["setup"], round=None,
                 traced=tracer is not None)]
    setup_s = time.monotonic() - job["t_spawn"]
    t_start = time.monotonic()
    rounds = 0
    while rounds < job["min_rounds"] or time.monotonic() - t_start < job["budget"]:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(cdu)
        elif tracer is not None:
            tracer.uninstall()
        for argv in job["round"]:
            runs.append(dict(run_cli(cli, argv), argv=argv, round=rounds, traced=traced))
        rounds += 1
    if tracer is not None:
        tracer.uninstall()
    payload = dict(setup_s=setup_s, rounds=rounds, runs=runs,
                   peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if job["speedup"]:
        payload["speedup_2t"] = sweep_speedup(job["round"][0])
    if tracer is not None:
        payload["spans"] = tracer.records(job["workload"])
        payload["span_cost_s"] = tracer.span_cost()
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
