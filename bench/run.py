"""cdu benchmark: run one workload (or all) and print its metrics as JSON.

    python3 bench/run.py --workload q16-verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each run starts fresh child processes (bench/child.py) that import cdu from
this checkout's src/ and drive ``cdu.cli.main`` with seeded, explicit
``--c`` lists.  Every report is checked by bench/check.py.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics; with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones
(spans go to .bench_out/).  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Checker  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

SETUPS = 5  # fresh processes per untraced run; setup_s is their median
RUN_LIMIT_S = 170  # a run still going after this fails
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def spawn(job, deadline):
    """Run bench/child.py on ``job`` in a fresh process; its payload."""
    env = dict(os.environ, **ONE_THREAD)
    env.pop("PYTHONPATH", None)
    job = dict(job, src=str(ROOT / "src"), t_spawn=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['workload']}: child process ran past the run limit")
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']}: child process failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def check_runs(checker, payload, tally):
    """Check every report. Only round reports count in attempted and failed,
    so the failed share does not depend on how many rounds a run made; a
    failing set-up report makes the run incorrect."""
    for run in payload["runs"]:
        for ok, why in checker.check_run(run["argv"], run["rc"], run["out"]):
            key = "setup_failed" if run["round"] is None else "failed"
            tally["attempted"] += run["round"] is not None
            if not ok:
                tally[key] += 1
                if tally["failed"] + tally["setup_failed"] <= 5:
                    spec = run["argv"][run["argv"].index("--spec") + 1]
                    print(f"FAILED {spec}: {why} {run['err'].strip()[-300:]}", file=sys.stderr)


def rounds(payloads, traced=None):
    """(reports, seconds) of every timed round; only (un)traced ones if asked."""
    out = {}
    for i, p in enumerate(payloads):
        for run in p["runs"]:
            if run["round"] is not None and traced in (None, run["traced"]):
                n, t = out.get((i, run["round"]), (0, 0.0))
                reports = len(run["argv"][run["argv"].index("--c") + 1].split(";"))
                out[i, run["round"]] = (n + reports, t + run["dt"])
    return list(out.values())


def run_workload(name, seed, seconds, trace):
    setup, round_ = plan(name, seed)
    job = dict(workload=name, setup=setup, round=round_, trace=trace, speedup=trace,
               budget=0.0, min_rounds=1)
    deadline = time.monotonic() + RUN_LIMIT_S
    checker = Checker()
    tally = dict(attempted=0, failed=0, setup_failed=0)
    if not trace:
        payloads = []
        for i in range(SETUPS):
            used = sum(t for _, t in rounds(payloads))
            payloads.append(spawn(dict(job, budget=(i + 1) * seconds / SETUPS - used),
                                  deadline))
            check_runs(checker, payloads[-1], tally)
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in payloads), "s"),
            # a median over rounds, so that rounds slowed by other load on the
            # host do not move it
            "c_per_s": (statistics.median(n / t for n, t in rounds(payloads)), "1/s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in payloads) / 1024, "MB"),
        }
    else:
        # a fixed number of traced rounds, so that counts repeat exactly,
        # each after an untraced one
        p = spawn(dict(job, min_rounds=2 * WORKLOADS[name]["trace_rounds"]), deadline)
        check_runs(checker, p, tally)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{name}-seed{seed}.json", "w") as f:
            json.dump(p["spans"], f)
        metrics = layer_metrics(p["spans"])
        metrics["ddt.speedup_2t"] = (p["speedup_2t"], "x")
        on, off = (statistics.median(t for _, t in rounds([p], traced)) for traced in (True, False))
        metrics["trace.overhead_pct"] = (100 * (on / off - 1), "%")
        traced_s = sum(run["dt"] for run in p["runs"] if run["traced"])
        metrics["trace.est_overhead_pct"] = (
            100 * p["span_cost_s"] * len(p["spans"]) / traced_s, "%")
    return dict(correct=tally["failed"] + tally["setup_failed"] == 0,
                attempted=tally["attempted"],
                failed=tally["failed"],
                metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "cdu" / "__init__.py").is_file():
        print(f"error: no cdu package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, res in results.items():
        for k, m in res["metrics"].items():
            print(f"{name}  {k} = {m['value']:.6g} {m['unit']}")
        print(f"{name}  attempted {res['attempted']}, failed {res['failed']}")
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(dict(
            correct=all(r["correct"] for r in results.values()),
            attempted=sum(r["attempted"] for r in results.values()),
            failed=sum(r["failed"] for r in results.values()),
            metrics={f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
