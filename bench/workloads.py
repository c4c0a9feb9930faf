"""The workloads, and the cdu command lines each makes from a seed.

A workload is a list of (command, construction spec) runs over one field.
The seed picks each run's c values, from every c but the identity (1, 0) or
from the line c2 = 0, and they are passed to cdu as explicit ``--c`` lists.
One round does every run once; a run of the benchmark repeats the same
round, and a traced run does ``trace_rounds`` of them.

BENCHMARK.json lists the steady workloads.  q16-verify is left out of it:
its throughput drifted by more than the largest allowed bound between runs
minutes apart (see bench/README.md), but it stays runnable by name.
"""

from __future__ import annotations

import random

ALL, LINE = "all", "line"

WORKLOADS = {
    # 256-point rows: the fixed cost per c (Python dispatch in ddt, predict
    # including the normfirst coset scan and the inverse oracle, cli
    # formatting) dominates; a faster histogram kernel barely moves it.
    "q16-verify": dict(
        p=2, m=4, t="w^3", threads=1, trace_rounds=8,
        runs=[("verify", "genlinh{L=x;h=inv}", ALL, 24),
              ("verify", "genlingold{L=x;k=2;alpha=0}", ALL, 24),
              ("verify", "genlingold{L=x;k=2;alpha=w^1}", ALL, 24),
              ("verify", "genlingold{L=x;k=2;alpha=1}", ALL, 24),
              ("verify", "sumprod{i=0;j=1;alpha=1}", ALL, 24),
              ("verify", "sumprod{i=0;j=3;alpha=1}", ALL, 24),
              ("verify", "sumprod{i=1;j=1;alpha=w^1}", ALL, 24),
              ("verify", "sumprod{i=3;j=3;alpha=w^1}", ALL, 24),
              ("verify", "prodlin{gammas=4:1,2:1;L=x}", LINE, 6),
              ("verify", "normfirst{H=tr5}", LINE, 6),
              ("verify", "traceinv{gamma=W^1}", ALL, 24)]),
    # odd characteristic takes the add-table gather path that p=2 skips,
    # and two threads show whether the engine still scales across c; the
    # verify run reaches predict and the inverse-function oracle
    "q27-sweep-2t": dict(
        p=3, m=3, t="w^2", threads=2, trace_rounds=6,
        runs=[("sweep", "sumprod{i=0;j=1;alpha=2}", ALL, 16),
              ("sweep", "sumprod{i=0;j=2;alpha=2}", ALL, 16),
              ("sweep", "sumprod{i=1;j=1;alpha=w^1}", ALL, 16),
              ("sweep", "sumprod{i=2;j=2;alpha=w^1}", ALL, 16),
              ("sweep", "genlingold{L=x;k=2;alpha=0}", ALL, 16),
              ("sweep", "genlingold{L=x;k=2;alpha=w^1}", ALL, 16),
              ("verify", "genlinh{L=x;h=inv}", ALL, 16)]),
    # 4096 rows of 4096 points per c: the histogram kernel (gather, key
    # packing, bincount) is nearly all of the time
    "q64-ddt": dict(
        p=2, m=6, t=None, threads=1, trace_rounds=3,
        runs=[("ddt", "goldpair{k=2;gamma=w^21;L=x}", LINE, 2),
              ("ddt", "traceinv{gamma=W^1}", ALL, 2)]),
    # the q^4-sized odd-p shift table and the F_6561 context build dominate
    # set-up time and peak memory
    "q81-memory": dict(
        p=3, m=4, t=None, threads=1, trace_rounds=2,
        runs=[("sweep", "genlingold{L=x;k=2;alpha=w^1}", ALL, 2)]),
}


def c_pool(q, kind):
    """Every c as ('c1', 'c2') strings in cdu notation, minus (1, 0)."""
    elems = ["0"] + [f"w^{k}" for k in range(q - 1)]
    if kind == LINE:
        return [(c1, "0") for c1 in elems if c1 != "w^0"]
    return [(c1, c2) for c1 in elems for c2 in elems if (c1, c2) != ("w^0", "0")]


def argv_options(argv):
    """The '-x value' / '--x value' pairs of a cdu argv."""
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("-")}


def argv_for(w, cmd, spec, cs):
    argv = [cmd, "-p", str(w["p"]), "-m", str(w["m"])]
    if w["t"]:
        argv += ["-t", w["t"]]
    return argv + ["--spec", spec, "--c", ";".join(f"{a},{b}" for a, b in cs),
                   "--threads", str(w["threads"])]


def plan(name, seed):
    """(set-up argv: the first run at its first c, argvs of one round)."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    q = w["p"] ** w["m"]
    round_ = [argv_for(w, cmd, spec, rng.sample(c_pool(q, kind), n))
              for cmd, spec, kind, n in w["runs"]]
    cmd, spec = w["runs"][0][:2]
    first = argv_options(round_[0])["--c"].split(";")[0]
    return argv_for(w, cmd, spec, [tuple(first.split(","))]), round_
