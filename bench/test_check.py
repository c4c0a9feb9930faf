"""Tests of the benchmark's report checker and span arithmetic.

    python3 -m pytest bench/test_check.py -q

Reports come from running cdu on small fields; each test alters one field of
one row and expects exactly that row to fail.
"""

import contextlib
import csv
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cdu import cli  # noqa: E402

from check import Checker, parse_output  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

Q16 = ["-p", "2", "-m", "4", "-t", "w^3"]
Q27 = ["-p", "3", "-m", "3", "-t", "w^2"]
RUNS = {
    "ddt-biv": ["ddt", *Q16, "--spec", "genlinh{L=x;h=inv}", "--c", "w^1,w^2;0,w^3;w^5,0"],
    "ddt-ext": ["ddt", *Q16, "--spec", "traceinv{gamma=W^1}", "--c", "w^1,w^2;0,0;w^5,w^7"],
    "sweep-odd": ["sweep", *Q27, "--spec", "sumprod{i=0;j=1;alpha=2}",
                  "--c", "w^1,w^2;0,w^3;w^5,0", "--threads", "2"],
    "verify": ["verify", *Q16, "--spec", "normfirst{H=tr5}", "--c", "w^5,0;w^1,0;0,0"],
}


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def reports():
    return {k: run(argv) for k, argv in RUNS.items()}


def rewrite(text, row, **changes):
    """The report with the given columns of one row replaced."""
    header, rows = parse_output(text)
    rows[row].update(changes)
    out = io.StringIO()
    out.writelines(f"# {k}: {v}\n" for k, v in header.items())
    w = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return out.getvalue()


def oks(argv, rc, text):
    return [ok for ok, _ in Checker().check_run(argv, rc, text)]


@pytest.mark.parametrize("name", RUNS)
def test_unaltered_reports_pass(reports, name):
    rc, text = reports[name]
    assert rc == 0
    assert oks(RUNS[name], rc, text) == [True, True, True]


@pytest.mark.parametrize("name", RUNS)
def test_uniformity_off_by_one_fails(reports, name):
    rc, text = reports[name]
    col = "observed" if name == "verify" else "uniformity"
    for delta in (1, -1):
        u = int(parse_output(text)[1][1][col])
        bad = rewrite(text, 1, **{col: str(u + delta)})
        assert oks(RUNS[name], rc, bad) == [True, False, True]


def _next_elem(s):
    return "w^0" if s == "0" else f"w^{int(s[2:]) + 1}"


@pytest.mark.parametrize("name", ["ddt-biv", "ddt-ext", "sweep-odd"])
def test_moved_witness_b_fails(reports, name):
    rc, text = reports[name]
    b1, b2 = parse_output(text)[1][0]["witness_b"].strip("()").split(",")
    for moved in (f"({_next_elem(b1)},{b2})", f"({b1},{_next_elem(b2)})"):
        bad = rewrite(text, 0, witness_b=moved)
        assert oks(RUNS[name], rc, bad) == [False, True, True], moved


@pytest.mark.parametrize("name", ["ddt-biv", "ddt-ext"])
def test_spectrum_missing_entry_fails(reports, name):
    rc, text = reports[name]
    entries = parse_output(text)[1][2]["spectrum"].split()
    assert len(entries) > 1
    for i in range(len(entries)):
        bad = rewrite(text, 2, spectrum=" ".join(entries[:i] + entries[i + 1:]))
        assert oks(RUNS[name], rc, bad) == [True, True, False], entries[i]


def test_nonzero_exit_fails_every_row(reports):
    rc, text = reports["verify"]
    assert oks(RUNS["verify"], 2, text) == [False, False, False]


def test_missing_row_fails(reports):
    rc, text = reports["ddt-biv"]
    assert oks(RUNS["ddt-biv"], rc, text.rstrip("\n").rsplit("\n", 1)[0]) == [True, True, False]


def test_plans_follow_the_seed():
    for name in WORKLOADS:
        assert plan(name, 3) == plan(name, 3)
        assert plan(name, 3) != plan(name, 4)


def test_self_time_subtracts_the_union_of_children():
    spans = [dict(id=0, parent=None, start=0.0, end=10.0),
             dict(id=1, parent=0, start=1.0, end=4.0),
             dict(id=2, parent=0, start=3.0, end=6.0),  # overlaps 1, as in a threaded sweep
             dict(id=3, parent=2, start=3.5, end=4.5)]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0}
