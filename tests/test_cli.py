import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cdu import ddt, funcs, predict
from cdu.cli import argv_from_header, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_field_summary(capsys):
    code, out, _ = run_cli(capsys, "field", "-p", "2", "-m", "4")
    assert code == 0
    assert "modulus: 1,1,0,0,1" in out
    assert "t default: w^3" in out


def test_field_composite_characteristic(capsys):
    code, _, err = run_cli(capsys, "field", "-p", "4", "-m", "1")
    assert code == 1
    assert "not prime" in err


def test_field_27(capsys):
    code, out, _ = run_cli(capsys, "field", "-p", "3", "-m", "3")
    assert code == 0
    assert "q=27" in out


def test_ddt_identity_c00(capsys):
    code, out, _ = run_cli(capsys, "ddt", "-p", "2", "-m", "2",
                           "--spec", "identity", "--c", "0,0")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert rows[0]["uniformity"] == "1"
    assert rows[0]["class"] == "PcN"


def test_verify_corollary1_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "-p", "2", "-m", "4", "-t", "w^3",
                           "--spec", "genlinh{L=x;h=inv}", "--c", "all")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert len(rows) == 255
    assert all(r["verdict"] == "MATCH" for r in rows)


def test_violation_line_formats_witness(capsys, monkeypatch):
    """The stderr VIOLATION line gives its witness in field notation, as
    the sweep's witness columns do, not as raw indices.  A bound of 1 is
    forced on a spec whose c = (0, w^1) gives 6."""
    argv = ["-p", "2", "-m", "3", "--spec", "tracext{H=gold;k=2;gamma=W^1}",
            "--c", "0,w^1"]
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == 0
    (row,) = csv.DictReader(l for l in out.splitlines() if not l.startswith("#"))
    monkeypatch.setitem(predict._FAMILY_PREDICTORS, "tracext",
                        lambda *_: predict._upper(1))
    code, _, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert err == (f"VIOLATION at c=(0,w^1): predicted <=1, observed 6, "
                   f"witness ({row['witness_a']}, {row['witness_b']}), "
                   f"trace {{}}\n")


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1)])
def test_verify_inverse_over_smallest_fields(capsys, p, m):
    """Over F_2, F_4 and F_3 the inner inverse is additive, so every c
    gives 1."""
    code, out, _ = run_cli(capsys, "verify", "-p", str(p), "-m", str(m),
                           "--spec", "genlinh{L=x;h=inv}", "--c", "all")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert len(rows) == p ** (2 * m) - 1
    assert all(r["verdict"] == "MATCH" for r in rows)


def test_sweep_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "sweep", "-p", "2", "-m", "3", "-t", "1",
                           "--spec", "genlinh{L=x^2+x;h=inv}", "--c", "cq0")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert len(rows) == 7
    assert set(rows[0]) == {"c1", "c2", "uniformity", "class",
                            "witness_a", "witness_b"}
    assert all(r["uniformity"] in ("2", "6") for r in rows)


def test_header_round_trip(capsys):
    argv = ["sweep", "-p", "2", "-m", "3", "-t", "1",
            "--spec", "genlinh{L=x;h=inv}", "--c", "sample:9", "--seed", "5"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    rebuilt = argv_from_header(out1)
    code, out2, _ = run_cli(capsys, *rebuilt)
    assert code == 0
    assert out1 == out2


def _run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


_ELEMS = st.sampled_from(["0", "1", "w^1", "w^2", "w^5"])
_C_SELECTORS = st.one_of(
    st.sampled_from(["all", "cq0"]),
    st.integers(0, 20).map(lambda n: f"sample:{n}"),
    # explicit lists, without the identity c that verify rejects
    st.lists(st.tuples(_ELEMS, _ELEMS).filter(lambda c: c != ("1", "0")),
             min_size=1, max_size=3).map(
        lambda cs: ";".join(f"{a},{b}" for a, b in cs)))


@settings(max_examples=25, deadline=None)
@given(cmd=st.sampled_from(["sweep", "ddt", "verify"]),
       field=st.sampled_from([("2", "2"), ("2", "3"), ("3", "2")]),
       spec=st.sampled_from(["genlinh{L=x;h=inv}", "identity",
                             "genlingold{L=x;k=1;alpha=0}"]),
       c=_C_SELECTORS, fmt=st.sampled_from(["csv", "pretty"]),
       threads=st.integers(1, 3), seed=st.integers(0, 2 ** 31))
def test_header_round_trip_property(cmd, field, spec, c, fmt, threads, seed):
    """Any run's header rebuilds an argv that reproduces the run exactly;
    the rebuilt argv also names the default t explicitly."""
    argv = [cmd, "-p", field[0], "-m", field[1], "--spec", spec, "--c", c,
            "--format", fmt, "--threads", str(threads), "--seed", str(seed)]
    if cmd == "verify" and spec == "identity":
        argv[argv.index("--spec") + 1] = "genlinh{L=x;h=inv}"
    code, out = _run_quiet(argv)
    assert code in (0, 2)  # 2: a verify VIOLATION, still a full report
    rebuilt = argv_from_header(out)
    assert _run_quiet(rebuilt) == (code, out)
    assert argv_from_header(out) == argv_from_header(_run_quiet(rebuilt)[1])


@pytest.mark.parametrize("cmd", ["sweep", "ddt", "verify"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(capsys, cmd, threads):
    code, out, err = run_cli(capsys, cmd, "-p", "2", "-m", "2",
                             "--spec", "genlinh{L=x;h=inv}", "--c", "cq0",
                             "--threads", threads)
    # -3 is no count at all: a sign is outside the ASCII digits 0-9
    assert (code, out, err) == (1, "", {
        "0": "error: --threads must be >= 1\n",
        "-3": "error: --threads must be 1 to 4300 ASCII digits 0-9, got '-3'\n",
    }[threads])


def test_thread_count_output_identical(capsys):
    """Both characteristics, on the sweep pools of 1, 2 and 3 workers that
    one process keeps and reuses."""
    for base_argv in (["sweep", "-p", "2", "-m", "4", "-t", "w^3",
                       "--spec", "sumprod{i=0;j=1;alpha=1}", "--c", "sample:12"],
                      ["sweep", "-p", "3", "-m", "2",
                       "--spec", "sumprod{i=0;j=1;alpha=2}", "--c", "all"]):
        _, out1, _ = run_cli(capsys, *base_argv, "--threads", "1")
        for threads in ("2", "3", "2", "3"):
            _, out, _ = run_cli(capsys, *base_argv, "--threads", threads)
            assert out1.replace("threads: 1", "threads: N") \
                == out.replace(f"threads: {threads}", "threads: N")


def test_large_thread_count_starts_few_workers(capsys, serial_pool):
    """--threads 5000 asks for at most 5000 workers: the sweep takes one
    per c and per CPU at most, and the header keeps the value asked for."""
    argv = ["sweep", "-p", "2", "-m", "2", "--spec", "identity", "--c", "all"]
    _, out1, _ = run_cli(capsys, *argv, "--threads", "1")
    code, out, err = run_cli(capsys, *argv, "--threads", "5000")
    assert (code, err) == (0, "") and "# threads: 5000\n" in out
    assert out1.replace("threads: 1", "threads: N") \
        == out.replace("threads: 5000", "threads: N")
    workers = min(15, os.cpu_count() or 1)  # 15 c in F_4^2 minus (1, 0)
    assert serial_pool == ([workers] if workers > 1 else [])


_REPEATED_ARGVS = [
    ["sweep", "-p", "2", "-m", "3", "--spec", "genlinh{L=x;h=inv}",
     "--c", "sample:9", "--seed", "5"],
    ["sweep", "-p", "3", "-m", "2", "--spec", "genlingold{L=x;k=1;alpha=w^1}",
     "--c", "all", "--threads", "2"],
    ["ddt", "-p", "2", "-m", "2", "--spec", "traceinv{gamma=W^1}",
     "--c", "all", "--format", "json"],
    ["ddt", "-p", "3", "-m", "1", "--spec", "sumprod{i=0;j=0;alpha=1}",
     "--c", "cq0"],
    ["verify", "-p", "2", "-m", "3", "--spec", "sumprod{i=1;j=1;alpha=w^1}",
     "--c", "all"],
    ["verify", "-p", "3", "-m", "2", "--spec", "genlinh{L=x;h=gold:1}",
     "--c", "all", "--format", "pretty"],
    ["field", "-p", "5", "-m", "2"],
    ["oracle", "invpred", "-p", "3", "-m", "3", "--c", "w^2"],
    ["sweep", "-p", "2", "-m", "3", "--spec"],  # malformed: exits 1
]


def test_repeated_main_calls_match_first_run(capsys):
    """The parser, the sweep pools and the cached tables are shared by every
    call in a process; no call may see what an earlier one left."""
    ddt._native()  # the one stderr notice of a process without the kernel
    capsys.readouterr()
    first = [run_cli(capsys, *argv) for argv in _REPEATED_ARGVS]
    assert first[-1][0] == 1 and "expected one argument" in first[-1][2]
    assert all(code == 0 for code, _, _ in first[:-1])
    for order in (range(len(first) - 1, -1, -1), range(len(first))):
        for i in order:
            assert run_cli(capsys, *_REPEATED_ARGVS[i]) == first[i]


def test_sweep_leaves_little_cyclic_garbage(capsys):
    """A parser built per call left about 400 objects in reference cycles,
    and ndpointer arguments 18 more per c; the kernel's arguments now pass
    as addresses, which leave none."""
    argv = ["sweep", "-p", "3", "-m", "2", "--spec",
            "genlingold{L=x;k=1;alpha=w^1}", "--c", "0,0;w^1,w^2"]
    run_cli(capsys, *argv)
    enabled = gc.isenabled()
    gc.disable()  # so that no automatic collection takes a share first
    try:
        gc.collect()
        run_cli(capsys, *argv)
        assert gc.collect() < 10
    finally:
        if enabled:
            gc.enable()


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "ddt", "-p", "2", "-m", "2",
                           "--spec", "identity", "--c", "0,0",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["spec"] == "identity"
    assert doc["rows"][0]["uniformity"] == 1
    assert doc["rows"][0]["spectrum"] == {"1": 256}


def test_explicit_c_list(capsys):
    code, out, _ = run_cli(capsys, "sweep", "-p", "2", "-m", "4", "-t", "w^3",
                           "--spec", "genlinh{L=x;h=inv}",
                           "--c", "0,0;w^3,w^7", "--format", "pretty")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(body) == 3  # header row + 2 rows


def test_bad_spec_exits_one(capsys):
    code, _, err = run_cli(capsys, "sweep", "-p", "2", "-m", "4",
                           "--spec", "nosuch{z=1}", "--c", "cq0")
    assert code == 1
    assert "unknown family" in err


def test_invalid_t_exits_one(capsys):
    code, _, err = run_cli(capsys, "sweep", "-p", "2", "-m", "4", "-t", "w^1",
                           "--spec", "identity", "--c", "cq0")
    assert code == 1
    assert "irreducibility" in err


def test_oracle_subcommands(capsys):
    code, out, _ = run_cli(capsys, "oracle", "bluher", "-p", "2", "-m", "3",
                           "--k", "1", "--a", "w^3", "--b", "w^5")
    assert code == 0 and "roots of x^(p^1+1)" in out
    code, out, _ = run_cli(capsys, "oracle", "quad", "-p", "2", "-m", "4",
                           "--a", "1", "--b", "w^1")
    assert code == 0 and "roots of x^2" in out
    code, out, _ = run_cli(capsys, "oracle", "quartic", "-p", "2", "-m", "4",
                           "--a2", "0", "--a1", "1", "--a0", "w^1")
    assert code == 0 and "factor type" in out
    code, out, _ = run_cli(capsys, "oracle", "bluhercount", "-p", "2", "-m", "4",
                           "--k", "2")
    assert code == 0 and "scan=0 formula=0" in out
    code, out, _ = run_cli(capsys, "oracle", "invpred", "-p", "3", "-m", "3",
                           "--c", "0")
    assert code == 0 and out.strip().endswith("1")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "run.csv"
    code, out, _ = run_cli(capsys, "sweep", "-p", "2", "-m", "2",
                           "--spec", "identity", "--c", "cq0",
                           "-o", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("# cmd: sweep")


@pytest.mark.parametrize("argv", [
    pytest.param(["--spec", "nosuch", "--c", "0,0"], id="unknown-family"),
    pytest.param(["--spec", "identity", "--c", "5,0"], id="c-outside-field"),
    pytest.param(["--spec", "identity", "--c", "0,0", "-t", "0"], id="bad-t"),
    pytest.param(["--spec", "genlinh{L=x;L=x^2;h=inv}", "--c", "0,0"],
                 id="repeated-key"),
])
def test_failed_run_leaves_output_file(tmp_path, capsys, argv):
    """A run that fails writes nothing: the -o file keeps what it held."""
    target = tmp_path / "out.csv"
    target.write_text("earlier results\n")
    code, out, err = run_cli(capsys, "sweep", "-p", "2", "-m", "2", *argv,
                             "-o", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_text() == "earlier results\n"


@pytest.mark.parametrize("spec, key", [
    ("genlinh{L=x;h=inv;zzz=1}", "zzz"),
    ("goldpair{k=1;gama=w^5;L=x}", "gama"),
    ("traceinv{gamma=W^1;H=norm}", "H"),
    ("identity{L=x}", "L"),
    ("tracext{H=norm;k=zz}", "k"),
])
def test_unknown_or_bad_spec_key_is_named(capsys, spec, key):
    """A key the family does not declare, or a declared one that does not
    parse even where the variant ignores it, is one error line naming it."""
    code, out, err = run_cli(capsys, *_sweep("0,0", spec))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key!r}" in err or f" {key} " in err


@pytest.mark.parametrize("spec, elem", [
    ("traceinv{gamma=w^3}", "w^3"),                  # base letter for F_{q^2}
    ("goldpair{k=1;gamma=W^5;L=x}", "W^5"),          # extension letter for F_q
    ("goldpair{k=1;gamma=w^5;L=W^3*x^2+x}", "W^3"),  # in a linearized coefficient
    ("prodlin{gammas=4:W^1;L=x}", "W^1"),
    ("genlinh{L=x;h=lin:W^2*x}", "W^2"),
])
def test_spec_element_letter_names_its_field(capsys, spec, elem):
    """In a spec, w^k is an element of F_q and W^k one of F_{q^2}; the other
    letter is an error, not an element of the wrong field."""
    code, out, err = run_cli(capsys, *_sweep("0,0", spec))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: '{elem}': an element of F_") and err.count("\n") == 1


GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.csv"))


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_verify_output(capsys, path):
    """verify output per family, at p = 2 and p = 3, recorded when each
    consumer still parsed the spec strings itself: the run its header
    records reproduces it byte for byte."""
    text = path.read_text()
    assert run_cli(capsys, *argv_from_header(text))[:2] == (0, text)


REPORT_GOLDEN = sorted((Path(__file__).parent / "golden" / "report").glob("*.argv"))


@pytest.mark.parametrize("path", REPORT_GOLDEN, ids=lambda p: p.stem)
def test_golden_report_output(capsys, path):
    """ddt, sweep and verify output in JSON and pretty form, both domains, p = 2
    and odd p, with spectra holding entries >= 10 (JSON sorts "10" before
    "2"): the argv stored beside each output reproduces it byte for byte."""
    argv = json.loads(path.read_text())
    assert run_cli(capsys, *argv)[:2] == (0, path.with_suffix(".out").read_text())


# the runs of bench/workloads.py's q16-verify
Q16_VERIFY_SPECS = [
    "genlinh{L=x;h=inv}", "genlingold{L=x;k=2;alpha=0}",
    "genlingold{L=x;k=2;alpha=w^1}", "genlingold{L=x;k=2;alpha=1}",
    "sumprod{i=0;j=1;alpha=1}", "sumprod{i=0;j=3;alpha=1}",
    "sumprod{i=1;j=1;alpha=w^1}", "sumprod{i=3;j=3;alpha=w^1}",
    "prodlin{gammas=4:1,2:1;L=x}", "normfirst{H=tr5}", "traceinv{gamma=W^1}"]


def test_specs_build_once_per_context(capsys, monkeypatch):
    """A spec's tables and parsed parameters share one entry of the
    process's table cache, which holds more entries than the q16-verify
    round has specs: a second round builds nothing."""
    builds = []
    build = funcs.build_tables

    def counted(spec, qctx):
        builds.append(spec)
        return build(spec, qctx)

    monkeypatch.setattr(funcs, "build_tables", counted)
    for _ in range(2):
        builds.clear()
        for spec in Q16_VERIFY_SPECS:
            assert run_cli(capsys, "verify", "-p", "2", "-m", "4", "-t", "w^3",
                           "--spec", spec, "--c", "sample:3")[0] == 0
    assert builds == []


def test_repeated_spec_key_is_named(capsys):
    code, out, err = run_cli(capsys, *_sweep("0,0", "genlinh{L=x;L=x^2;h=inv}"))
    assert (code, out) == (1, "")
    assert err == ("error: repeated key 'L' at position 12 in "
                   "'genlinh{L=x;L=x^2;h=inv}'\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("cmd, c", [("sweep", "cq0"), ("ddt", "all")])
def test_output_write_error_is_one_line(capsys, cmd, c):
    """A full device fails the write at the close for a short report, and
    at a write for a report longer than the file buffer."""
    code, out, err = run_cli(capsys, cmd, "-p", "2", "-m", "4", "--spec",
                             "identity", "--c", c, "-o", "/dev/full")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write /dev/full: ")
    assert err.count("\n") == 1


def test_ext_domain_witness_format(capsys):
    code, out, _ = run_cli(capsys, "ddt", "-p", "2", "-m", "4", "-t", "w^3",
                           "--spec", "traceinv{gamma=W^1}", "--c", "0,0")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert rows[0]["uniformity"] == "2"
    # a lives in the extension, b is a base-field pair
    assert rows[0]["witness_a"].startswith(("W^", "0"))
    assert rows[0]["witness_b"].startswith("(")


def _sweep(c, spec):
    return ["sweep", "-p", "2", "-m", "4", "--spec", spec, "--c", c]


def _sweep8(spec):
    return ["sweep", "-p", "2", "-m", "3", "--spec", spec, "--c", "0,0"]


def _oracle(which, *args):
    return ["oracle", which, "-p", "2", "-m", "3", *args]


@pytest.mark.parametrize("argv", [
    pytest.param(_sweep("w^1", "genlinh{L=x;h=inv}"),
                 id="w^1-genlinh{L=x;h=inv}"),
    pytest.param(_sweep("w^x,0", "genlinh{L=x;h=inv}"),
                 id="w^x,0-genlinh{L=x;h=inv}"),
    pytest.param(_sweep("sample:abc", "genlinh{L=x;h=inv}"),
                 id="sample:abc-genlinh{L=x;h=inv}"),
    pytest.param(_sweep("0,0", "genlingold{L=x;k=abc;alpha=0}"),
                 id="0,0-genlingold{L=x;k=abc;alpha=0}"),
    pytest.param(_sweep("0,0", "prodlin{gammas=4;L=x}"),
                 id="0,0-prodlin{gammas=4;L=x}"),
    pytest.param(_oracle("quad", "--a", "1"), id="oracle-quad-no-b"),
    pytest.param(_oracle("quartic", "--a2", "0"), id="oracle-quartic-no-a1-a0"),
    pytest.param(_oracle("bluher", "--a", "1", "--b", "1"), id="oracle-bluher-no-k"),
    pytest.param(_oracle("bluher", "--k", "1"), id="oracle-bluher-no-a-b"),
    pytest.param(_oracle("bluhercount"), id="oracle-bluhercount-no-k"),
    pytest.param(_oracle("bluhercount", "--k", "-1"),
                 id="oracle-bluhercount-negative-k"),
    pytest.param(_oracle("invpred"), id="oracle-invpred-no-c"),
    pytest.param(["field", "-p", "2", "-m", "4", "--modulus", "a,b"],
                 id="modulus-not-integers"),
    pytest.param(["field", "-p", "2", "-m", "4", "--modulus", "1,,1"],
                 id="modulus-empty-coefficient"),
    # an empty value is no value given: no default is chosen in its place
    pytest.param(["field", "-p", "2", "-m", "4", "--modulus", ""],
                 id="modulus-empty"),
    pytest.param(_sweep("0,0", "identity") + ["-t", ""], id="t-empty"),
    pytest.param(["sweep", "-p", "2", "-m", "2", "--spec", "identity",
                  "--c", "0,0", "-o", "/nonexistent/x"],
                 id="output-in-missing-directory"),
    # the generic families take tables from the library API only
    pytest.param(_sweep("0,0", "genericbiv"), id="genericbiv"),
    pytest.param(_sweep("0,0", "genericbiv{gtable=1;htable=1}"),
                 id="genericbiv-with-tables"),
    pytest.param(_sweep("W^1", "genericuni"), id="genericuni"),
    pytest.param(_sweep("W^1", "genericuni{table=1}"), id="genericuni-with-table"),
    pytest.param(_sweep("0,0", "genlinh{L=x;h=gold:-1}"), id="h-gold-negative-k"),
    pytest.param(_sweep("0,0", "goldpair{k=-1;gamma=w^5;L=x}"),
                 id="goldpair-negative-k"),
    pytest.param(_sweep("0,0", "tracext{H=gold;k=-1;gamma=W^1}"),
                 id="tracext-gold-negative-k"),
    # parameter values that the family rejects once it reads them over F_8
    pytest.param(_sweep8("goldpair{k=1;gamma=w^1;L=x^2+x}"),
                 id="q8-goldpair{k=1;gamma=w^1;L=x^2+x}"),
    pytest.param(_sweep8("prodlin{L=x^2+x}"),
                 id="q8-prodlin{L=x^2+x}"),
    pytest.param(_sweep8("prodlin{gammas=9:1;L=x}"),
                 id="q8-prodlin{gammas=9:1;L=x}"),
    pytest.param(_sweep8("sumprod{i=5;j=0;alpha=1}"),
                 id="q8-sumprod{i=5;j=0;alpha=1}"),
    pytest.param(_sweep8("tracext{H=cube}"),
                 id="q8-tracext{H=cube}"),
    pytest.param(_sweep8("normfirst{H=x5}"),
                 id="q8-normfirst{H=x5}"),
    pytest.param(_sweep8("genlinh{L=x+;h=inv}"),
                 id="q8-genlinh{L=x+;h=inv}"),
    pytest.param(_sweep8("genlinh{L=x;h=sqrt}"),
                 id="q8-genlinh{L=x;h=sqrt}"),
    # 7 is no element of F_3 (7 mod 3 would be the identity c)
    pytest.param(["sweep", "-p", "3", "-m", "1", "--spec", "identity",
                  "--c", "7,0"], id="c-literal-not-below-p"),
    # the letter names the field everywhere an element is read, not only
    # in a spec: W^3 is no element of F_16
    pytest.param(_sweep("W^3,0", "identity"), id="c-in-the-wrong-letter"),
    pytest.param(_sweep("0,0", "identity") + ["-t", "W^3"],
                 id="t-in-the-wrong-letter"),
    pytest.param(_oracle("invpred", "--c", "W^2"), id="oracle-c-in-the-wrong-letter"),
    # str.isdigit() passes these, and int() rejects them
    pytest.param(_sweep("\u00b2,0", "identity"), id="c-superscript-digit"),
    pytest.param(_sweep("0,0", "goldpair{k=1;gamma=\u00b2;L=x}"),
                 id="spec-superscript-digit"),
    pytest.param(_sweep("sample:\u00b2", "identity"), id="sample-superscript-digit"),
    pytest.param(_sweep("sample:" + "9" * 5000, "identity"),
                 id="sample-count-of-5000-digits"),
    # int() also takes a sign, spaces, "_" and other scripts' digits; an
    # integer in argument text is the ASCII digits 0-9 and nothing else
    pytest.param(_sweep("w^1_0,w^+2", "genlinh{L=x;h=inv}"),
                 id="c-exponent-underscore-and-plus"),
    pytest.param(_sweep("w^ 3,0", "identity"), id="c-exponent-space"),
    pytest.param(_sweep("w^-1,0", "identity"), id="c-exponent-negative"),
    pytest.param(_sweep("w^\u0663,0", "identity"), id="c-exponent-arabic-indic-digit"),
    pytest.param(_sweep("0,0", "identity") + ["-t", "w^+3"], id="t-exponent-plus"),
    pytest.param(_oracle("invpred", "--c", "w^-2"), id="oracle-c-exponent-negative"),
    pytest.param(["field", "-p", "2", "-m", "4", "--modulus", "1,1,0,0,+1"],
                 id="modulus-coefficient-plus"),
    pytest.param(_sweep("0,0", "genlinh{L=x;h=pow:-1}"), id="h-pow-negative-e"),
    pytest.param(_sweep("0,0", "genlinh{L=x;h=gold:+1}"), id="h-gold-plus-k"),
    pytest.param(_sweep("0,0", "goldpair{k=1_0;gamma=w^5;L=x}"),
                 id="goldpair-k-underscore"),
    pytest.param(_sweep("0,0", "normfirst{H=tr-1}"), id="normfirst-negative-e"),
    pytest.param(_sweep("0,0", "prodlin{gammas=+1:1;L=x}"),
                 id="prodlin-index-plus"),
    # so are the CLI's integer options
    pytest.param(["field", "-p", "1_1", "-m", "1"], id="p-underscore"),
    pytest.param(["field", "-p", "11", "-m", " +1"], id="m-space-and-plus"),
    pytest.param(_oracle("bluhercount", "--k", "\u0663"),
                 id="k-arabic-indic-digit"),
    pytest.param(_sweep("cq0", "identity") + ["--seed", "-5"], id="seed-negative"),
    pytest.param(_sweep("cq0", "identity") + ["--threads", " 2"], id="threads-space"),
    # argparse's own errors
    pytest.param(_sweep("cq0", "identity") + ["--format", "xml"], id="format-xml"),
    pytest.param(["sweep", "-p", "2", "-m", "4", "--c", "cq0"], id="spec-missing"),
    pytest.param(_sweep("cq0", "identity") + ["--bogus"], id="unknown-option"),
    pytest.param(_oracle("cube"), id="oracle-cube"),
])
def test_malformed_input_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec, name", [
    ("traceinv", "gamma"), ("tracext{H=gold;k=1}", "gamma"),
    ("tracext", "H"), ("normfirst", "H")])
def test_missing_parameter_is_named(capsys, spec, name):
    code, out, err = run_cli(capsys, *_sweep("0,0", spec))
    family = spec.split("{")[0]
    assert (code, out, err) == (1, "", f"error: {family} needs parameter {name}\n")


# over F_9 (m = 2); a "{k}" field takes the Gold exponent
_GOLD_ARGVS = [
    ["verify", "-p", "3", "-m", "2", "--c", "cq0",
     "--spec", "goldpair{{k={k};gamma=w^1;L=x}}"],
    ["verify", "-p", "3", "-m", "2", "--c", "cq0",
     "--spec", "tracext{{H=gold;k={k};gamma=W^1}}"],
    ["verify", "-p", "3", "-m", "2", "--c", "cq0",
     "--spec", "genlinh{{L=x;h=gold:{k}}}"],
    ["oracle", "bluher", "-p", "3", "-m", "2", "--k", "{k}",
     "--a", "w^1", "--b", "w^2"],
]


def _as_k1(out, k):
    """``out`` with the Gold exponent k written as 1 where it is echoed."""
    for echo in ("k={}", "gold:{}", "p^{}+"):
        out = out.replace(echo.format(k), echo.format(1))
    return out


def _gold_run(capsys, argv, k):
    """Exit code and stdout of ``argv`` at the Gold exponent k, as at k = 1."""
    code, out, _ = run_cli(capsys, *(a.format(k=k) for a in argv))
    return code, _as_k1(out, k)


def _child_env():
    """The environment of a child process that imports this checkout's cdu
    and keeps numpy to one thread."""
    src = str(Path(funcs.__file__).parents[1])
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(
                    [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _main_in_child(argvs):
    """(exit code, stdout, stderr, seconds) of ``main`` on each argv, run
    in one child process with a 2 GiB address space and a 60 s time limit,
    so that a run that grows without bound fails the test rather than
    hanging or exhausting memory."""
    script = (
        "import contextlib, io, json, resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from cdu.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err, t0 = io.StringIO(), io.StringIO(), time.perf_counter()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    runs.append((code, out.getvalue(), err.getvalue(),\n"
        "                 time.perf_counter() - t0))\n"
        "print(json.dumps(runs))\n")
    run = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                         capture_output=True, text=True, env=_child_env(),
                         timeout=60)
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stdout)


def test_huge_gold_exponent_finishes(capsys):
    """k = 10^8*m + 1 runs as fast as k = 1 and prints the same: no power
    p^k is formed (a program that forms 3^k fails in the child)."""
    k = 10 ** 8 * 2 + 1
    argvs = [[a.format(k=k) for a in argv] for argv in _GOLD_ARGVS]
    for argv, (code, out, _, _) in zip(_GOLD_ARGVS, _main_in_child(argvs)):
        assert (code, _as_k1(out, k)) == _gold_run(capsys, argv, 1)


def test_field_bound_checked_before_work():
    """A p or an m past the field bound is one ``error:`` line within a
    second, given before the primality test of p and the power p^m: m =
    10^20 - 1 used to build a number of 10^20 bits, and p = 10^24 + 7 a
    trial division up to 10^12.  These argvs run only in the child, where
    a regression hits the address-space or time limit instead of taking
    the test process's memory."""
    runs = _main_in_child([["field", "-p", "2", "-m", "99999999999999999999"],
                           ["field", "-p", "1000000000000000000000007", "-m", "1"]])
    assert [run[:3] for run in runs] == [
        [1, "", "error: q = 2^99999999999999999999 exceeds 65536\n"],
        [1, "", "error: p = 1000000000000000000000007 exceeds 65536\n"]]
    assert all(seconds < 1 for *_, seconds in runs)


def test_closed_pipe_is_quiet():
    """A reader that stops after one line (``cdu ... | head -n 1``) adds
    nothing to stderr, which stays empty unless the numpy fallback is
    announced, and the run keeps its exit code.  The report, 20000 rows of
    about 30 bytes, outgrows the pipe's buffer, so its write meets the
    closed pipe."""
    argv = [sys.executable, "-m", "cdu.cli", "sweep", "-p", "2", "-m", "2",
            "--spec", "identity", "--c", "1,1;" * 20000]
    whole = subprocess.run(argv, capture_output=True, env=_child_env(), timeout=60)
    assert whole.returncode == 0 and whole.stderr in (
        b"", b"cdu: native row kernel unavailable; using the numpy reference\n")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    assert proc.stdout.readline() == b"# cmd: sweep\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, whole.stderr)


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "sweep", "--help")
    assert (code, err) == (0, "") and out.startswith("usage: cdu sweep")
