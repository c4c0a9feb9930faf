import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cdu import predict
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
    assert (code, out, err) == (1, "", "error: --threads must be >= 1\n")


def test_thread_count_output_identical(capsys):
    base_argv = ["sweep", "-p", "2", "-m", "4", "-t", "w^3",
                 "--spec", "sumprod{i=0;j=1;alpha=1}", "--c", "sample:12"]
    _, out1, _ = run_cli(capsys, *base_argv, "--threads", "1")
    _, out4, _ = run_cli(capsys, *base_argv, "--threads", "4")
    assert out1.replace("threads: 1", "threads: N") \
        == out4.replace("threads: 4", "threads: N")


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
    # 7 is no element of F_3 (7 mod 3 would be the identity c)
    pytest.param(["sweep", "-p", "3", "-m", "1", "--spec", "identity",
                  "--c", "7,0"], id="c-literal-not-below-p"),
])
def test_malformed_input_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
