"""Command-line behavior: output formats, exit codes, guards, determinism."""

import contextlib
import functools
import gc
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cli_oracle
import cone_oracle as co
import gf_helpers as gh
import lattice_oracle as lo
import sing_oracle
from fibersemi import annihilators as ann
from fibersemi import bundles as bn
from fibersemi import cli
from fibersemi import crossconn as xc
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi import subspace_category as sc

SRC = Path(cli.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_2_2(capsys):
    code, out, _ = run(capsys, "enumerate", "--field", "2", "--dim", "2")
    assert code == 0
    assert "singular_endomorphisms: 10" in out
    assert "idempotents: 7" in out
    assert "proper_subspaces: 4" in out

def test_enumerate_3_2_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--field", "3", "--dim", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["singular_endomorphisms"] == 33 == doc["closed_form"]

def test_enumerate_guard_exit(capsys):
    code, out, err = run(capsys, "enumerate", "--field", "2", "--dim", "9")
    assert code == 2
    assert "guard" in err

@pytest.mark.parametrize("argv", [
    ("crossconn", "--field", "3", "--dim", "3", "--format", "json"),
    ("crossconn", "--field", "2", "--dim", "4", "--format", "json"),
    ("cones", "--field", "3", "--dim", "3"),
    ("cones", "--field", "2", "--dim", "4"),
])
def test_sing_guard_refuses_fast(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "associativity guard 1500" in err

# enumerate and green build no table, so they answer past the table guard.
# The counts are the closed forms p^(n^2) - |GL_n(p)| for the order and
# sum_k G(n, k) p^(k(n - k)) for the idempotents; L and R have a class per
# proper subspace, H sum_k G(n, k)^2, D one per rank.
@pytest.mark.parametrize("argv,want", [
    (("enumerate", "--field", "3", "--dim", "3"),
     "field: 3\ndim: 3\nsingular_endomorphisms: 8451\nclosed_form: 8451\nidempotents: 235\n"
     "proper_subspaces: 27\nsubspaces: 28\n"),
    (("enumerate", "--field", "2", "--dim", "4"),
     "field: 2\ndim: 4\nsingular_endomorphisms: 45376\nclosed_form: 45376\nidempotents: 801\n"
     "proper_subspaces: 66\nsubspaces: 67\n"),
    (("green", "--field", "3", "--dim", "3"),
     "order: 8451\nL classes: 27\nR classes: 27\nH classes: 339\nD classes: 3\n"),
    (("green", "--field", "2", "--dim", "4"),
     "order: 45376\nL classes: 66\nR classes: 66\nH classes: 1676\nD classes: 4\n"),
], ids=["enumerate-3-3", "enumerate-2-4", "green-3-3", "green-2-4"])
def test_enumerate_and_green_answer_past_the_table_guard(capsys, argv, want):
    start = time.perf_counter()
    assert run(capsys, *argv) == (0, want, "")
    assert time.perf_counter() - start < 1.5

# GF(7)^4's lattice, which the subspace guard admits, takes over a second
# to build: the (7,4) rows pin that the endomorphism guard refuses first
@pytest.mark.parametrize("argv,count", [
    (("green", "--field", "5", "--dim", "3"), 5 ** 9),
    (("enumerate", "--field", "2", "--dim", "5"), 2 ** 25),
    (("green", "--field", "7", "--dim", "4"), 7 ** 16),
    (("enumerate", "--field", "7", "--dim", "4"), 7 ** 16),
], ids=["green-5-3", "enumerate-2-5", "green-7-4", "enumerate-7-4"])
def test_endomorphism_guard_refuses_green_and_enumerate_fast(capsys, argv, count):
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", f"error: p^(n^2) = {count} exceeds endomorphism guard 1048576\n")
    assert time.perf_counter() - start < 1.0

@pytest.mark.parametrize("p,n,autos,order", [pytest.param(2, 4, 20160, 45376, id="2-4"),
                                              pytest.param(3, 3, 11232, 8451, id="3-3")])
def test_cross_connections_check_refuses_before_any_automorphism(monkeypatch, p, n, autos, order):
    def forbidden(*args):
        raise AssertionError("an automorphism was enumerated before the guard refused")

    monkeypatch.setattr(gf, "enumerate_automorphisms", forbidden)
    start = time.perf_counter()
    with pytest.raises(gf.GuardExceeded) as exc:
        cli._check_cross_connections(p, n)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == (f"cross-connections at GF({p})^{n} would check {autos} automorphisms, "
                              f"each over the {order} elements of Sing, an order beyond the limit 1500")

def test_cardinalities_builds_no_endo(monkeypatch):
    # no record of any kind is built, an Endo or otherwise
    def forbidden(self, *args):
        raise AssertionError("a record was built only to be counted")

    monkeypatch.setattr(gf.Record, "__init__", forbidden)
    assert cli._check_cardinalities(2, 4) is None

@pytest.mark.parametrize("dim", ["0", "-1"])
def test_nonpositive_dim_exit(capsys, dim):
    start = time.perf_counter()
    code, _, err = run(capsys, "enumerate", "--field", "2", "--dim", dim)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"dimension must be at least 1, got {dim}" in err

def test_unsupported_field_exit(capsys):
    code, _, err = run(capsys, "enumerate", "--field", "6", "--dim", "2")
    assert code == 2
    assert "error" in err


def test_green_dot(capsys):
    code, out, _ = run(capsys, "green", "--field", "2", "--dim", "2", "--format", "dot")
    assert code == 0
    assert out.count("subgraph cluster_") == 2

def test_green_json_round_trip(capsys):
    code, out, _ = run(capsys, "green", "--field", "2", "--dim", "2", "--format", "json")
    assert code == 0
    green = sing_oracle.green_from_json(json.loads(out))
    assert len(green.d_classes) == 2


def test_cones_table(capsys):
    code, out, _ = run(capsys, "cones", "--field", "2", "--dim", "2")
    assert code == 0
    assert "normal cones: 10" in out
    assert "regular: True" in out


def test_crossconn_all_eps(capsys):
    code, out, _ = run(capsys, "crossconn", "--field", "2", "--dim", "2", "--all-eps")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 6
    assert all("order=10" in l for l in lines)

def test_crossconn_explicit_eps_json(capsys):
    code, out, _ = run(capsys, "crossconn", "--field", "2", "--dim", "2",
                       "--eps", "[[0,1],[1,0]]", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1 and len(doc[0]["elements"]) == 10

@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("eps", ["[[100000000000000000001,0],[0,1]]", "[[3,-2],[-4,-1]]"])
def test_crossconn_eps_entries_reduce_mod_p_at_any_size(capsys, eps, fmt):
    # each is I mod 2; the first entry is past int64
    want = run(capsys, "crossconn", "--field", "2", "--dim", "2", "--format", fmt)
    assert run(capsys, "crossconn", "--field", "2", "--dim", "2", "--eps", eps, "--format", fmt) == want
    assert want[0] == 0 and want[2] == ""

def test_crossconn_rejects_singular_eps(capsys):
    code, _, err = run(capsys, "crossconn", "--field", "2", "--dim", "2",
                       "--eps", "[[1,0],[0,0]]")
    assert code == 2 and "singular" in err

@pytest.mark.parametrize("eps", ["5", "null", '{"a":1}', '[[1,"a"],[0,1]]',
                                 "[[1.5,0],[0,1]]", "[[true,0],[0,true]]"])
def test_crossconn_rejects_malformed_eps(capsys, eps):
    code, out, err = run(capsys, "crossconn", "--field", "2", "--dim", "2", "--eps", eps)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err

def test_crossconn_eps_and_all_eps_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["crossconn", "--field", "2", "--dim", "2", "--eps", "[[0,1],[1,0]]", "--all-eps"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: fibersemi crossconn ")
    assert captured.err.endswith("error: argument --all-eps: not allowed with argument --eps\n")

@pytest.mark.parametrize("eps", ["xx", "[[1,0]"])
def test_crossconn_eps_that_is_not_json_names_the_option(capsys, eps):
    code, out, err = run(capsys, "crossconn", "--field", "2", "--dim", "2", "--eps", eps)
    assert code == 2 and out == ""
    assert err == "error: --eps must be a JSON list of 2 lists of 2 integers\n"


@pytest.mark.parametrize("command", ["enumerate", "verify-all", "cones", "crossconn"])
def test_dot_is_offered_only_where_a_dot_writer_exists(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--format", "dot"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith("error: argument --format: invalid choice: 'dot' (choose from 'table', 'json')\n")


# ---------------------------------------------------------------------------
# the command table against the argparse parser it replaced

def _outcome(parse, argv):
    """("ok", the options and function) of a parse that returns, else
    ("exit", status, last stderr line); the stdout of -h is not compared."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            fn, options = parse(argv)
    except SystemExit as exc:
        return "exit", exc.code, err.getvalue().splitlines()[-1:] if exc.code else []
    return "ok", fn, options


def _oracle(parser, argv):
    # argparse in Python 3.11 drops the "--" of --opt=-- and stores an empty
    # list; the table stores the string, so the grid reads [] as "--".  No
    # command reads the command's name, which argparse also stored.
    options = {k: "--" if v == [] else v for k, v in vars(parser.parse_args(argv)).items() if k != "command"}
    return options.pop("fn"), options


_VALUES = {int: ["3", "-1", "x", "", " 4 ", "0x1"], str: ["a", "-", "-1", "", "a b", "--", "-x"]}


def _grid(command):
    """Command lines of one command: every option under each prefix of its
    flag, in both forms, with good and bad values; repeats, missing
    values, flags given a value, strays, unknown options, "--" and help."""
    options = cli._commands()[command][2]
    yield [command]
    for flag, kind, _, _ in options:
        values = ([None] if kind is None else list(kind) + ["dot", "xml", "tab"] if isinstance(kind, tuple)
                  else _VALUES[kind])
        for cut in range(3, len(flag) + 1):
            for value in values:
                yield [command, flag[:cut]] + ([] if value is None else [value])
                yield [command, f"{flag[:cut]}={'' if value is None else value}"]
        yield [command, flag, *([] if kind is None else [values[0]]), flag, *([] if kind is None else [values[1]])]
        yield [command, flag]
        yield [command, flag, "--out"]
        yield [command, flag, "--", "x"]
        yield [command, "-h", flag, "x"]
        yield [command, flag, "x", "-h"]
    for strays in (["x"], ["x", "--field", "3", "y"], ["--bogus"], ["--bogus=1"], ["-x"], ["-x", "3"],
                   ["--", "--field"], ["--f"], ["--f=3"], ["--=x"], ["-h"], ["--he"], ["--help=x"], ["-h=x"],
                   ["--field", "x", "--f"]):
        yield [command, *strays]
        yield [*strays[:1], command, *strays[1:]]
    yield [command, "--eps", "[[0,1],[1,0]]", "--all-eps"]
    yield [command, "--all-eps", "--eps", "[[0,1],[1,0]]"]
    yield [command, "--all-eps", "--all-eps", "--eps", "x", "--eps", "y"]


@pytest.mark.parametrize("command", ["enumerate", "verify-all", "green", "cones", "crossconn", "amalgam"])
def test_parse_args_matches_the_argparse_parser(command):
    parser = cli_oracle.build_parser()
    grid = list(_grid(command))
    got = [_outcome(cli._parse_args, argv) for argv in grid]
    want = [_outcome(functools.partial(_oracle, parser), argv) for argv in grid]
    assert [(argv, g, w) for argv, g, w in zip(grid, got, want)
            if g[:2] != w[:2] or (g[2] if g[0] == "exit" else vars(g[2])) != w[2]] == []
    assert {w[0] for w in want} == {"ok", "exit"}


@pytest.mark.parametrize("argv", [[], ["-x"], ["foo"], ["verify"], ["--field", "2", "enumerate"], ["--"],
                                  ["--", "enumerate"], ["-x", "--"], ["--", "-x"], ["-h"], ["--he"], ["--help=x"],
                                  ["-x", "enumerate", "y"], ["-3"], ["- 3"]])
def test_parse_args_matches_the_argparse_parser_before_the_command(argv):
    want = _outcome(functools.partial(_oracle, cli_oracle.build_parser()), argv)
    assert want[0] == "exit" and _outcome(cli._parse_args, argv) == want


def test_a_double_dash_after_equals_is_the_value():
    # argparse stored [] for each: --out=-- wrote to stdout, --field=-- raised a TypeError
    assert vars(cli._parse_args(["enumerate", "--out=--"])[1])["out"] == "--"
    assert _outcome(cli._parse_args, ["enumerate", "--field=--"]) == (
        "exit", 2, ["fibersemi enumerate: error: argument --field: invalid int value: '--'"])


def test_amalgam_json(capsys):
    code, out, _ = run(capsys, "amalgam", "--field", "2", "--dims", "2,2,3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["fiber_dims"] == [2, 2, 3]
    assert len(doc["core"]["elements"]) == 10
    assert len(doc["embeddings"]) == 3

def test_amalgam_dot(capsys):
    code, out, _ = run(capsys, "amalgam", "--field", "2", "--dims", "2,2", "--format", "dot")
    assert code == 0
    assert out.count("core -> fiber") == 2

@pytest.mark.parametrize("argv,err", [
    ("amalgam --field 3 --format json", "error: Sing(GF(3)^3) has order 8451, beyond the associativity guard 1500\n"),
    ("amalgam --field 5", "error: p^(n^2) = 1953125 exceeds endomorphism guard 1048576\n"),
    ("amalgam --dims 2,3 --core-dim 3", "error: core dimension 3 must lie in 1..2\n"),
    ("amalgam --dims=", "error: --dims must be comma-separated integers, got ''\n"),
    ("amalgam --dims 2,x", "error: --dims must be comma-separated integers, got '2,x'\n"),
    ("amalgam --dims 2,,3", "error: --dims must be comma-separated integers, got '2,,3'\n"),
    # the guards run before any matrix is built, the core's first, so no
    # identity of a refused dimension is made, and numpy warns of nothing
    ("amalgam --dims 9", "error: p^(n^2) = at least 2^81 exceeds endomorphism guard 1048576\n"),
    ("amalgam --dims 10,9", "error: p^(n^2) = at least 2^81 exceeds endomorphism guard 1048576\n"),
    ("amalgam --dims 2,1000", "error: p^(n^2) = at least 2^1000000 exceeds endomorphism guard 1048576\n"),
    ("amalgam --dims 99999999999999999999",
     f"error: p^(n^2) = at least 2^{99999999999999999999 ** 2} exceeds endomorphism guard 1048576\n"),
    ("amalgam --dims 4,5 --format json", "error: Sing(GF(2)^4) has order 45376, beyond the associativity guard 1500\n"),
])
def test_amalgam_refusals_exit_2_with_their_message(capsys, argv, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, *argv.split()) == (2, "", err)


@pytest.mark.parametrize("argv,order", [
    ("crossconn --field 3 --dim 3 --format json", 8451),
    ("crossconn --field 2 --dim 4 --format json", 45376),
    ("amalgam --field 3 --format json", 8451),
])
def test_json_output_refuses_before_any_pair_is_built(monkeypatch, capsys, argv, order):
    # the JSON documents write Sing's table, so the table guard refuses
    # before the linked pairs are built
    def forbidden(*args):
        raise AssertionError("linked pairs were built before the guard refused")

    monkeypatch.setattr(xc, "conjugations", forbidden)
    p, n = (3, 3) if "--field 3" in argv else (2, 4)
    start = time.perf_counter()
    assert run(capsys, *argv.split()) == (
        2, "", f"error: Sing(GF({p})^{n}) has order {order}, beyond the associativity guard 1500\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv,want", [
    ("crossconn --field 3 --dim 3", "eps=((1, 0, 0), (0, 1, 0), (0, 0, 1)) order=8451\n"),
    ("amalgam --field 3",
     "core: dim 2, order 33\nfiber 0: dim 2, order 33\nfiber 1: dim 2, order 33\nfiber 2: dim 3, order 8451\n"
     "verified: True\n"),
    ("amalgam --field 3 --format dot", None),
])
def test_formats_without_a_table_answer_past_the_table_guard(capsys, argv, want):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    if want is None:
        assert 'fiber2 [shape=box, label="fiber 2 (dim 3, order 8451)"];' in out
    else:
        assert out == want


@pytest.fixture(scope="module")
def verify_report():
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify-all", "--field", "2", "--dim", "2", "--format", "json"])
    return code, buf.getvalue()

def test_verify_all_passes_and_exits_zero(verify_report):
    code, out = verify_report
    assert code == 0
    report = json.loads(out)
    assert all(r["status"] == "pass" for r in report)

def test_verify_all_report_schema(verify_report):
    _, out = verify_report
    report = json.loads(out)
    assert isinstance(report, list) and report
    for entry in report:
        assert set(entry) == {"check", "status", "witness"}
        assert isinstance(entry["check"], str)
        assert entry["status"] in ("pass", "fail")

def test_verify_all_deterministic(verify_report, capsys):
    _, first = verify_report
    code, second, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2", "--format", "json")
    assert code == 0
    assert first == second

def test_verify_all_to_file(tmp_path, verify_report, capsys):
    _, stdout_doc = verify_report
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == stdout_doc


def test_corrupted_table_reports_witness(tmp_path, capsys):
    # break associativity in the null semigroup core: u*v = u makes
    # (u*v)*v = u while u*(v*v) = z
    doc = sing_oracle.semigroup_to_json(sg.null_semigroup_fixture()[0])
    doc["table"][0][1] = 0
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2",
                       "--format", "json", "--table", str(path))
    assert code == 1
    report = json.loads(out)
    entry = next(r for r in report if r["check"] == "table-associativity")
    assert entry["status"] == "fail"
    assert "triple" in entry["witness"]

def test_intact_table_passes(tmp_path, capsys):
    doc = sing_oracle.semigroup_to_json(sg.null_semigroup_fixture()[0])
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2",
                       "--format", "json", "--table", str(path))
    assert code == 0
    report = json.loads(out)
    entry = next(r for r in report if r["check"] == "table-associativity")
    assert entry["status"] == "pass"

def _json_path_error(text):
    """The message semigroup_from_json raises on json.loads(text)."""
    try:
        sg.semigroup_from_json(json.loads(text))
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the document is a valid table")


TWO = '{"elements": ["a", "b"], "table": %s}'

@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"elements": [{"a": 1}], "table": [[0]]}',
    '{"elements": ["z"], "table": [[false]]}',
    '{"elements": ["z"], "table": [[%d]]}' % 2 ** 70,
    TWO % "[[0, 1], [1]]",
    TWO % "[[0, 1, 1], [0]]",
    TWO % "[[0, 1.0], [1, 0]]",
    TWO % "[[0, -1], [1, 0]]",
    TWO % "[[0, 01], [1, 0]]",
    TWO % "[[0, 1 1], [1, 0]]",
    TWO % "[[0,,1], [1, 0]]",
    TWO % "[[0, ,1], [1, 0]]",
    TWO % "[[0,1],5[,0]]",
    TWO % "[[0, 2], [1, 0]]",
    '{"elements": ["a"], "table": [[0]]} x',
    '{"elements": ["a"], "table": [[0]], "table": [[1]]}',
    '{"table": [[1]], "elements": ["a"]}',
    '{"elements": ["a"], "table": [[1]], "note": 0}',
    '{"elements": ["\u00e9", "\u00fc"], "table": [[0, 1], [1, 2]]}',
    '{"elements": ["a", "a"], "table": [[0, 1], [1, 0]]}',
    '{"elements": %s, "table": [[0]]}' % json.dumps(list(range(gf.ASSOC_GUARD + 1))),
    '{"elements": %s, "table": [%s]}' % (list(range(11)), ", ".join(["[%s]" % ", ".join(["0"] * 10 + ["1 0"])] * 11)),
], ids=["top-level-array", "object-label", "boolean-entry", "huge-entry", "ragged", "ragged-same-count",
        "float-entry", "negative-entry", "leading-zero", "split-number", "empty-slot",
        "blank-slot", "digit-outside-row", "out-of-range", "trailing-garbage",
        "duplicate-table-key", "reordered-keys", "extra-member", "non-ascii-label",
        "duplicate-labels", "order-above-guard", "split-number-below-order"])
def test_malformed_table_fails_with_error(tmp_path, capsys, text):
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2",
                       "--format", "json", "--table", str(path))
    assert code == 1
    entry = json.loads(out)[-1]
    assert entry["check"] == "table-associativity"
    assert entry["status"] == "fail"
    assert entry["witness"] == {"error": _json_path_error(text)}


def _json_path_report(path):
    """table-associativity's status and witness when the file is read as
    open() reads it, then by json.loads and semigroup_from_json."""
    try:
        with open(path) as fh:
            sg.semigroup_from_json(json.loads(fh.read()))
    except sg.NotAssociative as exc:
        return "fail", {"triple": list(exc.witness)}
    except ValueError as exc:
        return "fail", {"error": str(exc)}
    return "pass", None


CRLF = json.dumps(sing_oracle.semigroup_to_json(sg.null_semigroup_fixture()[0]), indent=1).replace("\n", "\r\n")

@pytest.mark.parametrize("data", [
    CRLF.encode("ascii"),
    CRLF.replace('"table"', '"table" x', 1).encode("ascii"),
    b"\xef\xbb\xbf" + (TWO % "[[0, 1], [1, 0]]").encode("ascii"),
    '{"elements": ["\u00e9", "\u00fc"], "table": [[0, 1], [1, 0]]}'.encode("utf-8"),
    (TWO % "[[0, 1], [1, 4294967296]]").encode("ascii"),
    (TWO % "[[0, 1], [1, 0000000001]]").encode("ascii"),
    (TWO % "[[0, 1], [01, 0]]").encode("ascii"),
    b'{"elements": ["\xff"], "table": [[0]]}',
], ids=["crlf", "crlf-error", "utf8-bom", "non-ascii-label", "ten-digits", "ten-digits-leading-zeros",
        "leading-zero", "invalid-utf8"])
def test_table_report_matches_the_json_path(tmp_path, capsys, data):
    path = tmp_path / "table.json"
    path.write_bytes(data)
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2",
                       "--format", "json", "--table", str(path))
    entry = json.loads(out)[-1]
    assert entry["check"] == "table-associativity"
    assert (entry["status"], entry["witness"]) == _json_path_report(path)
    assert code == (entry["status"] == "fail")


@pytest.mark.parametrize("depth", [900, 5000], ids=["label-depth", "json-depth"])
def test_deeply_nested_label_fails_its_check_only(tmp_path, capsys, depth):
    # about 900 levels pass json but exhaust the label conversion; about
    # 5000 exhaust json itself
    path = tmp_path / "table.json"
    path.write_text('{"elements": [%s%s], "table": [[0]]}' % ("[" * depth, "]" * depth))
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2",
                       "--format", "json", "--table", str(path))
    assert code == 1
    report = json.loads(out)
    assert [r["check"] for r in report] == [name for name, _ in cli.CHECKS] + ["table-associativity"]
    assert all(r["status"] == "pass" for r in report[:-1])
    assert report[-1]["status"] == "fail"
    assert report[-1]["witness"]["error"].startswith("maximum recursion depth exceeded")


def test_raising_check_fails_and_the_run_goes_on(monkeypatch, capsys):
    def broken(p, n, eps):
        raise AssertionError("conjugation law broken")

    monkeypatch.setattr(xc, "conjugations", broken)
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2", "--format", "json")
    assert code == 1
    report = {r["check"]: r for r in json.loads(out)}
    assert list(report) == [name for name, _ in cli.CHECKS]
    failed = {name for name, r in report.items() if r["status"] == "fail"}
    assert failed == {"cross-connections", "bundle-amalgam"}
    for name in failed:
        assert report[name]["witness"] == {"error": "conjugation law broken"}


@pytest.mark.parametrize("check,witness", [
    (cli._check_cone_semigroup,
     "the cone semigroup of GF(2)^5 has order 23555072, beyond the associativity guard 1500"),
    (cli._check_m_sets, "p^(n^2) = 33554432 exceeds endomorphism guard 1048576"),
], ids=["cone-semigroup", "m-sets"])
def test_check_refuses_before_the_category_is_built(monkeypatch, check, witness):
    def forbidden(p, n):
        raise AssertionError("the category was built before the guard refused")

    monkeypatch.setattr(gf, "subspace_lattice", forbidden)
    with pytest.raises(gf.GuardExceeded) as exc:
        check(2, 5)
    assert str(exc.value) == witness


@pytest.mark.parametrize("field,how,path", [
    (field, how, "witnesses") for field in ("l_classes", "r_classes") for how in ("merge", "split")
])
def test_green_check_fails_on_planted_classes(monkeypatch, field, how, path):
    # a class merged with the next or split in two, planted into the
    # witnesses' classes, changes that relation's class sizes; path names
    # the one source of classes the check reads
    assert cli._check_green(3, 2) is None
    honest = sg.sing_green

    def planted(*args):
        g = honest(*args)
        classes = list(getattr(g, field))
        if how == "merge":
            classes[0:2] = [tuple(sorted(classes[0] + classes[1]))]
        else:
            i = next(i for i, c in enumerate(classes) if len(c) > 1)
            classes[i:i + 1] = [classes[i][:1], classes[i][1:]]
        return sg.GreenStructure(**{**{f: getattr(g, f) for f in g._fields}, field: tuple(classes)})

    monkeypatch.setattr(sg, "sing_green", planted)
    assert cli._check_green(3, 2) == {"failure": "class sizes differ from the closed form", "relation": field}


def test_regularity_check_fails_on_a_missing_idempotent(monkeypatch):
    honest = gf.idempotent_matrices
    monkeypatch.setattr(gf, "idempotent_matrices", lambda p, n: honest(p, n)[1:])
    assert cli._check_regularity(3, 2) == {"idempotents": 12, "expected": 13}


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4)])
def test_regularity_and_green_checks_build_no_table(monkeypatch, p, n):
    # both checks read only the witnesses, so they pass past the table guard
    def forbidden(*args):
        raise AssertionError("a Sing table was built")

    for owner, name in [(gf, "sing_table"), (sg, "from_table")]:
        monkeypatch.setattr(owner, name, forbidden)
    assert cli._check_regularity(p, n) is None
    assert cli._check_green(p, n) is None


def test_verify_all_computes_the_witnesses_once():
    sg.sing_green.cache_clear()
    report = cli.run_checks(2, 2)
    assert [r["status"] for r in report[1:3]] == ["pass", "pass"]
    info = sg.sing_green.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cross_connections_and_bundle_amalgam_build_no_table(monkeypatch):
    # the conjugation law and the block embeddings are stated reductions, so
    # neither check builds Sing's table or runs Light's test on one
    def forbidden(*args):
        raise AssertionError("a Sing table was built")

    for owner, name in [(gf, "sing_table"), (sg, "from_table")]:
        monkeypatch.setattr(owner, name, forbidden)
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        assert cli._check_cross_connections(p, n) is None
    for p, n in [(2, 2), (3, 2)]:
        assert cli._check_bundle_amalgam(p, n) is None


def _corrupt_witness(monkeypatch, p, n):
    """Make one element's regularity witness wrong, through the rref of
    [x | I] that sing_green reads: entry (0, 0) of E, the row x+ takes at
    x's first pivot, is moved by one.  x.x+.x then differs from x by E^-1
    times x's first row, so the element is one whose first row is nonzero.
    Returns the message that names it.  sing_green's cache is cleared
    first, so the corrupted elimination is the one it reads."""
    sg.sing_green.cache_clear()
    mats = gf._sing_matrices(p, n)
    k = int(np.flatnonzero(mats[:, 0].any(axis=1))[2])
    rref_stack = gf.rref_stack

    def corrupted(a, q):
        red, pivot, rank = rref_stack(a, q)
        if a.shape == (len(mats), n, 2 * n) and np.array_equal(a[:, :, :n], mats):
            red[k, 0, n] = (red[k, 0, n] + 1) % q
        return red, pivot, rank

    monkeypatch.setattr(gf, "rref_stack", corrupted)
    return f"element {k} of Sing(GF({p})^{n}), {mats[k].tolist()}, fails its regularity"


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_a_corrupted_witness_fails_green_and_its_check(monkeypatch, capsys, p, n):
    message = _corrupt_witness(monkeypatch, p, n)
    with pytest.raises(AssertionError) as exc:
        sg.sing_green(p, n)
    assert str(exc.value).startswith(message)
    assert run(capsys, "green", "--field", str(p), "--dim", str(n)) == (1, "", f"error: {exc.value}\n")
    entry = cli._run_check("green-eggbox", cli._check_green, p, n)
    assert json.loads(json.dumps(entry)) == {
        "check": "green-eggbox", "status": "fail", "witness": {"error": str(exc.value)}}


def test_m_sets_and_green_take_no_per_element_subspaces(monkeypatch):
    def refuse(*args):
        raise AssertionError("a subspace was computed per element")

    monkeypatch.setattr(gf, "restriction", refuse, raising=False)
    assert cli._check_m_sets(2, 4) is None
    assert cli._check_green(7, 2) is None


def test_dual_category_check_decides_the_2_3_identification(monkeypatch):
    # the (2,3) lattice with its first proper containment dropped, read by
    # the check at (2,3), the one point it decides
    iso = ann.iso_to_dual_subspace_category
    seen = []

    def recorded(p, n):
        seen.append((p, n))
        return iso(p, n)

    monkeypatch.setattr(ann, "iso_to_dual_subspace_category", recorded)
    u, v = lo.first_proper_containment(2, 3)
    lo.plant(monkeypatch, 2, 3, lo.mutated(2, 3, drop=(u, v)))
    subspaces = gh.subspaces(2, 3)
    assert cli._check_dual_category(2, 3) == {
        "failure": "order reversal", "objects": [subspaces[v].to_json(), subspaces[u].to_json()]}
    assert seen == [(2, 3)]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_each_check_reads_only_its_own_point(monkeypatch, p, n):
    # Every cached function is replaced by one with an empty cache, so the
    # first check to read a point reads it through the recorded functions,
    # and the caches the other tests share are left as they were.
    # bundle-amalgam alone reads the dimensions of its fixed fiber family;
    # the cone semigroup is built once.
    for module in (gf, sg, sc):
        for name, value in list(vars(module).items()):
            if hasattr(value, "cache_clear"):
                monkeypatch.setattr(module, name, functools.lru_cache(maxsize=None)(value.__wrapped__))
    current, reads, builds = [None], {}, []
    run_check, cones = cli._run_check, sc.coded_normal_cones

    def named(name, *args):
        current[0] = name
        return run_check(name, *args)

    def recording(real):
        def recorded(q, m):
            reads.setdefault(current[0], set()).add((q, m))
            return real(q, m)
        return recorded

    def counted(q, m):
        builds.append((q, m))
        return cones(q, m)

    monkeypatch.setattr(cli, "_run_check", named)
    for name in ("_reduced", "subspace_lattice", "sing_decode"):
        monkeypatch.setattr(gf, name, recording(getattr(gf, name)))
    monkeypatch.setattr(sc, "coded_normal_cones", counted)
    assert [r["status"] for r in cli.run_checks(p, n)] == ["pass"] * len(cli.CHECKS)
    assert reads["cardinalities"] == {(p, n)} and builds == [(p, n)]
    fixed = {"bundle-amalgam": {(p, d) for d in (*cli.BUNDLE_DIMS, cli.BUNDLE_CORE_DIM)}}
    strays = {name: points - {(p, n)} - fixed.get(name, set()) for name, points in reads.items()}
    assert {name: points for name, points in strays.items() if points} == {}


def verify_all(capsys, fmt, p=2, n=2):
    """(status, {check: (status, witness)}) of verify-all in the given
    format; the table format's witnesses are parsed back from JSON."""
    code, out, err = run(capsys, "verify-all", "--field", str(p), "--dim", str(n), "--format", fmt)
    assert err == ""
    if fmt == "json":
        return code, {r["check"]: (r["status"], r["witness"]) for r in json.loads(out)}
    lines = out.splitlines()
    failed = [name for name, _ in cli.CHECKS if f"FAIL {name}" in out]
    assert lines[-1] == ("failed: " + ", ".join(failed) if failed else "all checks passed")
    report = {}
    for line in lines[:-1]:
        status, name, *rest = line.split(" ", 2)
        report[name] = (status.lower(), json.loads(rest[0][len("witness="):]) if rest else None)
    return code, report


def sing_positions_of_transposes(p, n):
    """The Sing position of a^T for each element a of Sing(GF(p)^n), by
    the loop oracle's elements: the index of the cone of a^T."""
    sing = sing_oracle.sing_semigroup(p, n)
    position = {a: k for k, a in enumerate(sing.elements)}
    return np.array([position[gh.transpose(a)] for a in sing.elements])


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_cone_map_failure_names_the_pair_as_documents(monkeypatch, capsys, fmt):
    # two cones exchanged, out of Sing order: the identity map from Sing is
    # then a transposition of the isomorphism, no homomorphism; the witness
    # is the loop oracle's pair
    co.swap_two_cones(monkeypatch)
    sing = sing_oracle.sing_semigroup(2, 2)
    cones = sc.coded_normal_cones(2, 2)[0]
    pair = sing_oracle.hom_witness(sing_oracle.SemigroupMorphism(sing, cones, tuple(range(sing.order))))
    code, report = verify_all(capsys, fmt)
    assert code == 1
    assert report["cone-semigroup"] == ("fail", {
        "failure": "cone map is not an isomorphism", "hom": [a.to_json() for a in pair]})
    assert [k for k, (st, _) in report.items() if st == "fail"] == ["cone-semigroup"]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_dual_cone_failure_names_the_pair_as_documents(monkeypatch, capsys, fmt):
    # the isomorphism passes and the second map, a -> cone(a^T) from the
    # opposite of Sing's table, is given a witness: it is reported alone,
    # its pair named by the Sing elements' documents; null-amalgam's two
    # calls, which come after, are left as they are
    real, calls = sg.morphism_witnesses, []

    def second_fails(source, target, img):
        calls.append((source, target, img))
        found = real(source, target, img)
        return {"hom": (3, 4)} if len(calls) == 2 else found

    monkeypatch.setattr(sg, "morphism_witnesses", second_fails)
    code, report = verify_all(capsys, fmt)
    assert code == 1
    sing = sing_oracle.sing_semigroup(2, 2)
    assert report["cone-semigroup"] == ("fail", {
        "failure": "dual cone semigroup", "hom": [sing.elements[3].to_json(), sing.elements[4].to_json()]})
    assert [k for k, (st, _) in report.items() if st == "fail"] == ["cone-semigroup"]
    (table, cones, identity), (opposite, dual_cones, transposed) = calls[:2]
    assert np.array_equal(opposite, table.T) and dual_cones is cones
    assert identity.tolist() == list(range(10))
    assert np.array_equal(transposed, sing_positions_of_transposes(2, 2))


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_cone_map_failures_at_each_point(monkeypatch, p, n):
    # on the real build both maps are decided and pass: a -> cone(a), the
    # identity on Sing positions, from Sing's table, then a -> cone(a^T)
    # from its opposite
    real, calls = sg.morphism_witnesses, []

    def recorded(source, target, img):
        found = real(source, target, img)
        calls.append((source, target, img, found))
        return found

    monkeypatch.setattr(sg, "morphism_witnesses", recorded)
    assert cli._check_cone_semigroup(p, n) is None
    table, cones = gf.sing_table(p, n), sc.coded_normal_cones(p, n)[0].table
    (source, target, img, found), (opposite, dual_target, transposed, dual_found) = calls
    assert np.array_equal(source, table) and np.array_equal(target, cones)
    assert img.tolist() == list(range(len(table))) and found == {}
    assert np.array_equal(opposite, table.T) and np.array_equal(dual_target, cones)
    assert np.array_equal(transposed, sing_positions_of_transposes(p, n)) and dual_found == {}
    monkeypatch.undo()
    # two cones exchanged, out of Sing order: refused with a hom witness,
    # the loop oracle's first failing pair
    co.swap_two_cones(monkeypatch)
    sing = sing_oracle.sing_semigroup(p, n)
    planted = sc.coded_normal_cones(p, n)[0]
    pair = sing_oracle.hom_witness(sing_oracle.SemigroupMorphism(sing, planted, tuple(range(sing.order))))
    assert cli._check_cone_semigroup(p, n) == {
        "failure": "cone map is not an isomorphism", "hom": [a.to_json() for a in pair]}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("branch,inclusion,found", [
    (0, [0, 0, 0, 0], {"hom": [["U", "u"], ["U", "u"]], "injective": [["U", "u"], ["U", "v"]]}),
    (1, [0, 1, 2, 2], {"hom": [["U", "u"], ["U", "u"]], "injective": [["U", "w"], ["U", "z"]]}),
    (1, [3, 3, 3, 3], {"injective": [["U", "u"], ["U", "v"]]}),
], ids=["constant-u", "repeat", "constant-z"])
def test_null_amalgam_failure_names_branch_and_pair(monkeypatch, capsys, fmt, branch, inclusion, found):
    core, branches, inclusions = sg.null_semigroup_fixture()
    planted = list(inclusions)
    planted[branch] = np.array(inclusion)
    monkeypatch.setattr(sg, "null_semigroup_fixture", lambda: (core, branches, tuple(planted)))
    # the loop oracle agrees on the homomorphism pair
    want = sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(core, branches[branch], tuple(inclusion)))
    assert json.loads(json.dumps(want.witnesses)) == found
    code, report = verify_all(capsys, fmt)
    assert code == 1
    assert report["null-amalgam"] == ("fail", {"failure": "inclusion", "branch": branch, **found})
    assert [k for k, (st, _) in report.items() if st == "fail"] == ["null-amalgam"]


def test_failed_amalgam_embedding_exits_1_with_its_message(monkeypatch, capsys):
    # the zero matrix, the block embedding of the core's zero, planted as
    # invertible in the dim-3 decode array once the linked pairs are built:
    # fiber 2 of the default dims
    real_decode, real_embedding = gf.sing_decode, bn.build_embedding
    decode = real_decode(2, 3).copy()
    decode[0] = -1

    def planted(spec, i, m):
        monkeypatch.setattr(gf, "sing_decode", lambda p, n: decode if n == 3 else real_decode(p, n))
        return real_embedding(spec, i, m)

    monkeypatch.setattr(bn, "build_embedding", planted)
    code, out, err = run(capsys, "amalgam", "--field", "2")
    assert (code, out, err) == (1, "", "error: a block-embedded core element is invertible in fiber 2\n")


def _edit_perms(monkeypatch, edit):
    """Make xc.conjugations hand back its permutations after edit(perms),
    each row marked by whether it is still a permutation."""
    real = xc.conjugations

    def edited(p, n, eps):
        conj = real(p, n, eps)
        perms = conj.perms.copy()
        edit(perms)
        permutes = (np.sort(perms, axis=1) == np.arange(perms.shape[1])).all(axis=1)
        return xc.Conjugations(conj.p, conj.n, conj.eps, conj.inv, conj.inverts, perms, permutes)

    monkeypatch.setattr(xc, "conjugations", edited)


def test_non_permutation_exits_1_as_a_failed_verification(monkeypatch, capsys):
    def copy(perms):
        perms[:, 2] = perms[:, 1]

    _edit_perms(monkeypatch, copy)
    code, out, err = run(capsys, "crossconn", "--field", "2", "--dim", "2")
    assert (code, out, err) == (1, "", "error: not a permutation of the element indices\n")


# ---------------------------------------------------------------------------
# the process path: python -m fibersemi.cli and the fibersemi script

def process(*argv):
    """``python -m fibersemi.cli argv`` in a fresh interpreter: (status, stdout, stderr)."""
    done = subprocess.run([sys.executable, "-m", "fibersemi.cli", *argv], cwd=SRC,
                          env={"PYTHONPATH": str(SRC)}, capture_output=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


# Linux carries the spawning process's own peak into a child's ru_maxrss
# across exec, so the command is started from a bare interpreter that reads
# the peak through os.wait4 and prints it, with the status, on stderr.
_PEAK_LAUNCHER = ("import os, subprocess, sys\n"
                  "proc = subprocess.Popen([sys.executable, '-m', 'fibersemi.cli', *sys.argv[1:]])\n"
                  "_, status, usage = os.wait4(proc.pid, 0)\n"
                  "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)\n")


def process_peak(*argv):
    """``python -m fibersemi.cli argv`` in a fresh interpreter with one
    BLAS thread: (status, stdout, peak resident memory in MB)."""
    done = subprocess.run([sys.executable, "-c", _PEAK_LAUNCHER, *argv], cwd=SRC,
                          env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, timeout=120)
    status, kb = map(int, done.stderr.split(b"\n")[-2].split())
    return status, done.stdout, kb / 1024


def test_green_at_2_4_checks_its_witnesses_in_blocks():
    # with all 45,376 elements' witness stacks held at once it peaked near
    # 118 MB; gf._reduced(2, 4) alone takes about 58
    status, out, peak = process_peak("green", "--field", "2", "--dim", "4", "--format", "json")
    assert status == 0 and len(json.loads(out)["d_classes"]) == 4
    assert peak < 80


def test_verify_all_at_7_4_builds_the_lattice_from_one_product():
    # dual-category is decided on the lattice of the 3,652 subspaces of
    # GF(7)^4; multiplying every vector by both A_u and the basis B_u of each
    # subspace u, and reading ann from an (S, S) mask, peaked near 200 MB
    status, out, peak = process_peak("verify-all", "--field", "7", "--dim", "4", "--format", "json")
    report = {r["check"]: r["status"] for r in json.loads(out)}
    assert status == 1 and report["dual-category"] == "pass"
    assert peak < 100


def test_table_check_at_the_order_guard_keeps_two_table_copies(tmp_path):
    # Z_1500's document is 9.6 MB.  Read as text, with its bytes, the cells
    # and three whole-table buffers of Light's test alive, the table check
    # peaked at 65 MB; with at most two table-sized buffers, about 48 MB.
    # A label written as UTF-8 once sent the document through json.loads,
    # to 145 MB; it stays on the array path, at the same peak.
    n = gf.ASSOC_GUARD
    index = np.arange(n)
    table = sg.table_json((index[:, None] + index) % n)
    path = tmp_path / "cyclic.json"
    peaks = []
    for first in ("0", "\u00e9"):
        path.write_bytes(('{"elements": ["%s", %s], "table": %s}' % (first, str(list(range(1, n)))[1:-1], table))
                         .encode("utf-8"))
        status, out, peak = process_peak("verify-all", "--field", "2", "--dim", "2", "--format", "json",
                                         "--table", str(path))
        assert status == 0
        assert json.loads(out)[-1] == {"check": "table-associativity", "status": "pass", "witness": None}
        peaks.append(peak)
    assert peaks[0] < 53 and peaks[1] < 1.05 * peaks[0]


def test_table_check_with_whitespace_at_the_order_guard_keeps_three_table_copies(tmp_path):
    # json.dumps' default ", " separators make Z_1500's document 13.5 MB.
    # The reader keeps such a table's bytes, to compare its parse with a
    # whitespace-free copy and for the json path, so it holds one
    # table-sized buffer more than a whitespace-free table: about 61 MB,
    # against 54 MB when the whitespace-free copy of the file was taken
    # first and the file's bytes dropped.
    n = gf.ASSOC_GUARD
    index = np.arange(n)
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({"elements": list(range(n)), "table": ((index[:, None] + index) % n).tolist()}))
    status, out, peak = process_peak("verify-all", "--field", "2", "--dim", "2", "--format", "json",
                                     "--table", str(path))
    assert status == 0
    assert json.loads(out)[-1] == {"check": "table-associativity", "status": "pass", "witness": None}
    assert peak < 66


def in_process(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # a usage error, or the help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.mark.parametrize("argv,status", [
    (("enumerate", "--field", "2", "--dim", "2"), 0),
    (("green", "--field", "2", "--dim", "2", "--format", "dot"), 0),
    (("verify-all", "--field", "2", "--dim", "2", "--format", "json"), 0),
    (("verify-all", "--field", "5", "--dim", "2"), 1),  # bundle-amalgam refused by a guard
    (("enumerate", "--field", "2", "--dim", "9"), 2),
    (("enumerate", "--field", "x"), 2),
    (("enumerate", "--format=dot"), 2),
    (("crossconn", "--bogus"), 2),
    (("green", "-h"), 0),
    (("enumerate", "--out", "/"), 2),  # a directory cannot be written
    (("verify-all", "--field", "2", "--dim", "2", "--table", "missing.json"), 1),
], ids=["enumerate", "green-dot", "verify-all-json", "verify-all-fails", "guard", "usage", "usage-format",
        "usage-unknown", "help", "out-unwritable", "table-missing"])
def test_process_output_and_status_match_main(capsys, argv, status):
    want = in_process(capsys, *argv)
    assert want[0] == status
    assert process(*argv) == want


def test_deeply_nested_eps_is_a_usage_error_not_a_traceback():
    # json.loads raises RecursionError past the interpreter's depth, which
    # escaped as a traceback with status 1
    status, out, err = process("crossconn", "--field", "2", "--dim", "2", "--eps", "[" * 3000 + "]" * 3000)
    assert (status, out, err) == (2, b"", b"error: --eps must be a JSON list of 2 lists of 2 integers\n")


def test_process_writes_out_file_in_full(tmp_path, capsys):
    argv = ("green", "--field", "2", "--dim", "3", "--format", "dot")
    _, want, _ = in_process(capsys, *argv)
    target = tmp_path / "eggbox.dot"
    assert process(*argv, "--out", str(target)) == (0, b"", b"")
    assert target.read_bytes() == want


def test_process_exit_runs_an_outer_atexit_handler():
    # runs the module as python -m does, with an atexit handler registered
    # before it; run() ends the process without finalization, so it must
    # run the handlers itself, after main()'s output
    code = ("import atexit, runpy, sys\n"
            "atexit.register(lambda: print('handler ran', file=sys.stderr))\n"
            "sys.argv = ['fibersemi', 'enumerate']\n"
            "runpy.run_module('fibersemi.cli', run_name='__main__', alter_sys=True)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC, env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert "singular_endomorphisms: 10" in done.stdout
    assert done.stderr == "handler ran\n"


@pytest.mark.parametrize("argv", [
    ("crossconn", "--field", "3", "--dim", "2", "--all-eps", "--format", "json"),
    ("cones", "--field", "5", "--dim", "2", "--format", "json"),
], ids=["crossconn-all-eps-3-2", "cones-5-2"])
def test_largest_benchmark_outputs_arrive_whole(tmp_path, capsys, argv):
    # through a pipe, and through --out, whose file main() closes before
    # the process ends
    want = in_process(capsys, *argv)
    assert want[0] == 0 and len(want[1]) > 1 << 16  # more than a pipe buffer holds
    assert process(*argv) == want
    target = tmp_path / "out.json"
    assert process(*argv, "--out", str(target)) == (0, b"", b"")
    assert target.read_bytes() == want[1]


# the interpreter's own exit, which run() took before it ended the process itself
_INTERPRETER_EXIT = "import sys; from fibersemi.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("argv", [
    ("enumerate",),  # the output waits in stdout's buffer, so the flush after main() fails
    ("cones", "--field", "5", "--dim", "2", "--format", "json"),  # the write in main() fails
], ids=["flush", "write"])
def test_closed_stdout_gives_the_interpreters_status_and_stderr(argv):
    # a reader that is gone before the output comes, as `| head -c 10` can be
    def closed_stdout(*prefix):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, *prefix, *argv], cwd=SRC, env={"PYTHONPATH": str(SRC)},
                                  stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        return done.returncode, done.stderr.decode().splitlines()

    got, want = closed_stdout("-m", "fibersemi.cli"), closed_stdout("-c", _INTERPRETER_EXIT)
    assert got[0] == want[0] != 0
    if argv == ("enumerate",):
        assert got[1] == want[1] and want[1][-1] == "BrokenPipeError: [Errno 32] Broken pipe"
    else:  # a traceback, whose frames name the two entry points
        assert got[1][0] == want[1][0] == "Traceback (most recent call last):"
        assert got[1][-1] == want[1][-1] == "BrokenPipeError: [Errno 32] Broken pipe"


def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_verify_all", never)
    target = tmp_path / "missing" / "report.txt"
    for path in (target, tmp_path):  # a missing directory, and a directory
        assert cli.main(["verify-all", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --out {path}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_a_command_that_fails_before_it_emits_leaves_out_alone(tmp_path, capsys):
    kept, fresh, link = tmp_path / "kept.txt", tmp_path / "fresh.txt", tmp_path / "link.txt"
    kept.write_text("earlier output\n")
    link.symlink_to(tmp_path / "target.txt")  # dangling
    for path in (kept, fresh, link):
        assert cli.main(["enumerate", "--field", "2", "--dim", "9", "--out", str(path)]) == 2  # the guard refuses
        assert capsys.readouterr().err.startswith("error: p^(n^2)")
    assert kept.read_text() == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt", "link.txt"]
    assert cli.main(["enumerate", "--out", str(kept)]) == 0
    assert kept.read_text().startswith("field: 2\n")


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["enumerate", "--field", "2", "--dim", "2"]) == 0
    assert gc.get_freeze_count() == before


def test_console_script_exits_through_the_process_entry_point():
    lines = (SRC.parent / "pyproject.toml").read_text().splitlines()
    assert 'fibersemi = "fibersemi.cli:run"' in lines


def test_import_fills_no_cache():
    # every lru_cache of the computing modules is empty after the CLI's
    # import, so no lattice, table or index is built at import time
    code = ("import json, fibersemi.cli\n"
            "from fibersemi import crossconn, gf, subspace_category\n"
            "print(json.dumps({f'{m.__name__}.{k}': f.cache_info().currsize\n"
            "                  for m in (gf, subspace_category, crossconn)\n"
            "                  for k, f in vars(m).items() if hasattr(f, 'cache_info')}))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC, env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    sizes = json.loads(done.stdout)
    assert {"fibersemi.gf.subspace_lattice", "fibersemi.gf.row_spaces", "fibersemi.gf.sing_images",
            "fibersemi.subspace_category.shape_factors"} <= set(sizes)
    assert set(sizes.values()) == {0}


def test_package_import_loads_no_module():
    # the package binds only its docstring; each command imports the layers
    # it reads through fibersemi.cli
    code = ("import sys, fibersemi\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('fibersemi.')))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC, env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[]\n")


# ---------------------------------------------------------------------------
# guards that refuse by a closed-form count before enumerating

@pytest.mark.parametrize("p,n,autos,order", [(2, 3, 168, 344), (5, 2, 480, 145), (7, 2, 2016, 385), (2, 4, 20160, 45376)])
def test_crossconn_all_eps_refuses_by_its_output_size(monkeypatch, capsys, p, n, autos, order):
    def forbidden(*args):
        raise AssertionError("an automorphism was enumerated before the guard refused")

    monkeypatch.setattr(gf, "enumerate_automorphisms", forbidden)
    start = time.perf_counter()
    code, out, err = run(capsys, "crossconn", "--field", str(p), "--dim", str(n), "--all-eps", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: crossconn --all-eps at GF({p})^{n} would write {autos} tables of order {order}, "
                   f"{autos * order ** 2} cells in all, beyond the output limit of {cli.ALL_EPS_CELL_LIMIT} cells\n")


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_crossconn_all_eps_runs_under_the_output_limit(p, n):
    cells = len(gf.enumerate_automorphisms(p, n)) * gf.singular_count(p, n) ** 2
    assert cells <= cli.ALL_EPS_CELL_LIMIT
    cli._check_all_eps_output(p, n)


@pytest.mark.parametrize("n,message", [
    (6, "the cone semigroup of GF(2)^6 has order 48560766976, beyond the associativity guard 1500"),
    (7, "GF(2)^7 has 29212 subspaces, beyond the subspace guard 4096"),
])
def test_cones_refuses_before_the_category_is_built(monkeypatch, capsys, n, message):
    def forbidden(p, n):
        raise AssertionError("the category was built before the guard refused")

    monkeypatch.setattr(gf, "subspace_lattice", forbidden)
    start = time.perf_counter()
    assert run(capsys, "cones", "--field", "2", "--dim", str(n)) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv,message", [
    (("enumerate", "--field", "7", "--dim", "80"), "p^(n^2) = at least 2^17967 exceeds endomorphism guard 1048576"),
    (("cones", "--field", "2", "--dim", "300"), "GF(2)^300 has at least 2^22500 subspaces, beyond the subspace guard 4096"),
    (("crossconn", "--field", "7", "--dim", "45", "--all-eps"),
     "p^(n^2) = at least 2^5684 exceeds endomorphism guard 1048576"),
])
def test_guards_name_counts_too_long_to_print(capsys, argv, message):
    # a count past 64 bits is named by a power of two it reaches, read from
    # a closed-form lower bound that is never multiplied out
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - start < 1.0


HUGE = 99999999999999999999


@pytest.mark.parametrize("argv,status,message", [
    ("amalgam --dims 9", 2, "p^(n^2) = at least 2^81 exceeds endomorphism guard 1048576"),
    (f"amalgam --dims {HUGE}", 2, f"p^(n^2) = at least 2^{HUGE ** 2} exceeds endomorphism guard 1048576"),
    ("amalgam --dims 2,1000", 2, "p^(n^2) = at least 2^1000000 exceeds endomorphism guard 1048576"),
    ("crossconn --dim 20000", 2, "p^(n^2) = at least 2^400000000 exceeds endomorphism guard 1048576"),
    ("green --dim 1000000", 2, "p^(n^2) = at least 2^1000000000000 exceeds endomorphism guard 1048576"),
    ("cones --dim 1000000", 2, "GF(2)^1000000 has at least 2^250000000000 subspaces, beyond the subspace guard 4096"),
    ("crossconn --all-eps --dim 1000000", 2, "p^(n^2) = at least 2^1000000000000 exceeds endomorphism guard 1048576"),
    (f"enumerate --dim {HUGE}", 2, f"p^(n^2) = at least 2^{HUGE ** 2} exceeds endomorphism guard 1048576"),
    ("verify-all --dim 1000", 1, None),
    ("verify-all --dim 3000", 1, None),
    (f"verify-all --field 3 --dim {HUGE}", 1, None),
])
def test_refusals_at_any_dimension_take_under_a_second(argv, status, message):
    # Each command in a fresh process under a 2 GB address-space limit,
    # timed around main(): the guards decide from a bound on the size, and
    # no count, identity or matrix of a refused dimension is built.
    # verify-all reports every check that reads (p, n) as refused by a
    # guard; the null and bundle amalgams do not depend on n.
    code = ("import contextlib, io, json, resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from fibersemi import cli\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "start = time.perf_counter()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "    status = cli.main(sys.argv[1:] + ['--format', 'json'] * sys.argv[1].startswith('verify'))\n"
            "print(json.dumps([status, time.perf_counter() - start, out.getvalue(), err.getvalue()]))\n")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code, *argv.split()], cwd=SRC,
                          env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=120)
    got, seconds, out, err = json.loads(done.stdout)
    assert (got, done.stderr) == (status, "") and seconds < 1.0
    if message is not None:
        assert (out, err) == ("", f"error: {message}\n")
    else:
        report = {r["check"]: r for r in json.loads(out)}
        assert list(report) == [name for name, _ in cli.CHECKS]
        fixed = {"null-amalgam", "bundle-amalgam"}
        assert all(report[name]["status"] == "pass" for name in fixed)
        assert all(list(r["witness"]) == ["guard"] for name, r in report.items() if name not in fixed)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3), (7, 3)])
def test_all_eps_meets_the_endomorphism_guard_first(monkeypatch, capsys, p, n):
    # enumerating GL_n(p) needs p^(n^2) matrices, so that guard refuses
    # before GL_n(p) is counted or enumerated
    def forbidden(*args):
        raise AssertionError("GL_n(p) was counted before the endomorphism guard refused")

    monkeypatch.setattr(gf, "gl_order", forbidden)
    monkeypatch.setattr(gf, "enumerate_automorphisms", forbidden)
    code, out, err = run(capsys, "crossconn", "--field", str(p), "--dim", str(n), "--all-eps")
    assert (code, out) == (2, "")
    assert err == f"error: p^(n^2) = {p ** (n * n)} exceeds endomorphism guard {gf.ENDO_ENUM_LIMIT}\n"


@pytest.mark.parametrize("argv", ["cones --field 2 --dim 1448", "cones --field 3 --dim 1150",
                                  "crossconn --all-eps --field 3 --dim 1150", "crossconn --all-eps --field 5 --dim 949"])
def test_guards_do_no_big_integer_work(capsys, argv):
    # an exact subspace count or |GL_n(p)| here has two million bits and takes
    # a quarter of a second; the guards name a bound instead
    start = time.perf_counter()
    code = cli.main(argv.split())
    seconds = time.perf_counter() - start
    assert (code, capsys.readouterr().out) == (2, "") and seconds < 0.05


def _loaded(*args):
    """The modules a fresh ``python -X importtime args`` process loads, read
    from the import times it writes on stderr."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=SRC, env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line.split("|") for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {fields[-1].strip() for fields in lines[1:]}  # the first line is the header


@pytest.mark.parametrize("argv", [["enumerate"], ["green", "--format", "dot"], ["verify-all"],
                                  ["crossconn", "--all-eps"]])
def test_a_command_loads_no_argument_parser_and_no_package_module_the_import_does_not(argv):
    # the benchmark's untimed import of fibersemi.cli compiles what a command
    # loads of the package, so no compile moves into the first timed command
    command = _loaded("-m", "fibersemi.cli", *argv)
    assert not command & {"argparse", "gettext", "locale"}
    package = {m for m in _loaded("-c", "import fibersemi.cli") if m.split(".")[0] == "fibersemi"}
    # run with -m, the module is __main__ and is not imported as fibersemi.cli
    assert {m for m in command if m.split(".")[0] == "fibersemi"} | {"fibersemi.cli"} == package

