"""Command-line behavior: output formats, exit codes, guards, determinism."""

import json
import time

import pytest

from fibersemi import cli
from fibersemi import gf


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
    ("enumerate", "--field", "2", "--dim", "4"),
    ("enumerate", "--field", "3", "--dim", "3"),
    ("cones", "--field", "3", "--dim", "3"),
    ("cones", "--field", "2", "--dim", "4"),
])
def test_sing_guard_refuses_fast(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "associativity guard 1500" in err

@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_cross_connections_check_refuses_before_any_automorphism(p, n):
    start = time.perf_counter()
    with pytest.raises(gf.GuardExceeded, match="associativity guard 1500"):
        cli._check_cross_connections(p, n)
    assert time.perf_counter() - start < 1.0

def test_cardinalities_builds_no_endo(monkeypatch):
    def forbidden(self, *args):
        raise AssertionError("an Endo was built only to be counted")

    monkeypatch.setattr(gf.Endo, "__init__", forbidden)
    assert cli._check_cardinalities(2, 4) == (True, None)

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
    from fibersemi import semigroups as sg
    code, out, _ = run(capsys, "green", "--field", "2", "--dim", "2", "--format", "json")
    assert code == 0
    green = sg.GreenStructure.from_json(json.loads(out))
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

@pytest.mark.parametrize("eps", ["xx", "[[1,0]"])
def test_crossconn_eps_that_is_not_json_names_the_option(capsys, eps):
    code, out, err = run(capsys, "crossconn", "--field", "2", "--dim", "2", "--eps", eps)
    assert code == 2 and out == ""
    assert err == "error: --eps must be a JSON list of 2 lists of 2 integers\n"


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
    from fibersemi import semigroups as sg
    doc = sg.null_semigroup_fixture().core.to_json()
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
    from fibersemi import semigroups as sg
    doc = sg.null_semigroup_fixture().core.to_json()
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2",
                       "--format", "json", "--table", str(path))
    assert code == 0
    report = json.loads(out)
    entry = next(r for r in report if r["check"] == "table-associativity")
    assert entry["status"] == "pass"

@pytest.mark.parametrize("doc", [
    [1, 2],
    {"elements": [{"a": 1}], "table": [[0]]},
    {"elements": ["z"], "table": [[False]]},
    {"elements": ["z"], "table": [[2 ** 70]]},
], ids=["top-level-array", "object-label", "boolean-entry", "huge-entry"])
def test_malformed_table_fails_with_error(tmp_path, capsys, doc):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2",
                       "--format", "json", "--table", str(path))
    assert code == 1
    entry = json.loads(out)[-1]
    assert entry["check"] == "table-associativity"
    assert entry["status"] == "fail" and "error" in entry["witness"]


def test_raising_check_fails_and_the_run_goes_on(monkeypatch, capsys):
    from fibersemi import crossconn as xc

    def broken(table, perm):
        raise AssertionError("conjugation law broken")

    monkeypatch.setattr(xc, "check_conjugation_law", broken)
    code, out, _ = run(capsys, "verify-all", "--field", "2", "--dim", "2", "--format", "json")
    assert code == 1
    report = {r["check"]: r for r in json.loads(out)}
    assert list(report) == [name for name, _ in cli.CHECKS]
    failed = {name for name, r in report.items() if r["status"] == "fail"}
    assert failed == {"cross-connections", "bundle-amalgam"}
    for name in failed:
        assert report[name]["witness"] == {"error": "conjugation law broken"}
