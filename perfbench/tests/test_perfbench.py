"""Tests of the benchmark harness itself: output checks, span accounting and
metric names.  Run with ``python3 -m pytest perfbench/tests -q`` from the
repository root."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import closed_form as cf  # noqa: E402
from perfbench import run, tracer  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fibersemi(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True)


def cli_output(*args):
    return fibersemi("-m", "fibersemi.cli", *args).stdout


# ---------------------------------------------------------------------------
# output checks

def test_closed_forms_match_known_values():
    assert [cf.singular_count(2, 2), cf.singular_count(3, 2), cf.singular_count(2, 3)] == [10, 33, 344]
    assert cf.idempotent_count(2, 2) == 7
    assert cf.gl_order(3, 2) == 48
    assert len(cf.singular_matrices(3, 2)) == 33
    shape = cf.green_shape(2, 2)
    assert (shape["l"], shape["r"], shape["h"], shape["d"]) == (4, 4, 10, 2)


def test_relabelled_table_depends_only_on_seed():
    a, b = cf.relabelled_sing_table(2, 2, 1), cf.relabelled_sing_table(2, 2, 1)
    assert a == b
    assert cf.relabelled_sing_table(2, 2, 2)["elements"] != a["elements"]
    labels = [tuple(map(tuple, e)) for e in a["elements"]]
    t = a["table"]
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            assert labels[t[i][j]] == cf.mat_mul(x, y, 2)


def test_enumerate_check_rejects_wrong_idempotent_count():
    text = cli_output("enumerate", "--field", "3", "--dim", "2", "--format", "json")
    wl.check_enumerate(3, 2, text)
    doc = json.loads(text)
    doc["idempotents"] += 1
    with pytest.raises(wl.OutputMismatch, match="idempotents"):
        wl.check_enumerate(3, 2, json.dumps(doc))


def test_verify_all_check_rejects_a_flipped_check():
    report = [{"check": c, "status": "pass", "witness": None} for c in wl.VERIFY_CHECKS]
    wl.check_verify_all(json.dumps(report))
    report[-1]["status"] = "fail"
    with pytest.raises(wl.OutputMismatch, match="table-associativity"):
        wl.check_verify_all(json.dumps(report))
    with pytest.raises(wl.OutputMismatch, match="checks run"):
        wl.check_verify_all(json.dumps(report[:-1]))


def test_green_checks_reject_merged_classes():
    text = cli_output("green", "--field", "3", "--dim", "2", "--format", "json")
    wl.check_green_json(3, 2, text)
    doc = json.loads(text)
    doc["h_classes"][0] = doc["h_classes"][0] + doc["h_classes"].pop(1)
    with pytest.raises(wl.OutputMismatch, match="H class"):
        wl.check_green_json(3, 2, json.dumps(doc))
    dot = cli_output("green", "--field", "3", "--dim", "2", "--format", "dot")
    wl.check_green_dot(3, 2, dot)
    with pytest.raises(wl.OutputMismatch, match="labels"):
        wl.check_green_dot(3, 2, dot.replace("<BR/>", "", 1))


def test_cones_check_rejects_a_wrong_product():
    text = cli_output("cones", "--field", "3", "--dim", "2", "--format", "json")
    wl.check_cones(3, 2, text)
    doc = json.loads(text)
    doc["table"][1][2] = (doc["table"][1][2] + 1) % len(doc["table"])
    with pytest.raises(wl.OutputMismatch, match="cone composition table"):
        wl.check_cones(3, 2, json.dumps(doc))


def test_failed_exit_and_bad_json_count_as_errors(tmp_path):
    cmd = wl.Command(("enumerate",), lambda t: wl.check_enumerate(2, 2, t))
    out = tmp_path / "out.txt"
    out.write_text("not json")
    assert run.check_result(cmd, {"rc": 0, "out": out}).startswith("output check")
    assert run.check_result(cmd, {"rc": 2, "out": out}) == "exit status 2"
    assert run.check_result(cmd, {"rc": None, "out": out}).startswith("timed out")


def test_yardstick_scaling_cancels_a_host_slowdown():
    fast = run.at_reference_speed(0.125, 0.10)
    slow = run.at_reference_speed(0.1875, 0.15)
    assert fast == pytest.approx(slow) == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# spans

def test_self_time_subtracts_child_coverage():
    spans = {
        "parent": np.array([-1, 0, 0, 2]),
        "start": np.array([0, 10, 40, 45]),
        "end": np.array([100, 30, 90, 60]),
    }
    assert tracer.self_times(spans).tolist() == [30, 20, 35, 15]


@pytest.fixture(scope="module")
def traced_enumerate(tmp_path_factory):
    d = tmp_path_factory.mktemp("trace")
    path = d / "spans.npz"
    fibersemi("-m", "perfbench.tracer", str(path), "7", "--",
              "enumerate", "--field", "2", "--dim", "2", "--format", "json", cwd=d)
    return path


def test_span_self_times_are_nonnegative_and_sum_to_traced_wall(traced_enumerate):
    names, spans, counters = tracer.load_spans(traced_enumerate)
    own = tracer.self_times(spans)
    assert (own >= 0).all()
    roots = np.flatnonzero(spans["parent"] < 0)
    assert [names[spans["name_id"][i]] for i in roots] == [tracer.ROOT_SPAN]
    wall = spans["end"][roots[0]] - spans["start"][roots[0]]
    assert own.sum() == wall
    assert set(spans["run_id"].tolist()) == {7}
    assert counters["semigroups.table_cells"] == 100
    assert "cli.enumerate" in names and "gf.mat_mul" in names


def test_traced_counts_repeat_exactly(traced_enumerate, tmp_path):
    again = tmp_path / "spans.npz"
    fibersemi("-m", "perfbench.tracer", str(again), "8", "--",
              "enumerate", "--field", "2", "--dim", "2", "--format", "json", cwd=tmp_path)
    first = run.layer_metrics([traced_enumerate], 0)
    second = run.layer_metrics([again], 0)
    counts = [k for k, unit in run.metric_units("per_layer").items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["gf.mat_mul.calls"] > 0


# ---------------------------------------------------------------------------
# metric names

def test_metric_names_are_well_formed_and_name_traced_functions(traced_enumerate):
    layer = run.metric_units("per_layer")
    names, _, _ = tracer.load_spans(traced_enumerate)  # every wrapped function, called or not
    for name in [*run.metric_units("end_to_end"), *layer]:
        assert METRIC_NAME.fullmatch(name), name
    for name in layer:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "s") or (kind == "self_s" and base not in tracer.LAYERS):
            assert base in names, f"{name} names no traced function"
    produced = run.layer_metrics([traced_enumerate], 0)
    assert set(produced) | {"trace.overhead_s"} == set(layer)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sing-tables", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
