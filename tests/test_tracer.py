"""The benchmark's span tracer against the package.  perfbench/tracer.py
wraps every public function of the package's layers, and
crossconn.CrossConnection.conjugate, before it runs a command; a traced
crossconn run shows that the wrap still applies to src/ as it stands."""

import subprocess
import sys
from pathlib import Path

import numpy as np

from fibersemi import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(cli.__file__).resolve().parents[1]


def test_traced_crossconn_exits_0_with_its_spans(tmp_path):
    spans = tmp_path / "spans.npz"
    done = subprocess.run([sys.executable, "-m", "perfbench.tracer", str(spans), "1", "--",
                           "crossconn", "--field", "2", "--dim", "2"],
                          cwd=ROOT, env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "eps=((1, 0), (0, 1)) order=10\n"
    with np.load(spans) as z:
        names = {str(x) for x in z["names"]}
    assert {"crossconn.conjugate", "cli.crossconn"} <= names
