"""fibersemi benchmark: run one workload's CLI commands in a closed loop and
print its metrics.

    python3 perfbench/run.py --workload verify-grid22 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One client, nothing in parallel: each command of the workload runs in a
fresh interpreter after the previous one has exited, and the whole command
sequence repeats until ``--seconds`` would be exceeded (at least once).
Every output is checked against values the benchmark computes itself.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
seed, the samples and the machine.  ``--workload all`` prints each
workload's report in turn, then one line for all of them, with metric names
prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, OutputMismatch  # noqa: E402

SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_IMPORTS_PER_PASS = 3
# Each import of the program is followed by the yardstick: a fresh
# interpreter that imports this alone.  Timings are scaled to a host where
# the yardstick takes YARDSTICK_REF_S (README.md).
YARDSTICK_MODULE = "numpy"
YARDSTICK_REF_S = 0.100
COMMAND_TIMEOUT_S = 120


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def layer_metrics(span_files, output_bytes: int) -> dict:
    """Per-layer metric values of one traced pass over a workload's commands
    (everything but trace.overhead_s)."""
    totals, counters = tracer.span_totals(span_files)
    calls = {k: v[0] for k, v in totals.items()}
    own = {k: v[1] / 1e9 for k, v in totals.items()}
    inclusive = {k: v[2] / 1e9 for k, v in totals.items()}
    out = {}
    for metric in metric_units("per_layer"):
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "self_s" and base in tracer.LAYERS:
            out[metric] = sum(v for k, v in own.items() if k.startswith(base + "."))
        elif kind == "self_s":
            out[metric] = own.get(base, 0.0)
        elif kind == "s" and base.startswith("cli."):
            out[metric] = inclusive.get(base, 0.0)
    out["semigroups.table_cells"] = counters.get("semigroups.table_cells", 0)
    validated = calls.get("subspace_category.validate_cone", 0)
    kept = counters.get("subspace_category.validate_cone.kept", 0)
    out["subspace_category.cone_yield"] = kept / validated if validated else 0.0
    out["cli.output_bytes"] = output_bytes
    return out


# ---------------------------------------------------------------------------
# processes

def child_env(home: Path, cache: Path, pycache: Path, traced: bool) -> dict:
    """A fixed environment: only PATH is inherited, so nothing outside the
    run's own directories can steer the program.

    BLAS is held to one thread.  The program uses numpy only for integer
    arrays, which never call BLAS, but by default numpy's OpenBLAS starts a
    thread per core at import; on two shared cores that start-up alone
    swung the import between about 0.12 s and 0.18 s (README.md)."""
    path = [str(SRC)] + ([str(ROOT)] if traced else [])
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "XDG_CACHE_HOME": str(cache),
        "PYTHONPATH": os.pathsep.join(path),
        "PYTHONPYCACHEPREFIX": str(pycache),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def run_process(argv, cwd: Path, env: dict, stdout_path: Path):
    """Run argv to completion; (exit code or None on timeout, seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode == -9 and elapsed >= COMMAND_TIMEOUT_S
    return (None if timed_out else proc.returncode), elapsed, usage.ru_maxrss / 1024.0


def import_seconds(module: str, env: dict, cwd: Path) -> float:
    """Wall seconds for a fresh interpreter to import ``module`` and exit."""
    rc, elapsed, _ = run_process([sys.executable, "-c", f"import {module}"], cwd, env, cwd / "setup.out")
    if rc != 0:
        err = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()
        raise RuntimeError(f"cannot import {module} from {SRC}: {err[-1] if err else rc}")
    return elapsed


def run_pass(workload, work: Path, tag: str, pycache: Path, traced: bool, run_base: int):
    """One pass over the workload's command sequence in fresh directories.

    Returns a dict with the sequence wall time, peak RSS, per-command
    results, output bytes and, when traced, the span files."""
    cwd, home, cache = (work / tag / d for d in ("cwd", "home", "cache"))
    for d in (cwd, home, cache):
        d.mkdir(parents=True)
    for name, text in workload.files.items():
        (cwd / name).write_text(text)
    env = child_env(home, cache, pycache, traced)
    results, spans = [], []
    t0 = time.perf_counter()
    for i, cmd in enumerate(workload.commands):
        out = cwd / f"out{i}.txt"
        if traced:
            span_file = work / tag / f"spans{i}.npz"
            argv = [sys.executable, "-m", "perfbench.tracer", str(span_file), str(run_base + i), "--", *cmd.argv]
            spans.append(span_file)
        else:
            argv = [sys.executable, "-m", "fibersemi.cli", *cmd.argv]
        rc, elapsed, rss = run_process(argv, cwd, env, out)
        results.append({"command": " ".join(cmd.argv), "rc": rc, "s": elapsed, "rss_mb": rss, "out": out})
    wall = time.perf_counter() - t0
    for cmd, res in zip(workload.commands, results):
        res["error"] = check_result(cmd, res)
        res["bytes"] = res.pop("out").stat().st_size
    return {"wall_s": wall, "results": results, "spans": spans,
            "rss_mb": max(r["rss_mb"] for r in results),
            "output_bytes": sum(r["bytes"] for r in results)}


def check_result(cmd, res):
    """None when the command exited 0 and its output checks out, else why not."""
    if res["rc"] is None:
        return f"timed out after {COMMAND_TIMEOUT_S} s"
    if res["rc"] != 0:
        return f"exit status {res['rc']}"
    try:
        cmd.check(res["out"].read_text())
    except (OutputMismatch, ValueError, KeyError, TypeError) as exc:
        return f"output check: {exc}"
    return None


# ---------------------------------------------------------------------------
# the run

def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={"PATH": os.environ.get("PATH", ""), "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def at_reference_speed(seconds: float, yardstick_s: float) -> float:
    """``seconds`` measured beside a yardstick import of ``yardstick_s``,
    scaled to a host where the yardstick takes YARDSTICK_REF_S.

    Other tenants of a shared host slow everything on it by up to half, in
    spells that last minutes, longer than a run.  The yardstick, timed in
    the same spell, slows with the program, so the ratio holds where raw
    times do not.  It runs none of the program's code, so a change to the
    program moves only the numerator (README.md)."""
    return seconds / yardstick_s * YARDSTICK_REF_S


def summary(samples) -> dict:
    """Median, sample count and the highest percentile the count supports
    (the maximum, as no count here leaves ten samples beyond any other)."""
    return {"median": statistics.median(samples), "n": len(samples), "max": max(samples), "samples": samples}


def run(workload_name: str, seed: int, seconds: int, trace: bool, work: Path):
    workload = WORKLOADS[workload_name](seed)
    pycache = work / "pycache"
    setup_dir = work / "setup"
    setup_dir.mkdir(parents=True)
    setup_env = child_env(setup_dir, setup_dir, pycache, False)
    import_seconds("fibersemi.cli", setup_env, setup_dir)  # untimed: fills the bytecode cache

    setup, yardstick, chunks, plain, traced = [], [], [], [], []

    def time_imports():
        # each import of the program is followed at once by a yardstick import
        chunk = []
        for _ in range(SETUP_IMPORTS_PER_PASS):
            setup.append(import_seconds("fibersemi.cli", setup_env, setup_dir))
            chunk.append(import_seconds(YARDSTICK_MODULE, setup_env, setup_dir))
        yardstick.extend(chunk)
        chunks.append(chunk)

    start = time.perf_counter()
    time_imports()
    while True:
        k = len(plain)
        plain.append(run_pass(workload, work, f"pass{k}", pycache, False, 0))
        if trace:
            traced.append(run_pass(workload, work, f"traced{k}", pycache, True, 1000 * (k + 1)))
        time_imports()
        per_round = (time.perf_counter() - start) / len(plain)
        if time.perf_counter() - start + per_round > seconds:
            break

    results = [r for p in plain + traced for r in p["results"]]
    errors = [f"{r['command']}: {r['error']}" for r in results if r["error"]]
    peak_rss = max(p["rss_mb"] for p in plain)
    # each pass is scaled by the yardstick imports made just before and just
    # after it, each import of the program by the yardstick import after it
    wall = statistics.mean(at_reference_speed(p["wall_s"], statistics.median(before + after))
                           for p, before, after in zip(plain, chunks, chunks[1:]))
    setup_s = statistics.median(at_reference_speed(a, b) for a, b in zip(setup, yardstick))
    if trace:
        per_pass = [layer_metrics(p["spans"], p["output_bytes"]) for p in traced]
        # median_low keeps a measured value, so counts stay whole numbers
        metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        # each traced pass runs right after its untraced twin, in the same host spell
        metrics["trace.overhead_s"] = statistics.median_low(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        units = metric_units("per_layer")
    else:
        metrics = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": peak_rss}
        units = metric_units("end_to_end")
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        **machine_record(),
        "wall_s": wall, "pass_wall_s": summary([p["wall_s"] for p in plain]),
        "setup_s": setup_s, "setup_import_s": summary(setup),
        "yardstick_import_s": summary(yardstick), "peak_rss_mb": peak_rss,
        "error_rate": len(errors) / len(results), "errors": errors,
        "commands": [{k: r[k] for k in ("command", "rc", "s", "rss_mb", "bytes")} for r in results],
    }
    return metrics, units, record, len(results), len(errors)


def print_report(metrics, units, record, attempted, failed):
    w, s, y = record["pass_wall_s"], record["setup_import_s"], record["yardstick_import_s"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"python {record['python']}  numpy {record['numpy']}  nproc {record['nproc']}  "
          f"cpu {record['cpu']}  commit {record['commit']}")
    print(f"  wall_s       {record['wall_s']:.4f} s   at the reference speed, mean of {w['n']} passes; "
          f"measured passes: median {w['median']:.4f} s, max {w['max']:.4f} s")
    print(f"  setup_s      {record['setup_s']:.4f} s   at the reference speed; measured {s['n']} imports: "
          f"median {s['median']:.4f} s, max {s['max']:.4f} s; "
          f"yardstick median {y['median']:.4f} s against {YARDSTICK_REF_S:.3f} s")
    print(f"  peak_rss_mb  {record['peak_rss_mb']:.1f} MB")
    print(f"  error_rate   {record['error_rate']:.4f}     {failed} of {attempted} commands failed")
    for err in record["errors"]:
        print(f"    FAILED {err}")
    if record["trace"]:
        for name, value in metrics.items():
            print(f"  {name:48s} {value:.6g} {units[name]}")
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fibersemi" / "cli.py").is_file():
        print(f"error: no fibersemi sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        work = SCRATCH / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            report = run(name, args.seed, args.seconds, bool(args.trace), work)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                SCRATCH.rmdir()
            except OSError:
                pass
        results[name] = print_report(*report)
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
