"""Span tracing of one fibersemi CLI process, from outside the program.

Run as ``python -m perfbench.tracer SPANS_FILE RUN_ID -- <fibersemi args>``.
Before calling ``fibersemi.cli.main`` it replaces every public function of
the layer modules (and the ``CrossConnection.conjugate`` method) with a
wrapper that records a span: name, start, end and parent.  Spans stay in
memory as flat arrays and are written to SPANS_FILE (``.npz``) at exit,
tagged with RUN_ID.  A root span ``trace.run`` covers the import of the
program and the whole command, so the self times of all spans of a process
sum to the root's duration.

``load_spans``, ``self_times`` and ``span_totals`` read those files back.
numpy is imported inside functions only, so that in the traced process its
import falls inside the root span, as part of importing the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("gf", "semigroups", "subspace_category", "annihilators", "crossconn", "bundles", "cli")

ROOT_SPAN = "trace.run"


class Tracer:
    """Flat in-memory span store: span i has name_id[i], parent[i] (-1 for a
    root), start[i] and end[i] in integer nanoseconds."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self._stack.pop()
        self.end[idx] = time.perf_counter_ns()

    def count(self, name: str, amount: int):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span per call; ``on_result(tracer, args, result)``
        records counts at the same boundary."""
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def dump(self, path: str):
        import numpy as np

        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=np.int64),
        )


def _count_table_cells(tracer, args, semigroup):
    tracer.count("semigroups.table_cells", semigroup.order ** 2)


def _count_kept_cone(tracer, args, report):
    tracer.count("subspace_category.validate_cone.kept", int(report.well_formed and report.is_normal))


ON_RESULT = {
    "semigroups.from_table": _count_table_cells,
    "subspace_category.validate_cone": _count_kept_cone,
}


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        return "cli." + attr[len("cmd_"):].replace("_", "-")
    return f"{layer}.{attr}"


def instrument(tracer: Tracer):
    """Swap the program's public functions for traced ones.

    Calls made through a module attribute, including calls inside the
    module itself, go through the wrapper.  Generator functions are left
    alone: their span would end before the work they yield is done.
    """
    for layer in LAYERS:
        mod = importlib.import_module(f"fibersemi.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__ or inspect.isgeneratorfunction(obj):
                continue
            name = _span_name(layer, attr)
            setattr(mod, attr, tracer.wrap(name, obj, ON_RESULT.get(name)))
    xc = sys.modules["fibersemi.crossconn"]
    xc.CrossConnection.conjugate = tracer.wrap("crossconn.conjugate", xc.CrossConnection.conjugate)
    cli = sys.modules["fibersemi.cli"]
    # CHECKS holds the check functions themselves, so wrap them there
    cli.CHECKS = tuple((name, tracer.wrap(f"cli.check.{name}", fn)) for name, fn in cli.CHECKS)
    cli._table_check = tracer.wrap("cli.check.table-associativity", cli._table_check)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 3 or argv[2] != "--":
        print("usage: python -m perfbench.tracer SPANS_FILE RUN_ID -- <fibersemi args>", file=sys.stderr)
        return 2
    path, run_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(run_id)
    root = tracer.open(ROOT_SPAN)
    try:
        import fibersemi.cli

        instrument(tracer)
        rc = fibersemi.cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.dump(path)
    return rc


# ---------------------------------------------------------------------------
# analysis, in the benchmark process

def load_spans(path):
    """(names, spans, counters) of one spans file; ``spans`` holds parallel
    arrays name_id, parent, start, end, run_id."""
    import numpy as np

    with np.load(path) as z:
        names = [str(x) for x in z["names"]]
        spans = {k: z[k] for k in ("name_id", "parent", "start", "end")}
        spans["run_id"] = np.full(len(spans["start"]), int(z["run_id"]), dtype=np.int64)
        counters = {str(k): int(v) for k, v in zip(z["counter_names"], z["counter_values"])}
    return names, spans, counters


def self_times(spans):
    """Self time per span in ns: duration minus the part of it its child spans
    cover.  Spans are strictly nested in one thread, so that part is the sum
    of the direct children's durations."""
    import numpy as np

    dur = spans["end"] - spans["start"]
    own = dur.copy()
    child = spans["parent"] >= 0
    np.subtract.at(own, spans["parent"][child], dur[child])
    return own


def span_totals(paths):
    """Per span name: calls, self ns and total ns over every spans file;
    plus the summed counters."""
    import numpy as np

    totals: dict[str, list] = {}
    counters: dict[str, int] = {}
    for path in paths:
        names, spans, cnt = load_spans(path)
        own = self_times(spans)
        dur = spans["end"] - spans["start"]
        k = len(names)
        calls = np.bincount(spans["name_id"], minlength=k)
        own_sum = np.bincount(spans["name_id"], weights=own, minlength=k)
        dur_sum = np.bincount(spans["name_id"], weights=dur, minlength=k)
        for i, name in enumerate(names):
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += int(calls[i])
            t[1] += float(own_sum[i])
            t[2] += float(dur_sum[i])
        for key, v in cnt.items():
            counters[key] = counters.get(key, 0) + v
    return totals, counters


if __name__ == "__main__":
    sys.exit(main())
