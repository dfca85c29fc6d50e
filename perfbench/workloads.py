"""The benchmark's workloads: which CLI commands each one runs, the input
files it hands the program, and how each command's output is checked.

Why these three workloads (see README.md for the full table):

- verify-grid22 is the acceptance-scale run users make.  Nearly all of it
  is the order-344 linked-pair semigroup inside ``bundle-amalgam``, and it
  also makes the program validate a Cayley table it is given rather than
  one it builds.
- sing-tables builds Sing tables and their Green structure at four (p, n)
  points and never touches the category layers, so a change to those
  layers must leave it unchanged.
- cones-crossconn runs the category layers at many small orders instead of
  one large one, so a change tuned to the order-344 table shows here at
  small scale.

Outputs are checked against closed-form values and tables computed in
``closed_form``; nothing is compared byte for byte, so the program may add
fields to its JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from . import closed_form as cf

TABLE_FILE = "sing23_relabelled.json"

VERIFY_CHECKS = (
    "cardinalities", "regularity-idempotents", "green-eggbox",
    "normal-factorization", "cone-semigroup", "m-sets", "dual-category",
    "cross-connections", "null-amalgam", "bundle-amalgam", "table-associativity",
)


class OutputMismatch(ValueError):
    """A command's output disagrees with the benchmark's own reference."""


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable[[str], None]  # raises OutputMismatch on a wrong output


@dataclass(frozen=True)
class Workload:
    commands: tuple
    files: dict  # input files written into the working directory, name -> text


def _expect(what, got, want):
    if got != want:
        raise OutputMismatch(f"{what}: got {got!r}, expected {want!r}")


def _pn(p, n):
    return ("--field", str(p), "--dim", str(n))


# ---------------------------------------------------------------------------
# output checks

def check_enumerate(p, n, text):
    doc = json.loads(text)
    _expect("field", doc["field"], p)
    _expect("dim", doc["dim"], n)
    _expect("singular_endomorphisms", doc["singular_endomorphisms"], cf.singular_count(p, n))
    _expect("closed_form", doc["closed_form"], cf.singular_count(p, n))
    _expect("idempotents", doc["idempotents"], cf.idempotent_count(p, n))
    _expect("proper_subspaces", doc["proper_subspaces"], cf.proper_subspace_count(p, n))
    _expect("subspaces", doc["subspaces"], cf.subspace_count(p, n))


def check_green_json(p, n, text):
    doc = json.loads(text)
    shape = cf.green_shape(p, n)
    order = cf.singular_count(p, n)
    for kind in ("l", "r", "h", "d"):
        classes = doc[f"{kind}_classes"]
        _expect(f"{kind.upper()} class count", len(classes), shape[kind])
        members = sorted(i for c in classes for i in c)
        _expect(f"{kind.upper()} classes partition the elements", members, list(range(order)))
        sizes = {}
        for c in classes:
            sizes[len(c)] = sizes.get(len(c), 0) + 1
        _expect(f"{kind.upper()} class sizes", sizes, dict(shape[f"{kind}_sizes"]))


def check_green_dot(p, n, text):
    shape = cf.green_shape(p, n)
    _expect("D clusters", text.count("subgraph cluster_"), shape["d"])
    _expect("H cells", text.count("<TD>"), shape["h"])
    # every eggbox cell is a non-empty H-class; its labels are <BR/>-separated
    _expect("labels in cells", text.count("<TD>") + text.count("<BR/>"), cf.singular_count(p, n))


def _sing_reference(p, n):
    elements = cf.singular_matrices(p, n)
    return elements, cf.product_table(elements, p)


def _rows(x):
    return tuple(tuple(r) for r in x)


def check_cones(p, n, text):
    doc = json.loads(text)
    elements, table = _sing_reference(p, n)
    _expect("normal cones", len(doc["cones"]), cf.singular_count(p, n))
    _expect("cone labels", [_rows(e) for e in doc["elements"]], elements)
    _expect("cone composition table", doc["table"], table)


def check_crossconn_all(p, n, text):
    doc = json.loads(text)
    elements, table = _sing_reference(p, n)
    autos = cf.invertible_matrices(p, n)
    _expect("automorphisms", len(doc), len(autos))
    _expect("automorphism list", sorted(_rows(s["eps"]["rows"]) for s in doc), autos)
    for s in doc:
        eps = _rows(s["eps"]["rows"])
        inv = cf.mat_inverse(eps, p)
        _expect(f"order for eps={eps}", len(s["elements"]), cf.singular_count(p, n))
        _expect(f"first coordinates for eps={eps}", [_rows(e["first"]) for e in s["elements"]], elements)
        second = [cf.mat_mul(cf.mat_mul(inv, a, p), eps, p) for a in elements]
        _expect(f"second coordinates for eps={eps}", [_rows(e["second"]) for e in s["elements"]], second)
        _expect(f"table for eps={eps}", s["table"], table)


def check_verify_all(text):
    report = json.loads(text)
    _expect("checks run", [r["check"] for r in report], list(VERIFY_CHECKS))
    failed = [r["check"] for r in report if r["status"] != "pass"]
    _expect("checks not passing", failed, [])


# ---------------------------------------------------------------------------
# workloads: each maps a seed to the commands and input files of one pass

def verify_grid22(seed: int) -> Workload:
    table = cf.relabelled_sing_table(2, 3, seed)
    argv = ("verify-all", *_pn(2, 2), "--format", "json", "--seed", str(seed), "--table", TABLE_FILE)
    return Workload((Command(argv, check_verify_all),), {TABLE_FILE: json.dumps(table, separators=(",", ":"))})


# green output alternates between its two formats, fixed per point so that
# every seed runs the same work
SING_POINTS = ((2, 3, "dot"), (7, 2, "json"), (5, 2, "dot"), (3, 2, "json"))


def sing_tables(seed: int) -> Workload:
    cmds = []
    for p, n, fmt in SING_POINTS:
        cmds.append(Command(("enumerate", *_pn(p, n), "--format", "json"),
                            lambda t, p=p, n=n: check_enumerate(p, n, t)))
        check = check_green_dot if fmt == "dot" else check_green_json
        cmds.append(Command(("green", *_pn(p, n), "--format", fmt),
                            lambda t, p=p, n=n, c=check: c(p, n, t)))
    return Workload(tuple(cmds), {})


def cones_crossconn(seed: int) -> Workload:
    return Workload((
        Command(("cones", *_pn(5, 2), "--format", "json"), lambda t: check_cones(5, 2, t)),
        Command(("cones", *_pn(3, 2), "--format", "json"), lambda t: check_cones(3, 2, t)),
        Command(("crossconn", *_pn(3, 2), "--all-eps", "--format", "json"),
                lambda t: check_crossconn_all(3, 2, t)),
    ), {})


WORKLOADS = {
    "verify-grid22": verify_grid22,
    "sing-tables": sing_tables,
    "cones-crossconn": cones_crossconn,
}
