"""Command-line front end: enumeration sweeps, verification runs and export
of tables and diagrams.

Every command writes deterministic output (stable ordering, exhaustive
checks, no timestamps), so identical configurations produce byte-identical
artifacts.  Exit status is 0 only when every requested verification passed.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import re
import sys
from types import SimpleNamespace

import numpy as np

from . import annihilators as ann
from . import bundles as bn
from . import crossconn as xc
from . import gf
from . import semigroups as sg
from . import subspace_category as sc


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _open_out(path, mode):
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None


def _check_out(path):
    """Refuse an --out path that cannot be written, before the command's
    work: it is opened to append, which truncates nothing, and a file that
    this opening created (at a dangling link, the link's target) is removed
    again."""
    existed = os.path.exists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(os.path.realpath(path))


def _emit(text: str, out_path):
    if out_path:
        with _open_out(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verification checks; each returns its witness, or None when its claims
# hold, and decides them exhaustively.  A claim decided elsewhere, or true by
# construction, is not checked again: the comments name where it is decided.

def _check_cardinalities(p, n):
    got, want = len(gf._sing_matrices(p, n)), gf.singular_count(p, n)
    return {"enumerated": got, "closed_form": want} if got != want else None


def _sing_profile(p, n):
    """(idempotents, sizes) of Sing(GF(p)^n) in closed form, from the number
    g of subspaces of each dimension k < n, [n, k]_p.  There are
    sum_k g p^(k(n-k)) idempotents, one per image and kernel complementary
    to it.  sizes maps each GreenStructure field to its sorted class sizes:
    with s = prod_(i<k) (p^n - p^i) maps onto a given image, or from a given
    kernel, of rank k and h = |GL_k(p)|, L and R have g classes of size s,
    H g^2 of size h, and D one of size g^2 h."""
    dims = gf.subspace_lattice(p, n).dims.tolist()
    idempotents, sizes = 0, {f: [] for f in sg.GreenStructure._fields}
    for k in range(n):
        g, s, h = dims.count(k), math.prod(p ** n - p ** i for i in range(k)), gf.gl_order(p, k)
        idempotents += g * p ** (k * (n - k))
        sizes["l_classes"] += [s] * g
        sizes["r_classes"] += [s] * g
        sizes["h_classes"] += [h] * g * g
        sizes["d_classes"].append(g * g * h)
    return idempotents, {f: sorted(v) for f, v in sizes.items()}


def _check_regularity(p, n):
    # sing_green raises on the first element whose x.x+.x = x witness fails,
    # so it decides regularity; it runs first, so the endomorphism guard
    # refuses before anything else.  Regularity of the cone semigroup follows
    # from this one through the isomorphism that cone-semigroup decides.
    sg.sing_green(p, n)
    got, want = len(gf.idempotent_matrices(p, n)), _sing_profile(p, n)[0]
    return {"idempotents": got, "expected": want} if got != want else None


def _check_green(p, n):
    # sing_green decides that its classes are Green's relations (its
    # docstring states why); each relation's class sizes are compared with
    # the closed form, and the first relation that differs is the witness
    green, want = sg.sing_green(p, n), _sing_profile(p, n)[1]
    for relation in green._fields:
        if sorted(map(len, getattr(green, relation))) != want[relation]:
            return {"failure": "class sizes differ from the closed form", "relation": relation}
    return None


def _check_factorization(p, n):
    # Every morphism is decided through its hom-set shape, and the
    # retraction law of every inclusion pair from one batched rank
    # (sc.factorization_witness and sc.retraction_law state the reductions).
    witness = sc.factorization_witness(p, n)
    if witness is not None:
        return witness
    law = sc.retraction_law(p, n)
    if not law.all():
        sub = gf.subspace_lattice(p, n).basis(sc.inclusion_pairs(p, n)[law.argmin(), 0])
        return {"failure": "retraction law", "sub": gf.rows_json(p, sub)}
    return None


def _sing_pairs(p, n, found):
    """Morphism witnesses over Sing(GF(p)^n) with each index written as its
    element's matrix document."""
    mats = gf._sing_matrices(p, n)
    return {k: [gf.rows_json(p, mats[i]) for i in pair] for k, pair in found.items()}


def _check_cone_semigroup(p, n):
    # Cone i is the principal cone of Sing's element i (sc.coded_normal_cones
    # states at which n those are every normal cone), and the table is built
    # by cone composition, so the morphism check on the identity index map
    # decides cone(a).cone(b) = cone(ab).  coded_normal_cones' guards refuse
    # before the lattice is built.  The same semigroup, on matrices acting on
    # dual coordinates, is the dual cone semigroup, the cone semigroup of the
    # annihilator category; on this build, the map a -> cone(a^T) from the
    # opposite of Sing's table decides that transposition is an
    # anti-isomorphism, (a^T).(b^T) = (b.a)^T for every pair.
    cones = sc.coded_normal_cones(p, n)[0].table
    mats, table = gf._sing_matrices(p, n), gf.sing_table(p, n)
    transposed = gf.sing_decode(p, n)[gf.base_p(mats.transpose(0, 2, 1), p)]
    for failure, source, img in (("cone map is not an isomorphism", table, np.arange(len(mats))),
                                 ("dual cone semigroup", table.T, transposed)):
        found = sg.morphism_witnesses(source, cones, img)
        if found:
            return {"failure": failure, **_sing_pairs(p, n, found)}
    return None


def _check_m_sets(p, n):
    # the M-set of each idempotent's principal cone, by iso components and by
    # complements of its kernel (sc.m_sets); the first idempotent at which
    # they differ is the witness
    idem, by_iso, by_sum = sc.m_sets(p, n)
    bad = (by_iso != by_sum).any(axis=1)
    return {"idempotent": gf.rows_json(p, idem[bad.argmax()])} if bad.any() else None


def _check_dual_category(p, n):
    # The dual side is read from the subspace lattice, where the dual
    # category's objects are the proper subspaces at their own positions
    # (ann.iso_to_dual_subspace_category states what that leaves to decide).
    # Its cone semigroup is decided by cone-semigroup, on that check's build.
    return ann.iso_to_dual_subspace_category(p, n)


def _check_cross_connections(p, n):
    # Decided on the subspace lattice and gf.sing_images, once the
    # endomorphism guard passes and Sing's order is within gf.ASSOC_GUARD:
    # the loop below checks every automorphism over all of Sing, and both
    # counts are closed forms, so it refuses before any automorphism is
    # enumerated.  The linked-pair semigroup lies on Sing with labels in
    # Sing order, so its order, its first projection and its regularity
    # hold by construction, and its conjugation law is a reduction once
    # eps.eps^-1 = I (xc.conjugations states it).  Functoriality is
    # eps.eps^-1 = I too (xc.object_actions states why); object_actions
    # also decides that the actions are injective on hom-sets.  At each
    # automorphism in order: functoriality, covering, that the conjugation
    # is a permutation, which link_failure assumes, and linking.
    endos, order = gf._endo_count(p, n), gf.singular_count(p, n)
    if order > gf.ASSOC_GUARD:
        raise gf.GuardExceeded(f"cross-connections at GF({p})^{n} would check {endos - order} automorphisms, "
                               f"each over the {order} elements of Sing, an order beyond the limit {gf.ASSOC_GUARD}")
    conj = xc.conjugations(p, n, gf.enumerate_automorphisms(p, n))
    for i, eps in enumerate(conj.eps):
        if not conj.inverts[i]:
            return {"eps": gf.rows_json(p, eps), "failure": "functoriality"}
        e_obj, et_obj = xc.object_actions(p, n, eps)
        if not xc.covers(p, n, et_obj):
            return {"eps": gf.rows_json(p, eps), "failure": "covering"}
        if not conj.permutes[i]:
            raise AssertionError("not a permutation of the element indices")
        pair = xc.link_failure(p, n, conj.perms[i], e_obj, et_obj)
        if pair is not None:
            lattice = gf.subspace_lattice(p, n)
            a, y = (gf.rows_json(p, lattice.basis(k)) for k in pair)
            return {"eps": gf.rows_json(p, eps), "a": a, "y": y}
    return None


def _check_null_amalgam(p, n):
    # each branch lists the core's elements first under its own tag, so the
    # labels are disjoint by construction, and the fixture's tables are
    # written from its defining products; each inclusion is decided
    core, (s1, s2), inclusions = sg.null_semigroup_fixture()
    for i, (branch, inclusion) in enumerate(zip((s1, s2), inclusions)):
        found = sg.morphism_witnesses(core.table, branch.table, inclusion)
        if found:
            pairs = {k: [core.elements[x] for x in pair] for k, pair in found.items()}
            return {"failure": "inclusion", "branch": i, **pairs}
    return None


BUNDLE_DIMS, BUNDLE_CORE_DIM = (2, 2, 3), 2  # bundle-amalgam's fiber family, the same at every n


def _check_bundle_amalgam(p, n):
    # The fiber family and its core do not depend on n.  Each embedding is
    # an injective homomorphism by the block reduction (bn.build_embedding),
    # and each part's conjugation law holds by the conjugation reduction
    # (xc.conjugations).  So what is left to decide is E.E^-1 = I and that
    # each conjugation is a permutation (xc.linked_pairs raises otherwise),
    # and that no block-embedded core element is invertible (build_embedding
    # raises).  Each part's order is that of Sing of its dimension by
    # construction, which cardinalities decides at its own point.  The
    # embeddings are decided on first coordinates; the second coordinates,
    # conjugates under each part's own automorphism, are not compared.
    bn.assemble_amalgam(bn.fiber_family(p, BUNDLE_DIMS), m=BUNDLE_CORE_DIM)
    return None


CHECKS = (
    ("cardinalities", _check_cardinalities),
    ("regularity-idempotents", _check_regularity),
    ("green-eggbox", _check_green),
    ("normal-factorization", _check_factorization),
    ("cone-semigroup", _check_cone_semigroup),
    ("m-sets", _check_m_sets),
    ("dual-category", _check_dual_category),
    ("cross-connections", _check_cross_connections),
    ("null-amalgam", _check_null_amalgam),
    ("bundle-amalgam", _check_bundle_amalgam),
)


def _run_check(name, fn, *args):
    try:
        witness = fn(*args)
    except gf.GuardExceeded as exc:
        witness = {"guard": str(exc)}
    except Exception as exc:  # a claim that fails by raising fails its check only
        witness = {"error": str(exc)}
    return {"check": name, "status": "pass" if witness is None else "fail", "witness": witness}


def run_checks(p, n, table_path=None):
    report = [_run_check(name, fn, p, n) for name, fn in CHECKS]
    if table_path:
        # _table_check is looked up at the call, so a wrapper set on the module applies
        report.append(_run_check("table-associativity", _table_check, table_path))
    return report


def _table_check(path):
    try:
        sg.semigroup_from_file(path)
    except sg.NotAssociative as exc:
        return {"triple": list(exc.witness)}
    except (OSError, ValueError) as exc:  # GuardExceeded too: an order past the guard is an error witness
        return {"error": str(exc)}
    return None


# ---------------------------------------------------------------------------
# subcommands

def cmd_enumerate(args):
    p, n = args.field, args.dim
    doc = {
        "field": p,
        "dim": n,
        "singular_endomorphisms": len(gf._sing_matrices(p, n)),
        "closed_form": gf.singular_count(p, n),
        "idempotents": len(gf.idempotent_matrices(p, n)),
        "proper_subspaces": len(gf.enumerate_subspaces(p, n)) - 1,  # all but the full space
        "subspaces": len(gf.enumerate_subspaces(p, n)),
    }
    if args.format == "json":
        _emit(_dump(doc), args.out)
    else:
        lines = [f"{k}: {v}" for k, v in doc.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify_all(args):
    report = run_checks(args.field, args.dim, args.table)
    failed = [r["check"] for r in report if r["status"] != "pass"]
    if args.format == "json":
        _emit(_dump(report), args.out)
    else:
        lines = [f"{r['status'].upper()} {r['check']}"
                 + (f" witness={json.dumps(r['witness'], sort_keys=True)}"
                    if r["witness"] else "")
                 for r in report]
        tail = "all checks passed" if not failed else "failed: " + ", ".join(failed)
        _emit("\n".join(lines) + "\n" + tail + "\n", args.out)
    return 0 if not failed else 1


def cmd_green(args):
    p, n = args.field, args.dim
    green, mats = sg.sing_green(p, n), gf._sing_matrices(p, n)
    if args.format == "dot":
        _emit(sg.eggbox_dot(gf.endo_text(mats), green), args.out)
    elif args.format == "json":
        _emit(_dump(green.to_json()), args.out)
    else:
        _emit(
            f"order: {len(mats)}\n"
            f"L classes: {len(green.l_classes)}\n"
            f"R classes: {len(green.r_classes)}\n"
            f"H classes: {len(green.h_classes)}\n"
            f"D classes: {len(green.d_classes)}\n",
            args.out,
        )
    return 0


def cmd_cones(args):
    p, n = args.field, args.dim
    smg, code, vertex, rows = sc.coded_normal_cones(p, n)
    if args.format == "json":
        _emit(sc.cone_semigroup_json(p, n, smg, code, vertex, rows), args.out)
    else:
        _emit(
            f"objects: {len(code.dims)}\n"
            f"normal cones: {smg.order}\n"
            f"regular: {sg.is_regular(smg)}\n",
            args.out,
        )
    return 0


def _parse_eps(text, p, n):
    """The --eps matrix as an n x n array over GF(p), once
    gf.invertible_matrix accepts it."""
    try:
        rows = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deep
        rows = None
    shape_error = f"--eps must be a JSON list of {n} lists of {n} integers"
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)
            and all(type(x) is int for r in rows for x in r)):  # bool is not int
        raise ValueError(shape_error)
    return gf.invertible_matrix(rows, p, n, shape_error, "--eps matrix is singular")


ALL_EPS_CELL_LIMIT = 1 << 20  # table cells crossconn --all-eps may write


def _check_all_eps_output(p, n):
    """Refuse crossconn --all-eps when its tables, |GL_n(p)| of them with N^2
    cells each, N = |Sing(GF(p)^n)|, would exceed ALL_EPS_CELL_LIMIT cells;
    counted in closed form, nothing is enumerated.  Enumerating GL_n(p)
    meets the endomorphism guard, so it refuses first, and past it every
    count is a small exact int."""
    endos = gf._endo_count(p, n)
    autos = gf.gl_order(p, n)
    cells = autos * (endos - autos) ** 2
    if cells > ALL_EPS_CELL_LIMIT:
        raise gf.GuardExceeded(
            f"crossconn --all-eps at GF({p})^{n} would write {autos} tables of order {endos - autos}, "
            f"{cells} cells in all, beyond the output limit of {ALL_EPS_CELL_LIMIT} cells")


def cmd_crossconn(args):
    p, n = args.field, args.dim
    if args.all_eps:
        _check_all_eps_output(p, n)
        eps = gf.enumerate_automorphisms(p, n)
    elif args.eps:
        eps = _parse_eps(args.eps, p, n)[None]
    else:  # the identity, built once the endomorphism guard that linked_pairs meets first passes
        gf._endo_count(p, n)
        eps = np.eye(n, dtype=np.int64)[None]
    if args.format == "json":  # the document writes Sing's table: refuse before any pair is built
        gf.check_sing_order(p, n)
    conj = xc.linked_pairs(p, n, eps)
    if args.format == "json":
        _emit(xc.linked_pairs_json(conj), args.out)
    else:
        lines = [f"eps={tuple(map(tuple, e))} order={conj.perms.shape[1]}" for e in conj.eps.tolist()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_amalgam(args):
    p = args.field
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError:
        raise ValueError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    # Every guard runs before any matrix is built, in the order the build
    # reaches the dimensions, the core's first; the JSON document writes each
    # part's Sing table, so there the table guard refuses too.
    m = bn.core_dim(bn.family_dims(p, dims), args.core_dim)
    guard = gf.check_sing_order if args.format == "json" else gf._endo_count
    for d in (m,) + dims:
        guard(p, d)
    bundle = bn.assemble_amalgam(bn.fiber_family(p, dims), m=m)
    if args.format == "dot":
        _emit(bn.amalgam_dot(bundle), args.out)
    elif args.format == "json":
        _emit(bn.amalgam_json(bundle), args.out)
    else:
        core_order, *orders = bundle.orders
        lines = [f"core: dim {bundle.core.m}, order {core_order}"]
        lines += [f"fiber {i}: dim {d}, order {order}" for i, (d, order) in enumerate(zip(dims, orders))]
        lines.append("verified: True")  # assemble_amalgam raises on any embedding that fails
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _commands():
    """name -> (function, help, options) of each command, built at the call
    so that each cmd_* is the function the module holds then.  An option is
    (flag, type, default, help): type None is a flag that stores True, and
    a tuple holds the strings the option takes."""
    def common(dim=True, dot=False):
        return (("--field", int, 2, "prime field modulus"),) + (("--dim", int, 2, "ambient dimension"),) * dim + (
            ("--format", ("table", "json") + ("dot",) * dot, "table", "output format"),
            ("--out", str, None, "output path (default stdout)"))

    seed = ("accepted only so that existing command lines, the benchmark's among them, still parse: "
            "every check is exhaustive")
    return {
        "enumerate": (cmd_enumerate, "count endomorphisms, idempotents, subspaces", common()),
        "verify-all": (cmd_verify_all, "run every verification check", common() + (
            ("--seed", int, 0, seed), ("--table", str, None, "also validate a Cayley-table JSON file"))),
        "green": (cmd_green, "Green structure and eggbox diagram", common(dot=True)),
        "cones": (cmd_cones, "the semigroup of normal cones", common()),
        "crossconn": (cmd_crossconn, "linked-pair semigroups per automorphism", common() + (
            ("--eps", str, None, "automorphism as a JSON matrix literal"),
            ("--all-eps", None, False, "sweep every automorphism"))),
        "amalgam": (cmd_amalgam, "bundle-fiber amalgam", common(dim=False, dot=True) + (
            ("--dims", str, "2,2,3", "comma-separated fiber dimensions"),
            ("--core-dim", int, None, "core dimension (default min)"))),
    }


def _read(arg, flags, fail):
    """argparse's reading of one argument: None for a positional, else the
    flag it names ("" for none) and the value after its "=".  A long flag
    may be named by any prefix that names no other."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    head, eq, value = arg.partition("=")
    hits = [head] if head in flags else [f for f in flags if arg[:2] == "--" and f.startswith(head)]
    if len(hits) > 1:
        fail(f"ambiguous option: {arg} could match {', '.join(hits)}")
    if not hits:
        return None if re.fullmatch(r"-\d+|-\d*\.\d+", arg) or " " in arg else ("", None)
    return hits[0], value if eq else None


def _parse_args(argv):
    """(function, options) of a command line, read in argparse's grammar and
    with its messages (README.md, CLI; tests/cli_oracle.py holds the parser
    the tests compare it with).  Before the command the only flags are -h
    and --help."""
    argv, table, fn, extras, seen = sys.argv[1:] if argv is None else list(argv), _commands(), None, [], set()
    usage = top = "usage: fibersemi [-h] {" + ",".join(table) + "} ..."
    prog, flags = "fibersemi", dict.fromkeys(("-h", "--help"), ("-h/--help", None))
    about, rows = ("Singular endomorphism semigroups over GF(p): Green structure, cone semigroups, cross-connections "
                   "and bundle amalgams.\n\ncommands:"), [(name, entry[1]) for name, entry in table.items()]

    def fail(message):
        sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
        raise SystemExit(2)

    kinds, j = [_read(a, flags, fail) for a in argv], 0
    if argv[-1:] == ["--"]:  # a "--" is taken as the command only when an argument follows it
        kinds[-1] = ("", None)
    while j < len(argv):
        kind, arg, j = kinds[j], argv[j], j + 1
        if kind is None and fn is None:  # the command; what follows is read with its flags
            if arg not in table:
                fail(f"argument command: invalid choice: {arg!r} (choose from {', '.join(map(repr, table))})")
            (fn, about, options), prog = table[arg], f"fibersemi {arg}"
            shown = [o[0] + ("" if o[1] is None else f" {{{','.join(o[1])}}}" if isinstance(o[1], tuple)
                             else " " + o[0][2:].upper().replace("-", "_")) for o in options]
            usage, about = f"usage: {prog} [-h] " + " ".join(f"[{s}]" for s in shown), about + "\n\noptions:"
            rows = [("-h, --help", "show this help message and exit"), *zip(shown, (o[3] for o in options))]
            flags.update((o[0], o) for o in options)
            values = {o[0][2:].replace("-", "_"): o[2] for o in options}
            cut = (argv[j:] + ["--"]).index("--") + j  # all after a "--" is positional
            kinds[j:] = [_read(a, flags, fail) for a in argv[j:cut]] + [("", None)] + [None] * len(argv[cut + 1:])
        elif not kind or not kind[0]:
            extras.append(arg)
        else:
            (label, type_), value = flags[kind[0]][:2], kind[1]
            if type_ is None and value is not None:
                fail(f"argument {label}: ignored explicit argument {value!r}")
            if label == "-h/--help":
                width = max(len(row[0]) for row in rows)
                sys.stdout.write(f"{usage}\n\n{about}\n" + "".join(f"  {a:<{width}}  {h}\n" for a, h in rows))
                raise SystemExit(0)
            if type_ is not None and value is None:
                if kinds[j] is not None:
                    fail(f"argument {label}: expected one argument")
                value, j = argv[j], j + 1
            if type_ is int:
                try:
                    value = int(value)
                except ValueError:
                    fail(f"argument {label}: invalid int value: {value!r}")
            elif isinstance(type_, tuple) and value not in type_:
                fail(f"argument {label}: invalid choice: {value!r} (choose from {', '.join(map(repr, type_))})")
            other = {"--eps": "--all-eps", "--all-eps": "--eps"}.get(label)
            if other in seen:
                fail(f"argument {label}: not allowed with argument {other}")
            seen.add(label)
            values[label[2:].replace("-", "_")] = True if type_ is None else value
    usage, prog = top, "fibersemi"
    if fn is None:
        fail("the following arguments are required: command")
    if extras:
        fail("unrecognized arguments: " + " ".join(extras))
    return fn, SimpleNamespace(**values)


def main(argv=None):
    fn, args = _parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return fn(args)
    except ValueError as exc:  # gf.GuardExceeded and sg.NotAssociative are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a failed verification, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    """Process entry point of ``python -m fibersemi.cli`` and the ``fibersemi``
    script: main() on sys.argv, then exit with its status.

    Once main() returns, the atexit handlers run and stdout and stderr are
    flushed, and the process ends there, without the interpreter's
    finalization: the heap is about to be discarded, and tearing down numpy
    and the package is a measurable share of a short command.  main() has
    closed any --out file.  A usage error, the help or an uncaught
    exception leaves main() through SystemExit or a traceback and takes the
    interpreter's own exit, and so does a flush that fails (a closed stdout,
    say), so that the status and stderr are the interpreter's.  main()
    itself exits nothing, for in-process callers."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a reader gone, or a stream closed
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
