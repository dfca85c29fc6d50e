"""Command-line front end: enumeration sweeps, verification runs and export
of tables and diagrams.

Every command writes deterministic output (stable ordering, exhaustive
checks, no timestamps), so identical configurations produce byte-identical
artifacts.  Exit status is 0 only when every requested verification passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import annihilators as ann
from . import bundles as bn
from . import crossconn as xc
from . import gf
from . import semigroups as sg
from . import subspace_category as sc


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verification checks; each returns (ok, witness-or-None) and decides its
# claims exhaustively.  A claim decided elsewhere, or true by construction,
# is not checked again: the comments name where it is decided.

def _check_cardinalities(p, n):
    got, want = len(gf._sing_matrices(p, n)), gf.singular_count(p, n)
    if got != want:
        return False, {"enumerated": got, "closed_form": want}
    return True, None


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
        g, s, h = (dims.count(k), math.prod(p ** n - p ** i for i in range(k)),
                   math.prod(p ** k - p ** i for i in range(k)))
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
    if got != want:
        return False, {"idempotents": got, "expected": want}
    return True, None


def _check_green(p, n):
    # sing_green decides that its classes are Green's relations (its
    # docstring states why); each relation's class sizes are compared with
    # the closed form, and the first relation that differs is the witness
    green, want = sg.sing_green(p, n), _sing_profile(p, n)[1]
    for relation in green._fields:
        if sorted(map(len, getattr(green, relation))) != want[relation]:
            return False, {"failure": "class sizes differ from the closed form", "relation": relation}
    return True, None


def _check_factorization(p, n):
    # Every morphism is decided through its hom-set shape, and the
    # retraction law of every inclusion pair from one batched rank
    # (sc.factorization_witness and sc.retraction_law state the reductions).
    witness = sc.factorization_witness(p, n)
    if witness is not None:
        return False, witness
    law = sc.retraction_law(p, n)
    if not law.all():
        sub = gf.subspace_lattice(p, n).basis(sc.inclusion_pairs(p, n)[law.argmin(), 0])
        return False, {"failure": "retraction law", "sub": gf.rows_json(p, sub)}
    return True, None


def _sing_pairs(p, n, found):
    """Morphism witnesses over Sing(GF(p)^n) with each index written as its
    element's matrix document."""
    mats = gf._sing_matrices(p, n)
    return {k: [gf.rows_json(p, mats[i]) for i in pair] for k, pair in found.items()}


def _check_cone_semigroup(p, n):
    # The cones are the principal ones, in Sing order (sc.coded_normal_cones
    # states at which n that is every normal cone), and the table is built by
    # cone composition, so the morphism check, on the map that sends each
    # Sing element to the cone its matrix labels, decides
    # cone(a).cone(b) = cone(ab).  coded_normal_cones' guards refuse before
    # the lattice is built.  The same semigroup, labelled by matrices acting
    # on dual coordinates, is the dual cone semigroup, the cone semigroup of
    # the annihilator category; on this build, the map a -> cone(a^T) from
    # the opposite of Sing's table decides that transposition is an
    # anti-isomorphism, (a^T).(b^T) = (b.a)^T for every pair.
    cone_sg = sc.coded_normal_cones(p, n)[0]
    mats = gf._sing_matrices(p, n)
    table = gf.sing_table(p, n)
    for failure, source, images in (("cone map is not an isomorphism", table, mats),
                                    ("dual cone semigroup", table.T, mats.transpose(0, 2, 1))):
        found = sc.cone_map_witnesses(cone_sg, source, images, p)
        if found:
            return False, {"failure": failure, **_sing_pairs(p, n, found)}
    return True, None


def _check_m_sets(p, n):
    # the M-set of each idempotent's principal cone, by iso components and by
    # complements of its kernel (sc.m_sets); the first idempotent at which
    # they differ is the witness
    idem, by_iso, by_sum = sc.m_sets(p, n)
    bad = (by_iso != by_sum).any(axis=1)
    if bad.any():
        return False, {"idempotent": gf.rows_json(p, idem[bad.argmax()])}
    return True, None


def _check_dual_category(p, n):
    # The dual side is read from the subspace lattice, where the dual
    # category's objects are the proper subspaces at their own positions
    # (ann.iso_to_dual_subspace_category states what that leaves to decide).
    # Its cone semigroup is decided by cone-semigroup, on that check's build.
    witness = ann.iso_to_dual_subspace_category(p, n)
    return witness is None, witness


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
            return False, {"eps": gf.rows_json(p, eps), "failure": "functoriality"}
        e_obj, et_obj = xc.object_actions(p, n, eps)
        if not xc.covers(p, n, et_obj):
            return False, {"eps": gf.rows_json(p, eps), "failure": "covering"}
        if not conj.permutes[i]:
            raise AssertionError("not a permutation of the element indices")
        pair = xc.link_failure(p, n, conj.perms[i], e_obj, et_obj)
        if pair is not None:
            lattice = gf.subspace_lattice(p, n)
            a, y = (gf.rows_json(p, lattice.basis(k)) for k in pair)
            return False, {"eps": gf.rows_json(p, eps), "a": a, "y": y}
    return True, None


def _check_null_amalgam(p, n):
    # each branch lists the core's elements first under its own tag, so the
    # labels are disjoint by construction; each inclusion is decided
    core, (s1, s2), inclusions = sg.null_semigroup_fixture()
    facts = [
        s1.mul_labels(("S1", "a"), ("S1", "u")) == ("S1", "v"),
        s1.mul_labels(("S1", "u"), ("S1", "a")) == ("S1", "v"),
        s1.mul_labels(("S1", "a"), ("S1", "a")) == ("S1", "z"),
        s2.mul_labels(("S2", "b"), ("S2", "v")) == ("S2", "w"),
        s2.mul_labels(("S2", "v"), ("S2", "b")) == ("S2", "w"),
        core.mul_labels(("U", "u"), ("U", "v")) == ("U", "z"),
    ]
    if not all(facts):
        return False, {"failure": "fixture products"}
    for i, (branch, inclusion) in enumerate(zip((s1, s2), inclusions)):
        found = sg.morphism_witnesses(core.table, branch.table, inclusion)
        if found:
            pairs = {k: [core.elements[x] for x in pair] for k, pair in found.items()}
            return False, {"failure": "inclusion", "branch": i, **pairs}
    return True, None


BUNDLE_DIMS, BUNDLE_CORE_DIM = (2, 2, 3), 2  # bundle-amalgam's fiber family, the same at every n


def _check_bundle_amalgam(p, n):
    # The fiber family and its core do not depend on n.  Each embedding is
    # an injective homomorphism by the block reduction (bn.build_embedding),
    # and each part's conjugation law holds by the conjugation reduction
    # (xc.conjugations).  So what is left to decide is E.E^-1 = I and that
    # each conjugation is a permutation (xc.linked_pairs raises otherwise),
    # that no block-embedded core element is invertible (build_embedding
    # raises), and the orders against the closed forms, compared here.  The
    # embeddings are decided on first coordinates; the second coordinates,
    # conjugates under each part's own automorphism, are not compared.
    bundle = bn.assemble_amalgam(bn.fiber_family(p, BUNDLE_DIMS), m=BUNDLE_CORE_DIM)
    core_order, *orders = bundle.orders
    want = [gf.singular_count(p, d) for d in BUNDLE_DIMS]
    if orders != want:
        return False, {"orders": orders, "expected": want}
    if core_order != gf.singular_count(p, BUNDLE_CORE_DIM):
        return False, {"core_order": core_order}
    return True, None


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
        ok, witness = fn(*args)
    except gf.GuardExceeded as exc:
        ok, witness = False, {"guard": str(exc)}
    except Exception as exc:  # a claim that fails by raising fails its check only
        ok, witness = False, {"error": str(exc)}
    return {"check": name, "status": "pass" if ok else "fail", "witness": witness}


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
        return False, {"triple": list(exc.witness)}
    except (OSError, ValueError) as exc:  # GuardExceeded too: an order past the guard is an error witness
        return False, {"error": str(exc)}
    return True, None


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
    except json.JSONDecodeError:
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
    counted in closed form, nothing is enumerated."""
    gf.check_field(p)
    gf.check_dim(n)
    order = gf.singular_count(p, n)
    autos = p ** (n * n) - order
    if autos * order ** 2 > ALL_EPS_CELL_LIMIT:
        raise gf.GuardExceeded(
            f"crossconn --all-eps at GF({p})^{n} would write {gf.count_text(autos)} tables of order "
            f"{gf.count_text(order)}, {gf.count_text(autos * order ** 2)} cells in all, "
            f"beyond the output limit of {ALL_EPS_CELL_LIMIT} cells"
        )


def cmd_crossconn(args):
    p, n = args.field, args.dim
    if args.all_eps:
        _check_all_eps_output(p, n)
        eps = gf.enumerate_automorphisms(p, n)
    elif args.eps:
        eps = _parse_eps(args.eps, p, n)[None]
    else:
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
    dims = tuple(int(x) for x in args.dims.split(","))
    spec = bn.fiber_family(p, dims)
    if args.format == "json":  # the document writes each part's Sing table: refuse before any is built
        for d in (bn.build_core(spec, args.core_dim).m,) + dims:
            gf.check_sing_order(p, d)
    bundle = bn.assemble_amalgam(spec, m=args.core_dim)
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


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fibersemi",
        description="Singular endomorphism semigroups over GF(p): Green structure, "
                    "cone semigroups, cross-connections and bundle amalgams.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, dims=False, dot=False):
        sp.add_argument("--field", type=int, default=2, help="prime field modulus")
        if not dims:
            sp.add_argument("--dim", type=int, default=2, help="ambient dimension")
        sp.add_argument("--format", choices=("table", "json") + ("dot",) * dot, default="table")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    spe = sub.add_parser("enumerate", help="count endomorphisms, idempotents, subspaces")
    common(spe)
    spe.set_defaults(fn=cmd_enumerate)

    spv = sub.add_parser("verify-all", help="run every verification check")
    common(spv)
    spv.add_argument("--seed", type=int, default=0,
                     help="accepted and ignored: every check is exhaustive")
    spv.add_argument("--table", default=None, help="also validate a Cayley-table JSON file")
    spv.set_defaults(fn=cmd_verify_all)

    spg = sub.add_parser("green", help="Green structure and eggbox diagram")
    common(spg, dot=True)
    spg.set_defaults(fn=cmd_green)

    spc = sub.add_parser("cones", help="the semigroup of normal cones")
    common(spc)
    spc.set_defaults(fn=cmd_cones)

    spx = sub.add_parser("crossconn", help="linked-pair semigroups per automorphism")
    common(spx)
    which = spx.add_mutually_exclusive_group()
    which.add_argument("--eps", default=None, help="automorphism as a JSON matrix literal")
    which.add_argument("--all-eps", action="store_true", help="sweep every automorphism")
    spx.set_defaults(fn=cmd_crossconn)

    spa = sub.add_parser("amalgam", help="bundle-fiber amalgam")
    common(spa, dims=True, dot=True)
    spa.add_argument("--dims", default="2,2,3", help="comma-separated fiber dimensions")
    spa.add_argument("--core-dim", type=int, default=None, help="core dimension (default min)")
    spa.set_defaults(fn=cmd_amalgam)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # gf.GuardExceeded and sg.NotAssociative are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a failed verification, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    """Process entry point of ``python -m fibersemi.cli`` and the ``fibersemi``
    script: main() on sys.argv, then exit with its status.

    Once main() returns, every live object moves to the collector's
    permanent generation, which the full collections of interpreter
    finalization skip: the heap is about to be discarded, and those passes
    over numpy's and the package's objects are a measurable share of a short
    command.  atexit handlers, the flushing of stdout and stderr and the
    exit status are unchanged; a usage error or an uncaught exception leaves
    before the freeze.  main() leaves the collector alone, for in-process
    callers."""
    code = main()
    import gc  # not at the top: importing or freezing before main() raised its peak RSS
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
