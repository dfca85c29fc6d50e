"""Command-line front end: enumeration sweeps, verification runs and export
of tables and diagrams.

Every command writes deterministic output (stable ordering, exhaustive
checks, no timestamps), so identical configurations produce byte-identical
artifacts.  Exit status is 0 only when every requested verification passed.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    cases = [(p, n)]
    if (p, n) == (2, 2):
        cases += [(3, 2), (2, 3)]
    for cp, cn in cases:
        got = len(gf._sing_matrices(cp, cn))
        want = gf.singular_count(cp, cn)
        if got != want:
            return False, {"p": cp, "n": cn, "enumerated": got, "closed_form": want}
    return True, None


def _check_regularity(p, n):
    # regularity of the cone semigroup follows from this one through the
    # isomorphism that cone-semigroup decides
    sing = sg.sing_semigroup(p, n)
    if not sg.is_regular(sing):
        return False, {"failure": "singular semigroup not regular"}
    got = len(sg.idempotents(sing))
    want = sum(
        p ** (a.dim * (n - a.dim))
        for a in gf.enumerate_subspaces(p, n, proper_only=True)
    )
    if got != want:
        return False, {"idempotents": got, "expected": want}
    return True, None


def _check_green(p, n):
    sing = sg.sing_semigroup(p, n)
    elems = sing.elements
    green = sg.green_relations(sing)
    images = [e.image() for e in elems]
    kernels = [e.kernel() for e in elems]
    for cls in green.l_classes:
        if len({images[i] for i in cls}) != 1:
            return False, {"failure": "L class with mixed images"}
    if len(green.l_classes) != len(set(images)):
        return False, {"failure": "L classes do not match image partition"}
    for cls in green.r_classes:
        if len({kernels[i] for i in cls}) != 1:
            return False, {"failure": "R class with mixed kernels"}
    if len(green.r_classes) != len(set(kernels)):
        return False, {"failure": "R classes do not match kernel partition"}
    if (p, n) == (2, 2):
        if len(green.d_classes) != 2:
            return False, {"d_classes": len(green.d_classes)}
        big = max(green.d_classes, key=len)
        rs = [c for c in green.r_classes if set(c) <= set(big)]
        ls = [c for c in green.l_classes if set(c) <= set(big)]
        hs = [c for c in green.h_classes if set(c) <= set(big)]
        if not (len(rs) == 3 and len(ls) == 3 and len(hs) == 9
                and all(len(h) == 1 for h in hs)):
            return False, {"failure": "rank-1 class is not a 3x3 grid of singletons"}
    return True, None


def _check_factorization(p, n):
    # Every morphism is decided through its hom-set shape and its objects'
    # translations (sc.factorization_witness states the reduction).
    cats = [sc.build_category(p, n)]
    if (p, n) == (2, 2):
        cats.append(sc.build_category(2, 3))
    for cat in cats:
        witness = sc.factorization_witness(cat)
        if witness is not None:
            return False, witness
        for i, j in cat.inclusion_pairs:
            a, b = cat.objects[i], cat.objects[j]
            if gf.inclusion_map(a, b).compose(sc.retraction(b, a)) != gf.identity_map(a):
                return False, {"failure": "retraction law", "sub": a.to_json()}
    return True, None


def _check_cone_semigroup(p, n):
    # The table is built by cone_compose and its cones are exactly the
    # principal ones (both code arrays are in order of the inducing
    # endomorphisms), so the morphism check decides cone(a).cone(b) = cone(ab).
    cat = sc.build_category(p, n)
    cone_sg, code, vertex, rows = sc.coded_normal_cones(cat)
    sing_elems = gf.enumerate_endos(p, n, singular_only=True)
    if cone_sg.order != len(sing_elems):
        return False, {"cones": cone_sg.order, "singular": len(sing_elems)}
    if code.codes(vertex, rows).tolist() != sc.principal_codes(cat, code).tolist():
        return False, {"failure": "non-principal normal cone found"}
    sing = sg.sing_semigroup(p, n)
    mapping = tuple(cone_sg.index(a.rows) for a in sing.elements)
    rep = sg.verify_morphism(sg.SemigroupMorphism(sing, cone_sg, mapping))
    if not rep.ok:
        return False, {"failure": "cone map is not an isomorphism", **rep.witnesses}
    return True, None


def _check_m_sets(p, n):
    cat = sc.build_category(p, n)
    for e in gf.enumerate_endos(p, n, singular_only=True):
        if e * e != e:
            continue
        from_iso = set(sc.m_set(cat, sc.principal_cone(cat, e)))
        from_sum = {a for a in cat.objects if gf.is_direct_sum(a, e.kernel())}
        if from_iso != from_sum:
            return False, {"idempotent": e.to_json()}
    return True, None


def _check_dual_category(p, n):
    acat = ann.build_annihilator_category(p, n)
    rep = ann.iso_to_dual_subspace_category(acat)
    if not rep.ok:
        return False, {"failure": "dual category identification"}
    if (p, n) == (2, 2):
        acat3 = ann.build_annihilator_category(2, 3)
        if len(acat3.objects) != 15:
            return False, {"objects_2_3": len(acat3.objects)}
        ta = ann.build_ta_semigroup(2, 2)
        if not (ta.semigroup.order == 10 and ta.anti_isomorphism.ok):
            return False, {"failure": "dual cone semigroup"}
    return True, None


def _check_cross_connections(p, n):
    # Decided on the subspace index (crossconn.subspace_index), whose build
    # refuses by Sing's order before any automorphism is enumerated.  The
    # linked-pair semigroup shares Sing's table with labels in Sing order,
    # so its order, its first projection and its regularity hold by
    # construction; only its conjugation law is checked here.  object_actions
    # also decides that the actions are injective on hom-sets.
    idx = xc.subspace_index(p, n)
    _, _, table = gf.sing_table(p, n)
    for eps in gf.enumerate_automorphisms(p, n):
        cc = xc.cross_connection(eps)
        actions = xc.object_actions(cc, idx)
        if actions is None:
            return False, {"eps": eps.to_json(), "failure": "functoriality"}
        e_obj, et_obj = actions
        if not xc.covers(idx, et_obj):
            return False, {"eps": eps.to_json(), "failure": "covering"}
        perm = gf.sing_conjugation(cc.eps_inv, eps)
        xc.check_conjugation_law(table, perm)  # raises unless perm is a permutation
        pair = xc.link_failure(idx, perm, e_obj, et_obj)
        if pair is not None:
            a, y = pair
            return False, {"eps": eps.to_json(), "a": a.to_json(), "y": y.to_json()}
    return True, None


def _check_null_amalgam(p, n):
    am = sg.null_semigroup_fixture()
    s1, s2 = am.branches
    facts = [
        s1.mul_labels(("S1", "a"), ("S1", "u")) == ("S1", "v"),
        s1.mul_labels(("S1", "u"), ("S1", "a")) == ("S1", "v"),
        s1.mul_labels(("S1", "a"), ("S1", "a")) == ("S1", "z"),
        s2.mul_labels(("S2", "b"), ("S2", "v")) == ("S2", "w"),
        s2.mul_labels(("S2", "v"), ("S2", "b")) == ("S2", "w"),
        am.core.mul_labels(("U", "u"), ("U", "v")) == ("U", "z"),
    ]
    if not all(facts):
        return False, {"failure": "fixture products"}
    rep = sg.verify_amalgam(am)
    return rep.ok, None if rep.ok else {"witnesses": rep.witnesses}


def _check_bundle_amalgam(p, n, dims=(2, 2, 3), m=2):
    # assemble_amalgam raises unless verify_amalgam passes, and that decides
    # the pairwise disjointness of the tagged element sets.
    spec = bn.fiber_family(p, max(dims), dims)
    bundle = bn.assemble_amalgam(spec, m=m)
    orders = [b.order for b in bundle.branches]
    want = [len(gf.enumerate_endos(p, d, singular_only=True)) for d in dims]
    if orders != want:
        return False, {"orders": orders, "expected": want}
    if bundle.core.semigroup.order != len(gf.enumerate_endos(p, m, singular_only=True)):
        return False, {"core_order": bundle.core.semigroup.order}
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


def run_checks(p, n, table_path=None):
    report = []
    for name, fn in CHECKS:
        try:
            ok, witness = fn(p, n)
        except gf.GuardExceeded as exc:
            ok, witness = False, {"guard": str(exc)}
        except Exception as exc:  # a claim that fails by raising fails its check only
            ok, witness = False, {"error": str(exc)}
        report.append({"check": name, "status": "pass" if ok else "fail",
                       "witness": witness})
    if table_path:
        report.append(_table_check(table_path))
    return report


def _table_check(path):
    name = "table-associativity"
    try:
        with open(path) as fh:
            doc = json.load(fh)
        sg.semigroup_from_json(doc)
    except sg.NotAssociative as exc:
        return {"check": name, "status": "fail",
                "witness": {"triple": list(exc.witness)}}
    except (OSError, ValueError) as exc:
        return {"check": name, "status": "fail", "witness": {"error": str(exc)}}
    return {"check": name, "status": "pass", "witness": None}


# ---------------------------------------------------------------------------
# subcommands

def cmd_enumerate(args):
    p, n = args.field, args.dim
    smg = sg.sing_semigroup(p, n)
    doc = {
        "field": p,
        "dim": n,
        "singular_endomorphisms": smg.order,
        "closed_form": gf.singular_count(p, n),
        "idempotents": len(sg.idempotents(smg)),
        "proper_subspaces": len(gf.enumerate_subspaces(p, n, proper_only=True)),
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
    smg = sg.sing_semigroup(p, n)
    green = sg.green_relations(smg)
    if args.format == "dot":
        _emit(sg.eggbox_dot(smg, green), args.out)
    elif args.format == "json":
        _emit(_dump(green.to_json()), args.out)
    else:
        _emit(
            f"order: {smg.order}\n"
            f"L classes: {len(green.l_classes)}\n"
            f"R classes: {len(green.r_classes)}\n"
            f"H classes: {len(green.h_classes)}\n"
            f"D classes: {len(green.d_classes)}\n",
            args.out,
        )
    return 0


def cmd_cones(args):
    p, n = args.field, args.dim
    cat = sc.build_category(p, n)
    smg, cones, _ = sc.enumerate_normal_cones(cat)
    if args.format == "json":
        _emit(sc.cone_semigroup_json(cat, smg, cones), args.out)
    else:
        _emit(
            f"objects: {len(cat.objects)}\n"
            f"normal cones: {smg.order}\n"
            f"regular: {sg.is_regular(smg)}\n",
            args.out,
        )
    return 0


def _parse_eps(text, p, n):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError:
        rows = None
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)
            and all(type(x) is int for r in rows for x in r)):  # bool is not int
        raise ValueError(f"--eps must be a JSON list of {n} lists of {n} integers")
    e = gf.endo(rows, p)
    if not e.is_invertible():
        raise ValueError("--eps matrix is singular")
    return e


def cmd_crossconn(args):
    p, n = args.field, args.dim
    if args.all_eps:
        eps_list = list(gf.enumerate_automorphisms(p, n))
    elif args.eps:
        eps_list = [_parse_eps(args.eps, p, n)]
    else:
        eps_list = [gf.identity_endo(p, n)]
    built = [xc.build_cross_conn_semigroup(e) for e in eps_list]
    if args.format == "json":
        _emit(_dump([s.to_json() for s in built]), args.out)
    else:
        lines = [f"eps={s.eps.rows} order={s.order}" for s in built]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_amalgam(args):
    p = args.field
    dims = tuple(int(x) for x in args.dims.split(","))
    spec = bn.fiber_family(p, max(dims), dims)
    bundle = bn.assemble_amalgam(spec, m=args.core_dim)
    if args.format == "dot":
        _emit(bn.amalgam_dot(bundle), args.out)
    elif args.format == "json":
        _emit(bn.amalgam_json(bundle), args.out)
    else:
        lines = [f"core: dim {bundle.core.m}, order {bundle.core.semigroup.order}"]
        for i, b in enumerate(bundle.branches):
            lines.append(f"fiber {i}: dim {dims[i]}, order {b.order}")
        lines.append(f"verified: {bundle.report.ok}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if bundle.report.ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fibersemi",
        description="Singular endomorphism semigroups over GF(p): Green structure, "
                    "cone semigroups, cross-connections and bundle amalgams.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, dims=False):
        sp.add_argument("--field", type=int, default=2, help="prime field modulus")
        if not dims:
            sp.add_argument("--dim", type=int, default=2, help="ambient dimension")
        sp.add_argument("--format", choices=("table", "json", "dot"), default="table")
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
    common(spg)
    spg.set_defaults(fn=cmd_green)

    spc = sub.add_parser("cones", help="the semigroup of normal cones")
    common(spc)
    spc.set_defaults(fn=cmd_cones)

    spx = sub.add_parser("crossconn", help="linked-pair semigroups per automorphism")
    common(spx)
    spx.add_argument("--eps", default=None, help="automorphism as a JSON matrix literal")
    spx.add_argument("--all-eps", action="store_true", help="sweep every automorphism")
    spx.set_defaults(fn=cmd_crossconn)

    spa = sub.add_parser("amalgam", help="bundle-fiber amalgam")
    common(spa, dims=True)
    spa.add_argument("--dims", default="2,2,3", help="comma-separated fiber dimensions")
    spa.add_argument("--core-dim", type=int, default=None, help="core dimension (default min)")
    spa.set_defaults(fn=cmd_amalgam)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except gf.GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, sg.NotAssociative) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
