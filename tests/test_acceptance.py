"""Acceptance gate: every criterion with its exact expected values and its
runtime budget.  Run with -s to see one PASS line per criterion."""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout

import crossconn_oracle as oracle
import factorization_oracle as fo
from fibersemi import annihilators as ann
from fibersemi import bundles as bn
from fibersemi import cli
from fibersemi import crossconn as xc
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi import subspace_category as sc


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"PASS criterion-{number}: {description} ({elapsed:.2f}s)")


def sing_semigroup(p, n):
    elems = gf.enumerate_endos(p, n, singular_only=True)
    return sg.from_multiplication(elems, lambda a, b: a * b)


def test_criterion_1_cardinalities():
    with criterion(1, "singular endomorphism counts match the closed form", 5):
        for p, n, expected in [(2, 2, 10), (3, 2, 33), (2, 3, 344)]:
            enumerated = gf.enumerate_endos(p, n, singular_only=True)
            assert len(enumerated) == expected
            assert gf.singular_count(p, n) == expected
            assert sum(1 for e in gf.enumerate_endos(p, n) if e.rank < n) == expected


def test_criterion_2_regularity_and_idempotents():
    with criterion(2, "Sing(GF(2)^2) regular with 7 idempotents; cone semigroup regular", 5):
        s = sing_semigroup(2, 2)
        assert sg.is_regular(s)
        assert len(sg.idempotents(s)) == 7
        cone_sg, _, _ = sc.enumerate_normal_cones(sc.build_category(2, 2))
        assert sg.is_regular(cone_sg)


def test_criterion_3_green_structure():
    with criterion(3, "two D-classes; 3x3 eggbox of singleton H-cells; L=image, R=kernel", 5):
        elems = gf.enumerate_endos(2, 2, singular_only=True)
        s = sg.from_multiplication(elems, lambda a, b: a * b)
        g = sg.green_relations(s)
        assert len(g.d_classes) == 2
        big = set(max(g.d_classes, key=len))
        rs = [c for c in g.r_classes if set(c) <= big]
        ls = [c for c in g.l_classes if set(c) <= big]
        hs = [c for c in g.h_classes if set(c) <= big]
        assert len(rs) == 3 and len(ls) == 3
        assert len(hs) == 9 and all(len(h) == 1 for h in hs)
        images = [e.image() for e in elems]
        kernels = [e.kernel() for e in elems]
        for i in range(s.order):
            for j in range(s.order):
                l_related = any(i in c and j in c for c in g.l_classes)
                r_related = any(i in c and j in c for c in g.r_classes)
                assert l_related == (images[i] == images[j])
                assert r_related == (kernels[i] == kernels[j])


def test_criterion_4_normal_factorization():
    with criterion(4, "f = q.u.j on every morphism at (2,2) and at (2,3)", 30):
        cat = sc.build_category(2, 2)
        for f in fo.all_morphisms(cat):
            nf = sc.normal_factorization(f)
            assert fo.recomposed(nf) == f and nf.u.is_iso()
        for i, j in cat.inclusion_pairs:
            a, b = cat.objects[i], cat.objects[j]
            assert gf.inclusion_map(a, b).compose(sc.retraction(b, a)) == gf.identity_map(a)
        morphisms = list(fo.all_morphisms(sc.build_category(2, 3)))
        assert len(morphisms) == 1303
        for f in morphisms:
            nf = sc.normal_factorization(f)
            assert fo.recomposed(nf) == f and nf.u.is_iso()


def test_criterion_5_cone_semigroup_isomorphism():
    with criterion(5, "exhaustive cone sweep gives 10 principal cones isomorphic to Sing", 60):
        cat = sc.build_category(2, 2)
        cone_sg, cones, _ = sc.enumerate_normal_cones(cat)
        assert cone_sg.order == 10
        sing_elems = gf.enumerate_endos(2, 2, singular_only=True)
        assert set(cones) == {sc.principal_cone(cat, a) for a in sing_elems}
        sing = sg.from_multiplication(sing_elems, lambda a, b: a * b)
        mapping = tuple(cone_sg.index(a.rows) for a in sing.elements)
        rep = sg.verify_morphism(sg.SemigroupMorphism(sing, cone_sg, mapping))
        assert rep.is_hom and rep.is_injective and len(set(mapping)) == cone_sg.order
        for a in sing_elems:
            for b in sing_elems:
                assert sc.cone_compose(cat, sc.principal_cone(cat, a),
                                       sc.principal_cone(cat, b)) == \
                    sc.principal_cone(cat, a * b)


def test_criterion_6_m_set_agreement():
    with criterion(6, "iso-component m-sets equal direct-sum m-sets for all 7 idempotents", 5):
        cat = sc.build_category(2, 2)
        checked = 0
        for e in gf.enumerate_endos(2, 2, singular_only=True):
            if e * e != e:
                continue
            by_iso = set(sc.m_set(cat, sc.principal_cone(cat, e)))
            by_sum = {a for a in cat.objects if gf.is_direct_sum(a, e.kernel())}
            assert by_iso == by_sum
            checked += 1
        assert checked == 7


def test_criterion_7_dual_category_and_transpose():
    with criterion(7, "annihilator category matches the dual side; transpose anti-isomorphism", 30):
        rep = ann.iso_to_dual_subspace_category(ann.build_annihilator_category(2, 2))
        assert rep.ok
        assert len(ann.build_annihilator_category(2, 3).objects) == 15
        ta = ann.build_ta_semigroup(2, 2)
        assert ta.semigroup.order == 10
        assert ta.anti_isomorphism.is_hom and ta.anti_isomorphism.is_injective
        sing_elems = gf.enumerate_endos(2, 2, singular_only=True)
        for a in sing_elems:
            for b in sing_elems:
                assert gf.transpose(a * b) == gf.transpose(b) * gf.transpose(a)


def test_criterion_8_cross_connection_semigroups():
    with criterion(8, "all 6 automorphisms: order-10 linked pairs, covering, bijective linking", 60):
        sing = sing_semigroup(2, 2)
        cat = sc.build_category(2, 2)
        autos = gf.enumerate_automorphisms(2, 2)
        assert len(autos) == 6
        for eps in autos:
            cc = xc.cross_connection(eps)
            cov = oracle.verify_cross_connection(cc)
            assert cov.covering_ok and cov.inclusion_ok and cov.hom_injective_ok
            s = xc.build_cross_conn_semigroup(eps)
            assert s.order == 10
            mapping = tuple(sing.index(gf.Endo(2, 2, lbl[0]))
                            for lbl in s.semigroup.elements)
            rep = sg.verify_morphism(sg.SemigroupMorphism(s.semigroup, sing, mapping))
            assert rep.is_hom and rep.is_injective
            for a in cat.objects:
                for y in cat.objects:
                    assert oracle.linking_bijection(cc, a, y).bijective


def test_criterion_9_null_amalgam_fixture():
    with criterion(9, "null-semigroup amalgam reproduces the stated products", 1):
        am = sg.null_semigroup_fixture()
        s1, s2 = am.branches
        assert s1.mul_labels(("S1", "a"), ("S1", "u")) == ("S1", "v")
        assert s1.mul_labels(("S1", "u"), ("S1", "a")) == ("S1", "v")
        assert s2.mul_labels(("S2", "b"), ("S2", "v")) == ("S2", "w")
        assert s2.mul_labels(("S2", "v"), ("S2", "b")) == ("S2", "w")
        for x in s1.elements:
            for y in s1.elements:
                if {x[1], y[1]} != {"a", "u"}:
                    assert s1.mul_labels(x, y) == ("S1", "z")
        assert sg.verify_amalgam(am).ok


def test_criterion_10_bundle_amalgam():
    with criterion(10, "dims (2,2,3): core order 10, branches (10,10,344), verified embeddings", 60):
        am = bn.assemble_amalgam(bn.fiber_family(2, 3, (2, 2, 3)), m=2)
        assert am.core.semigroup.order == 10
        assert [b.order for b in am.branches] == [10, 10, 344]
        assert am.report.disjoint
        for rep in am.report.embedding_reports:
            assert rep.is_hom and rep.is_injective
        seen = set(am.amalgam.core.elements)
        for b in am.amalgam.branches:
            assert not (seen & set(b.elements))
            seen |= set(b.elements)


def test_criterion_11_deterministic_reports():
    with criterion(11, "verify-all emits byte-identical JSON across runs", 120):
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["verify-all", "--field", "2", "--dim", "2",
                                 "--format", "json"])
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert all(r["status"] == "pass" for r in report)
