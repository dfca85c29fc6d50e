"""Acceptance gate: every criterion with its exact expected values and its
runtime budget.  Run with -s to see one PASS line per criterion."""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout

import bundle_oracle
import cone_oracle as co
import crossconn_oracle as oracle
import factorization_oracle as fo
import gf_helpers as gh
import lattice_oracle as lo
import sing_oracle
from fibersemi import annihilators as ann
from fibersemi import bundles as bn
from fibersemi import cli
from fibersemi import gf
from fibersemi import semigroups as sg


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"PASS criterion-{number}: {description} ({elapsed:.2f}s)")


def sing_semigroup(p, n):
    elems = sing_oracle.enumerate_endos(p, n, singular_only=True)
    return sing_oracle.from_multiplication(elems, lambda a, b: a * b)


def test_criterion_1_cardinalities():
    with criterion(1, "singular endomorphism counts match the closed form", 5):
        for p, n, expected in [(2, 2, 10), (3, 2, 33), (2, 3, 344)]:
            enumerated = sing_oracle.enumerate_endos(p, n, singular_only=True)
            assert len(enumerated) == expected
            assert gf.singular_count(p, n) == expected
            assert sum(1 for e in sing_oracle.enumerate_endos(p, n) if e.rank < n) == expected


def test_criterion_2_regularity_and_idempotents():
    with criterion(2, "Sing(GF(2)^2) regular with 7 idempotents; cone semigroup regular", 5):
        s = sing_semigroup(2, 2)
        assert sg.is_regular(s)
        assert len(sing_oracle.idempotents(s)) == 7
        cone_sg, _, _ = co.enumerate_normal_cones(lo.build_category(2, 2))
        assert sg.is_regular(cone_sg)


def test_criterion_3_green_structure():
    with criterion(3, "two D-classes; 3x3 eggbox of singleton H-cells; L=image, R=kernel", 5):
        elems = sing_oracle.enumerate_endos(2, 2, singular_only=True)
        s = sing_oracle.from_multiplication(elems, lambda a, b: a * b)
        g = sing_oracle.green_relations(s)
        assert len(g.d_classes) == 2
        big = set(max(g.d_classes, key=len))
        rs = [c for c in g.r_classes if set(c) <= big]
        ls = [c for c in g.l_classes if set(c) <= big]
        hs = [c for c in g.h_classes if set(c) <= big]
        assert len(rs) == 3 and len(ls) == 3
        assert len(hs) == 9 and all(len(h) == 1 for h in hs)
        images = [gh.image(e) for e in elems]
        kernels = [gh.kernel(e) for e in elems]
        for i in range(s.order):
            for j in range(s.order):
                l_related = any(i in c and j in c for c in g.l_classes)
                r_related = any(i in c and j in c for c in g.r_classes)
                assert l_related == (images[i] == images[j])
                assert r_related == (kernels[i] == kernels[j])


def test_criterion_4_normal_factorization():
    with criterion(4, "f = q.u.j on every morphism at (2,2) and at (2,3)", 30):
        cat = lo.build_category(2, 2)
        for f in fo.all_morphisms(cat):
            nf = fo.from_shape_factors(f)
            assert fo.recomposed(nf) == f and nf.u.is_iso()
        for i, j in cat.inclusion_pairs:
            a, b = cat.objects[i], cat.objects[j]
            assert gh.inclusion_map(a, b).compose(fo.retraction(b, a)) == gh.identity_map(a)
        morphisms = list(fo.all_morphisms(lo.build_category(2, 3)))
        assert len(morphisms) == 1303
        for f in morphisms:
            nf = fo.from_shape_factors(f)
            assert fo.recomposed(nf) == f and nf.u.is_iso()


def test_criterion_5_cone_semigroup_isomorphism():
    with criterion(5, "exhaustive cone sweep gives 10 principal cones isomorphic to Sing", 60):
        cat = lo.build_category(2, 2)
        swept = [cone for v in cat.objects for cone in co._assignment_space(cat, v)]
        assert len(swept) == 25
        kept = [c for c in swept if (rep := co.validate_cone(cat, c)).well_formed and rep.is_normal]
        sing_elems = sing_oracle.enumerate_endos(2, 2, singular_only=True)
        assert len(kept) == 10 and set(kept) == {co.principal_cone(cat, a) for a in sing_elems}
        cone_sg, cones, _ = co.enumerate_normal_cones(cat)
        assert cone_sg.order == 10 and set(cones) == set(kept)
        sing = sing_oracle.from_multiplication(sing_elems, lambda a, b: a * b)
        mapping = tuple(cones.index(co.principal_cone(cat, a)) for a in sing.elements)
        rep = sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(sing, cone_sg, mapping))
        assert rep.is_hom and rep.is_injective and len(set(mapping)) == cone_sg.order
        for a in sing_elems:
            for b in sing_elems:
                assert co.cone_compose(cat, co.principal_cone(cat, a),
                                       co.principal_cone(cat, b)) == \
                    co.principal_cone(cat, a * b)


def test_criterion_6_m_set_agreement():
    with criterion(6, "iso-component m-sets equal direct-sum m-sets for all 7 idempotents", 5):
        cat = lo.build_category(2, 2)
        checked = 0
        for e in sing_oracle.enumerate_endos(2, 2, singular_only=True):
            if e * e != e:
                continue
            by_iso = set(co.m_set(cat, co.principal_cone(cat, e)))
            by_sum = {a for a in cat.objects if gh.is_direct_sum(a, gh.kernel(e))}
            assert by_iso == by_sum
            checked += 1
        assert checked == 7


def test_criterion_7_dual_category_and_transpose():
    with criterion(7, "annihilator category matches the dual side; transpose anti-isomorphism", 30):
        assert ann.iso_to_dual_subspace_category(2, 2) is None
        assert ann.iso_to_dual_subspace_category(2, 3) is None
        assert len(ann.build_annihilator_category(2, 3)) == 15
        ta, found = co.build_ta_semigroup(2, 2)
        assert ta.order == 10
        assert found == {}
        # the same anti-isomorphism through the labelled oracle check; cone
        # k is that of Sing's element k
        sing = sing_oracle.sing_semigroup(2, 2)
        opposite = sg.FiniteSemigroup(sing.elements, sing.table.T)
        mapping = tuple(sing.elements.index(gh.transpose(a)) for a in sing.elements)
        assert sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(opposite, ta, mapping)).ok
        sing_elems = sing_oracle.enumerate_endos(2, 2, singular_only=True)
        for a in sing_elems:
            for b in sing_elems:
                assert gh.transpose(a * b) == gh.transpose(b) * gh.transpose(a)


def test_criterion_8_cross_connection_semigroups():
    with criterion(8, "all 6 automorphisms: order-10 linked pairs, covering, bijective linking", 60):
        sing = sing_semigroup(2, 2)
        cat = lo.build_category(2, 2)
        autos = gh.automorphisms(2, 2)
        assert len(autos) == 6
        for eps in autos:
            cc = oracle.cross_connection(eps)
            cov = oracle.verify_cross_connection(cc)
            assert cov.covering_ok and cov.inclusion_ok and cov.hom_injective_ok
            s = oracle.build_cross_conn_semigroup(eps)
            assert s.order == 10
            mapping = tuple(sing.elements.index(gh.Endo(2, 2, lbl[0]))
                            for lbl in s.semigroup.elements)
            rep = sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(s.semigroup, sing, mapping))
            assert rep.is_hom and rep.is_injective
            for a in cat.objects:
                for y in cat.objects:
                    assert oracle.linking_bijection(cc, a, y).bijective


def test_criterion_9_null_amalgam_fixture():
    with criterion(9, "null-semigroup amalgam reproduces the stated products", 1):
        core, (s1, s2), inclusions = sg.null_semigroup_fixture()
        assert sing_oracle.mul_labels(s1, ("S1", "a"), ("S1", "u")) == ("S1", "v")
        assert sing_oracle.mul_labels(s1, ("S1", "u"), ("S1", "a")) == ("S1", "v")
        assert sing_oracle.mul_labels(s2, ("S2", "b"), ("S2", "v")) == ("S2", "w")
        assert sing_oracle.mul_labels(s2, ("S2", "v"), ("S2", "b")) == ("S2", "w")
        for x in s1.elements:
            for y in s1.elements:
                if {x[1], y[1]} != {"a", "u"}:
                    assert sing_oracle.mul_labels(s1, x, y) == ("S1", "z")
        for branch, inclusion in zip((s1, s2), inclusions):
            assert sg.morphism_witnesses(core.table, branch.table, inclusion) == {}
        assert bundle_oracle.verify_amalgam(bundle_oracle.null_amalgam()).ok


def test_criterion_10_bundle_amalgam():
    with criterion(10, "dims (2,2,3): core order 10, branches (10,10,344), verified embeddings", 60):
        am = bn.assemble_amalgam(bn.fiber_family(2, (2, 2, 3)), m=2)
        assert am.orders == [10, 10, 10, 344]
        core_table = gf.sing_table(2, 2)
        for phi, d in zip(am.embeddings, (2, 2, 3)):
            assert sg.morphism_witnesses(core_table, gf.sing_table(2, d), phi) == {}
        doc = json.loads(bn.amalgam_json(am))
        seen = set()
        for part in [doc["core"]] + doc["branches"]:
            part_labels = {json.dumps(x) for x in part["elements"]}
            assert len(part_labels) == len(part["elements"])
            assert not (seen & part_labels)
            seen |= part_labels


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
