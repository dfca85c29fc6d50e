"""Annihilator category, its dual-space identification, and the dual cone
semigroup realized through transposes."""

import pytest

import cone_oracle as oracle
import gf_helpers as gh
import sing_oracle
from fibersemi import annihilators as ann
from fibersemi import gf
from fibersemi import subspace_category as sc


@pytest.fixture(scope="module")
def acat22():
    return ann.build_annihilator_category(2, 2)

@pytest.fixture(scope="module")
def cat22():
    return sc.build_category(2, 2)


def test_object_counts(acat22):
    assert len(acat22.objects) == 4
    assert len(ann.build_annihilator_category(2, 3).objects) == 15

def test_objects_are_annihilators_of_nonzero_subspaces(acat22):
    primals = {t.primal for t in acat22.tags}
    nonzero = {a for a in gf.enumerate_subspaces(2, 2) if a.dim > 0}
    assert primals == nonzero
    for t in acat22.tags:
        assert gh.annihilator(t.primal) == t.dual
        assert t.primal.dim + t.dual.dim == 2

def test_tag_lookup_example(acat22):
    line = gf.subspace_span([(1, 0)], 2, 2)
    t = acat22.tags[acat22.dual_category.index(gf.subspace_span([(0, 1)], 2, 2))]
    assert t.primal == line

def test_full_space_maps_to_zero_object(acat22):
    t = acat22.tags[acat22.dual_category.index(gh.zero_subspace(2, 2))]
    assert t.primal == gh.full_space(2, 2)


def test_dual_iso_report(acat22):
    rep = ann.iso_to_dual_subspace_category(acat22)
    assert rep.ok
    assert rep.counts_match and rep.double_annihilator_ok
    assert rep.order_reversal_ok
    assert len(rep.object_pairs) == 4

def test_dual_iso_report_2_3():
    rep = ann.iso_to_dual_subspace_category(ann.build_annihilator_category(2, 3))
    assert rep.ok

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3)])
def test_order_reversal_fails_on_a_missing_inclusion(p, n):
    """Reversal is decided against the dual category's inclusion pairs, so
    dropping one proper inclusion breaks it; the reflexive pairs are kept."""
    acat = ann.build_annihilator_category(p, n)
    pairs = acat.dual_category.inclusion_pairs
    drop = next(k for k, (i, j) in enumerate(pairs) if i != j)
    acat.dual_category.inclusion_pairs = pairs[:drop] + pairs[drop + 1:]
    rep = ann.iso_to_dual_subspace_category(acat)
    assert rep.counts_match and rep.double_annihilator_ok and not rep.order_reversal_ok


def normal_dual_object(cat: sc.SubspaceCategory, cone: oracle.Cone) -> ann.DualObjectTag:
    """The kernel of an idempotent cone's endomorphism with its annihilator;
    the concrete face of the cone's hom-functor."""
    if oracle.cone_compose(cat, cone, cone) != cone:
        raise ValueError("normal dual object requires an idempotent cone")
    e = oracle.cone_to_endo(cat, cone)
    if e is None:
        raise ValueError("cone has no inducing endomorphism")
    kernel = e.kernel()
    return ann.DualObjectTag(kernel, gh.annihilator(kernel))


def test_normal_dual_object_examples(cat22):
    e = gf.endo([[1, 0], [0, 0]], 2)
    tag = normal_dual_object(cat22, oracle.principal_cone(cat22, e))
    assert tag.primal == gf.subspace_span([(0, 1)], 2, 2)
    assert tag.dual == gf.subspace_span([(1, 0)], 2, 2)
    z = normal_dual_object(cat22, oracle.principal_cone(cat22, gh.zero_endo(2, 2)))
    assert z.primal == gh.full_space(2, 2) and z.dual.dim == 0

def test_normal_dual_object_requires_idempotent(cat22):
    nilpotent = oracle.principal_cone(cat22, gf.endo([[0, 1], [0, 0]], 2))
    with pytest.raises(ValueError):
        normal_dual_object(cat22, nilpotent)

def test_normal_dual_objects_separate_kernels(cat22):
    tags = {}
    for e in gf.enumerate_endos(2, 2, singular_only=True):
        if e * e == e:
            tag = normal_dual_object(cat22, oracle.principal_cone(cat22, e))
            tags.setdefault(e.kernel(), set()).add(tag)
    for kernel, tag_set in tags.items():
        assert len(tag_set) == 1
        (tag,) = tag_set
        assert tag.primal == kernel
    assert len({t for s in tags.values() for t in s}) == len(tags)

def test_m_set_matches_dual_tag(cat22):
    for e in gf.enumerate_endos(2, 2, singular_only=True):
        if e * e != e:
            continue
        cone = oracle.principal_cone(cat22, e)
        tag = normal_dual_object(cat22, cone)
        by_tag = {a for a in cat22.objects if gh.is_direct_sum(a, tag.primal)}
        assert set(oracle.m_set(cat22, cone)) == by_tag


def test_dual_cone_semigroup_order_and_anti_iso():
    rep = ann.build_ta_semigroup(2, 2)
    assert rep.semigroup.order == 10
    assert rep.anti_isomorphism.is_hom and rep.anti_isomorphism.is_injective

def test_transpose_identities():
    for a in gf.enumerate_endos(2, 2, singular_only=True):
        assert gf.transpose(gf.transpose(a)) == a

def test_dual_table_is_transpose_conjugated_opposite():
    rep = ann.build_ta_semigroup(2, 2)
    ta = rep.semigroup
    primal = gf.enumerate_endos(2, 2, singular_only=True)
    sing = sing_oracle.from_multiplication(primal, lambda a, b: a * b)
    for a in primal:
        for b in primal:
            lhs = ta.elements[ta.table[ta.index(gf.transpose(a).rows)][ta.index(gf.transpose(b).rows)]]
            rhs = gf.transpose(sing.elements[sing.table[sing.index(b)][sing.index(a)]]).rows
            assert lhs == rhs

def test_dual_object_tag_json(acat22):
    t = acat22.tags[1]
    doc = t.to_json()
    assert gf.Subspace.from_json(doc["primal"]) == t.primal
    assert gf.Subspace.from_json(doc["dual"]) == t.dual
