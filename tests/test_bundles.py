"""Fiber families, core construction, block embeddings and assembled
bundle amalgams."""

import pytest

from fibersemi import bundles as bn
from fibersemi import gf
from fibersemi import semigroups as sg


@pytest.fixture(scope="module")
def reference_amalgam():
    return bn.assemble_amalgam(bn.fiber_family(2, 3, (2, 2, 3)))


def test_fiber_family_validation():
    spec = bn.fiber_family(2, 3, (2, 2, 3))
    assert spec.dims == (2, 2, 3)
    assert all(e == gf.identity_endo(2, d) for e, d in zip(spec.eps, spec.dims))
    with pytest.raises(ValueError):
        bn.fiber_family(2, 3, (4,))
    with pytest.raises(ValueError):
        bn.fiber_family(2, 3, (0,))
    with pytest.raises(ValueError):
        bn.fiber_family(2, 3, ())
    with pytest.raises(ValueError):
        bn.fiber_family(2, 3, (2,), eps=(gf.endo([[1, 0], [0, 0]], 2),))
    with pytest.raises(ValueError):
        bn.fiber_family(2, 3, (2,), eps=(gf.identity_endo(2, 3),))

def test_one_dimensional_fiber_has_singleton_branch():
    am = bn.assemble_amalgam(bn.fiber_family(2, 3, (1,)))
    assert am.amalgam.branches[0].order == 1
    assert am.core.semigroup.order == 1
    assert am.report.ok


def test_core_orders():
    spec = bn.fiber_family(2, 3, (2, 2, 3))
    assert bn.build_core(spec).m == 2
    assert bn.build_core(spec).semigroup.order == 10
    assert bn.build_core(spec, m=1).semigroup.order == 1
    with pytest.raises(ValueError):
        bn.build_core(spec, m=3)

def test_core_order_depends_only_on_p_and_m():
    a = bn.build_core(bn.fiber_family(2, 3, (2, 3)), m=2)
    b = bn.build_core(bn.fiber_family(2, 4, (2, 2, 4)), m=2)
    assert a.semigroup.order == b.semigroup.order == 10

def test_core_elements_are_tagged():
    core = bn.build_core(bn.fiber_family(2, 2, (2,)))
    assert all(lbl[0] == "core" for lbl in core.semigroup.elements)


def test_block_embed_example():
    a = gf.endo([[1, 0], [0, 0]], 2)
    assert bn.block_embed(a, 3).rows == ((1, 0, 0), (0, 0, 0), (0, 0, 0))

def test_block_embed_is_multiplicative_and_rank_preserving():
    sing = gf.enumerate_endos(2, 2, singular_only=True)
    for a in sing:
        ea = bn.block_embed(a, 3)
        assert ea.rank == a.rank
        assert ea.rank < 3
        for b in sing:
            assert bn.block_embed(a, 3) * bn.block_embed(b, 3) == bn.block_embed(a * b, 3)

def test_block_embed_round_trips_through_projection():
    # include then project is the identity on the small space
    for a in gf.enumerate_endos(2, 2, singular_only=True):
        big = bn.block_embed(a, 4)
        shrunk = tuple(row[:2] for row in big.rows[:2])
        assert shrunk == a.rows


def test_assemble_reference_family(reference_amalgam):
    am = reference_amalgam
    assert [b.order for b in am.branches] == [10, 10, 344]
    assert am.core.semigroup.order == 10
    assert am.report.ok
    for rep in am.report.embedding_reports:
        assert rep.is_hom and rep.is_injective
    for phi in am.amalgam.embeddings:
        assert len(set(phi.mapping)) == am.amalgam.core.order

def test_assembled_tags_are_pairwise_disjoint(reference_amalgam):
    am = reference_amalgam
    seen = set(am.amalgam.core.elements)
    for b in am.amalgam.branches:
        labels = set(b.elements)
        assert not (seen & labels)
        seen |= labels

def test_single_fiber_degenerates_to_isomorphic_core():
    am = bn.assemble_amalgam(bn.fiber_family(2, 2, (2,)))
    assert am.core.semigroup.order == am.amalgam.branches[0].order == 10
    rep = am.report.embedding_reports[0]
    assert rep.is_hom and rep.is_injective
    # bijective embedding: core is isomorphic to the branch
    assert len(set(am.amalgam.embeddings[0].mapping)) == am.amalgam.branches[0].order

def test_nonidentity_fiber_automorphisms():
    eps = (gf.endo([[0, 1], [1, 0]], 2), gf.endo([[1, 1], [0, 1]], 2))
    am = bn.assemble_amalgam(bn.fiber_family(2, 2, (2, 2), eps=eps))
    assert am.report.ok
    for branch, e in zip(am.branches, eps):
        assert branch.eps == e

def test_corrupted_embedding_is_caught_naming_fiber_and_witness(monkeypatch):
    real = bn.build_embedding

    def corrupted(core, spec, i, branch, branch_tagged):
        phi = real(core, spec, i, branch, branch_tagged)
        if i == 1:
            mapping = list(phi.mapping)
            mapping[1], mapping[2] = mapping[2], mapping[1]
            phi = sg.SemigroupMorphism(phi.source, phi.target, tuple(mapping))
        return phi

    monkeypatch.setattr(bn, "build_embedding", corrupted)
    with pytest.raises(AssertionError, match=r"embedding into fiber 1 failed verification: \{'hom'"):
        bn.assemble_amalgam(bn.fiber_family(2, 3, (2, 2, 3)))

def test_each_embedding_verified_once(monkeypatch):
    calls = []
    real = sg.verify_morphism
    monkeypatch.setattr(sg, "verify_morphism", lambda phi: calls.append(phi) or real(phi))
    am = bn.assemble_amalgam(bn.fiber_family(2, 3, (2, 2, 3)))
    assert len(calls) == len(am.report.embedding_reports) == 3
    assert all(rep.ok for rep in am.report.embedding_reports)

def test_shared_verification_path_with_null_fixture():
    assert sg.verify_amalgam(sg.null_semigroup_fixture()).ok
    am = bn.assemble_amalgam(bn.fiber_family(2, 2, (2, 2)))
    assert sg.verify_amalgam(am.amalgam).ok


def test_amalgam_json_and_dot():
    am = bn.assemble_amalgam(bn.fiber_family(2, 3, (2, 3)))
    doc = am.to_json()
    assert doc["p"] == 2 and doc["m"] == 2 and doc["fiber_dims"] == [2, 3]
    assert len(doc["branches"]) == 2
    assert len(doc["embeddings"]) == 2
    assert all(len(pair) == 2 for emb in doc["embeddings"] for pair in emb)
    dot = bn.amalgam_dot(am)
    assert dot.count("core -> fiber") == 2

def test_each_distinct_branch_built_once(reference_amalgam):
    # core and both dim-2 fibers use the identity on GF(2)^2
    core, (b0, b1, b2) = reference_amalgam.core, reference_amalgam.branches
    assert b0 is core.cross and b1 is core.cross
    assert b2.eps == gf.identity_endo(2, 3)
    tagged = reference_amalgam.amalgam.branches
    assert tagged[0].elements[0][0] == ("fiber", 0) and tagged[1].elements[0][0] == ("fiber", 1)
