"""Fiber families, core construction, block embeddings and assembled
bundle amalgams.  The array path is compared with the label-level oracle
(bundle_oracle) embedding for embedding, verdict for verdict and byte for
byte."""

import json
import warnings

import numpy as np
import pytest

import bundle_oracle
import gf_helpers as gh
import sing_oracle
from bundle_oracle import block_embed
from crossconn_oracle import conjugation_perm
from fibersemi import bundles as bn
from fibersemi import cli
from fibersemi import crossconn as xc
from fibersemi import gf
from fibersemi import semigroups as sg


SWAP = gh.endo([[0, 1], [1, 0]], 2)
SHEAR = gh.endo([[1, 1], [0, 1]], 2)
CYCLE = gh.endo([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2)


@pytest.fixture(scope="module")
def reference_amalgam():
    return bn.assemble_amalgam(bn.fiber_family(2, (2, 2, 3)))


def labels(doc):
    """The element labels of an amalgam_json document, core first, each as
    its JSON text so that they can be put in sets."""
    parts = [doc["core"]] + doc["branches"]
    return [[json.dumps(x) for x in part["elements"]] for part in parts]


def test_fiber_family_validation():
    spec = bn.fiber_family(2, (2, 2, 3))
    assert spec.dims == (2, 2, 3)
    assert spec.eps == tuple(gh.code(gh.identity_endo(2, d)) for d in spec.dims) == (9, 9, 273)
    with pytest.raises(ValueError):
        bn.fiber_family(2, (0,))
    with pytest.raises(ValueError):
        bn.fiber_family(2, ())
    with pytest.raises(ValueError, match="^fiber automorphism must be invertible$"):
        bn.fiber_family(2, (2,), eps=([[1, 0], [0, 0]],))
    with pytest.raises(ValueError, match="^automorphism shape does not match its fiber$"):
        bn.fiber_family(2, (2,), eps=(gh.identity_endo(2, 3).rows,))
    # entries are reduced mod p, as the code of the reduced matrix
    assert bn.fiber_family(3, (2,), eps=([[4, -3], [0, 2]],)).eps == (gh.code(gh.endo([[1, 0], [0, 2]], 3)),)
    # at any size: an entry past int64 is reduced before the array is built
    big = [[10 ** 20 + 1, 0], [0, 1]]
    assert bn.fiber_family(2, (2,), eps=(big,)).eps == (9,) == (bn.build_core(spec, 2, big).eps_w,)

def test_library_calls_refuse_a_dimension_before_building_any_matrix():
    # fiber_family and build_core meet the endomorphism guard before any
    # identity is built or code decoded, so numpy warns of nothing
    message = r"^p\^\(n\^2\) = at least 2\^81 exceeds endomorphism guard 1048576$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gf.GuardExceeded, match=message):
            bn.assemble_amalgam(bn.fiber_family(2, (9,)))
        with pytest.raises(gf.GuardExceeded, match=message):
            bn.build_core(bn.FiberFamilySpec(2, (9,), (0,)))

def test_one_dimensional_fiber_has_singleton_branch():
    am = bn.assemble_amalgam(bn.fiber_family(2, (1,)))
    assert am.orders == [1, 1]
    assert [phi.tolist() for phi in am.embeddings] == [[0]]


def test_core_orders():
    spec = bn.fiber_family(2, (2, 2, 3))
    assert bn.build_core(spec).m == 2
    assert bn.assemble_amalgam(spec).orders[0] == 10
    assert bn.assemble_amalgam(spec, m=1).orders[0] == 1
    with pytest.raises(ValueError):
        bn.build_core(spec, m=3)

def test_core_order_depends_only_on_p_and_m():
    # the core is (m, eps_w) whatever the fibers; its linked pairs are built
    # at (p, m) alone
    a = bn.build_core(bn.fiber_family(2, (2, 3)), m=2)
    b = bn.build_core(bn.fiber_family(2, (2, 2, 4)), m=2)
    assert a == b == bn.CoreSpec(2, gh.code(gh.identity_endo(2, 2)))
    assert bn.assemble_amalgam(bn.fiber_family(2, (2, 3)), m=2).orders[0] == 10

def test_core_elements_are_tagged():
    am = bn.assemble_amalgam(bn.fiber_family(2, (2,)))
    doc = json.loads(bn.amalgam_json(am))
    assert all(lbl[0] == "core" for lbl in doc["core"]["elements"])
    assert all(lbl[0] == ["fiber", 0] for lbl in doc["branches"][0]["elements"])


def test_block_embed_example():
    a = gh.endo([[1, 0], [0, 0]], 2)
    assert block_embed(a, 3).rows == ((1, 0, 0), (0, 0, 0), (0, 0, 0))

def test_block_embed_is_multiplicative_and_rank_preserving():
    sing = sing_oracle.enumerate_endos(2, 2, singular_only=True)
    for a in sing:
        ea = block_embed(a, 3)
        assert ea.rank == a.rank
        assert ea.rank < 3
        for b in sing:
            assert block_embed(a, 3) * block_embed(b, 3) == block_embed(a * b, 3)

def test_block_embed_round_trips_through_projection():
    # include then project is the identity on the small space
    for a in sing_oracle.enumerate_endos(2, 2, singular_only=True):
        big = block_embed(a, 4)
        shrunk = tuple(row[:2] for row in big.rows[:2])
        assert shrunk == a.rows


def test_assemble_reference_family(reference_amalgam):
    am = reference_amalgam
    assert am.orders == [10, 10, 10, 344]
    core_table = gf.sing_table(2, 2)
    for phi, d in zip(am.embeddings, (2, 2, 3)):
        assert sg.morphism_witnesses(core_table, gf.sing_table(2, d), phi) == {}
        assert len(set(phi.tolist())) == am.orders[0]

def test_assembled_tags_are_pairwise_disjoint(reference_amalgam):
    seen = set()
    for part in labels(json.loads(bn.amalgam_json(reference_amalgam))):
        assert not (seen & set(part))
        seen |= set(part)

def test_single_fiber_degenerates_to_isomorphic_core():
    am = bn.assemble_amalgam(bn.fiber_family(2, (2,)))
    assert am.orders == [10, 10]
    # bijective embedding: core is isomorphic to the branch
    assert sorted(am.embeddings[0].tolist()) == list(range(10))

def test_nonidentity_fiber_automorphisms():
    eps = (SWAP, SHEAR)
    am = bn.assemble_amalgam(bn.fiber_family(2, (2, 2), eps=[e.rows for e in eps]))
    assert am.orders == [10, 10, 10]
    for perm, e in zip(am.perms[1:], eps):
        assert perm.tolist() == conjugation_perm(e).tolist()

def test_corrupted_embedding_is_caught_naming_fiber_and_witness(monkeypatch):
    # the block reduction holds for build_embedding's own map only; a map
    # planted in its place is caught by the table oracle
    real = bn.build_embedding

    def corrupted(spec, i, m):
        phi = real(spec, i, m)
        if i == 1:
            phi[[1, 2]] = phi[[2, 1]]
        return phi

    monkeypatch.setattr(bn, "build_embedding", corrupted)
    am = bn.assemble_amalgam(bn.fiber_family(2, (2, 2, 3)))
    with pytest.raises(AssertionError, match=r"embedding into fiber 1 failed verification: \{'hom'"):
        bundle_oracle.check_embeddings(am)

def test_embedding_refuses_an_invertible_image(monkeypatch):
    # the decode array marks invertible codes -1; plant that at the zero
    # matrix, the block embedding of the core's zero
    real = gf.sing_decode
    decode = real(2, 3).copy()
    decode[0] = -1
    monkeypatch.setattr(gf, "sing_decode", lambda p, n: decode if n == 3 else real(p, n))
    for fiber, dims in ((0, (3, 3)), (1, (2, 3))):
        with pytest.raises(AssertionError, match=rf"^a block-embedded core element is invertible in fiber {fiber}$"):
            bn.build_embedding(bn.fiber_family(2, dims), fiber, 2)

def test_embedding_matches_the_block_embedded_endos(reference_amalgam):
    core = sing_oracle.enumerate_endos(2, 2, singular_only=True)
    for phi, d in zip(reference_amalgam.embeddings, (2, 2, 3)):
        branch = sing_oracle.enumerate_endos(2, d, singular_only=True)
        assert [branch[j] for j in phi.tolist()] == [block_embed(x, d) for x in core]

def test_each_embedding_verified_once(monkeypatch):
    # each embedding is decided once, by its decode lookup; no table and no
    # morphism check is read, since the block reduction decides the rest
    def forbidden(*args):
        raise AssertionError("a Sing table or a table morphism check was read")

    calls = []
    real = bn.build_embedding
    monkeypatch.setattr(bn, "build_embedding", lambda spec, i, m: calls.append(i) or real(spec, i, m))
    monkeypatch.setattr(sg, "morphism_witnesses", forbidden)
    monkeypatch.setattr(gf, "sing_table", forbidden)
    am = bn.assemble_amalgam(bn.fiber_family(2, (2, 2, 3)))
    assert calls == [0, 1, 2] and len(am.embeddings) == 3

def test_shared_verification_path_with_null_fixture(monkeypatch):
    # the bundle's table oracle and the null-amalgam check decide morphisms
    # by the same array check
    calls = []
    real = sg.morphism_witnesses
    monkeypatch.setattr(sg, "morphism_witnesses", lambda *a: calls.append(real(*a)) or calls[-1])
    assert cli._check_null_amalgam(2, 2) is None
    assert calls == [{}, {}]
    bundle_oracle.check_embeddings(bn.assemble_amalgam(bn.fiber_family(2, (2, 2))))
    assert calls == [{}, {}, {}, {}]


def test_block_embedding_is_a_homomorphism_at_p_3():
    # Sing(GF(3)^3) is past the table guard, so the block reduction is
    # checked on matrices: pad(a).pad(b) = pad(ab) for all 33^2 core pairs,
    # with each pad(a) the zero-padded a, singular and distinct
    am = bn.assemble_amalgam(bn.fiber_family(3, (2, 2, 3)))
    core = gf._sing_matrices(3, 2)
    ab = gf.sing_decode(3, 2)[gf.base_p((core[:, None] @ core[None] % 3).reshape(-1, 2, 2), 3)]
    for phi, d in zip(am.embeddings, (2, 2, 3)):
        pads = gf._sing_matrices(3, d)[phi]
        assert np.array_equal(pads[:, :2, :2], core) and not pads[:, 2:].any() and not pads[:, :, 2:].any()
        assert len(set(phi.tolist())) == len(core) == 33
        products = (pads[:, None] @ pads[None] % 3).reshape(-1, d, d)
        assert np.array_equal(products, pads[ab])


def test_amalgam_json_and_dot():
    am = bn.assemble_amalgam(bn.fiber_family(2, (2, 3)))
    doc = json.loads(bn.amalgam_json(am))
    assert doc["p"] == 2 and doc["m"] == 2 and doc["fiber_dims"] == [2, 3]
    assert len(doc["branches"]) == 2
    assert len(doc["embeddings"]) == 2
    assert all(len(pair) == 2 for emb in doc["embeddings"] for pair in emb)
    dot = bn.amalgam_dot(am)
    assert dot.count("core -> fiber") == 2

def test_each_distinct_branch_built_once(monkeypatch):
    # core and both dim-2 fibers use the identity on GF(2)^2: one batch per
    # dimension, the core's first, each automorphism once
    calls = []
    real = xc.linked_pairs
    monkeypatch.setattr(xc, "linked_pairs", lambda p, n, eps: calls.append((p, n, gh.endos_of(eps, p))) or real(p, n, eps))
    am = bn.assemble_amalgam(bn.fiber_family(2, (2, 2, 3)))
    assert calls == [(2, 2, (gh.identity_endo(2, 2),)), (2, 3, (gh.identity_endo(2, 3),))]
    assert np.shares_memory(am.perms[0], am.perms[1]) and np.shares_memory(am.perms[0], am.perms[2])
    doc = json.loads(bn.amalgam_json(am))
    assert doc["branches"][0]["elements"][0][0] == ["fiber", 0]
    assert doc["branches"][1]["elements"][0][0] == ["fiber", 1]

def test_automorphisms_are_batched_per_dimension_in_order(monkeypatch):
    calls = []
    real = xc.linked_pairs
    monkeypatch.setattr(xc, "linked_pairs", lambda p, n, eps: calls.append((n, gh.endos_of(eps, p))) or real(p, n, eps))
    parts = (SWAP, CYCLE, SWAP, SHEAR, CYCLE)  # the core's, then the fibers'
    spec = bn.fiber_family(2, (3, 2, 2, 3), eps=[e.rows for e in parts[1:]])
    am = bn.assemble_amalgam(spec, eps_w=SWAP.rows)
    assert calls == [(2, (SWAP, SHEAR)), (3, (CYCLE,))]
    for perm, e in zip(am.perms, parts):
        assert perm.tolist() == conjugation_perm(e).tolist()


# ---------------------------------------------------------------------------
# the array path against the label-level oracle

FAMILIES = {
    "2;2,2,3": (2, (2, 2, 3), None, {}),
    "2;3,3": (2, (3, 3), None, {}),
    "2;1,2,3 m=1": (2, (1, 2, 3), None, {"m": 1}),
    "3;2,2": (3, (2, 2), None, {}),
    "2;2,2 swap,shear": (2, (2, 2), (SWAP.rows, SHEAR.rows), {}),
    "2;2,3 cycle, core swap": (2, (2, 3), (gh.identity_matrix(2), CYCLE.rows), {"eps_w": SWAP.rows}),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_embeddings_are_injective_homomorphisms_on_both_tables(family):
    p, dims, eps, kwargs = FAMILIES[family]
    bundle_oracle.check_embeddings(bn.assemble_amalgam(bn.fiber_family(p, dims, eps), **kwargs))


@pytest.mark.parametrize("family", FAMILIES)
def test_array_path_matches_the_label_oracle(family):
    p, dims, eps, kwargs = FAMILIES[family]
    spec = bn.fiber_family(p, dims, eps)
    am = bn.assemble_amalgam(spec, **kwargs)
    ref = bundle_oracle.assemble(spec, **kwargs)
    assert ref.report.ok and ref.report.disjoint
    assert [phi.tolist() for phi in am.embeddings] == [list(phi.mapping) for phi in ref.amalgam.embeddings]
    assert am.orders == [ref.core.order] + [b.order for b in ref.branches]
    assert bn.amalgam_json(am) == bundle_oracle.amalgam_json(ref)


def _swap(phi):
    phi = phi.copy()
    phi[[1, 2]] = phi[[2, 1]]
    return phi


def _duplicate(phi):
    phi = phi.copy()
    phi[1] = phi[0]
    return phi


@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("mutate,key", [(_swap, "hom"), (_duplicate, "injective")], ids=["swap", "duplicate"])
def test_mutated_embedding_is_caught_by_both_paths(monkeypatch, mutate, key, fiber):
    spec = bn.fiber_family(2, (2, 2, 3))
    ref = bundle_oracle.assemble(spec)
    real = bn.build_embedding
    monkeypatch.setattr(bn, "build_embedding",
                        lambda spec, i, m: mutate(real(spec, i, m)) if i == fiber else real(spec, i, m))
    with pytest.raises(AssertionError, match=rf"^embedding into fiber {fiber} failed verification: ") as err:
        bundle_oracle.check_embeddings(bn.assemble_amalgam(spec))
    mappings = [np.array(phi.mapping) for phi in ref.amalgam.embeddings]
    mappings[fiber] = mutate(mappings[fiber])
    rep = bundle_oracle.with_mappings(ref, mappings)
    assert [r.ok for r in rep.embedding_reports] == [i != fiber for i in range(3)]
    # the same witnesses, as core indices on the array path and as labels in the oracle
    core = ref.amalgam.core
    found = {k: tuple(core.elements.index(x) for x in pair)
             for k, pair in rep.embedding_reports[fiber].witnesses.items()}
    assert key in found
    assert str(err.value) == f"embedding into fiber {fiber} failed verification: {found}"
