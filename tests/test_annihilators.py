"""Annihilator category, its dual-space identification, and the dual cone
semigroup realized through transposes."""

import numpy as np
import pytest

import cone_oracle as oracle
import gf_helpers as gh
import lattice_oracle as lo
import sing_oracle
from fibersemi import annihilators as ann
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi.gf import Record


GRID = [(2, 2), (3, 2), (2, 3)]


@pytest.fixture(scope="module")
def primal22():
    return ann.build_annihilator_category(2, 2)

@pytest.fixture(scope="module")
def cat22():
    return lo.build_category(2, 2)


def test_object_counts(primal22):
    assert len(primal22) == 4
    assert len(ann.build_annihilator_category(2, 3)) == 15

def test_objects_are_annihilators_of_nonzero_subspaces(primal22):
    subspaces = gh.subspaces(2, 2)
    primals = {subspaces[a] for a in primal22.tolist()}
    nonzero = {a for a in subspaces if a.dim > 0}
    assert primals == nonzero
    # dual object k, the proper subspace at position k, is primal[k]'s annihilator
    for k, a in enumerate(primal22.tolist()):
        assert gh.annihilator(subspaces[a]) == subspaces[k]
        assert subspaces[a].dim + subspaces[k].dim == 2

def test_tag_lookup_example(primal22):
    line = gh.subspace_span([(1, 0)], 2, 2)
    dual = lo.positions(2, 2)[gh.subspace_span([(0, 1)], 2, 2)]
    assert gh.subspaces(2, 2)[primal22[dual]] == line

def test_full_space_maps_to_zero_object(primal22):
    assert gh.subspaces(2, 2)[primal22[lo.positions(2, 2)[gh.zero_subspace(2, 2)]]] == gh.full_space(2, 2)


def test_dual_iso_report():
    assert ann.iso_to_dual_subspace_category(2, 2) is None

def test_dual_iso_report_2_3():
    assert ann.iso_to_dual_subspace_category(2, 3) is None

@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (5, 2), (7, 2), (3, 3), (2, 4)])
def test_dual_identification_holds_across_the_grid(p, n):
    assert ann.iso_to_dual_subspace_category(p, n) is None
    assert len(ann.build_annihilator_category(p, n)) == len(lo.proper_subspaces(p, n))

@pytest.mark.parametrize("p, n", GRID)
def test_order_reversal_fails_on_a_missing_inclusion(monkeypatch, p, n):
    """Dropping one proper containment from the lattice breaks order
    reversal, and only it: the annihilator positions are intact."""
    u, v = lo.first_proper_containment(p, n)
    lo.plant(monkeypatch, p, n, lo.mutated(p, n, drop=(u, v)))
    subspaces = gh.subspaces(p, n)
    # dual object v inside dual object u, against the primal pair
    assert ann.iso_to_dual_subspace_category(p, n) == {
        "failure": "order reversal", "objects": [subspaces[v].to_json(), subspaces[u].to_json()]}

@pytest.mark.parametrize("p, n", GRID)
def test_every_dropped_containment_is_caught_but_the_self_dual_ones(monkeypatch, p, n):
    """Each proper containment v < u of the dual objects, dropped in turn,
    is caught, unless u = ann(v) and v = ann(u), as for an isotropic line
    inside its own annihilator at (2,3): then order reversal reads the
    dropped entry on both sides.  test_lattice decides the containment
    matrix itself against the subspace-object oracle."""
    lattice = gf.subspace_lattice(p, n)
    escaped, self_dual = [], []
    for u, v in np.argwhere(lattice.contains[:-1, :-1]).tolist():
        if u == v:
            continue
        lo.plant(monkeypatch, p, n, lo.mutated(p, n, drop=(u, v)))
        if ann.iso_to_dual_subspace_category(p, n) is None:
            escaped.append((u, v))
        monkeypatch.undo()
        if lattice.ann[u] == v and lattice.ann[v] == u:
            self_dual.append((u, v))
    assert escaped == self_dual
    assert len(escaped) == {(2, 3): 3}.get((p, n), 0)

@pytest.mark.parametrize("p, n", GRID)
def test_double_annihilator_fails_on_swapped_annihilators(monkeypatch, p, n):
    """Swapping the annihilators of the first line and of another line that
    is not its annihilator keeps annihilation a bijection onto the proper
    subspaces, so only (A°)° = A catches it, at the first line.  (A swap
    between a pair of mutually annihilating lines would leave an
    order-reversing involution, which no check on ann and contains alone
    can tell from the true one.)"""
    lattice = gf.subspace_lattice(p, n)
    other = next(k for k in range(2, len(lattice.dims)) if lattice.dims[k] == 1 and k != lattice.ann[1])
    lo.plant(monkeypatch, p, n, lo.mutated(p, n, swap=(1, other)))
    assert len(ann.build_annihilator_category(p, n)) == len(lo.proper_subspaces(p, n))
    line = gh.subspaces(p, n)[1]
    assert ann.iso_to_dual_subspace_category(p, n) == {"failure": "double annihilator", "object": line.to_json()}

@pytest.mark.parametrize("p, n", GRID)
def test_annihilators_off_the_proper_subspaces_are_refused(monkeypatch, p, n):
    # the full space's annihilator made the first line: two nonzero
    # subspaces share it, and the zero subspace is no one's annihilator
    lattice = lo.mutated(p, n)
    lattice.ann[-1] = 1
    lo.plant(monkeypatch, p, n, lattice)
    with pytest.raises(AssertionError, match="must be the proper dual subspaces"):
        ann.iso_to_dual_subspace_category(p, n)


class DualTag(Record):
    """A nonzero subspace paired with its annihilator in dual coordinates."""
    primal: gh.Subspace
    dual: gh.Subspace


def normal_dual_object(cat: lo.SubspaceCategory, cone: oracle.Cone) -> DualTag:
    """The kernel of an idempotent cone's endomorphism with its annihilator;
    the concrete face of the cone's hom-functor."""
    if oracle.cone_compose(cat, cone, cone) != cone:
        raise ValueError("normal dual object requires an idempotent cone")
    e = oracle.cone_to_endo(cat, cone)
    if e is None:
        raise ValueError("cone has no inducing endomorphism")
    kernel = gh.kernel(e)
    return DualTag(kernel, gh.annihilator(kernel))


def test_normal_dual_object_examples(cat22):
    e = gh.endo([[1, 0], [0, 0]], 2)
    tag = normal_dual_object(cat22, oracle.principal_cone(cat22, e))
    assert tag.primal == gh.subspace_span([(0, 1)], 2, 2)
    assert tag.dual == gh.subspace_span([(1, 0)], 2, 2)
    z = normal_dual_object(cat22, oracle.principal_cone(cat22, gh.zero_endo(2, 2)))
    assert z.primal == gh.full_space(2, 2) and z.dual.dim == 0

def test_normal_dual_object_requires_idempotent(cat22):
    nilpotent = oracle.principal_cone(cat22, gh.endo([[0, 1], [0, 0]], 2))
    with pytest.raises(ValueError):
        normal_dual_object(cat22, nilpotent)

def test_normal_dual_objects_separate_kernels(cat22):
    tags = {}
    for e in sing_oracle.enumerate_endos(2, 2, singular_only=True):
        if e * e == e:
            tag = normal_dual_object(cat22, oracle.principal_cone(cat22, e))
            tags.setdefault(gh.kernel(e), set()).add(tag)
    for kernel, tag_set in tags.items():
        assert len(tag_set) == 1
        (tag,) = tag_set
        assert tag.primal == kernel
    assert len({t for s in tags.values() for t in s}) == len(tags)

def test_m_set_matches_dual_tag(cat22):
    for e in sing_oracle.enumerate_endos(2, 2, singular_only=True):
        if e * e != e:
            continue
        cone = oracle.principal_cone(cat22, e)
        tag = normal_dual_object(cat22, cone)
        by_tag = {a for a in cat22.objects if gh.is_direct_sum(a, tag.primal)}
        assert set(oracle.m_set(cat22, cone)) == by_tag


def test_dual_cone_semigroup_order_and_anti_iso():
    ta, found = oracle.build_ta_semigroup(2, 2)
    assert ta.order == 10
    assert found == {}

@pytest.mark.parametrize("p, n", GRID)
def test_dual_cone_semigroup_with_swapped_labels_is_caught(monkeypatch, p, n):
    """Two cones exchanged, out of Sing order, make alpha -> cone(alpha^T) a
    transposition of the true map, which the morphism check refuses; the
    witness agrees with the loop oracle's over the opposite of Sing."""
    i, j = oracle.swap_two_cones(monkeypatch)
    ta, found = oracle.build_ta_semigroup(p, n)
    sing = sing_oracle.sing_semigroup(p, n)
    opposite = sg.FiniteSemigroup(sing.elements, sing.table.T)
    position = {a: k for k, a in enumerate(sing.elements)}  # cone k is that of Sing's element k
    mapping = tuple(position[gh.transpose(a)] for a in sing.elements)
    want = sing_oracle.hom_witness(sing_oracle.SemigroupMorphism(opposite, ta, mapping))
    assert want is not None and {i, j} & {position[gh.transpose(a)] for a in want}
    assert list(found) == ["hom"] and tuple(sing.elements[k] for k in found["hom"]) == want


def test_transpose_identities():
    for a in sing_oracle.enumerate_endos(2, 2, singular_only=True):
        assert gh.transpose(gh.transpose(a)) == a

def test_dual_table_is_transpose_conjugated_opposite():
    # cone k of the dual cone semigroup is that of Sing's element k
    ta, _ = oracle.build_ta_semigroup(2, 2)
    primal = sing_oracle.enumerate_endos(2, 2, singular_only=True)
    sing = sing_oracle.from_multiplication(primal, lambda a, b: a * b)
    for a in primal:
        for b in primal:
            at = primal.index(gh.transpose(a)), primal.index(gh.transpose(b))
            lhs = primal[ta.table[at]]
            rhs = gh.transpose(sing.elements[sing.table[sing.elements.index(b)][sing.elements.index(a)]])
            assert lhs == rhs

def test_dual_object_tag_json(primal22):
    # the identification's witnesses name objects by these documents
    subspaces = gh.subspaces(2, 2)
    for k, a in enumerate(primal22.tolist()):
        for s in (subspaces[k], subspaces[a]):
            assert gh.Subspace.from_json(s.to_json()) == s
