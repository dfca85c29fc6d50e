"""Cayley-table machinery: validation, Green's relations, ideal categories,
morphisms, amalgams and the eggbox export."""

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bundle_oracle
import gf_helpers as gh
import lattice_oracle as lo
import sing_oracle
from fibersemi import gf
from fibersemi import semigroups as sg


def sing_semigroup(p, n):
    elems = sing_oracle.enumerate_endos(p, n, singular_only=True)
    return sing_oracle.from_multiplication(elems, lambda a, b: a * b)


def principal_ideals(s, a):
    """Literal products (Sa, aS, SaS) as index sets; no identity adjoined."""
    rn = range(s.order)
    left = frozenset(s.table[x][a] for x in rn)
    right = frozenset(s.table[a][x] for x in rn)
    two = frozenset(s.table[x][s.table[a][y]] for x in rn for y in rn)
    return left, right, two


def sweep_witness(table):
    """Oracle: the first (i, j, k) with (ij)k != i(jk), or None, by the
    O(N^3) sweep, vectorized per row."""
    t = np.asarray(table, dtype=np.int32)
    for i in range(len(t)):
        bad = t[t[i], :] != t[i, t]   # [j, k]: (ij)k vs i(jk)
        if bad.any():
            j, k = np.unravel_index(np.argmax(bad), bad.shape)
            return (i, int(j), int(k))
    return None


def relabelled(s, seed):
    """s with its indices permuted at random: another presentation of it."""
    perm = list(range(s.order))
    random.Random(seed).shuffle(perm)
    table = [[0] * s.order for _ in range(s.order)]
    for i, j in itertools.product(range(s.order), repeat=2):
        table[perm[i]][perm[j]] = perm[s.table[i][j]]
    elements = [None] * s.order
    for i, x in enumerate(s.elements):
        elements[perm[i]] = x
    return sg.from_table(elements, table)


def brute_assoc_holds(table):
    rn = range(len(table))
    return all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in rn for j in rn for k in rn
    )


# ---------------------------------------------------------------------------
# construction and validation

def test_null_semigroup_table_is_valid():
    u = sg.from_table("uvwz", [[3] * 4] * 4)
    assert u.order == 4
    assert brute_assoc_holds(u.table)

def test_sing_2_2_closes_to_order_10():
    s = sing_semigroup(2, 2)
    assert s.order == 10
    assert brute_assoc_holds(s.table)

def test_non_associative_witness():
    # aa=b, ab=a, ba=a, bb=a: (aa)b = a but a(ab) = b
    with pytest.raises(sg.NotAssociative) as exc:
        sg.from_table(["a", "b"], [[1, 0], [0, 0]])
    assert exc.value.witness == ("a", "a", "b")

def test_table_shape_validation():
    with pytest.raises(ValueError):
        sg.from_table(["a", "b"], [[0, 1]])
    with pytest.raises(ValueError):
        sg.from_table(["a", "b"], [[0, 2], [0, 0]])
    with pytest.raises(ValueError):
        sg.from_table(["a", "a"], [[0, 0], [0, 0]])
    for bad in (-1, True, 2 ** 70, -2 ** 70, 1.0):
        with pytest.raises(ValueError, match="not an index below 2"):
            sg.from_table(["a", "b"], [[0, 0], [0, bad]])

@pytest.mark.parametrize("bad", [
    np.zeros((2, 3), dtype=np.int32),
    np.zeros((3, 3), dtype=np.int32),
    np.zeros(4, dtype=np.int32),
    np.array([[0, 0], [0, -1]]),
    np.array([[0, 0], [0, 2]], dtype=np.int8),
    np.array([[0, 0], [0, 2 ** 40]]),
    np.zeros((2, 2), dtype=bool),
    np.zeros((2, 2)),
], ids=["wide", "too-big", "flat", "negative", "int8-out-of-range", "huge", "bool", "float"])
def test_array_table_validation(bad):
    with pytest.raises(ValueError):
        sg.from_table(["a", "b"], bad)

def test_array_table_entry_message_matches_the_list_path():
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"table entry {bad} is not an index below 2"):
            sg.from_table(["a", "b"], np.array([[0, 0], [0, bad]]))

def test_non_associative_array_witness():
    with pytest.raises(sg.NotAssociative) as exc:
        sg.from_table(["a", "b"], np.array([[1, 0], [0, 0]], dtype=np.int32))
    assert exc.value.witness == ("a", "a", "b")

def test_light_test_walks_the_generators_once(monkeypatch):
    table = gf.sing_table(2, 3)
    walk, calls = sg._generators, []
    monkeypatch.setattr(sg, "_generators", lambda t: calls.append(t) or walk(t))
    s = sg.from_table(sing_oracle.enumerate_endos(2, 3, singular_only=True), table)
    assert s.table is table   # a read-only int32 table is adopted as it is
    assert len(calls) == 1 and calls[0] is table

def test_mutated_writeable_table_keeps_its_witness():
    # the witness is the first failing (x, y) of the first failing generator
    # in walk order; this table's generators are 0..5 and 3 is the first to fail
    table = gf.sing_table(2, 2).copy()
    table[3, 5] = 2
    assert table.flags.writeable and sg._generators(table) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(sg.NotAssociative) as exc:
        sg.from_table(range(10), table)
    x, g, y = exc.value.witness
    assert (x, g, y) == (4, 3, 5)
    assert table[table[x, g], y] != table[x, table[g, y]]
    assert sg._associativity_witness(table) == (4, 3, 5)

def test_stored_table_is_a_read_only_int32_array():
    rows = [[3] * 4] * 4
    given = np.array(rows, dtype=np.int64)
    for table in (rows, given):
        u = sg.from_table("uvwz", table)
        assert u.table.dtype == np.int32 and u.table.shape == (4, 4)
        with pytest.raises(ValueError):
            u.table[0, 0] = 0
    assert given.flags.writeable  # the caller's array is copied, not frozen
    sing = sing_oracle.sing_semigroup(2, 2)
    assert sing.table is gf.sing_table(2, 2)

def test_lists_and_array_give_equal_semigroups():
    s = sing_oracle.sing_semigroup(3, 2)
    from_lists = sg.from_table(s.elements, s.table.tolist())
    from_array = sg.from_table(s.elements, s.table.astype(np.int64))
    assert from_lists == from_array == s
    assert from_lists != sg.from_table(s.elements[::-1], s.table.tolist())

def test_order_guard():
    n = sg.ASSOC_GUARD + 1
    with pytest.raises(gf.GuardExceeded):
        sg.from_table(range(n), [[0] * n] * n)


# ---------------------------------------------------------------------------
# idempotents and regularity

def test_sing_idempotents_and_regularity():
    s = sing_semigroup(2, 2)
    idem = sing_oracle.idempotents(s)
    assert len(idem) == 7
    assert sg.is_regular(s)
    # independent construction: the zero map plus one projection per
    # (image line, complementary kernel line) pair
    projections = {gh.zero_endo(2, 2)}
    lines = [a for a in lo.proper_subspaces(2, 2) if a.dim == 1]
    for img in lines:
        for ker in lines:
            if gh.is_direct_sum(img, ker):
                rows = []
                for k in range(2):
                    ek = tuple(1 if i == k else 0 for i in range(2))
                    t = gh.express_in_basis(ek, img.basis + ker.basis, 2)
                    v = [0] * 2
                    for c, row in zip(t[:1], img.basis):
                        for j, x in enumerate(row):
                            v[j] = (v[j] + c * x) % 2
                    rows.append(tuple(v))
                projections.add(gh.Endo(2, 2, tuple(rows)))
    assert {s.elements[i] for i in idem} == projections

def test_null_semigroup_not_regular():
    u = sg.null_semigroup_fixture()[0]
    assert not sg.is_regular(u)
    assert [u.elements[i] for i in sing_oracle.idempotents(u)] == [("U", "z")]

def test_group_is_regular_with_identity_idempotent():
    z3 = sing_oracle.from_multiplication(range(3), lambda a, b: (a + b) % 3)
    assert sg.is_regular(z3)
    assert sing_oracle.idempotents(z3) == (0,)


# ---------------------------------------------------------------------------
# principal ideals

def test_null_semigroup_ideals():
    u = sg.null_semigroup_fixture()[0]
    left, right, two = principal_ideals(u, u.elements.index(("U", "u")))
    z = u.elements.index(("U", "z"))
    assert left == right == two == frozenset({z})

def test_idempotent_in_own_left_ideal():
    s = sing_semigroup(2, 2)
    for e in sing_oracle.idempotents(s):
        left, _, _ = principal_ideals(s, e)
        assert e in left

def test_zero_matrix_ideal():
    s = sing_semigroup(2, 2)
    z = s.elements.index(gh.zero_endo(2, 2))
    left, right, two = principal_ideals(s, z)
    assert left == right == two == frozenset({z})


# ---------------------------------------------------------------------------
# Green's relations

def test_green_of_sing_2_2():
    s = sing_semigroup(2, 2)
    g = sing_oracle.green_relations(s)
    assert len(g.d_classes) == 2
    assert sorted(len(c) for c in g.d_classes) == [1, 9]
    big = set(max(g.d_classes, key=len))
    ls = [c for c in g.l_classes if set(c) <= big]
    rs = [c for c in g.r_classes if set(c) <= big]
    hs = [c for c in g.h_classes if set(c) <= big]
    assert len(ls) == 3 and len(rs) == 3
    assert len(hs) == 9 and all(len(h) == 1 for h in hs)

@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_green_matches_image_kernel_partition(p, n):
    elems = sing_oracle.enumerate_endos(p, n, singular_only=True)
    s = sing_oracle.from_multiplication(elems, lambda a, b: a * b)
    g = sing_oracle.green_relations(s)
    images = [gh.image(e) for e in elems]
    kernels = [gh.kernel(e) for e in elems]
    assert len(g.l_classes) == len(set(images))
    for cls in g.l_classes:
        assert len({images[i] for i in cls}) == 1
    assert len(g.r_classes) == len(set(kernels))
    for cls in g.r_classes:
        assert len({kernels[i] for i in cls}) == 1

def test_specific_l_related_pair():
    s = sing_semigroup(2, 2)
    a = s.elements.index(gh.endo([[1, 0], [0, 0]], 2))
    b = s.elements.index(gh.endo([[0, 0], [1, 0]], 2))
    g = sing_oracle.green_relations(s)
    assert any(a in c and b in c for c in g.l_classes)
    assert not any(a in c and b in c for c in g.r_classes)

def test_group_is_single_d_class():
    z2 = sing_oracle.from_multiplication(range(2), lambda a, b: (a + b) % 2)
    g = sing_oracle.green_relations(z2)
    assert g.d_classes == ((0, 1),)

def _is_partition(classes, n):
    seen = sorted(i for c in classes for i in c)
    return seen == list(range(n))

@pytest.mark.parametrize("builder", [
    lambda: sing_semigroup(2, 2),
    lambda: sing_semigroup(3, 2),
    lambda: sg.null_semigroup_fixture()[0],
    lambda: sg.null_semigroup_fixture()[1][0],
    lambda: sing_oracle.from_multiplication(range(4), lambda a, b: (a + b) % 4),
])
def test_green_axioms(builder):
    s = builder()
    g = sing_oracle.green_relations(s)
    for classes in (g.l_classes, g.r_classes, g.h_classes, g.d_classes):
        assert _is_partition(classes, s.order)
    # H = L meet R
    lmap = {i: c for c in g.l_classes for i in c}
    rmap = {i: c for c in g.r_classes for i in c}
    for cls in g.h_classes:
        meet = set(lmap[cls[0]]) & set(rmap[cls[0]])
        assert set(cls) == meet
    # every H class inside one L and one R class
    for cls in g.h_classes:
        assert any(set(cls) <= set(c) for c in g.l_classes)
        assert any(set(cls) <= set(c) for c in g.r_classes)
    # D is the join of L and R: merge overlapping classes to a fixpoint
    blocks = [{i} for i in range(s.order)]
    changed = True
    while changed:
        changed = False
        for cls in list(g.l_classes) + list(g.r_classes):
            touched = [b for b in blocks if b & set(cls)]
            if len(touched) > 1:
                merged = set().union(*touched)
                blocks = [b for b in blocks if not (b & set(cls))] + [merged]
                changed = True
    assert {frozenset(c) for c in g.d_classes} == {frozenset(b) for b in blocks}

def test_reflexivity_needs_monoid_completion():
    # in the null extension, a*S misses a, so literal ideals would split it
    s1 = sg.null_semigroup_fixture()[1][0]
    a = s1.elements.index(("S1", "a"))
    left, right, _ = principal_ideals(s1, a)
    assert a not in left and a not in right
    g = sing_oracle.green_relations(s1)
    assert any(a in c for c in g.l_classes)


# ---------------------------------------------------------------------------
# morphisms

def test_identity_morphism_verifies():
    s = sing_semigroup(2, 2)
    r = sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(s, s, tuple(range(s.order))))
    assert r.is_hom and r.is_injective and r.ok

def test_constant_morphism_to_idempotent():
    s = sing_semigroup(2, 2)
    z = s.elements.index(gh.zero_endo(2, 2))
    r = sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(s, s, (z,) * s.order))
    assert r.is_hom and not r.is_injective
    assert "injective" in r.witnesses

def test_hom_witness_is_genuine():
    z2 = sing_oracle.from_multiplication(range(2), lambda a, b: (a + b) % 2)
    f = sing_oracle.SemigroupMorphism(z2, z2, (1, 1))
    r = sing_oracle.verify_morphism(f)
    assert not r.is_hom
    i, j = r.witnesses["hom"]
    assert f.mapping[z2.table[i][j]] != z2.table[f.mapping[i]][f.mapping[j]]

@pytest.mark.parametrize("builder", [
    lambda: sing_oracle.sing_semigroup(2, 2),
    lambda: sing_oracle.sing_semigroup(3, 2),
    lambda: sg.null_semigroup_fixture()[0],
    lambda: sg.null_semigroup_fixture()[1][0],
    lambda: sing_oracle.from_multiplication(range(4), lambda a, b: (a + b) % 4),
    lambda: sing_oracle.from_multiplication(range(3), lambda a, b: 0 if 0 in (a, b) else 2),
], ids=["sing 2,2", "sing 3,2", "null core", "null branch 0", "Z4", "zero and idempotent"])
def test_is_regular_matches_the_loop_oracle(builder):
    s = builder()
    assert sg.is_regular(s) == sing_oracle.is_regular(s)

def test_verify_morphism_matches_the_loop_oracle_on_mutated_maps():
    s = sing_oracle.sing_semigroup(3, 2)
    swap = gh.endo([[0, 1], [1, 0]], 3)
    conj = [s.elements.index(swap.inverse() * x * swap) for x in s.elements]
    seen = set()
    for k, v in itertools.product(range(s.order), range(0, s.order, 4)):
        mapping = tuple(conj[:k] + [v] + conj[k + 1:])
        f = sing_oracle.SemigroupMorphism(s, s, mapping)
        rep, want = sing_oracle.verify_morphism(f), sing_oracle.hom_witness(f)
        assert rep.is_hom == (want is None) and rep.witnesses.get("hom") == want
        seen.add(rep.is_hom)
    assert seen == {True, False}

def test_composition_of_homs_is_hom():
    s = sing_semigroup(2, 2)
    swap = gh.endo([[0, 1], [1, 0]], 2)
    conj = tuple(s.elements.index(swap.inverse() * x * swap) for x in s.elements)
    f = sing_oracle.SemigroupMorphism(s, s, conj)
    assert sing_oracle.verify_morphism(f).ok
    comp = tuple(conj[i] for i in conj)
    assert sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(s, s, comp)).ok


# ---------------------------------------------------------------------------
# amalgams

def test_null_fixture_is_valid_amalgam():
    core, branches, inclusions = sg.null_semigroup_fixture()
    for branch, inclusion in zip(branches, inclusions):
        assert sg.morphism_witnesses(core.table, branch.table, inclusion) == {}
        # each inclusion sends every core element to its namesake
        assert [branch.elements[k][1] for k in inclusion.tolist()] == [x[1] for x in core.elements]
    rep = bundle_oracle.verify_amalgam(bundle_oracle.null_amalgam())
    assert rep.ok
    assert rep.disjoint
    for r in rep.embedding_reports:
        assert r.is_hom and r.is_injective
    # embedding images preserve core size
    for inclusion in inclusions:
        assert len(set(inclusion.tolist())) == core.order

def test_null_fixture_defining_products():
    _, (s1, s2), _ = sg.null_semigroup_fixture()
    assert sing_oracle.mul_labels(s1, ("S1", "a"), ("S1", "u")) == ("S1", "v")
    assert sing_oracle.mul_labels(s1, ("S1", "u"), ("S1", "a")) == ("S1", "v")
    assert sing_oracle.mul_labels(s1, ("S1", "a"), ("S1", "a")) == ("S1", "z")
    assert sing_oracle.mul_labels(s1, ("S1", "a"), ("S1", "v")) == ("S1", "z")
    assert sing_oracle.mul_labels(s2, ("S2", "b"), ("S2", "v")) == ("S2", "w")
    assert sing_oracle.mul_labels(s2, ("S2", "v"), ("S2", "b")) == ("S2", "w")
    assert sing_oracle.mul_labels(s2, ("S2", "b"), ("S2", "b")) == ("S2", "z")
    assert brute_assoc_holds(s1.table) and brute_assoc_holds(s2.table)

def test_null_fixture_matches_the_operation_oracle():
    core, branches, _ = sg.null_semigroup_fixture()
    special = {"U": {}, "S1": {("a", "u"): "v", ("u", "a"): "v"}, "S2": {("b", "v"): "w", ("v", "b"): "w"}}
    for s in (core, *branches):
        tag = s.elements[0][0]
        want = sing_oracle.from_multiplication(
            s.elements, lambda a, b: (tag, special[tag].get((a[1], b[1]), "z")))
        assert s == want

def test_amalgam_with_non_injective_embedding_is_flagged():
    am = bundle_oracle.null_amalgam()
    s1 = am.branches[0]
    z = s1.elements.index(("S1", "z"))
    bad = sing_oracle.SemigroupMorphism(am.core, s1, (z,) * am.core.order)
    broken = bundle_oracle.Amalgam(am.core, am.branches, (bad, am.embeddings[1]))
    rep = bundle_oracle.verify_amalgam(broken)
    assert not rep.ok
    assert not rep.embedding_reports[0].is_injective
    assert rep.embedding_reports[1].ok
    # the same map as an index array, which the program's check reads
    constant = np.full(am.core.order, z)
    assert sg.morphism_witnesses(am.core.table, s1.table, constant) == {"injective": (0, 1)}

def test_amalgam_disjointness_violation():
    am = bundle_oracle.null_amalgam()
    clash = bundle_oracle.Amalgam(am.core, (am.core, am.branches[1]),
                                  (sing_oracle.SemigroupMorphism(am.core, am.core, tuple(range(4))),
                                   am.embeddings[1]))
    rep = bundle_oracle.verify_amalgam(clash)
    assert not rep.disjoint and "disjoint" in rep.witnesses


# ---------------------------------------------------------------------------
# left ideal category

@dataclasses.dataclass(frozen=True)
class IdealCategoryData:
    objects: tuple       # frozensets of element indices, one per distinct Se
    representatives: tuple  # for each object, the least idempotent generating it
    homs: dict           # (i, j) -> tuple of translation maps; each map is a
                         # tuple of (source index, image index) pairs
    inclusions: dict     # (i, j) -> True where object i is a subset of object j


def build_left_ideal_category(s: sg.FiniteSemigroup) -> IdealCategoryData:
    """Objects are the distinct ideals Se over idempotents e; morphisms are
    the right translations x -> xu for u in eSf, deduplicated extensionally."""
    if not sg.is_regular(s):
        raise ValueError("ideal category requires a regular semigroup")
    rn = range(s.order)
    seen = {}
    for e in sing_oracle.idempotents(s):
        ideal = frozenset(s.table[x][e] for x in rn)
        if ideal not in seen:
            seen[ideal] = e
    objects = tuple(sorted(seen, key=lambda c: (len(c), sorted(c))))
    reps = tuple(seen[obj] for obj in objects)
    homs = {}
    inclusions = {}
    for i, src in enumerate(objects):
        e = reps[i]
        src_sorted = tuple(sorted(src))
        for j, dst in enumerate(objects):
            f = reps[j]
            translations = set()
            for x in rn:
                u = s.table[s.table[e][x]][f]
                tr = tuple((a, s.table[a][u]) for a in src_sorted)
                if any(img not in dst for _, img in tr):
                    raise AssertionError("right translation left the target ideal")
                translations.add(tr)
            homs[(i, j)] = tuple(sorted(translations))
            if src <= dst:
                inclusions[(i, j)] = True
    return IdealCategoryData(objects, reps, homs, inclusions)


def test_ideal_category_of_sing_2_2():
    s = sing_semigroup(2, 2)
    cat = build_left_ideal_category(s)
    assert len(cat.objects) == 4
    assert sorted(len(o) for o in cat.objects) == [1, 4, 4, 4]
    # ideals are determined by the image of the idempotent
    for obj, e in zip(cat.objects, cat.representatives):
        im = gh.image(s.elements[e])
        expected = frozenset(
            i for i, x in enumerate(s.elements) if gh.contains_subspace(im, gh.image(x))
        )
        assert obj == expected

def test_ideal_category_minimum_object_includes_everywhere():
    s = sing_semigroup(2, 2)
    cat = build_left_ideal_category(s)
    zero = min(range(len(cat.objects)), key=lambda i: len(cat.objects[i]))
    for j in range(len(cat.objects)):
        assert (zero, j) in cat.inclusions
        # the inclusion is among the stored translations
        src = tuple(sorted(cat.objects[zero]))
        assert tuple((a, a) for a in src) in cat.homs[(zero, j)]

def test_ideal_category_hom_counts_match_dedup_oracle():
    s = sing_semigroup(2, 2)
    cat = build_left_ideal_category(s)
    rn = range(s.order)
    for i, j in itertools.product(range(len(cat.objects)), repeat=2):
        e, f = cat.representatives[i], cat.representatives[j]
        src = tuple(sorted(cat.objects[i]))
        translations = set()
        for x in rn:
            u = s.table[s.table[e][x]][f]
            translations.add(tuple(s.table[a][u] for a in src))
        assert len(cat.homs[(i, j)]) == len(translations)

def test_ideal_category_rejects_non_regular():
    u = sg.null_semigroup_fixture()[0]
    with pytest.raises(ValueError):
        build_left_ideal_category(u)


# ---------------------------------------------------------------------------
# eggbox export

def eggbox_export(s, g):
    """(DOT document, JSON document) for the Green structure."""
    dot = sg.eggbox_dot([str(x) for x in s.elements], g)
    return dot, json.dumps(g.to_json(), sort_keys=True, separators=(",", ":")) + "\n"

def test_eggbox_dot_structure():
    s = sing_semigroup(2, 2)
    g = sing_oracle.green_relations(s)
    dot, doc = eggbox_export(s, g)
    assert dot.count("subgraph cluster_") == 2
    big = max(dot.split("subgraph")[1:], key=len)
    assert big.count("<TR>") == 3
    assert big.count("<TD>") == 9

def test_eggbox_group_is_single_cell():
    z3 = sing_oracle.from_multiplication(range(3), lambda a, b: (a + b) % 3)
    g = sing_oracle.green_relations(z3)
    dot, _ = eggbox_export(z3, g)
    assert dot.count("subgraph cluster_") == 1
    assert dot.count("<TR>") == 1

def test_green_json_round_trip():
    s = sing_semigroup(2, 2)
    g = sing_oracle.green_relations(s)
    _, doc = eggbox_export(s, g)
    assert sing_oracle.green_from_json(json.loads(doc)) == g

def test_cayley_json_round_trip():
    core = sg.null_semigroup_fixture()[0]
    doc = sing_oracle.semigroup_to_json(core)
    back = sg.semigroup_from_json(json.loads(json.dumps(doc)))
    assert back.elements == core.elements
    assert np.array_equal(back.table, core.table) and back == core


# ---------------------------------------------------------------------------
# the table document reader against json.loads

READER = settings(max_examples=300, deadline=None, derandomize=True, database=None)
JSON_WS = st.text(alphabet=" \t\n\r", max_size=2)
LABELS = st.recursive(st.integers(0, 3) | st.text("ab\u00e9\U0001d11e", max_size=2),
                      lambda inner: st.lists(inner, max_size=2), max_leaves=4)
# every byte the reader treats apart, and some that only json.loads knows;
# U+3000 is whitespace to str.strip but not to JSON
MUTATION_BYTES = list('0123456789,[]{} \t\n\r"-.eE:+x') + ["\u00e9", "\u3000"]


@st.composite
def table_documents(draw, big=()):
    """A table document of order 1 to 4 with random JSON whitespace, its
    labels' characters outside ASCII written as UTF-8 or escaped; its
    entries are below n + 2, or drawn from big."""
    n = draw(st.integers(1, 4))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n))
    entry = st.integers(0, n + 1) | st.sampled_from(big) if big else st.integers(0, n + 1)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]

    def ws():
        return draw(JSON_WS)

    table = ",".join(ws() + "[" + ",".join(ws() + str(v) + ws() for v in row) + "]" + ws() for row in rows)
    return (ws() + "{" + ws() + '"elements"' + ws() + ":" + ws() + json.dumps(labels, ensure_ascii=draw(st.booleans())) + ws() + ","
            + ws() + '"table"' + ws() + ":" + ws() + "[" + table + "]" + ws() + "}" + ws())


@st.composite
def mutated_documents(draw):
    """A table document with one to three bytes inserted, deleted or replaced."""
    text = draw(table_documents(big=[2 ** 31 - 1, 2 ** 31, 2 ** 32 + 1, 5294967296, 10 ** 9, 10 ** 20]))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        text = text[:i] + (byte if how != "delete" else "") + text[i + (how != "insert"):]
    return text


def outcome(read, path):
    """What read(path) returns, or the type and message of what it raises."""
    try:
        return read(path)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def json_path(path):
    with open(path) as fh:
        return sg.semigroup_from_json(json.loads(fh.read()))


def read_spied(data):
    """What sg.semigroup_from_file and the json path make of bytes data,
    as outcome() gives them, and the (labels, table) pairs that
    semigroup_from_file handed from_table."""
    handed, real = [], sg.from_table

    def spy(labels, table):
        handed.append((labels, table))
        return real(labels, table)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_bytes(data)
        with mock.patch.object(sg, "from_table", spy):
            got = outcome(sg.semigroup_from_file, path)
        return got, outcome(json_path, path), handed


def takes_array_path(data):
    """Whether sg.semigroup_from_file reads bytes data on the array path:
    it hands from_table an array, where the json path hands it lists."""
    return any(isinstance(table, np.ndarray) for _, table in read_spied(data)[2])


def reads_as_json(text):
    """Whether sg.semigroup_from_file reads text, written as UTF-8, to the
    same semigroup or the same error as json.loads and semigroup_from_json;
    and, where the array reader takes the document, whether it handed
    from_table, once, the labels that json.loads' element list gives and a
    read-only int32 array equal, cell for cell, to json.loads' table."""
    got, want, handed = read_spied(text.encode("utf-8"))
    if got != want:
        return False
    if not any(isinstance(table, np.ndarray) for _, table in handed):
        return True
    parsed = json.loads(text)
    (labels, table), = handed
    return (list(parsed) == ["elements", "table"] and labels == sg._label_from_json(parsed["elements"])
            and table.dtype == np.int32 and not table.flags.writeable and table.tolist() == parsed["table"])


@READER
@given(table_documents())
def test_table_reader_reads_every_well_formed_document(text):
    # an entry of n or more is no index; the json path words its error
    table = json.loads(text)["table"]
    assert takes_array_path(text.encode("utf-8")) == all(x < len(table) for row in table for x in row)
    assert reads_as_json(text)


@READER
@given(mutated_documents())
@example('{"elements": ["a", "b"], "table": [[0, ,1], [1, 0]]}')  # a blank field reads as 0
@example('{"elements": ["a", "b"], "table": [[0, 4294967297], [1, 0]]}')  # int32 wraps to 1
@example('{"elements": ["a", "b"], "table": [[0,1],5[,0]]}')  # a digit outside a row
@example('{"elements": ["a", "b"], "table": [[0, 5294967296], [1, 0]]}')  # wraps to 10**9
@example('{"elements": ["a", "b"], "table": [[0, 1, 1], [0]]}')  # ragged, n*n cells
@example('{"elements": ["a"], "table": [[[0]]]}')  # nested a level deeper
@example('{"elements": ["a"], "table": [[-0]]}')
@example('{"elements": ["a", "b"], "table": [[0, 01], [1, 0]]}')  # a leading zero
@example('{"elements": ["a", "b"], "table": [[0, 00], [1, 0]]}')
@example('{"elements": ["a", "b"], "table": [[0, 10], [1, 0]]}')  # wider than any index
@example('{"elements": ["a", "b"], "table": [[0, 1],\r\n [1, 0]] x}')  # CRLF before an error
@example('\ufeff{"elements": ["a", "b"], "table": [[0, 1], [1, 0]]}')  # a UTF-8 BOM
@example('{"elements": ["\u00e9", "b"], "table": [[0, 1], [1, 0]]}')  # a non-ASCII label
@example('{"elements": ["\u00e9"],\r\n"table": [[0]]}')  # counted in characters, after CRLF
@example('{"elements": ["a"]\u3000, "table": [[0]]}')  # whitespace to str.strip, not to JSON
@example('{"elements": ["a"],\u3000"table": [[0]]}')
@example('{"elements": [{"table": [0]}], "table": [[0]]}')  # the key inside a label
@example('{"elements": ["table"], "table": [[0]]}')
@example('{"elements": ["a"], "table": [[0]], [[0]]}')  # a second skeleton after the table's
@example('{"elements": ["a", "b"], "table": [[0, 1], [1, 0]], [1, 0]]}')
@example('{"elements": ["a", "b"], "table": [[0,1],[1,0 0]]}')  # whitespace splits the last literal
@example('{"elements": ["a", "b"], "table": [[,01],[1,0]]}')  # a blank slot, offset by a leading zero
@example('{"elements": ["a", "b"], "table": [[0,1],[1]]}')  # short: n*n literals are asked for
@example('{"elements": ["a", "b"], "table": [[0,-1],[1,0]]}')  # a negative entry
@example('{"elements": ["a", "b"], "table": [[0,2],[1,0]]}')  # an entry past the last index
@example('{"elements": ["a", "b"], "table": []0,1],[1,0]]}')  # a bracket turned the other way
def test_table_reader_declines_or_agrees_with_json(text):
    assert reads_as_json(text)


def test_table_reader_refuses_a_literal_past_the_widest_index():
    for n, entry in [(2, "10"), (10, "100"), (11, "05"), (11, "0"), (11, "10")]:
        rows = [["0"] * n for _ in range(n)]
        rows[-1][-1] = entry
        text = '{"elements": %s, "table": [%s]}' % (list(range(n)), ",".join("[%s]" % ",".join(r) for r in rows))
        declined = not takes_array_path(text.encode("ascii"))
        assert declined == (len(entry) > len(str(n - 1)) or entry.startswith("0") and len(entry) > 1), entry
        assert reads_as_json(text)


@pytest.mark.parametrize("cells", [1, 3, 7])
@pytest.mark.parametrize("sep", [",", ", "], ids=["dense", "spaced"])
def test_table_reader_decides_the_same_across_block_boundaries(monkeypatch, cells, sep):
    # the writer's blocks of a few bytes split every literal somewhere, so
    # the write-back must compare a literal's bytes on both sides of a boundary
    n = 11
    monkeypatch.setattr(gf, "TABLE_BLOCK_CELLS", cells)

    def document(entry, at):
        rows = [[str(i * j % n) for j in range(n)] for i in range(n)]
        rows[at // n][at % n] = entry
        return ('{"elements": %s, "table": [%s]}' % (list(range(n)), sep.join(
            "[%s]" % sep.join(r) for r in rows))).encode("ascii")

    for at in range(0, n * n, 13):
        assert takes_array_path(document("10", at))
        for entry in ["100", "05", "00", "010", "1 0"]:
            assert not takes_array_path(document(entry, at)), (entry, at)


def test_labels_outside_ascii_stay_on_the_array_path(tmp_path, monkeypatch):
    # decoded as ASCII, one such label sent the whole document through json.loads
    labels = ["\u00e9", "\u00df", "\U0001d11e", ["\u00e9", 1]]
    text = '{"elements": %s,\r\n "table": %s}' % (json.dumps(labels, ensure_ascii=False),
                                                  [[(i + j) % 4 for j in range(4)] for i in range(4)])
    path = tmp_path / "table.json"
    path.write_bytes(text.encode("utf-8"))
    want = json_path(path)

    def forbidden(*args, **kwargs):
        raise AssertionError("the document went through json.loads")

    monkeypatch.setattr(sg.json, "loads", forbidden)
    assert sg.semigroup_from_file(path) == want
    assert want.elements == ("\u00e9", "\u00df", "\U0001d11e", ("\u00e9", 1))


def test_text_and_json_paths_build_the_same_semigroup(tmp_path):
    # Z_6 under multiplication, each residue labelled with its parity
    s = sing_oracle.from_multiplication([(a, (a % 2,)) for a in range(6)],
                                        lambda x, y: (x[0] * y[0] % 6, (x[0] * y[0] % 2,)))
    doc = sing_oracle.semigroup_to_json(s)
    path = tmp_path / "table.json"
    for text in (json.dumps(doc), json.dumps(doc, indent=2), json.dumps(doc, separators=(",", ":")),
                 json.dumps(doc, indent=2).replace("\n", "\r\n")):
        path.write_bytes(text.encode("ascii"))
        assert takes_array_path(text.encode("ascii"))
        assert sg.semigroup_from_file(path) == json_path(path) == s


def test_file_reader_reads_a_fifo(tmp_path):
    doc = sing_oracle.semigroup_to_json(sg.null_semigroup_fixture()[0])
    path = tmp_path / "table.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(json.dumps(doc),))
    writer.start()
    try:
        assert sg.semigroup_from_file(path) == sg.null_semigroup_fixture()[0]
    finally:
        writer.join()


@pytest.mark.parametrize("order", [0, 1, 10, 11, 101])  # one-, two- and three-digit indices
def test_table_json_writes_what_json_dumps_writes(order):
    rng = np.random.default_rng(order)
    table = rng.integers(0, max(order, 1), size=(order, order)).astype(np.int32)
    table[:, -1:] = order - 1  # the widest index closes every row
    assert sg.table_json(table) == json.dumps(table.tolist(), separators=(",", ":"))


def test_table_json_writes_sings_read_only_table():
    table = gf.sing_table(2, 3)
    assert (table.dtype, table.flags.writeable) == (np.int32, False)
    assert sg.table_json(table) == json.dumps(table.tolist(), separators=(",", ":"))


# ---------------------------------------------------------------------------
# the cached Sing semigroup against the from_multiplication oracle

@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_cached_sing_semigroup_matches_oracle(p, n):
    s = sing_oracle.sing_semigroup(p, n)
    oracle = sing_semigroup(p, n)
    assert s.elements == oracle.elements and np.array_equal(s.table, oracle.table)
    assert sing_oracle.sing_semigroup(p, n) is s


# ---------------------------------------------------------------------------
# Light's associativity test against the O(N^3) sweep

def assert_decided_like_the_sweep(table):
    """from_table rejects table exactly when the sweep finds a failing
    triple, and its witness fails; returns whether it was rejected."""
    n = len(table)
    oracle = sweep_witness(table)
    try:
        sg.from_table(range(n), table)
    except sg.NotAssociative as exc:
        assert oracle is not None, table
        x, y, z = exc.witness
        assert table[table[x][y]][z] != table[x][table[y][z]], (table, exc.witness)
    else:
        assert oracle is None, table
    return oracle is not None

def test_light_decides_every_magma_of_order_at_most_3():
    count = 0
    for n in (1, 2, 3):
        for cells in itertools.product(range(n), repeat=n * n):
            assert_decided_like_the_sweep([cells[i * n:(i + 1) * n] for i in range(n)])
            count += 1
    assert count == 1 + 2 ** 4 + 3 ** 9

def test_light_catches_every_single_cell_mutation_of_sing_2_2():
    s = sing_oracle.sing_semigroup(2, 2)
    caught = 0
    for i, j in itertools.product(range(s.order), repeat=2):
        for v in range(s.order):
            if v != s.table[i][j]:
                table = s.table.tolist()
                table[i][j] = v
                caught += assert_decided_like_the_sweep(table)
    assert caught == 100 * 9   # every one of them breaks associativity

def cyclic_table(n, seed=None):
    """Z_n under addition as a read-only int32 table, its indices permuted
    at random when a seed is given."""
    perm = np.arange(n) if seed is None else np.random.default_rng(seed).permutation(n)
    sums = np.add.outer(np.arange(n), np.arange(n)) % n
    table = np.empty((n, n), dtype=np.int32)
    table[np.ix_(perm, perm)] = perm[sums]
    table.flags.writeable = False
    return table

def planted(table, cells):
    """table with each cell (x, y) of cells moved to the next index."""
    t = table.copy()
    for x, y in cells:
        t[x, y] = (t[x, y] + 1) % len(t)
    t.flags.writeable = False
    return t

@pytest.mark.parametrize("n", [400, 1500])
def test_blocked_light_names_the_whole_table_witness(n):
    block = gf.TABLE_BLOCK_CELLS // n
    assert n // block >= 4   # several row blocks
    rng = np.random.default_rng(n)
    last = (n - 1) // block
    cases = [(cyclic_table(n), None), (cyclic_table(n, 1), None)]
    cases += [(rng.integers(0, n, size=(n, n), dtype=np.int32), "any") for _ in range(3)]
    # in Z_n the identity's pass holds and the pass of 1 first fails one row
    # above a changed cell: in the last block, and in the earlier of two
    cases += [(planted(cyclic_table(n), [(n - 1, 5)]), last),
              (planted(cyclic_table(n), [(2 * block + 3, 7), (last * block + 1, 2)]), 2),
              (planted(cyclic_table(n, 2), [(n - 1, 5), (block + 4, 9)]), "any")]
    for table, where in cases:
        want = sing_oracle.associativity_witness(table)
        assert sg._associativity_witness(table) == want
        assert (want is None) == (where is None)
        if isinstance(where, int):
            assert want[0] // block == where

@pytest.mark.parametrize("rows", [1, 3])
def test_light_in_small_blocks_names_the_whole_table_witness(monkeypatch, rows):
    s = sing_oracle.sing_semigroup(2, 2)
    monkeypatch.setattr(gf, "TABLE_BLOCK_CELLS", rows * s.order)
    for i, j in itertools.product(range(s.order), repeat=2):
        for v in range(s.order):
            table = s.table.copy()
            table[i, j] = v
            assert sg._associativity_witness(table) == sing_oracle.associativity_witness(table)

def right_closure_walk(table):
    """Independent pure-Python form of the generator walk: the least index
    outside the right-multiplication closure of the generators so far is the
    next generator; returns the generators and the final closure."""
    n = len(table)
    gens, closure = [], set()
    for a in range(n):
        if a in closure:
            continue
        gens.append(a)
        closure.add(a)
        queue = deque(closure)
        while queue:
            x = queue.popleft()
            for g in gens:
                y = table[x][g]
                if y not in closure:
                    closure.add(y)
                    queue.append(y)
    return gens, closure

@pytest.mark.parametrize("builder", [
    *(lambda p=p, n=n: sing_oracle.sing_semigroup(p, n) for p, n in [(2, 3), (7, 2), (5, 2), (3, 2)]),
    lambda: relabelled(sing_oracle.sing_semigroup(2, 3), 5),
], ids=["2,3", "7,2", "5,2", "3,2", "relabelled 2,3"])
def test_generators_reach_every_element(builder):
    s = builder()
    gens = sg._generators(s.table)
    want, closure = right_closure_walk(s.table)
    assert gens == want
    assert closure == set(range(s.order))
    assert len(gens) < s.order


# ---------------------------------------------------------------------------
# Green's relations against the frozenset construction

def green_oracle(s):
    """Green's relations from frozenset ideals S^1 a, with D as the join of L
    and R by union-find."""
    rn = range(s.order)
    lkeys = [frozenset(s.table[x][a] for x in rn) | {a} for a in rn]
    rkeys = [frozenset(s.table[a][x] for x in rn) | {a} for a in rn]
    parent = list(rn)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    l_classes, r_classes = sg._partition(lkeys), sg._partition(rkeys)
    for cls in l_classes + r_classes:
        for x in cls[1:]:
            rx, ry = find(cls[0]), find(x)
            parent[max(rx, ry)] = min(rx, ry)
    return sg.GreenStructure(l_classes, r_classes, sg._partition(list(zip(lkeys, rkeys))),
                             sg._partition([find(i) for i in rn]))

@pytest.mark.parametrize("builder", [
    *(lambda p=p, n=n: sing_oracle.sing_semigroup(p, n) for p, n in [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)]),
    lambda: sg.null_semigroup_fixture()[0],
    lambda: sg.null_semigroup_fixture()[1][0],
    lambda: sg.null_semigroup_fixture()[1][1],
    lambda: relabelled(sing_oracle.sing_semigroup(3, 2), 2),
], ids=["2,2", "3,2", "5,2", "7,2", "2,3", "null core", "null branch 0", "null branch 1",
        "relabelled 3,2"])
def test_green_matches_frozenset_oracle(builder):
    s = builder()
    assert sing_oracle.green_relations(s) == green_oracle(s)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_sing_green_and_idempotents_match_the_table(p, n):
    table = sing_oracle.sing_semigroup(p, n)
    assert sg.sing_green(p, n) == sing_oracle.green_relations(table)
    idem = sing_oracle.idempotents(table)
    assert len(gf.idempotent_matrices(p, n)) == len(idem)
    assert np.array_equal(gf.idempotent_matrices(p, n), gf._sing_matrices(p, n)[list(idem)])


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_sing_green_in_blocks_agrees_and_names_the_first_failure(monkeypatch, p, n):
    whole = sg.sing_green(p, n)
    sg.sing_green.cache_clear()
    monkeypatch.setattr(gf, "TABLE_BLOCK_CELLS", 7 * n * n)  # blocks of 7 elements
    assert sg.sing_green(p, n) == whole
    # zero the x+ of two nonzero elements, in different blocks past the
    # first, that lead no class: the earlier one is named
    leaders = {c[0] for c in whole.l_classes + whole.r_classes}
    mats = gf._sing_matrices(p, n)
    k1, k2 = [k for k in range(10, len(mats)) if mats[k].any() and k not in leaders][::15][:2]
    assert k1 // 7 < k2 // 7
    plus = sg._plus

    def corrupted(stack, q):
        out = plus(stack, q)
        for k in (k1, k2):
            out[(stack == mats[k]).all(axis=(1, 2))] = 0
        return out

    sg.sing_green.cache_clear()
    monkeypatch.setattr(sg, "_plus", corrupted)
    with pytest.raises(AssertionError, match=rf"^element {k1} of Sing\(GF\({p}\)\^{n}\), "):
        sg.sing_green(p, n)
    sg.sing_green.cache_clear()


def test_sing_and_green_leave_numpy_ma_unimported():
    # numpy.ma (pulled in by np.unique, for one) costs about 1 MB of
    # resident memory in every process
    src = Path(sg.__file__).resolve().parents[1]
    code = ("import sys; from fibersemi import gf, semigroups as sg; "
            "sg.from_table(range(344), gf.sing_table(2, 3)); sg.sing_green(2, 3); gf.idempotent_matrices(2, 3); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
