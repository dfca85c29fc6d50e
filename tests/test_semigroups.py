"""Cayley-table machinery: validation, Green's relations, ideal categories,
morphisms, amalgams and the eggbox export."""

import dataclasses
import itertools
import json
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import gf_helpers as gh
import sing_oracle
from fibersemi import gf
from fibersemi import semigroups as sg


def sing_semigroup(p, n):
    elems = gf.enumerate_endos(p, n, singular_only=True)
    return sg.from_multiplication(elems, lambda a, b: a * b)


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

def test_light_test_and_table_generators_share_one_walk(monkeypatch):
    elems, _, sing = gf.sing_table(2, 3)
    table = sing.copy()
    table.flags.writeable = False   # read-only, and not walked yet
    walk, calls = sg._generators, []
    monkeypatch.setattr(sg, "_generators", lambda t: calls.append(t) or walk(t))
    s = sg.from_table(elems, table)
    assert s.table is table
    assert sg.table_generators(table).tolist() == walk(table)
    assert len(calls) == 1

def test_mutated_writeable_table_keeps_its_witness():
    # the witness is the first failing (x, y) of the first failing generator
    # in walk order; this table's generators are 0..5 and 3 is the first to fail
    table = gf.sing_table(2, 2)[2].copy()
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
    sing = sg.sing_semigroup(2, 2)
    assert sing.table is gf.sing_table(2, 2)[2]

def test_lists_and_array_give_equal_semigroups():
    s = sg.sing_semigroup(3, 2)
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
    idem = sg.idempotents(s)
    assert len(idem) == 7
    assert sg.is_regular(s)
    # independent construction: the zero map plus one projection per
    # (image line, complementary kernel line) pair
    projections = {gh.zero_endo(2, 2)}
    lines = [a for a in gf.enumerate_subspaces(2, 2, proper_only=True) if a.dim == 1]
    for img in lines:
        for ker in lines:
            if gf.is_direct_sum(img, ker):
                rows = []
                for k in range(2):
                    ek = tuple(1 if i == k else 0 for i in range(2))
                    t = gf.express_in_basis(ek, img.basis + ker.basis, 2)
                    v = [0] * 2
                    for c, row in zip(t[:1], img.basis):
                        for j, x in enumerate(row):
                            v[j] = (v[j] + c * x) % 2
                    rows.append(tuple(v))
                projections.add(gf.Endo(2, 2, tuple(rows)))
    assert {s.elements[i] for i in idem} == projections

def test_null_semigroup_not_regular():
    am = sg.null_semigroup_fixture()
    u = am.core
    assert not sg.is_regular(u)
    assert [u.elements[i] for i in sg.idempotents(u)] == [("U", "z")]

def test_group_is_regular_with_identity_idempotent():
    z3 = sg.from_multiplication(range(3), lambda a, b: (a + b) % 3)
    assert sg.is_regular(z3)
    assert sg.idempotents(z3) == (0,)


# ---------------------------------------------------------------------------
# principal ideals

def test_null_semigroup_ideals():
    am = sg.null_semigroup_fixture()
    u = am.core
    left, right, two = principal_ideals(u, u.index(("U", "u")))
    z = u.index(("U", "z"))
    assert left == right == two == frozenset({z})

def test_idempotent_in_own_left_ideal():
    s = sing_semigroup(2, 2)
    for e in sg.idempotents(s):
        left, _, _ = principal_ideals(s, e)
        assert e in left

def test_zero_matrix_ideal():
    s = sing_semigroup(2, 2)
    z = s.index(gh.zero_endo(2, 2))
    left, right, two = principal_ideals(s, z)
    assert left == right == two == frozenset({z})


# ---------------------------------------------------------------------------
# Green's relations

def test_green_of_sing_2_2():
    s = sing_semigroup(2, 2)
    g = sg.green_relations(s)
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
    elems = gf.enumerate_endos(p, n, singular_only=True)
    s = sg.from_multiplication(elems, lambda a, b: a * b)
    g = sg.green_relations(s)
    images = [e.image() for e in elems]
    kernels = [e.kernel() for e in elems]
    assert len(g.l_classes) == len(set(images))
    for cls in g.l_classes:
        assert len({images[i] for i in cls}) == 1
    assert len(g.r_classes) == len(set(kernels))
    for cls in g.r_classes:
        assert len({kernels[i] for i in cls}) == 1

def test_specific_l_related_pair():
    s = sing_semigroup(2, 2)
    a = s.index(gf.endo([[1, 0], [0, 0]], 2))
    b = s.index(gf.endo([[0, 0], [1, 0]], 2))
    g = sg.green_relations(s)
    assert any(a in c and b in c for c in g.l_classes)
    assert not any(a in c and b in c for c in g.r_classes)

def test_group_is_single_d_class():
    z2 = sg.from_multiplication(range(2), lambda a, b: (a + b) % 2)
    g = sg.green_relations(z2)
    assert g.d_classes == ((0, 1),)

def _is_partition(classes, n):
    seen = sorted(i for c in classes for i in c)
    return seen == list(range(n))

@pytest.mark.parametrize("builder", [
    lambda: sing_semigroup(2, 2),
    lambda: sing_semigroup(3, 2),
    lambda: sg.null_semigroup_fixture().core,
    lambda: sg.null_semigroup_fixture().branches[0],
    lambda: sg.from_multiplication(range(4), lambda a, b: (a + b) % 4),
])
def test_green_axioms(builder):
    s = builder()
    g = sg.green_relations(s)
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
    am = sg.null_semigroup_fixture()
    s1 = am.branches[0]
    a = s1.index(("S1", "a"))
    left, right, _ = principal_ideals(s1, a)
    assert a not in left and a not in right
    g = sg.green_relations(s1)
    assert any(a in c for c in g.l_classes)


# ---------------------------------------------------------------------------
# morphisms

def test_identity_morphism_verifies():
    s = sing_semigroup(2, 2)
    r = sg.verify_morphism(sg.SemigroupMorphism(s, s, tuple(range(s.order))))
    assert r.is_hom and r.is_injective and r.ok

def test_constant_morphism_to_idempotent():
    s = sing_semigroup(2, 2)
    z = s.index(gh.zero_endo(2, 2))
    r = sg.verify_morphism(sg.SemigroupMorphism(s, s, (z,) * s.order))
    assert r.is_hom and not r.is_injective
    assert "injective" in r.witnesses

def test_hom_witness_is_genuine():
    z2 = sg.from_multiplication(range(2), lambda a, b: (a + b) % 2)
    f = sg.SemigroupMorphism(z2, z2, (1, 1))
    r = sg.verify_morphism(f)
    assert not r.is_hom
    i, j = r.witnesses["hom"]
    assert f.mapping[z2.table[i][j]] != z2.table[f.mapping[i]][f.mapping[j]]

@pytest.mark.parametrize("builder", [
    lambda: sg.sing_semigroup(2, 2),
    lambda: sg.sing_semigroup(3, 2),
    lambda: sg.null_semigroup_fixture().core,
    lambda: sg.null_semigroup_fixture().branches[0],
    lambda: sg.from_multiplication(range(4), lambda a, b: (a + b) % 4),
    lambda: sg.from_multiplication(range(3), lambda a, b: 0 if 0 in (a, b) else 2),
], ids=["sing 2,2", "sing 3,2", "null core", "null branch 0", "Z4", "zero and idempotent"])
def test_is_regular_matches_the_loop_oracle(builder):
    s = builder()
    assert sg.is_regular(s) == sing_oracle.is_regular(s)

def test_verify_morphism_matches_the_loop_oracle_on_mutated_maps():
    s = sg.sing_semigroup(3, 2)
    swap = gf.endo([[0, 1], [1, 0]], 3)
    conj = [s.index(swap.inverse() * x * swap) for x in s.elements]
    seen = set()
    for k, v in itertools.product(range(s.order), range(0, s.order, 4)):
        mapping = tuple(conj[:k] + [v] + conj[k + 1:])
        f = sg.SemigroupMorphism(s, s, mapping)
        rep, want = sg.verify_morphism(f), sing_oracle.hom_witness(f)
        assert rep.is_hom == (want is None) and rep.witnesses.get("hom") == want
        seen.add(rep.is_hom)
    assert seen == {True, False}

def test_composition_of_homs_is_hom():
    s = sing_semigroup(2, 2)
    swap = gf.endo([[0, 1], [1, 0]], 2)
    conj = tuple(s.index(swap.inverse() * x * swap) for x in s.elements)
    f = sg.SemigroupMorphism(s, s, conj)
    assert sg.verify_morphism(f).ok
    comp = tuple(conj[i] for i in conj)
    assert sg.verify_morphism(sg.SemigroupMorphism(s, s, comp)).ok


# ---------------------------------------------------------------------------
# amalgams

def test_null_fixture_is_valid_amalgam():
    am = sg.null_semigroup_fixture()
    rep = sg.verify_amalgam(am)
    assert rep.ok
    assert rep.disjoint
    for r in rep.embedding_reports:
        assert r.is_hom and r.is_injective
    # embedding images preserve core size
    for phi in am.embeddings:
        assert len(set(phi.mapping)) == am.core.order

def test_null_fixture_defining_products():
    am = sg.null_semigroup_fixture()
    s1, s2 = am.branches
    assert s1.mul_labels(("S1", "a"), ("S1", "u")) == ("S1", "v")
    assert s1.mul_labels(("S1", "u"), ("S1", "a")) == ("S1", "v")
    assert s1.mul_labels(("S1", "a"), ("S1", "a")) == ("S1", "z")
    assert s1.mul_labels(("S1", "a"), ("S1", "v")) == ("S1", "z")
    assert s2.mul_labels(("S2", "b"), ("S2", "v")) == ("S2", "w")
    assert s2.mul_labels(("S2", "v"), ("S2", "b")) == ("S2", "w")
    assert s2.mul_labels(("S2", "b"), ("S2", "b")) == ("S2", "z")
    assert brute_assoc_holds(s1.table) and brute_assoc_holds(s2.table)

def test_amalgam_with_non_injective_embedding_is_flagged():
    am = sg.null_semigroup_fixture()
    s1 = am.branches[0]
    z = s1.index(("S1", "z"))
    bad = sg.SemigroupMorphism(am.core, s1, (z,) * am.core.order)
    broken = sg.Amalgam(am.core, am.branches, (bad, am.embeddings[1]))
    rep = sg.verify_amalgam(broken)
    assert not rep.ok
    assert not rep.embedding_reports[0].is_injective
    assert rep.embedding_reports[1].ok

def test_amalgam_disjointness_violation():
    am = sg.null_semigroup_fixture()
    clash = sg.Amalgam(am.core, (am.core, am.branches[1]),
                       (sg.SemigroupMorphism(am.core, am.core, tuple(range(4))),
                        am.embeddings[1]))
    rep = sg.verify_amalgam(clash)
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
    for e in sg.idempotents(s):
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
        im = s.elements[e].image()
        expected = frozenset(
            i for i, x in enumerate(s.elements) if im.contains_subspace(x.image())
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
    u = sg.null_semigroup_fixture().core
    with pytest.raises(ValueError):
        build_left_ideal_category(u)


# ---------------------------------------------------------------------------
# eggbox export

def eggbox_export(s, g):
    """(DOT document, JSON document) for the Green structure."""
    dot = sg.eggbox_dot(s, g)
    return dot, json.dumps(g.to_json(), sort_keys=True, separators=(",", ":")) + "\n"

def test_eggbox_dot_structure():
    s = sing_semigroup(2, 2)
    g = sg.green_relations(s)
    dot, doc = eggbox_export(s, g)
    assert dot.count("subgraph cluster_") == 2
    big = max(dot.split("subgraph")[1:], key=len)
    assert big.count("<TR>") == 3
    assert big.count("<TD>") == 9

def test_eggbox_group_is_single_cell():
    z3 = sg.from_multiplication(range(3), lambda a, b: (a + b) % 3)
    g = sg.green_relations(z3)
    dot, _ = eggbox_export(z3, g)
    assert dot.count("subgraph cluster_") == 1
    assert dot.count("<TR>") == 1

def test_green_json_round_trip():
    s = sing_semigroup(2, 2)
    g = sg.green_relations(s)
    _, doc = eggbox_export(s, g)
    assert sg.GreenStructure.from_json(json.loads(doc)) == g

def test_cayley_json_round_trip():
    am = sg.null_semigroup_fixture()
    doc = am.core.to_json()
    back = sg.semigroup_from_json(json.loads(json.dumps(doc)))
    assert back.elements == am.core.elements
    assert np.array_equal(back.table, am.core.table) and back == am.core


# ---------------------------------------------------------------------------
# the cached Sing semigroup against the from_multiplication oracle

@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_cached_sing_semigroup_matches_oracle(p, n):
    s = sg.sing_semigroup(p, n)
    oracle = sing_semigroup(p, n)
    assert s.elements == oracle.elements and np.array_equal(s.table, oracle.table)
    assert sg.sing_semigroup(p, n) is s


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
    s = sg.sing_semigroup(2, 2)
    caught = 0
    for i, j in itertools.product(range(s.order), repeat=2):
        for v in range(s.order):
            if v != s.table[i][j]:
                table = s.table.tolist()
                table[i][j] = v
                caught += assert_decided_like_the_sweep(table)
    assert caught == 100 * 9   # every one of them breaks associativity

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
    *(lambda p=p, n=n: sg.sing_semigroup(p, n) for p, n in [(2, 3), (7, 2), (5, 2), (3, 2)]),
    lambda: relabelled(sg.sing_semigroup(2, 3), 5),
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
    *(lambda p=p, n=n: sg.sing_semigroup(p, n) for p, n in [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)]),
    lambda: sg.null_semigroup_fixture().core,
    lambda: sg.null_semigroup_fixture().branches[0],
    lambda: sg.null_semigroup_fixture().branches[1],
    lambda: relabelled(sg.sing_semigroup(3, 2), 2),
], ids=["2,2", "3,2", "5,2", "7,2", "2,3", "null core", "null branch 0", "null branch 1",
        "relabelled 3,2"])
def test_green_matches_frozenset_oracle(builder):
    s = builder()
    assert sg.green_relations(s) == green_oracle(s)


def test_sing_and_green_leave_numpy_ma_unimported():
    # numpy.ma (pulled in by np.unique, for one) costs about 1 MB of
    # resident memory in every process
    src = Path(sg.__file__).resolve().parents[1]
    code = ("import sys; from fibersemi import semigroups as sg; "
            "sg.green_relations(sg.sing_semigroup(2, 3)); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
