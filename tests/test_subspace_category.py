"""Subspace category, normal factorization, cones and the cone semigroup."""

import itertools
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cone_oracle as oracle
import factorization_oracle as fo
import gf_helpers as gh
import lattice_oracle as lo
import sing_oracle
from fibersemi import cli
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi import subspace_category as sc
from fibersemi.annihilators import build_annihilator_category


@pytest.fixture(scope="module")
def cat22():
    return lo.build_category(2, 2)

@pytest.fixture(scope="module")
def cat23():
    return lo.build_category(2, 3)

@pytest.fixture(scope="module")
def sing22():
    return sing_oracle.enumerate_endos(2, 2, singular_only=True)


def zero_map(a, b):
    return gh.LinearMap(a, b, gh.zero_matrix(a.dim, b.dim))

def is_zero(f):
    return all(x == 0 for row in f.matrix for x in row)


# ---------------------------------------------------------------------------
# the category itself

def test_object_counts(cat22, cat23):
    assert len(cat22.objects) == 4
    assert len(cat23.objects) == 15
    assert len(lo.build_category(3, 2).objects) == 6 - 1

def test_zero_subspace_is_initial(cat22):
    zero = gh.zero_subspace(2, 2)
    assert all(gh.contains_subspace(obj, zero) for obj in cat22.objects)
    assert all((cat22.index(zero), j) in set(cat22.inclusion_pairs)
               for j in range(len(cat22.objects)))

def test_full_space_is_not_an_object(cat22):
    assert gh.full_space(2, 2) not in cat22


# ---------------------------------------------------------------------------
# retractions and factorization

def test_every_inclusion_splits(cat22, cat23):
    for cat in (cat22, cat23):
        for i, j in cat.inclusion_pairs:
            a, b = cat.objects[i], cat.objects[j]
            q = fo.retraction(b, a)
            assert gh.inclusion_map(a, b).compose(q) == gh.identity_map(a)

def test_factorization_exhaustive_2_2(cat22):
    for f in fo.all_morphisms(cat22):
        nf = fo.from_shape_factors(f)
        assert fo.recomposed(nf) == f
        assert nf.u.is_iso()
        assert nf.epi == nf.q.compose(nf.u)
        assert nf.epi.is_epi()
        # the retraction splits the inclusion of its codomain
        assert gh.inclusion_map(nf.q.cod, f.dom).compose(nf.q) == gh.identity_map(nf.q.cod)

def test_factorization_exhaustive_2_3(cat23):
    count = 0
    for f in fo.all_morphisms(cat23):
        nf = fo.from_shape_factors(f)
        assert fo.recomposed(nf) == f
        assert nf.u.is_iso()
        count += 1
    assert count == 1303

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_factorization_matches_the_oracle(p, n):
    """q, u, j and epi read from the shape arrays equal the rref-per-morphism
    oracle's on every morphism, the zero-dimensional hom-sets included."""
    cat = lo.build_category(p, n)
    shapes = set()
    for f in fo.all_morphisms(cat):
        assert fo.from_shape_factors(f) == fo.normal_factorization(f)
        shapes.add((f.dom.dim, f.cod.dim))
    assert {(0, 0), (0, 1), (1, 0)} <= shapes

@pytest.mark.parametrize("p, m, w", [(2, 3, 4), (3, 2, 3), (5, 2, 2), (7, 1, 3)])
def test_rref_stack_matches_gf_rref(p, m, w):
    mats = np.array(list(itertools.product(range(p), repeat=m * w))).reshape(-1, m, w)
    red, pivot, rank = gf.rref_stack(mats, p)
    for a, r, piv, k in zip(mats.tolist(), red.tolist(), pivot.tolist(), rank.tolist()):
        basis, pivots = gh.rref(a, w, p)
        assert tuple(map(tuple, r[:k])) == basis and not any(map(any, r[k:]))
        assert tuple(c for c in range(w) if piv[c]) == pivots

def test_shape_factors_are_read_only():
    fac = sc.shape_factors(2, 2, 2)
    assert len(fac.rank) == 16 and list(fac.rank[:2]) == [0, 1]
    with pytest.raises(ValueError):
        fac.q[0, 0, 0] = 1

def test_shape_factors_refuse_beyond_the_sweep_limit():
    with pytest.raises(gf.GuardExceeded, match="1048576 matrices of shape 4x5 exceed limit 65536"):
        sc.shape_factors(2, 4, 5)

def test_factorization_refuses_before_sweeping_any_shape(monkeypatch):
    # at (2,6) the shapes before 4x5 in loop order fit the limit; sweeping
    # them first took about 1 s and 257 MB only to refuse at 4x5, and
    # building the lattice of its 2,825 subspaces first took 0.2 s and
    # about 100 MB
    def swept(*args):
        raise AssertionError("a shape was swept or the lattice built")

    monkeypatch.setattr(sc, "shape_factors", swept)
    monkeypatch.setattr(gf, "subspace_lattice", swept)
    monkeypatch.setattr(gf, "enumerate_subspaces", swept)
    assert cli._run_check("normal-factorization", cli._check_factorization, 2, 6) == {
        "check": "normal-factorization", "status": "fail",
        "witness": {"guard": "p^(da*db) = 1048576 matrices of shape 4x5 exceed limit 65536"}}

def perturbed(changes):
    """shape_factors with entries changed: {(p, da, db): [(field, index, value)]}."""
    shape_factors = sc.shape_factors
    def changed(p, da, db):
        fac = shape_factors(p, da, db)
        for field, index, value in changes.get((p, da, db), ()):
            arr = getattr(fac, field).copy()
            arr[index] = value
            fac = SimpleNamespace(**{**vars(fac), field: arr})
        return fac
    return changed

def test_factorization_check_fails_on_a_perturbed_retraction(monkeypatch):
    # M = [[0, 1], [0, 1]] has kernel <(1, 1)>, so q = [[1], [1]]; maps
    # between planes occur first at (2,3)
    monkeypatch.setattr(sc, "shape_factors", perturbed({(2, 2, 2): [("q", (5, 1, 0), 0)]}))
    assert cli._check_factorization(2, 2) is None
    assert cli._check_factorization(2, 3) == {
        "failure": "factorization identity", "shape": [2, 2], "matrix": [[0, 1], [0, 1]]}

def test_factorization_check_fails_on_a_rescaled_retraction(monkeypatch):
    # over GF(3), q = u = [[2]] still give q.u.image = M = [[1]], so only the
    # translation at each line sees that q is no retraction
    monkeypatch.setattr(sc, "shape_factors", perturbed(
        {(3, 1, 1): [("q", (1, 0, 0), 2), ("u", (1, 0, 0), 2)]}))
    line = lo.build_category(3, 2).objects[1]
    assert cli._check_factorization(3, 2) == {"failure": "retraction translation", "object": line.to_json()}

def test_factorization_check_fails_on_a_perturbed_image_basis(monkeypatch):
    # image = T.RREF(M) with T = [[2]] and u = [[2]] = u.T^-1: q.u.image is
    # still M = [[1]], but the image basis is no longer canonical at a line
    monkeypatch.setattr(sc, "shape_factors", perturbed(
        {(3, 1, 1): [("image", (1, 0, 0), 2), ("u", (1, 0, 0), 2)]}))
    line = lo.build_category(3, 2).objects[1]
    assert cli._check_factorization(3, 2) == {"failure": "image translation", "object": line.to_json()}

def _pivot_complement(a, b):
    """complement_in with b's basis rows at the pivot columns of a's
    coordinates in place of the others, for nonzero a."""
    pivots = set(gh.rref([gh.coords(b, v) for v in a.basis], b.dim, b.p)[1])
    return gh.subspace_span([row for j, row in enumerate(b.basis) if (j in pivots) == bool(pivots)], b.n, b.p)

def test_retraction_law_fails_on_a_corrupted_complement(monkeypatch):
    # the complement at a's pivots rather than its other columns: the
    # batched law and the LinearMap loop fail at the same inclusion pairs of
    # the (2,3) category, and the check at (2,3) names the first of them
    assert cli._check_factorization(2, 3) is None
    complement_rows = sc.complement_rows
    monkeypatch.setattr(sc, "complement_rows",
                        lambda pivot: complement_rows(np.where(pivot.any(axis=1)[:, None], ~pivot, pivot)))
    monkeypatch.setattr(sc, "factorization_witness", lambda p, n: None)  # it reads complement_rows too
    cat = lo.build_category(2, 3)
    want = fo.retraction_law(cat, _pivot_complement)
    assert sc.retraction_law(2, 3).tolist() == want and not all(want)
    assert sc.retraction_law(2, 2).all()
    sub = cat.objects[cat.inclusion_pairs[want.index(False)][0]]
    assert sub == gh.subspace_span([(0, 0, 1)], 3, 2)
    assert cli._check_factorization(2, 2) is None
    assert cli._check_factorization(2, 3) == {"failure": "retraction law", "sub": sub.to_json()}

@pytest.mark.parametrize("p, n", [(2, 4), (3, 3)])
def test_factorization_check_finishes_beyond_the_sing_guard(p, n):
    assert cli._check_factorization(p, n) is None

def test_factorization_hand_example():
    a = gh.subspace_span([(1, 0, 0), (0, 1, 0)], 3, 2)
    b = gh.subspace_span([(0, 0, 1)], 3, 2)
    f = gh.linear_map(a, b, [(0, 0, 1), (0, 0, 0)])
    nf = fo.from_shape_factors(f)
    assert nf.q.cod == gh.subspace_span([(1, 0, 0)], 3, 2)
    assert nf.q.apply((0, 1, 0)) == (0, 0, 0)
    assert nf.u.apply((1, 0, 0)) == (0, 0, 1)
    assert nf.j == gh.identity_map(b)

def test_factorization_of_isomorphism():
    a = gh.subspace_span([(0, 0, 1)], 3, 2)
    b = gh.subspace_span([(1, 0, 0)], 3, 2)
    f = gh.linear_map(a, b, [(1, 0, 0)])
    nf = fo.from_shape_factors(f)
    assert nf.q == gh.identity_map(a)
    assert nf.j == gh.identity_map(b)
    assert nf.epi == f

def test_factorization_of_zero_map():
    a = gh.subspace_span([(1, 0, 0), (0, 1, 0)], 3, 2)
    b = gh.subspace_span([(0, 0, 1)], 3, 2)
    nf = fo.from_shape_factors(zero_map(a, b))
    assert nf.q.cod.dim == 0
    assert nf.u.dom.dim == 0 and nf.u.cod.dim == 0
    assert nf.j.dom.dim == 0 and nf.j.cod == b


# ---------------------------------------------------------------------------
# cones

def test_principal_cone_of_projection(cat22):
    e = gh.endo([[1, 0], [0, 0]], 2)
    rho = oracle.principal_cone(cat22, e)
    assert rho.vertex == gh.subspace_span([(1, 0)], 2, 2)
    l10 = gh.subspace_span([(1, 0)], 2, 2)
    l01 = gh.subspace_span([(0, 1)], 2, 2)
    l11 = gh.subspace_span([(1, 1)], 2, 2)
    assert rho.components[cat22.index(l10)] == gh.identity_map(l10)
    assert is_zero(rho.components[cat22.index(l01)])
    assert rho.components[cat22.index(l11)].apply((1, 1)) == (1, 0)
    rep = oracle.validate_cone(cat22, rho)
    assert rep.well_formed and rep.is_normal
    assert set(rep.iso_objects) == {l10, l11}

def test_principal_cone_of_zero(cat22):
    rho = oracle.principal_cone(cat22, gh.zero_endo(2, 2))
    assert rho.vertex.dim == 0
    assert all(is_zero(c) for c in rho.components)
    rep = oracle.validate_cone(cat22, rho)
    assert rep.well_formed and rep.is_normal
    assert rep.iso_objects == (gh.zero_subspace(2, 2),)

def test_principal_cone_rejects_invertible(cat22):
    with pytest.raises(ValueError):
        oracle.principal_cone(cat22, gh.identity_endo(2, 2))

def test_all_principal_cones_are_normal(cat22, sing22):
    for a in sing22:
        rep = oracle.validate_cone(cat22, oracle.principal_cone(cat22, a))
        assert rep.well_formed and rep.is_normal

def test_ill_typed_cone_is_flagged(cat22):
    e = gh.endo([[1, 0], [0, 0]], 2)
    rho = oracle.principal_cone(cat22, e)
    l01 = gh.subspace_span([(0, 1)], 2, 2)
    bad_comps = tuple(
        zero_map(gh.zero_subspace(2, 2), l01) if obj.dim == 0 else c
        for obj, c in zip(cat22.objects, rho.components)
    )
    rep = oracle.validate_cone(cat22, oracle.Cone(rho.vertex, bad_comps))
    assert not rep.typing_ok and not rep.well_formed
    assert rep.witness[0] == "typing"

def test_restriction_violation_is_flagged(cat23):
    # plane component maps a line one way, line component another
    alpha = gh.endo([[0, 0, 1], [0, 0, 0], [0, 0, 0]], 2)
    rho = oracle.principal_cone(cat23, alpha)
    line = gh.subspace_span([(1, 0, 0)], 3, 2)
    vertex = rho.vertex
    comps = list(rho.components)
    comps[cat23.index(line)] = zero_map(line, vertex)
    rep = oracle.validate_cone(cat23, oracle.Cone(vertex, tuple(comps)))
    assert rep.typing_ok
    assert not rep.restriction_compatible
    assert rep.witness[0] == "restriction"

def test_literal_reading_overcounts_at_dim_2(cat22, sing22):
    """Restriction compatibility alone admits line assignments that extend to
    no linear map (the coordinate lines share no proper superspace at n = 2);
    the coherence requirement brings the count back to the singular maps."""
    literal = adopted = 0
    for vertex in cat22.objects:
        for cone in oracle._assignment_space(cat22, vertex):
            rep = oracle.validate_cone(cat22, cone)
            if rep.typing_ok and rep.restriction_compatible and rep.is_normal:
                literal += 1
            if rep.well_formed and rep.is_normal:
                adopted += 1
    assert literal == 22
    assert adopted == len(sing22) == 10


# ---------------------------------------------------------------------------
# cone star and composition

def test_star_with_identity_is_identity(cat22, sing22):
    for a in sing22:
        rho = oracle.principal_cone(cat22, a)
        assert oracle.cone_star(cat22, rho, gh.identity_map(rho.vertex)) == rho

def test_star_hand_example(cat22):
    rho = oracle.principal_cone(cat22, gh.endo([[1, 0], [0, 0]], 2))
    f = gh.linear_map(gh.subspace_span([(1, 0)], 2, 2),
                      gh.subspace_span([(0, 1)], 2, 2), [(0, 1)])
    assert oracle.cone_star(cat22, rho, f) == oracle.principal_cone(cat22, gh.endo([[0, 1], [0, 0]], 2))

def test_star_requires_epi_from_vertex(cat22):
    rho = oracle.principal_cone(cat22, gh.endo([[1, 0], [0, 0]], 2))
    l10 = gh.subspace_span([(1, 0)], 2, 2)
    with pytest.raises(ValueError):
        oracle.cone_star(cat22, rho, zero_map(l10, l10))
    other = gh.subspace_span([(0, 1)], 2, 2)
    with pytest.raises(ValueError):
        oracle.cone_star(cat22, rho, gh.identity_map(other))

def test_star_preserves_normality(cat22, sing22):
    for a in sing22:
        rho = oracle.principal_cone(cat22, a)
        for obj in cat22.objects:
            for f in fo.all_linear_maps(rho.vertex, obj):
                if f.is_epi():
                    out = oracle.cone_star(cat22, rho, f)
                    assert oracle.is_normal_cone(out)
                    assert oracle.validate_cone(cat22, out).well_formed

def test_compose_idempotent(cat22):
    for e in sing_oracle.enumerate_endos(2, 2, singular_only=True):
        if e * e == e:
            rho = oracle.principal_cone(cat22, e)
            assert oracle.cone_compose(cat22, rho, rho) == rho

def test_compose_hand_example(cat22):
    a = gh.endo([[1, 0], [0, 0]], 2)
    b = gh.endo([[0, 0], [1, 0]], 2)
    out = oracle.cone_compose(cat22, oracle.principal_cone(cat22, a), oracle.principal_cone(cat22, b))
    assert out == oracle.principal_cone(cat22, gh.zero_endo(2, 2))

def test_compose_is_homomorphic_exhaustive_2_2(cat22, sing22):
    for a in sing22:
        for b in sing22:
            lhs = oracle.cone_compose(cat22, oracle.principal_cone(cat22, a),
                                      oracle.principal_cone(cat22, b))
            assert lhs == oracle.principal_cone(cat22, a * b)

def test_compose_is_homomorphic_sampled_2_3(cat23):
    sing3 = sing_oracle.enumerate_endos(2, 3, singular_only=True)
    cones = {a: oracle.principal_cone(cat23, a) for a in sing3}  # each built once
    rng = random.Random(11)
    for _ in range(10_000):
        a = rng.choice(sing3)
        b = rng.choice(sing3)
        lhs = oracle.cone_compose(cat23, cones[a], cones[b])
        assert lhs == cones[a * b]

def test_compose_associative_exhaustive_2_2(cat22, sing22):
    cones = [oracle.principal_cone(cat22, a) for a in sing22]
    for x in cones:
        for y in cones:
            xy = oracle.cone_compose(cat22, x, y)
            for z in cones:
                assert oracle.cone_compose(cat22, xy, z) == \
                    oracle.cone_compose(cat22, x, oracle.cone_compose(cat22, y, z))

def test_compose_requires_normal_inputs(cat22):
    rho = oracle.principal_cone(cat22, gh.endo([[1, 0], [0, 0]], 2))
    line = rho.vertex
    flat = oracle.Cone(line, tuple(zero_map(o, line) for o in cat22.objects))
    with pytest.raises(ValueError):
        oracle.cone_compose(cat22, rho, flat)


# ---------------------------------------------------------------------------
# the cone semigroup

def swept_cones(cat):
    """Every assignment of the oracle's sweep that validate_cone finds
    well-formed (globally linear included) and normal."""
    return [cone for v in cat.objects for cone in oracle._assignment_space(cat, v)
            if (rep := oracle.validate_cone(cat, cone)).well_formed and rep.is_normal]

def test_exhaustive_enumeration_is_exactly_principal(cat22, sing22):
    # the sweep over all 25 assignments keeps the principal cones, which
    # are the cones coded_normal_cones builds
    assert sum(1 for v in cat22.objects for _ in oracle._assignment_space(cat22, v)) == 25
    cones = swept_cones(cat22)
    assert len(cones) == 10
    assert set(cones) == {oracle.principal_cone(cat22, a) for a in sing22}
    smg, built, endos = oracle.enumerate_normal_cones(cat22)
    assert set(built) == set(cones) and set(endos) == set(sing22)
    assert sg.is_regular(smg)

def test_exhaustive_enumeration_at_3_2():
    cat = lo.build_category(3, 2)
    cones = swept_cones(cat)
    sing = sing_oracle.enumerate_endos(3, 2, singular_only=True)
    assert len(cones) == len(sing) == 33
    assert set(cones) == {oracle.principal_cone(cat, a) for a in sing}
    assert set(oracle.enumerate_normal_cones(cat)[1]) == set(cones)

def test_cone_semigroup_isomorphic_to_singular_endos(cat22, sing22):
    # each Sing element is sent to the built cone that is its principal cone
    smg, cones, _ = oracle.enumerate_normal_cones(cat22)
    sing = sing_oracle.from_multiplication(sing22, lambda a, b: a * b)
    mapping = tuple(cones.index(oracle.principal_cone(cat22, a)) for a in sing.elements)
    rep = sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(sing, smg, mapping))
    assert rep.is_hom and rep.is_injective
    assert len(set(mapping)) == smg.order

def annihilator_dual_category(p, n):
    """The annihilator category's own category: the annihilators of the
    nonzero subspaces, which build_annihilator_category places at the
    positions of the proper subspaces of the dual, so it is the category
    over the dual space; checked here one annihilator at a time."""
    cat, subspaces = lo.build_category(p, n), gh.subspaces(p, n)
    assert tuple(gh.annihilator(subspaces[a]) for a in build_annihilator_category(p, n)) == cat.objects
    return cat

def cell_by_cell_rows(cat, cones, rows):
    """Oracle: table rows filled one cone_compose per cell."""
    index = {c: i for i, c in enumerate(cones)}
    return [[index[oracle.cone_compose(cat, cones[i], g2)] for g2 in cones] for i in rows]

@pytest.mark.parametrize("build", [
    lambda: lo.build_category(2, 2),
    lambda: lo.build_category(3, 2),
    lambda: lo.build_category(5, 2),
    lambda: annihilator_dual_category(2, 2),
], ids=["2-2", "3-2", "5-2", "annihilator-dual-2-2"])
def test_grouped_fill_matches_cell_by_cell_composition(build):
    cat = build()
    smg, cones, _ = oracle.enumerate_normal_cones(cat)
    assert smg.table.tolist() == cell_by_cell_rows(cat, cones, range(len(cones)))

def test_grouped_fill_on_the_principal_path_2_3(cat23):
    smg, cones, _ = oracle.enumerate_normal_cones(cat23)
    # every cell against Sing's matrix products; one row per vertex, so every
    # column grouping, against cell-by-cell composition (the whole table
    # that way is 118k compositions)
    assert np.array_equal(smg.table, sing_oracle.sing_semigroup(2, 3).table)
    rows = [next(i for i, c in enumerate(cones) if c.vertex == v) for v in cat23.objects]
    assert smg.table[rows].tolist() == cell_by_cell_rows(cat23, cones, rows)

CODED_POINTS = pytest.mark.parametrize("build", [
    lambda: lo.build_category(2, 2),
    lambda: lo.build_category(3, 2),
    lambda: annihilator_dual_category(2, 2),
], ids=["2-2", "3-2", "annihilator-dual-2-2"])

@CODED_POINTS
def test_coded_sweep_accepts_exactly_what_validate_cone_accepts(build):
    # over every assignment, _admissible is compatibility and normality; at
    # n = 2 no inclusion joins two lines, so it accepts (p+1)(p^(p+1)-1)+1
    # cones, the zero cone and every line-vertex assignment but the zero
    # one, of which the globally linear ones are the principal cones
    cat = build()
    p, code = cat.p, sc._ConeCode(cat.p, cat.n)
    vertex, rows = oracle._assignments(code)
    ok = sc._admissible(p, cat.n, code, vertex, rows)
    swept = [cone for v in cat.objects for cone in oracle._assignment_space(cat, v)]
    assert list(oracle._cones(cat, code, vertex, rows)) == swept
    linear = []
    for cone, accepted in zip(swept, ok.tolist()):
        rep = oracle.validate_cone(cat, cone)
        assert accepted == (rep.typing_ok and rep.restriction_compatible and rep.is_normal)
        if accepted and rep.globally_linear:
            linear.append(cone)
    assert ok.sum() == (p + 1) * (p ** (p + 1) - 1) + 1 == {2: 22, 3: 321}[p]
    sing = sing_oracle.enumerate_endos(p, cat.n, singular_only=True)
    assert len(linear) == len(sing) == gf.singular_count(p, cat.n)
    assert set(linear) == {oracle.principal_cone(cat, a) for a in sing}

@CODED_POINTS
def test_code_is_injective_on_the_assignment_space(build):
    cat = build()
    code = sc._ConeCode(cat.p, cat.n)
    vertex, rows = oracle._assignments(code)
    assert len(set(code.codes(vertex, rows).tolist())) == len(rows)

def test_cone_codes_fit_in_int64_up_to_2_3(cat23):
    assert (len(cat23.objects) * sc._ConeCode(2, 3).stride).bit_length() == 46
    with pytest.raises(AssertionError, match="do not fit in 63 bits"):
        sc._ConeCode(3, 3)

def test_inducing_endos_match_cone_to_endo(cat22, cat23):
    for cat in (cat22, lo.build_category(5, 2), cat23):
        _, cones, endos = oracle.enumerate_normal_cones(cat)
        assert list(endos) == [oracle.cone_to_endo(cat, c) for c in cones]
        assert list(endos) == list(sing_oracle.enumerate_endos(cat.p, cat.n, singular_only=True))

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_principal_rows_are_the_principal_cones(p, n):
    cat = lo.build_category(p, n)
    code = sc._ConeCode(p, n)
    vertex, rows = sc._principal_rows(p, n, code)
    sing = sing_oracle.enumerate_endos(p, n, singular_only=True)
    assert oracle._cones(cat, code, vertex, rows) == tuple(oracle.principal_cone(cat, a) for a in sing)
    assert len(set(code.codes(vertex, rows).tolist())) == len(sing)

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_image_lookup_agrees_with_the_span_in_the_vertex(monkeypatch, p, n):
    """At every column group, the object that the product's vertex is
    looked up as by code is the Subspace that span_in builds from the
    image rows over the vertex's basis.  _image_object looks up a batch of
    groups per call; each group is one (v, image) pair of it."""
    subspaces, real, seen = gh.subspaces(p, n), sc._image_object, []

    def spy(*args):
        found = real(*args)
        seen.extend(zip(args[2].tolist(), args[3], found.tolist()))
        return found

    monkeypatch.setattr(sc, "_image_object", spy)
    _, code, vertex, rows = sc.coded_normal_cones(p, n)
    ambient = code.ambient(vertex, rows)
    groups = sum(len({b.tobytes() for b in code.block(ambient, k)}) for k in set(vertex.tolist()))
    assert len(seen) == groups  # one lookup per column group at each vertex object
    assert len({found for _, _, found in seen}) == len(subspaces) - 1  # every object is some product's vertex
    for v, image, found in seen:
        rows = [row for row in image.tolist() if any(row)]  # the image rows, zero past the rank
        assert subspaces[found] == oracle.span_in(subspaces[v], rows)

def test_cones_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma, about 1.6 MB of resident memory per process
    src = Path(sc.__file__).resolve().parents[1]
    code = ("import sys; from fibersemi import subspace_category as sc; "
            "sc.coded_normal_cones(5, 2); "
            "sc.coded_normal_cones(3, 2); "
            "sc.m_sets(5, 2); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"

def test_product_outside_the_enumerated_set_raises(monkeypatch, cat22):
    # every product out of a vertex of positive dimension made zero, while
    # its vertex stays the image object: no principal cone has that code
    push = sc._push
    def flattened_push(rows, epi, p):
        out = push(rows, epi, p)  # (epimorphisms, rows, D, width), epi (epimorphisms, vertex dim, width)
        return out if epi.shape[1] == 0 else 0 * out
    monkeypatch.setattr(sc, "_push", flattened_push)
    with pytest.raises(AssertionError, match="left the enumerated set"):
        sc.coded_normal_cones(2, 2)

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_batched_fill_matches_the_grouped_fill(p, n):
    # the table filled one column group at a time (cone_oracle.grouped_table)
    assert np.array_equal(sc.coded_normal_cones(p, n)[0].table, oracle.grouped_table(p, n))

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("plant, error", [
    # the last principal cone replaced by the first, the zero cone, which
    # is still a normal cone: only the distinct codes tell them apart
    (lambda vertex, rows: (np.append(vertex[:-1], vertex[0]), np.concatenate([rows[:-1], rows[:1]])),
     "two principal cones with one code"),
    # the last principal cone with every component zero: compatible with
    # restriction, but no component is an isomorphism
    (lambda vertex, rows: (vertex, np.concatenate([rows[:-1], 0 * rows[-1:]])),
     "a principal cone is not a normal cone"),
], ids=["shared-code", "not-normal"])
def test_cone_check_fails_on_planted_principal_rows(monkeypatch, p, n, plant, error):
    assert cli._check_cone_semigroup(p, n) is None
    principal_rows = sc._principal_rows
    monkeypatch.setattr(sc, "_principal_rows", lambda *args: plant(*principal_rows(*args)))
    assert cli._run_check("cone-semigroup", cli._check_cone_semigroup, p, n) == {
        "check": "cone-semigroup", "status": "fail", "witness": {"error": error}}

def test_cone_guard_refuses_before_building_a_cone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a cone before the guard refused")
    monkeypatch.setattr(sc, "_principal_rows", refuse)
    with pytest.raises(gf.GuardExceeded, match="order 8451, beyond the associativity guard 1500"):
        sc.coded_normal_cones(3, 3)
    with pytest.raises(gf.GuardExceeded, match="order 45376, beyond the associativity guard 1500"):
        sc.coded_normal_cones(2, 4)

def identity_cone(cat, obj):
    """A normal cone with the given vertex whose component there is the
    identity: the principal cone of the projection onto obj."""
    if obj.dim == 0:
        e = gh.zero_endo(cat.p, cat.n)
    else:
        proj = fo.retraction(gh.full_space(cat.p, cat.n), obj)
        rows = []
        for k in range(cat.n):
            ek = tuple(1 if i == k else 0 for i in range(cat.n))
            rows.append(proj.apply(ek))
        e = gh.Endo(cat.p, cat.n, tuple(rows))
    return oracle.principal_cone(cat, e)

def test_unit_cones_exist_at_every_vertex(cat22, cat23):
    for cat in (cat22, cat23):
        for obj in cat.objects:
            cone = identity_cone(cat, obj)
            assert cone.vertex == obj
            assert cone.components[cat.index(obj)] == gh.identity_map(obj)
            rep = oracle.validate_cone(cat, cone)
            assert rep.well_formed and rep.is_normal


# ---------------------------------------------------------------------------
# m-sets

def test_m_set_requires_idempotent(cat22):
    rho = oracle.principal_cone(cat22, gh.endo([[0, 1], [0, 0]], 2))
    with pytest.raises(ValueError):
        oracle.m_set(cat22, rho)

def test_m_set_examples(cat22):
    e = gh.endo([[1, 0], [0, 0]], 2)
    got = set(oracle.m_set(cat22, oracle.principal_cone(cat22, e)))
    assert got == {gh.subspace_span([(1, 0)], 2, 2), gh.subspace_span([(1, 1)], 2, 2)}
    z = oracle.principal_cone(cat22, gh.zero_endo(2, 2))
    assert oracle.m_set(cat22, z) == (gh.zero_subspace(2, 2),)

def test_m_set_double_characterization(cat22):
    for e in sing_oracle.enumerate_endos(2, 2, singular_only=True):
        if e * e != e:
            continue
        by_iso = set(oracle.m_set(cat22, oracle.principal_cone(cat22, e)))
        by_sum = {a for a in cat22.objects if gh.is_direct_sum(a, gh.kernel(e))}
        assert by_iso == by_sum


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_batched_m_sets_match_the_cone_oracle(p, n):
    """Idempotent by idempotent: by_iso is the oracle's m_set of the principal
    Cone, by_sum the objects complementing the kernel rref'd per Endo."""
    cat = lo.build_category(p, n)
    idem, by_iso, by_sum = sc.m_sets(p, n)
    want = [e for e in sing_oracle.enumerate_endos(p, n, singular_only=True) if e * e == e]
    assert gh.endos_of(idem, p) == tuple(want)
    assert len(want) == sum(p ** (a.dim * (n - a.dim)) for a in cat.objects)
    for e, iso, dsum in zip(want, by_iso.tolist(), by_sum.tolist()):
        assert {a for a, x in zip(cat.objects, iso) if x} == set(oracle.m_set(cat, oracle.principal_cone(cat, e)))
        assert {a for a, x in zip(cat.objects, dsum) if x} == \
            {a for a in cat.objects if gh.is_direct_sum(a, gh.kernel(e))}

@pytest.mark.parametrize("p, n, first, rows", [
    (2, 2, 4, [[1, 0], [0, 0]]),
    (3, 2, 5, [[0, 2], [0, 1]]),
    (2, 3, 20, [[0, 0, 1], [1, 1, 1], [0, 0, 1]]),
])
def test_m_sets_check_names_the_first_failing_idempotent(monkeypatch, p, n, first, rows):
    # from idempotent `first` on, the complement side reads rank 0, so those
    # M-sets by complements are empty and the first of them is the witness;
    # rows is what the check reported on Cones with every kernel from that
    # idempotent on planted as the zero subspace
    assert cli._check_m_sets(p, n) is None
    idem, rref_stack = sc.m_sets(p, n)[0], gf.rref_stack
    late = set(gf.base_p((np.eye(n, dtype=np.int64) - idem[first:]) % p, p).tolist())

    def planted(a, q):
        red, pivot, rank = rref_stack(a, q)
        if a.shape[1] == 2 * n:  # the [B_a; I - e] stack
            rank = np.array([0 if c in late else r for c, r in zip(gf.base_p(a[:, n:], q).tolist(), rank)])
        return red, pivot, rank

    monkeypatch.setattr(gf, "rref_stack", planted)
    assert cli._check_m_sets(p, n) == {"idempotent": {"p": p, "n": n, "rows": rows}}


# ---------------------------------------------------------------------------
# serialization

def test_cone_json_lists_objects_in_order(cat22):
    rho = oracle.principal_cone(cat22, gh.endo([[1, 0], [0, 0]], 2))
    doc = rho.to_json(cat22)
    assert [c["object"] for c in doc["components"]] == [o.to_json() for o in cat22.objects]
    assert doc["vertex"] == rho.vertex.to_json()

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3)])
def test_cone_json_from_code_rows_matches_the_oracle_cones(p, n):
    """Byte for byte against the document written from the Cones, and those
    Cones are the principal ones."""
    cat = lo.build_category(p, n)
    smg, code, vertex, rows = sc.coded_normal_cones(p, n)
    cones = oracle._cones(cat, code, vertex, rows)
    labels = sing_oracle.enumerate_endos(p, n, singular_only=True)
    assert cones == tuple(oracle.principal_cone(cat, e) for e in labels)
    doc = {"p": p, "n": n, "elements": [list(map(list, e.rows)) for e in labels],
           "table": smg.table.tolist(), "cones": [c.to_json(cat) for c in cones]}
    want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert sc.cone_semigroup_json(p, n, smg, code, vertex, rows) == want

@pytest.mark.parametrize("p, n", [(5, 2), (7, 2), (2, 3)])
def test_cone_json_peaks_under_six_times_its_length(p, n):
    # json.dumps over nested lists peaked at 10-24 times the document
    args = sc.coded_normal_cones(p, n)
    tracemalloc.start()
    try:
        doc = sc.cone_semigroup_json(p, n, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(doc)
