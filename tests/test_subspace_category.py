"""Subspace category, normal factorization, cones and the cone semigroup."""

import itertools
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cone_oracle as oracle
import factorization_oracle as fo
import gf_helpers as gh
from fibersemi import cli
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi import subspace_category as sc
from fibersemi.annihilators import build_annihilator_category


@pytest.fixture(scope="module")
def cat22():
    return sc.build_category(2, 2)

@pytest.fixture(scope="module")
def cat23():
    return sc.build_category(2, 3)

@pytest.fixture(scope="module")
def sing22():
    return gf.enumerate_endos(2, 2, singular_only=True)


def zero_map(a, b):
    return gf.LinearMap(a, b, gf.zero_matrix(a.dim, b.dim))

def is_zero(f):
    return all(x == 0 for row in f.matrix for x in row)


# ---------------------------------------------------------------------------
# the category itself

def test_object_counts(cat22, cat23):
    assert len(cat22.objects) == 4
    assert len(cat23.objects) == 15
    assert len(sc.build_category(3, 2).objects) == 6 - 1

def test_zero_subspace_is_initial(cat22):
    zero = gf.zero_subspace(2, 2)
    assert all(obj.contains_subspace(zero) for obj in cat22.objects)
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
            q = sc.retraction(b, a)
            assert gf.inclusion_map(a, b).compose(q) == gf.identity_map(a)

def test_factorization_exhaustive_2_2(cat22):
    for f in fo.all_morphisms(cat22):
        nf = sc.normal_factorization(f)
        assert fo.recomposed(nf) == f
        assert nf.u.is_iso()
        assert nf.epi == nf.q.compose(nf.u)
        assert nf.epi.is_epi()
        # the retraction splits the inclusion of its codomain
        assert gf.inclusion_map(nf.q.cod, f.dom).compose(nf.q) == gf.identity_map(nf.q.cod)

def test_factorization_exhaustive_2_3(cat23):
    count = 0
    for f in fo.all_morphisms(cat23):
        nf = sc.normal_factorization(f)
        assert fo.recomposed(nf) == f
        assert nf.u.is_iso()
        count += 1
    assert count == 1303

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_factorization_matches_the_oracle(p, n):
    """q, u, j and epi read from the shape arrays equal the rref-per-morphism
    oracle's on every morphism, the zero-dimensional hom-sets included."""
    cat = sc.build_category(p, n)
    shapes = set()
    for f in fo.all_morphisms(cat):
        assert sc.normal_factorization(f) == fo.normal_factorization(f)
        shapes.add((f.dom.dim, f.cod.dim))
    assert {(0, 0), (0, 1), (1, 0)} <= shapes

@pytest.mark.parametrize("p, m, w", [(2, 3, 4), (3, 2, 3), (5, 2, 2), (7, 1, 3)])
def test_rref_stack_matches_gf_rref(p, m, w):
    mats = np.array(list(itertools.product(range(p), repeat=m * w))).reshape(-1, m, w)
    red, pivot, rank = gf.rref_stack(mats, p)
    for a, r, piv, k in zip(mats.tolist(), red.tolist(), pivot.tolist(), rank.tolist()):
        basis, pivots = gf.rref(a, w, p)
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
    # M = [[0, 1], [0, 1]] has kernel <(1, 1)>, so q = [[1], [1]]
    monkeypatch.setattr(sc, "shape_factors", perturbed({(2, 2, 2): [("q", (5, 1, 0), 0)]}))
    ok, witness = cli._check_factorization(2, 2)
    assert not ok
    assert witness == {"failure": "factorization identity", "shape": [2, 2], "matrix": [[0, 1], [0, 1]]}

def test_factorization_check_fails_on_a_rescaled_retraction(monkeypatch):
    # over GF(3), q = u = [[2]] still give q.u.image = M = [[1]], so only the
    # translation at each line sees that q is no retraction
    monkeypatch.setattr(sc, "shape_factors", perturbed(
        {(3, 1, 1): [("q", (1, 0, 0), 2), ("u", (1, 0, 0), 2)]}))
    line = sc.build_category(3, 2).objects[1]
    assert cli._check_factorization(3, 2) == (
        False, {"failure": "retraction translation", "object": line.to_json()})

def test_factorization_check_fails_on_a_perturbed_image_basis(monkeypatch):
    # image = T.RREF(M) with T = [[2]] and u = [[2]] = u.T^-1: q.u.image is
    # still M = [[1]], but the image basis is no longer canonical at a line
    monkeypatch.setattr(sc, "shape_factors", perturbed(
        {(3, 1, 1): [("image", (1, 0, 0), 2), ("u", (1, 0, 0), 2)]}))
    line = sc.build_category(3, 2).objects[1]
    assert cli._check_factorization(3, 2) == (
        False, {"failure": "image translation", "object": line.to_json()})

@pytest.mark.parametrize("p", [2, 3])
def test_cone_check_fails_on_a_planted_non_principal_cone(monkeypatch, p):
    # at (p, 2) the cones come from the exhaustive sweep, so the comparison
    # with the principal codes is a real check
    assert cli._check_cone_semigroup(p, 2) == (True, None)
    coded = sc.coded_normal_cones

    def planted(cat):
        semigroup, code, vertex, rows = coded(cat)
        rows = rows.copy()
        rows[-1, -1, 0] = (rows[-1, -1, 0] + 1) % p   # the last cone, at the last line
        assert code.codes(vertex, rows)[-1] not in sc.principal_codes(cat, code).tolist()
        return semigroup, code, vertex, rows

    monkeypatch.setattr(sc, "coded_normal_cones", planted)
    assert cli._check_cone_semigroup(p, 2) == (False, {"failure": "non-principal normal cone found"})

@pytest.mark.parametrize("p, n", [(2, 4), (3, 3)])
def test_factorization_check_finishes_beyond_the_sing_guard(p, n):
    assert cli._check_factorization(p, n) == (True, None)

def test_factorization_hand_example():
    a = gf.subspace_span([(1, 0, 0), (0, 1, 0)], 3, 2)
    b = gf.subspace_span([(0, 0, 1)], 3, 2)
    f = gf.linear_map(a, b, [(0, 0, 1), (0, 0, 0)])
    nf = sc.normal_factorization(f)
    assert nf.q.cod == gf.subspace_span([(1, 0, 0)], 3, 2)
    assert nf.q.apply((0, 1, 0)) == (0, 0, 0)
    assert nf.u.apply((1, 0, 0)) == (0, 0, 1)
    assert nf.j == gf.identity_map(b)

def test_factorization_of_isomorphism():
    a = gf.subspace_span([(0, 0, 1)], 3, 2)
    b = gf.subspace_span([(1, 0, 0)], 3, 2)
    f = gf.linear_map(a, b, [(1, 0, 0)])
    nf = sc.normal_factorization(f)
    assert nf.q == gf.identity_map(a)
    assert nf.j == gf.identity_map(b)
    assert nf.epi == f

def test_factorization_of_zero_map():
    a = gf.subspace_span([(1, 0, 0), (0, 1, 0)], 3, 2)
    b = gf.subspace_span([(0, 0, 1)], 3, 2)
    nf = sc.normal_factorization(zero_map(a, b))
    assert nf.q.cod.dim == 0
    assert nf.u.dom.dim == 0 and nf.u.cod.dim == 0
    assert nf.j.dom.dim == 0 and nf.j.cod == b


# ---------------------------------------------------------------------------
# cones

def test_principal_cone_of_projection(cat22):
    e = gf.endo([[1, 0], [0, 0]], 2)
    rho = sc.principal_cone(cat22, e)
    assert rho.vertex == gf.subspace_span([(1, 0)], 2, 2)
    l10 = gf.subspace_span([(1, 0)], 2, 2)
    l01 = gf.subspace_span([(0, 1)], 2, 2)
    l11 = gf.subspace_span([(1, 1)], 2, 2)
    assert rho.components[cat22.index(l10)] == gf.identity_map(l10)
    assert is_zero(rho.components[cat22.index(l01)])
    assert rho.components[cat22.index(l11)].apply((1, 1)) == (1, 0)
    rep = oracle.validate_cone(cat22, rho)
    assert rep.well_formed and rep.is_normal
    assert set(rep.iso_objects) == {l10, l11}

def test_principal_cone_of_zero(cat22):
    rho = sc.principal_cone(cat22, gh.zero_endo(2, 2))
    assert rho.vertex.dim == 0
    assert all(is_zero(c) for c in rho.components)
    rep = oracle.validate_cone(cat22, rho)
    assert rep.well_formed and rep.is_normal
    assert rep.iso_objects == (gf.zero_subspace(2, 2),)

def test_principal_cone_rejects_invertible(cat22):
    with pytest.raises(ValueError):
        sc.principal_cone(cat22, gf.identity_endo(2, 2))

def test_all_principal_cones_are_normal(cat22, sing22):
    for a in sing22:
        rep = oracle.validate_cone(cat22, sc.principal_cone(cat22, a))
        assert rep.well_formed and rep.is_normal

def test_ill_typed_cone_is_flagged(cat22):
    e = gf.endo([[1, 0], [0, 0]], 2)
    rho = sc.principal_cone(cat22, e)
    l01 = gf.subspace_span([(0, 1)], 2, 2)
    bad_comps = tuple(
        zero_map(gf.zero_subspace(2, 2), l01) if obj.dim == 0 else c
        for obj, c in zip(cat22.objects, rho.components)
    )
    rep = oracle.validate_cone(cat22, sc.Cone(rho.vertex, bad_comps))
    assert not rep.typing_ok and not rep.well_formed
    assert rep.witness[0] == "typing"

def test_restriction_violation_is_flagged(cat23):
    # plane component maps a line one way, line component another
    alpha = gf.endo([[0, 0, 1], [0, 0, 0], [0, 0, 0]], 2)
    rho = sc.principal_cone(cat23, alpha)
    line = gf.subspace_span([(1, 0, 0)], 3, 2)
    vertex = rho.vertex
    comps = list(rho.components)
    comps[cat23.index(line)] = zero_map(line, vertex)
    rep = oracle.validate_cone(cat23, sc.Cone(vertex, tuple(comps)))
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
        rho = sc.principal_cone(cat22, a)
        assert sc.cone_star(cat22, rho, gf.identity_map(rho.vertex)) == rho

def test_star_hand_example(cat22):
    rho = sc.principal_cone(cat22, gf.endo([[1, 0], [0, 0]], 2))
    f = gf.linear_map(gf.subspace_span([(1, 0)], 2, 2),
                      gf.subspace_span([(0, 1)], 2, 2), [(0, 1)])
    assert sc.cone_star(cat22, rho, f) == sc.principal_cone(cat22, gf.endo([[0, 1], [0, 0]], 2))

def test_star_requires_epi_from_vertex(cat22):
    rho = sc.principal_cone(cat22, gf.endo([[1, 0], [0, 0]], 2))
    l10 = gf.subspace_span([(1, 0)], 2, 2)
    with pytest.raises(ValueError):
        sc.cone_star(cat22, rho, zero_map(l10, l10))
    other = gf.subspace_span([(0, 1)], 2, 2)
    with pytest.raises(ValueError):
        sc.cone_star(cat22, rho, gf.identity_map(other))

def test_star_preserves_normality(cat22, sing22):
    for a in sing22:
        rho = sc.principal_cone(cat22, a)
        for obj in cat22.objects:
            for f in fo.all_linear_maps(rho.vertex, obj):
                if f.is_epi():
                    out = sc.cone_star(cat22, rho, f)
                    assert sc.is_normal_cone(out)
                    assert oracle.validate_cone(cat22, out).well_formed

def test_compose_idempotent(cat22):
    for e in gf.enumerate_endos(2, 2, singular_only=True):
        if e * e == e:
            rho = sc.principal_cone(cat22, e)
            assert sc.cone_compose(cat22, rho, rho) == rho

def test_compose_hand_example(cat22):
    a = gf.endo([[1, 0], [0, 0]], 2)
    b = gf.endo([[0, 0], [1, 0]], 2)
    out = sc.cone_compose(cat22, sc.principal_cone(cat22, a), sc.principal_cone(cat22, b))
    assert out == sc.principal_cone(cat22, gh.zero_endo(2, 2))

def test_compose_is_homomorphic_exhaustive_2_2(cat22, sing22):
    for a in sing22:
        for b in sing22:
            lhs = sc.cone_compose(cat22, sc.principal_cone(cat22, a),
                                  sc.principal_cone(cat22, b))
            assert lhs == sc.principal_cone(cat22, a * b)

def test_compose_is_homomorphic_sampled_2_3(cat23):
    sing3 = gf.enumerate_endos(2, 3, singular_only=True)
    rng = random.Random(11)
    for _ in range(10_000):
        a = rng.choice(sing3)
        b = rng.choice(sing3)
        lhs = sc.cone_compose(cat23, sc.principal_cone(cat23, a),
                              sc.principal_cone(cat23, b))
        assert lhs == sc.principal_cone(cat23, a * b)

def test_compose_associative_exhaustive_2_2(cat22, sing22):
    cones = [sc.principal_cone(cat22, a) for a in sing22]
    for x in cones:
        for y in cones:
            xy = sc.cone_compose(cat22, x, y)
            for z in cones:
                assert sc.cone_compose(cat22, xy, z) == \
                    sc.cone_compose(cat22, x, sc.cone_compose(cat22, y, z))

def test_compose_requires_normal_inputs(cat22):
    rho = sc.principal_cone(cat22, gf.endo([[1, 0], [0, 0]], 2))
    line = rho.vertex
    flat = sc.Cone(line, tuple(zero_map(o, line) for o in cat22.objects))
    with pytest.raises(ValueError):
        sc.cone_compose(cat22, rho, flat)


# ---------------------------------------------------------------------------
# the cone semigroup

def test_exhaustive_enumeration_is_exactly_principal(cat22, sing22):
    smg, cones, endos = sc.enumerate_normal_cones(cat22)
    assert smg.order == 10
    assert set(cones) == {sc.principal_cone(cat22, a) for a in sing22}
    assert set(endos) == set(sing22)
    assert sg.is_regular(smg)

def test_exhaustive_enumeration_at_3_2():
    cat = sc.build_category(3, 2)
    smg, cones, _ = sc.enumerate_normal_cones(cat)
    sing = gf.enumerate_endos(3, 2, singular_only=True)
    assert smg.order == len(sing) == 33
    assert set(cones) == {sc.principal_cone(cat, a) for a in sing}

def test_cone_semigroup_isomorphic_to_singular_endos(cat22, sing22):
    smg, _, _ = sc.enumerate_normal_cones(cat22)
    sing = sg.from_multiplication(sing22, lambda a, b: a * b)
    mapping = tuple(smg.index(a.rows) for a in sing.elements)
    rep = sg.verify_morphism(sg.SemigroupMorphism(sing, smg, mapping))
    assert rep.is_hom and rep.is_injective
    assert len(set(mapping)) == smg.order

def cell_by_cell_rows(cat, cones, rows):
    """Oracle: table rows filled one cone_compose per cell."""
    index = {c: i for i, c in enumerate(cones)}
    return [[index[sc.cone_compose(cat, cones[i], g2)] for g2 in cones] for i in rows]

@pytest.mark.parametrize("build", [
    lambda: sc.build_category(2, 2),
    lambda: sc.build_category(3, 2),
    lambda: sc.build_category(5, 2),
    lambda: build_annihilator_category(2, 2).dual_category,
], ids=["2-2", "3-2", "5-2", "annihilator-dual-2-2"])
def test_grouped_fill_matches_cell_by_cell_composition(build):
    cat = build()
    smg, cones, _ = sc.enumerate_normal_cones(cat)
    assert smg.table.tolist() == cell_by_cell_rows(cat, cones, range(len(cones)))

def test_grouped_fill_on_the_principal_path_2_3(cat23):
    smg, cones, _ = sc.enumerate_normal_cones(cat23)
    # every cell against Sing's matrix products; one row per vertex, so every
    # column grouping, against cell-by-cell composition (the whole table
    # that way is 118k compositions)
    assert np.array_equal(smg.table, sg.sing_semigroup(2, 3).table)
    rows = [next(i for i, c in enumerate(cones) if c.vertex == v) for v in cat23.objects]
    assert smg.table[rows].tolist() == cell_by_cell_rows(cat23, cones, rows)

CODED_POINTS = pytest.mark.parametrize("build", [
    lambda: sc.build_category(2, 2),
    lambda: sc.build_category(3, 2),
    lambda: build_annihilator_category(2, 2).dual_category,
], ids=["2-2", "3-2", "annihilator-dual-2-2"])

@CODED_POINTS
def test_coded_sweep_accepts_exactly_what_validate_cone_accepts(build):
    cat = build()
    code = sc._ConeCode(cat)
    vertex, rows = sc._assignments(cat, code)
    _, ok = sc._admissible(cat, code, vertex, rows)
    swept = [cone for v in cat.objects for cone in oracle._assignment_space(cat, v)]
    assert list(sc._cones(cat, code, vertex, rows)) == swept
    for cone, accepted in zip(swept, ok.tolist()):
        rep = oracle.validate_cone(cat, cone)
        assert accepted == (rep.well_formed and rep.is_normal)
    assert ok.sum() == gf.singular_count(cat.p, cat.n)

@CODED_POINTS
def test_code_is_injective_on_the_assignment_space(build):
    cat = build()
    code = sc._ConeCode(cat)
    vertex, rows = sc._assignments(cat, code)
    assert len(set(code.codes(vertex, rows).tolist())) == len(rows)

def test_cone_codes_fit_in_int64_up_to_2_3(cat23):
    assert (len(cat23.objects) * sc._ConeCode(cat23).stride).bit_length() == 46
    with pytest.raises(AssertionError, match="do not fit in 63 bits"):
        sc._ConeCode(sc.build_category(3, 3))

def test_inducing_endos_match_cone_to_endo(cat22, cat23):
    for cat in (cat22, sc.build_category(5, 2), cat23):
        _, cones, endos = sc.enumerate_normal_cones(cat)
        assert list(endos) == [oracle.cone_to_endo(cat, c) for c in cones]
        assert list(endos) == list(gf.enumerate_endos(cat.p, cat.n, singular_only=True))

@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_principal_rows_are_the_principal_cones(p, n):
    cat = sc.build_category(p, n)
    code = sc._ConeCode(cat)
    vertex, rows = sc._principal_rows(cat, code)
    sing = gf.enumerate_endos(p, n, singular_only=True)
    assert sc._cones(cat, code, vertex, rows) == tuple(sc.principal_cone(cat, a) for a in sing)
    assert sc.principal_codes(cat, code).tolist() == code.codes(vertex, rows).tolist()
    assert len(set(code.codes(vertex, rows).tolist())) == len(sing)

def test_cones_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma, about 1.6 MB of resident memory per process
    src = Path(sc.__file__).resolve().parents[1]
    code = ("import sys; from fibersemi import subspace_category as sc; "
            "sc.enumerate_normal_cones(sc.build_category(5, 2)); "
            "sc.enumerate_normal_cones(sc.build_category(3, 2)); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"

def test_product_outside_the_enumerated_set_raises(monkeypatch, cat22):
    push = sc._push
    def flattened_push(rows, epi, p):
        out = push(rows, epi, p)
        return out if epi.shape[1] == 0 else 0 * out
    monkeypatch.setattr(sc, "_push", flattened_push)
    with pytest.raises(AssertionError, match="left the enumerated set"):
        sc.enumerate_normal_cones(cat22)

def test_cone_guard_refuses_before_building_a_cone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a cone before the guard refused")
    monkeypatch.setattr(sc, "_principal_rows", refuse)
    monkeypatch.setattr(sc, "_assignments", refuse)
    with pytest.raises(gf.GuardExceeded, match="order 8451, beyond the associativity guard 1500"):
        sc.enumerate_normal_cones(sc.build_category(3, 3))
    with pytest.raises(gf.GuardExceeded, match="order 45376, beyond the associativity guard 1500"):
        sc.enumerate_normal_cones(sc.build_category(2, 4))

def identity_cone(cat, obj):
    """A normal cone with the given vertex whose component there is the
    identity: the principal cone of the projection onto obj."""
    if obj.dim == 0:
        e = gh.zero_endo(cat.p, cat.n)
    else:
        proj = sc.retraction(gh.full_space(cat.p, cat.n), obj)
        rows = []
        for k in range(cat.n):
            ek = tuple(1 if i == k else 0 for i in range(cat.n))
            rows.append(proj.apply(ek))
        e = gf.Endo(cat.p, cat.n, tuple(rows))
    return sc.principal_cone(cat, e)

def test_unit_cones_exist_at_every_vertex(cat22, cat23):
    for cat in (cat22, cat23):
        for obj in cat.objects:
            cone = identity_cone(cat, obj)
            assert cone.vertex == obj
            assert cone.components[cat.index(obj)] == gf.identity_map(obj)
            rep = oracle.validate_cone(cat, cone)
            assert rep.well_formed and rep.is_normal


# ---------------------------------------------------------------------------
# m-sets

def test_m_set_requires_idempotent(cat22):
    rho = sc.principal_cone(cat22, gf.endo([[0, 1], [0, 0]], 2))
    with pytest.raises(ValueError):
        sc.m_set(cat22, rho)

def test_m_set_examples(cat22):
    e = gf.endo([[1, 0], [0, 0]], 2)
    got = set(sc.m_set(cat22, sc.principal_cone(cat22, e)))
    assert got == {gf.subspace_span([(1, 0)], 2, 2), gf.subspace_span([(1, 1)], 2, 2)}
    z = sc.principal_cone(cat22, gh.zero_endo(2, 2))
    assert sc.m_set(cat22, z) == (gf.zero_subspace(2, 2),)

def test_m_set_double_characterization(cat22):
    for e in gf.enumerate_endos(2, 2, singular_only=True):
        if e * e != e:
            continue
        by_iso = set(sc.m_set(cat22, sc.principal_cone(cat22, e)))
        by_sum = {a for a in cat22.objects if gf.is_direct_sum(a, e.kernel())}
        assert by_iso == by_sum


# ---------------------------------------------------------------------------
# serialization

def test_cone_json_lists_objects_in_order(cat22):
    rho = sc.principal_cone(cat22, gf.endo([[1, 0], [0, 0]], 2))
    doc = rho.to_json(cat22)
    assert [c["object"] for c in doc["components"]] == [o.to_json() for o in cat22.objects]
    assert doc["vertex"] == rho.vertex.to_json()
