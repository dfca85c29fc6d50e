"""The subspace lattice against the per-subspace and per-pair sweeps it
replaced: its arrays, the subspace category's inclusion pairs and the
retraction law."""

import re

import numpy as np
import pytest

import factorization_oracle as fo
import gf_helpers as gh
import lattice_oracle as lo
from fibersemi import gf
from fibersemi import subspace_category as sc

GRID = [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4)]


@pytest.mark.parametrize("p, n", GRID)
def test_lattice_arrays_match_the_subspace_sweeps(p, n):
    lattice, subspaces = gf.subspace_lattice(p, n), gh.subspaces(p, n)
    assert np.array_equal(lattice.bases, gf.enumerate_subspaces(p, n)) and subspaces[-1].dim == n
    assert lattice.dims.tolist() == [s.dim for s in subspaces]
    for k, s in enumerate(subspaces):
        assert tuple(map(tuple, lattice.bases[k, :s.dim].tolist())) == s.basis
        assert not lattice.bases[k, s.dim:].any()
        assert tuple(lattice.pivots[k, :s.dim].tolist()) == gh.pivots(s)
        assert sorted(lattice.pivots[k].tolist()) == list(range(n))
    assert lattice.contains.tolist() == lo.containment(subspaces)
    assert lattice.ann.tolist() == lo.annihilators(subspaces)
    assert lattice.direct_sum.tolist() == lo.direct_sums(subspaces)


@pytest.mark.parametrize("p, n", GRID)
def test_inclusion_pairs_match_the_sweep_in_order(p, n):
    objects = lo.proper_subspaces(p, n)
    assert all(s.dim < n for s in objects) and len(objects) == len(gf.subspace_lattice(p, n).bases) - 1
    assert tuple(map(tuple, sc.inclusion_pairs(p, n).tolist())) == lo.inclusion_pairs(objects)


@pytest.mark.parametrize("p, n", GRID)
def test_retraction_law_matches_the_linear_map_loop(p, n):
    cat = lo.build_category(p, n)
    law = sc.retraction_law(p, n)
    assert law.tolist() == fo.retraction_law(cat)
    assert len(law) == len(cat.inclusion_pairs) and law.all()


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3)])
def test_row_spaces_are_the_spans_of_every_matrix(p, n):
    """The one lookup against gf.subspace_span at every n x n matrix, and
    Sing's (img, timg) against the spans of each element and its transpose."""
    positions, spaces = lo.positions(p, n), gf.row_spaces(p, n)
    mats = gf.from_base_p(np.arange(p ** (n * n)), p, n, n).tolist()
    assert spaces.tolist() == [positions[gh.subspace_span(m, n, p)] for m in mats]
    img, timg = gf.sing_images(p, n)
    sing = gf._sing_matrices(p, n).tolist()
    assert img.tolist() == [positions[gh.subspace_span(m, n, p)] for m in sing]
    assert timg.tolist() == [positions[gh.subspace_span(gh.mat_transpose(m), n, p)] for m in sing]
    assert gf.row_spaces(p, n) is spaces and gf.sing_images(p, n)[0] is img
    for a in (spaces, img, timg):
        with pytest.raises(ValueError):
            a[0] = 0


def test_row_spaces_refuse_by_the_endomorphism_guard_before_the_lattice(monkeypatch):
    # GF(7)^4's lattice passes the subspace guard and takes over a second
    def forbidden(p, n):
        raise AssertionError("the lattice was built before the guard refused")

    monkeypatch.setattr(gf, "subspace_lattice", forbidden)
    for lookup in (gf.row_spaces, gf.sing_images):
        with pytest.raises(gf.GuardExceeded, match="exceeds endomorphism guard 1048576"):
            lookup(7, 4)


def test_lattice_is_cached_and_read_only():
    lattice = gf.subspace_lattice(3, 2)
    assert gf.subspace_lattice(3, 2) is lattice
    for name in (*lattice._fields, "direct_sum"):
        with pytest.raises(ValueError):
            getattr(lattice, name)[0] = 0


@pytest.mark.parametrize("p, n, count", [(2, 6, 2825), (3, 5, 2664), (5, 4, 1120), (7, 4, 3652)])
def test_subspace_guard_admits_by_count(p, n, count):
    assert gf.subspace_count(p, n) == count == sum(gh.gaussian_binomial(n, k, p) for k in range(n + 1))


@pytest.mark.parametrize("p, n", GRID)
def test_subspace_count_is_the_enumerated_count(p, n):
    assert gf.subspace_count(p, n) == len(gf.enumerate_subspaces(p, n)) == len(gf.subspace_lattice(p, n).bases)


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 5), (7, 3), (3, 4)])
def test_proper_subspaces_have_every_dimension_below_n(p, n):
    # sc.factorization_witness reads the object dimensions as 0..n-1
    # without building the lattice
    assert sorted(set(gf.subspace_lattice(p, n).dims[:-1].tolist())) == list(range(n))


@pytest.mark.parametrize("p, n, count", [(2, 7, 29212), (3, 6, 56632), (5, 5, 42176), (7, 5, 285704), (2, 12, 488176700923)])
def test_subspace_guard_refuses_by_count_before_enumerating(monkeypatch, p, n, count):
    def forbidden(*args):
        raise AssertionError("a subspace was enumerated before the guard refused")

    monkeypatch.setattr(gf, "from_base_p", forbidden)
    message = f"GF({p})^{n} has {count} subspaces, beyond the subspace guard 4096"
    for build in (gf.enumerate_subspaces, gf.subspace_lattice, sc.retraction_law, sc.factorization_witness):
        with pytest.raises(gf.GuardExceeded, match=re.escape(message)):
            build(p, n)
