"""Property tests for the GF(p) primitives over every supported prime.

Example counts are bounded and the search is derandomized, so the suite
stays fast and every run draws the same examples.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import gf_helpers as gh
import sing_oracle
from fibersemi import gf

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def ambient(draw):
    return draw(st.sampled_from(gf.SUPPORTED_PRIMES)), draw(st.integers(1, 4))


def vectors(p, n, max_size=5):
    return st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=max_size)


@st.composite
def spanned(draw, count=1):
    """(p, n, generating sets, subspaces) for count subspaces of one GF(p)^n."""
    p, n = draw(ambient())
    gens = [draw(vectors(p, n)) for _ in range(count)]
    return p, n, gens, [gh.subspace_span(g, n, p) for g in gens]


def combination(coeffs, rows, p, n):
    return tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n))


@PROPERTY
@given(spanned(), st.data())
def test_rref_is_canonical(case, data):
    p, n, (gens,), (a,) = case
    # reduced echelon shape: increasing unit pivots, zero elsewhere in their columns
    assert list(gh.pivots(a)) == sorted(set(gh.pivots(a)))
    for i, c in enumerate(gh.pivots(a)):
        assert [row[c] for row in a.basis] == [int(k == i) for k in range(a.dim)]
    # any other generating set of the same space reduces to the same basis
    extra = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=len(gens),
                                        max_size=len(gens)), max_size=3))
    others = gens + [combination(c, gens, p, n) for c in extra]
    others = data.draw(st.permutations(others))
    assert gh.subspace_span(others, n, p) == a
    assert gh.rref(a.basis, n, p)[0] == a.basis


@PROPERTY
@given(spanned(), st.data())
def test_coords_round_trip(case, data):
    p, n, _, (a,) = case
    c = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=a.dim, max_size=a.dim)))
    assert gh.coords(a, gh.from_coords(a, c)) == c
    v = data.draw(st.tuples(*[st.integers(0, p - 1)] * n))
    t = gh.coords(a, v)
    assert (t is not None) == (v in {gh.from_coords(a, c) for c in itertools.product(range(p), repeat=a.dim)})
    if t is not None:
        assert gh.from_coords(a, t) == v


@PROPERTY
@given(spanned(count=2))
def test_dimension_of_sum_and_intersection(case):
    _, _, _, (a, b) = case
    total = gh.subspace_sum(a, b)
    meet = gh.subspace_intersection(a, b)
    assert total.dim + meet.dim == a.dim + b.dim
    assert gh.contains_subspace(total, a) and gh.contains_subspace(total, b)
    assert gh.contains_subspace(a, meet) and gh.contains_subspace(b, meet)


@PROPERTY
@given(spanned())
def test_double_annihilator(case):
    _, n, _, (a,) = case
    dual = gh.annihilator(a)
    assert dual.dim == n - a.dim
    assert gh.annihilator(dual) == a


@PROPERTY
@given(spanned(count=2))
def test_complement_in_gives_a_direct_sum(case):
    _, _, _, (a, extra) = case
    b = gh.subspace_sum(a, extra)
    c = gh.complement_in(a, b)
    assert gh.contains_subspace(b, c)
    assert a.dim + c.dim == b.dim
    assert gh.subspace_intersection(a, c).dim == 0
    assert gh.subspace_sum(a, c) == b


@PROPERTY
@given(st.sampled_from([(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)]), st.data())
def test_sing_table_cell_is_the_matrix_product(point, data):
    p, n = point
    elems, table = sing_oracle.enumerate_endos(p, n, singular_only=True), gf.sing_table(p, n)
    i, j = (data.draw(st.integers(0, len(elems) - 1)) for _ in range(2))
    assert elems[table[i, j]].rows == gh.mat_mul(elems[i].rows, elems[j].rows, p)
