"""Field-level linear algebra: examples checked against independent
brute-force oracles computed inside this module."""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factorization_oracle as fo
import gf_helpers as gh
import sing_oracle
from fibersemi import gf
from fibersemi import semigroups as sg


# ---------------------------------------------------------------------------
# oracles: tiny, slow, and independent of the library's code paths

def all_vectors(a):
    """All p^dim vectors of a subspace, in lexicographic coefficient order."""
    for c in itertools.product(range(a.p), repeat=a.dim):
        yield a.from_coords(c)


def full_complement(a):
    """The deterministic complement of a in the full space."""
    return gf.complement_in(a, gh.full_space(a.p, a.n))


def brute_span(vectors, n, p):
    """All linear combinations, by sweeping every coefficient tuple."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        v = [0] * n
        for c, vec in zip(coeffs, vectors):
            for j, x in enumerate(vec):
                v[j] = (v[j] + c * x) % p
        out.add(tuple(v))
    return frozenset(out)


def brute_all_subspaces(n, p):
    """Distinct spans of every subset of the full vector set."""
    vectors = list(itertools.product(range(p), repeat=n))
    seen = set()
    for r in range(n + 2):
        for subset in itertools.combinations(vectors, r):
            seen.add(brute_span(subset, n, p))
        if any(len(s) == p ** n for s in seen):
            # every larger subset spans something already recorded
            pass
    return seen


def brute_annihilator(a):
    duals = [
        f for f in itertools.product(range(a.p), repeat=a.n)
        if all(sum(x * y for x, y in zip(v, f)) % a.p == 0 for v in all_vectors(a))
    ]
    return frozenset(duals)


# ---------------------------------------------------------------------------
# spans and canonical form

def test_span_full_space():
    s = gf.subspace_span([(1, 0), (0, 1)], 2, 2)
    assert s == gh.full_space(2, 2)
    assert s.dim == 2

def test_span_canonicalizes():
    s = gf.subspace_span([(1, 1), (0, 1)], 2, 2)
    assert s.basis == ((1, 0), (0, 1))

def test_empty_span():
    s = gf.subspace_span([], 2, 2)
    assert s.dim == 0 and s.basis == ()

def test_span_rejects_ragged_input():
    with pytest.raises(ValueError):
        gf.subspace_span([(1, 0, 0)], 2, 2)

def test_span_matches_brute_force():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        vectors = list(itertools.product(range(p), repeat=n))
        for subset in itertools.combinations(vectors, 2):
            s = gf.subspace_span(list(subset), n, p)
            assert frozenset(all_vectors(s)) == brute_span(subset, n, p)


# ---------------------------------------------------------------------------
# complements

def test_complement_examples():
    a = gf.subspace_span([(0, 1)], 2, 2)
    assert full_complement(a).basis == ((1, 0),)
    assert full_complement(gf.zero_subspace(2, 2)) == gh.full_space(2, 2)
    assert full_complement(gh.full_space(2, 2)) == gf.zero_subspace(2, 2)

def test_complement_is_deterministic_direct_sum():
    for p, n in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        for a in gf.enumerate_subspaces(p, n):
            b = full_complement(a)
            assert gf.is_direct_sum(a, b)
            assert a.dim + b.dim == n
            assert full_complement(a) == b

def test_complement_in_respects_ambient():
    big = gf.subspace_span([(1, 0, 0), (0, 1, 0)], 3, 2)
    small = gf.subspace_span([(0, 1, 0)], 3, 2)
    c = gf.complement_in(small, big)
    assert c.basis == ((1, 0, 0),)
    assert big.contains_subspace(c)


# ---------------------------------------------------------------------------
# annihilators

def test_annihilator_examples():
    assert gf.annihilator(gf.subspace_span([(1, 1)], 2, 2)).basis == ((1, 1),)
    assert gf.annihilator(gf.zero_subspace(2, 2)) == gh.full_space(2, 2)
    assert gf.annihilator(gf.subspace_span([(1, 0, 0)], 3, 2)).basis == ((0, 1, 0), (0, 0, 1))

def test_annihilator_matches_brute_force():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        for a in gf.enumerate_subspaces(p, n):
            assert frozenset(all_vectors(gf.annihilator(a))) == brute_annihilator(a)

def test_annihilator_dimension_and_double_dual():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        for a in gf.enumerate_subspaces(p, n):
            assert gf.annihilator(a).dim == n - a.dim
            assert gf.annihilator(gf.annihilator(a)) == a

def test_annihilator_antitone_and_de_morgan():
    for p, n in [(2, 2), (2, 3)]:
        subs = gf.enumerate_subspaces(p, n)
        for a in subs:
            for b in subs:
                if b.contains_subspace(a):
                    assert gf.annihilator(a).contains_subspace(gf.annihilator(b))
                lhs = gf.annihilator(gh.subspace_intersection(a, b))
                rhs = gh.subspace_sum(gf.annihilator(a), gf.annihilator(b))
                assert lhs == rhs
                lhs2 = gf.annihilator(gh.subspace_sum(a, b))
                rhs2 = gh.subspace_intersection(gf.annihilator(a), gf.annihilator(b))
                assert lhs2 == rhs2


def test_intersection_matches_brute_force():
    subs = gf.enumerate_subspaces(2, 3)
    for a in subs:
        for b in subs:
            got = set(all_vectors(gh.subspace_intersection(a, b)))
            want = set(all_vectors(a)) & set(all_vectors(b))
            assert got == want


# ---------------------------------------------------------------------------
# enumeration counts

def test_subspace_counts_match_gaussian_binomials():
    assert len(gf.enumerate_subspaces(2, 2, proper_only=True)) == 4
    assert len(gf.enumerate_subspaces(2, 3)) == 16
    assert len(gf.enumerate_subspaces(3, 2)) == 6
    for p, n in [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4)]:
        subs = gf.enumerate_subspaces(p, n)
        assert len(subs) == len(set(subs))
        for k in range(n + 1):
            assert sum(1 for s in subs if s.dim == k) == gh.gaussian_binomial(n, k, p)

def test_subspace_enumeration_matches_brute_force():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        brute = brute_all_subspaces(n, p)
        got = {frozenset(all_vectors(s)) for s in gf.enumerate_subspaces(p, n)}
        assert got == brute

@pytest.mark.parametrize("p", gf.SUPPORTED_PRIMES)
def test_cached_pivots_are_the_rref_pivots(p):
    assert gf.Subspace._fields == ("p", "n", "basis")
    for n in (1, 2, 3):
        for s in gf.enumerate_subspaces(p, n):
            assert s.pivots == gf.rref(s.basis, n, p)[1] and s.pivots is s.pivots
            fresh = gf.Subspace(p, n, s.basis)
            assert fresh == s and hash(fresh) == hash(s) and fresh.to_json() == s.to_json()

def test_subspace_guard():
    with pytest.raises(gf.GuardExceeded):
        gf.enumerate_subspaces(2, 13)

def test_endo_counts():
    assert len(gf.enumerate_endos(2, 2, singular_only=True)) == 10
    assert len(gf.enumerate_endos(3, 2, singular_only=True)) == 33
    assert len(gf.enumerate_endos(2, 3, singular_only=True)) == 344
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        assert len(gf.enumerate_endos(p, n, singular_only=True)) == gf.singular_count(p, n)
        assert len(gf.enumerate_endos(p, n)) == p ** (n * n)

def test_endo_guard():
    with pytest.raises(gf.GuardExceeded):
        gf.enumerate_endos(2, 9)

def test_unsupported_prime():
    with pytest.raises(ValueError):
        gf.enumerate_subspaces(4, 2)


# ---------------------------------------------------------------------------
# image, kernel, transpose

def test_image_and_kernel_examples():
    a = gf.endo([[1, 0], [0, 0]], 2)
    assert a.image().basis == ((1, 0),) and a.kernel().basis == ((0, 1),)
    z = gh.zero_endo(2, 2)
    assert z.image().dim == 0 and z.kernel() == gh.full_space(2, 2)
    a = gf.endo([[0, 0], [1, 0]], 2)
    assert a.image().basis == ((1, 0),) and a.kernel().basis == ((1, 0),)

def test_rank_nullity():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        for e in gf.enumerate_endos(p, n):
            assert e.rank + e.kernel().dim == n

def test_kernel_is_left_kernel():
    for e in gf.enumerate_endos(2, 3, singular_only=True)[:64]:
        for v in all_vectors(e.kernel()):
            assert e.apply(v) == (0, 0, 0)

def test_transpose_examples():
    ident = gf.identity_endo(2, 2)
    assert gf.transpose(ident) == ident
    sym = gf.endo([[0, 1], [1, 0]], 2)
    assert gf.transpose(sym) == sym

def test_transpose_reverses_products():
    sing = gf.enumerate_endos(2, 2, singular_only=True)
    for a in sing:
        for b in sing:
            assert gf.transpose(a * b) == gf.transpose(b) * gf.transpose(a)
            assert gf.transpose(gf.transpose(a)) == a


# ---------------------------------------------------------------------------
# linear maps

def test_linear_map_apply_and_compose():
    a = gf.subspace_span([(1, 0, 0), (0, 1, 0)], 3, 2)
    b = gf.subspace_span([(0, 0, 1)], 3, 2)
    f = gf.linear_map(a, b, [(0, 0, 1), (0, 0, 0)])
    assert f.apply((1, 1, 0)) == (0, 0, 1)
    assert fo.image_subspace(f) == b
    assert fo.kernel_subspace(f).basis == ((0, 1, 0),)
    assert gf.identity_map(a).compose(f) == f

def test_linear_map_rejects_escaping_images():
    a = gf.subspace_span([(1, 0)], 2, 2)
    b = gf.subspace_span([(0, 1)], 2, 2)
    with pytest.raises(ValueError):
        gf.linear_map(a, b, [(1, 0)])

def test_inclusion_requires_containment():
    a = gf.subspace_span([(1, 0)], 2, 2)
    b = gf.subspace_span([(0, 1)], 2, 2)
    with pytest.raises(ValueError):
        gf.inclusion_map(a, b)

def test_hom_set_sizes():
    objs = gf.enumerate_subspaces(2, 3, proper_only=True)
    for a in objs:
        for b in objs:
            assert sum(1 for _ in fo.all_linear_maps(a, b)) == 2 ** (a.dim * b.dim)


# ---------------------------------------------------------------------------
# serialization

def test_subspace_json_round_trip():
    for s in gf.enumerate_subspaces(3, 2):
        doc = s.to_json()
        assert doc["p"] == 3 and doc["n"] == 2
        assert gf.Subspace.from_json(doc) == s

def test_endo_json_round_trip():
    e = gf.endo([[1, 0], [0, 0]], 2)
    assert e.to_json() == {"p": 2, "n": 2, "rows": [[1, 0], [0, 0]]}
    assert gf.Endo.from_json(e.to_json()) == e


# ---------------------------------------------------------------------------
# the integer-coded Sing kernel, against enumerate_endos and mat_mul

KERNEL_POINTS = [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)]

@pytest.mark.parametrize("p,n", KERNEL_POINTS)
def test_sing_table_matches_pure_python_products(p, n):
    elems, decode, table = gf.sing_table(p, n)
    assert elems == gf.enumerate_endos(p, n, singular_only=True)
    index = {e.rows: i for i, e in enumerate(elems)}
    assert table.shape == (len(elems), len(elems)) and table.dtype.name == "int32"
    assert not table.flags.writeable and not decode.flags.writeable
    for i, a in enumerate(elems):
        assert [index[gf.mat_mul(a.rows, b.rows, p)] for b in elems] == table[i].tolist()

@pytest.mark.parametrize("p,n", KERNEL_POINTS)
def test_sing_decode_inverts_the_base_p_code(p, n):
    elems, decode, _ = gf.sing_table(p, n)
    sing = {e.rows: i for i, e in enumerate(elems)}
    for code, e in enumerate(gf.enumerate_endos(p, n)):
        assert decode[code] == sing.get(e.rows, -1)

def test_sing_table_guards_refuse_before_enumerating(monkeypatch):
    def enumerate_endos(*args, **kwargs):
        raise AssertionError("enumerated before the guard refused")
    monkeypatch.setattr(gf, "enumerate_endos", enumerate_endos)
    monkeypatch.setattr(gf, "_ranks", enumerate_endos)
    with pytest.raises(gf.GuardExceeded, match="order 45376, beyond the associativity guard 1500"):
        gf.sing_table(2, 4)
    with pytest.raises(gf.GuardExceeded, match="order 8451, beyond the associativity guard 1500"):
        gf.sing_table(3, 3)
    with pytest.raises(gf.GuardExceeded, match="endomorphism guard"):
        gf.sing_table(2, 9)

@pytest.mark.parametrize("p,n", KERNEL_POINTS)
def test_sing_table_matches_the_block_matmul_oracle(p, n):
    elems, _, table = gf.sing_table(p, n)
    want_elems, want = sing_oracle.matmul_table(p, n)
    assert elems == want_elems
    assert np.array_equal(table, want)
    assert gf._sing_matrices(p, n).tolist() == [list(map(list, e.rows)) for e in elems]

ENUMERATION_POINTS = [(p, n) for p in gf.SUPPORTED_PRIMES for n in (1, 2)] + [(2, 3), (3, 3)]

@pytest.mark.parametrize("p,n", ENUMERATION_POINTS)
def test_batched_ranks_match_the_per_matrix_rank_filter(p, n):
    assert gf.enumerate_endos(p, n, singular_only=True) == sing_oracle.singular_endos(p, n)
    assert gf.enumerate_automorphisms(p, n) == sing_oracle.automorphisms(p, n)
    assert gf.enumerate_endos(p, n) == sing_oracle.endos(p, n)

def test_singular_count_at_2_4():
    assert len(gf.enumerate_endos(2, 4, singular_only=True)) == gf.singular_count(2, 4) == 45376
    assert len(gf.enumerate_automorphisms(2, 4)) == 2 ** 16 - 45376

def test_enumeration_makes_no_rref_call(monkeypatch):
    def rref(*args):
        raise AssertionError("rref called")
    for cached in (gf._ranks, gf._sing_matrices, gf.enumerate_endos, gf.enumerate_automorphisms):
        cached.cache_clear()
    monkeypatch.setattr(gf, "rref", rref)
    assert len(gf.enumerate_endos(5, 2, singular_only=True)) == gf.singular_count(5, 2)
    assert len(gf.enumerate_automorphisms(5, 2)) == 480

def test_dimension_must_be_positive():
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            gf.sing_table(2, n)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            gf.enumerate_endos(2, n)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            gf.enumerate_subspaces(2, n)


# ---------------------------------------------------------------------------
# the Record value types

def test_record_hash_is_the_hash_of_the_field_tuple():
    e = gf.identity_endo(2, 2)
    s = gf.Subspace(2, 2, e.rows)
    f = gf.LinearMap(s, s, e.rows)
    assert hash(e) == hash((e.p, e.n, e.rows))
    assert hash(s) == hash((s.p, s.n, s.basis))
    assert hash(f) == hash((f.dom, f.cod, f.matrix))

def test_record_equality_needs_the_same_class():
    rows = gf.identity_matrix(2)
    assert gf.Subspace(2, 2, rows) == gf.Subspace(2, 2, rows)
    assert gf.Subspace(2, 2, rows) != gf.Endo(2, 2, rows)
    assert gf.Endo(2, 2, rows) != (2, 2, rows)

def test_record_repr_and_keyword_construction():
    e = gf.Endo(p=2, n=2, rows=((1, 0), (0, 0)))
    assert e == gf.Endo(2, 2, ((1, 0), (0, 0))) == gf.Endo(2, n=2, rows=((1, 0), (0, 0)))
    assert repr(e) == "Endo(p=2, n=2, rows=((1, 0), (0, 0)))"
    assert repr(gf.Subspace(2, 1, ((1,),))) == "Subspace(p=2, n=1, basis=((1,),))"

@pytest.mark.parametrize("args,kwargs", [
    ((2, 2), {}),                                  # missing
    ((2, 2, ((1,),), 0), {}),                      # extra positional
    ((2, 2), {"basis": ((1,),), "dim": 1}),        # unknown keyword
    ((2, 2, ((1,),)), {"n": 2}),                   # repeated
    ((), {"p": 2, "basis": ((1,),)}),              # missing by keyword
    ((2,), {"p": 2, "basis": ((1,),)}),            # repeated, and so one missing
], ids=["missing", "extra", "unknown", "repeated", "missing-keyword", "repeated-missing"])
def test_record_rejects_a_wrong_field_set(args, kwargs):
    with pytest.raises(TypeError):
        gf.Subspace(*args, **kwargs)

def test_record_is_immutable():
    e = gf.identity_endo(2, 2)
    with pytest.raises(AttributeError):
        e.rows = ()
    with pytest.raises(AttributeError):
        e.other = 1
    with pytest.raises(AttributeError):
        del e.rows
    assert e.rows == gf.identity_matrix(2)

def test_finite_semigroup_is_not_hashable():
    s = sg.from_table("ab", [[0, 0], [0, 0]])
    assert s._fields == ("elements", "table") and s.index("b") == 1
    with pytest.raises(TypeError):
        hash(s)

def test_cli_import_leaves_dataclasses_unimported():
    # a dataclass compiles its methods from source at every import, which
    # every CLI process would pay for; the value types are Records instead
    src = Path(gf.__file__).resolve().parents[1]
    code = "import sys, fibersemi.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
