"""Field-level linear algebra: examples checked against independent
brute-force oracles computed inside this module."""

import decimal
import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factorization_oracle as fo
import gf_helpers as gh
import lattice_oracle as lo
import sing_oracle
from fibersemi import gf
from fibersemi import semigroups as sg


# ---------------------------------------------------------------------------
# oracles: tiny, slow, and independent of the library's code paths

def all_vectors(a):
    """All p^dim vectors of a subspace, in lexicographic coefficient order."""
    for c in itertools.product(range(a.p), repeat=a.dim):
        yield gh.from_coords(a, c)


def full_complement(a):
    """The deterministic complement of a in the full space."""
    return gh.complement_in(a, gh.full_space(a.p, a.n))


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
    s = gh.subspace_span([(1, 0), (0, 1)], 2, 2)
    assert s == gh.full_space(2, 2)
    assert s.dim == 2

def test_span_canonicalizes():
    s = gh.subspace_span([(1, 1), (0, 1)], 2, 2)
    assert s.basis == ((1, 0), (0, 1))

def test_empty_span():
    s = gh.subspace_span([], 2, 2)
    assert s.dim == 0 and s.basis == ()

def test_span_rejects_ragged_input():
    with pytest.raises(ValueError):
        gh.subspace_span([(1, 0, 0)], 2, 2)

def test_span_matches_brute_force():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        vectors = list(itertools.product(range(p), repeat=n))
        for subset in itertools.combinations(vectors, 2):
            s = gh.subspace_span(list(subset), n, p)
            assert frozenset(all_vectors(s)) == brute_span(subset, n, p)


# ---------------------------------------------------------------------------
# complements

def test_complement_examples():
    a = gh.subspace_span([(0, 1)], 2, 2)
    assert full_complement(a).basis == ((1, 0),)
    assert full_complement(gh.zero_subspace(2, 2)) == gh.full_space(2, 2)
    assert full_complement(gh.full_space(2, 2)) == gh.zero_subspace(2, 2)

def test_complement_is_deterministic_direct_sum():
    for p, n in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        for a in gh.subspaces(p, n):
            b = full_complement(a)
            assert gh.is_direct_sum(a, b)
            assert a.dim + b.dim == n
            assert full_complement(a) == b

def test_complement_in_respects_ambient():
    big = gh.subspace_span([(1, 0, 0), (0, 1, 0)], 3, 2)
    small = gh.subspace_span([(0, 1, 0)], 3, 2)
    c = gh.complement_in(small, big)
    assert c.basis == ((1, 0, 0),)
    assert gh.contains_subspace(big, c)


# ---------------------------------------------------------------------------
# annihilators

def test_annihilator_examples():
    assert gh.annihilator(gh.subspace_span([(1, 1)], 2, 2)).basis == ((1, 1),)
    assert gh.annihilator(gh.zero_subspace(2, 2)) == gh.full_space(2, 2)
    assert gh.annihilator(gh.subspace_span([(1, 0, 0)], 3, 2)).basis == ((0, 1, 0), (0, 0, 1))

def test_annihilator_matches_brute_force():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        for a in gh.subspaces(p, n):
            assert frozenset(all_vectors(gh.annihilator(a))) == brute_annihilator(a)

def test_annihilator_dimension_and_double_dual():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        for a in gh.subspaces(p, n):
            assert gh.annihilator(a).dim == n - a.dim
            assert gh.annihilator(gh.annihilator(a)) == a

def test_annihilator_antitone_and_de_morgan():
    for p, n in [(2, 2), (2, 3)]:
        subs = gh.subspaces(p, n)
        for a in subs:
            for b in subs:
                if gh.contains_subspace(b, a):
                    assert gh.contains_subspace(gh.annihilator(a), gh.annihilator(b))
                lhs = gh.annihilator(gh.subspace_intersection(a, b))
                rhs = gh.subspace_sum(gh.annihilator(a), gh.annihilator(b))
                assert lhs == rhs
                lhs2 = gh.annihilator(gh.subspace_sum(a, b))
                rhs2 = gh.subspace_intersection(gh.annihilator(a), gh.annihilator(b))
                assert lhs2 == rhs2


def test_intersection_matches_brute_force():
    subs = gh.subspaces(2, 3)
    for a in subs:
        for b in subs:
            got = set(all_vectors(gh.subspace_intersection(a, b)))
            want = set(all_vectors(a)) & set(all_vectors(b))
            assert got == want


# ---------------------------------------------------------------------------
# enumeration counts

def test_subspace_counts_match_gaussian_binomials():
    assert len(lo.proper_subspaces(2, 2)) == 4
    assert len(gf.enumerate_subspaces(2, 3)) == 16
    assert len(gf.enumerate_subspaces(3, 2)) == 6
    for p, n in [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4)]:
        subs = gh.subspaces(p, n)
        assert len(subs) == len(set(subs))
        for k in range(n + 1):
            assert sum(1 for s in subs if s.dim == k) == gh.gaussian_binomial(n, k, p)

def test_subspace_enumeration_matches_brute_force():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        brute = brute_all_subspaces(n, p)
        got = {frozenset(all_vectors(s)) for s in gh.subspaces(p, n)}
        assert got == brute

SUBSPACE_POINTS = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 6)] + [(5, 2), (5, 3)] \
    + [(7, n) for n in range(2, 5)]

@pytest.mark.parametrize("p,n", SUBSPACE_POINTS)
def test_enumerated_subspaces_are_the_oracle_bases_in_its_order(p, n):
    bases = gf.enumerate_subspaces(p, n)
    assert bases.dtype == np.int64 and bases.shape[1:] == (n, n) and not bases.flags.writeable
    assert gf.enumerate_subspaces(p, n) is bases
    want = [s.basis + ((0,) * n,) * (n - s.dim) for s in gh.subspaces(p, n)]
    assert tuple(map(tuple, (map(tuple, b) for b in bases.tolist()))) == tuple(want)

@pytest.mark.parametrize("p", gf.SUPPORTED_PRIMES)
def test_cached_pivots_are_the_rref_pivots(p):
    assert gh.Subspace._fields == ("p", "n", "basis")
    for n in (1, 2, 3):
        for s in gh.subspaces(p, n):
            # the pivots are no field: equality, hashing and JSON ignore them
            assert gh.pivots(s) == gh.rref(s.basis, n, p)[1]
            fresh = gh.Subspace(p, n, s.basis)
            assert fresh == s and hash(fresh) == hash(s) and fresh.to_json() == s.to_json()

def test_subspace_guard():
    with pytest.raises(gf.GuardExceeded):
        gf.enumerate_subspaces(2, 13)

@pytest.mark.parametrize("p", gf.SUPPORTED_PRIMES)
def test_guard_counts_match_their_defining_sums(p):
    # the Galois-number recurrence against the sum of Gaussian binomials,
    # the GL product against p^(n(n-1)/2) prod_(i=1..n) (p^i - 1)
    for n in range(1, 41):
        assert gf._galois_number(p, n) == sum(gh.gaussian_binomial(n, k, p) for k in range(n + 1))
        assert gf.gl_order(p, n) == p ** (n * (n - 1) // 2) * math.prod(p ** i - 1 for i in range(1, n + 1))

@pytest.mark.parametrize("p", gf.SUPPORTED_PRIMES)
def test_power_text_is_the_count_text_of_the_power(p):
    for e in [*range(300), 1000, 4099, 65536, 10 ** 5 + 1, 3 * 10 ** 5 - 7]:
        assert gf.power_text(p, e) == gf.count_text(p ** e)

def test_power_text_past_any_power_matches_a_high_precision_log():
    # floor(e log2 p), from a 120-digit log, at exponents whose power
    # could never be built
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        for p in (3, 5, 7):
            log2 = decimal.Decimal(p).ln() / decimal.Decimal(2).ln()
            for e in (10 ** 12 + 1, 99999999999999999999 ** 2):
                k = int((log2 * e).to_integral_value(rounding=decimal.ROUND_FLOOR))
                assert gf.power_text(p, e) == f"at least 2^{k}"

def test_subspace_guard_counts_exactly_only_within_64_bits():
    # exact while p^(n^2 // 4) fits in 64 bits; past it, that power, a
    # lower bound on the count, is named
    for p, exact_to in [(2, 16), (3, 12), (5, 10), (7, 9)]:
        for n in range(1, 41):
            bound, count = p ** (n * n // 4), gf._galois_number(p, n)
            assert (bound <= 1 << 64) == (n <= exact_to)
            if n <= exact_to and count <= gf.SUBSPACE_ENUM_LIMIT:
                assert gf.subspace_count(p, n) == count
                continue
            with pytest.raises(gf.GuardExceeded) as exc:
                gf.subspace_count(p, n)
            k = bound.bit_length() - 1
            text = gf.count_text(count) if n <= exact_to else f"at least 2^{k}"
            assert str(exc.value) == f"GF({p})^{n} has {text} subspaces, beyond the subspace guard 4096"
            assert 2 ** k <= count

def test_endo_counts():
    assert len(sing_oracle.enumerate_endos(2, 2, singular_only=True)) == 10
    assert len(sing_oracle.enumerate_endos(3, 2, singular_only=True)) == 33
    assert len(sing_oracle.enumerate_endos(2, 3, singular_only=True)) == 344
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        assert len(sing_oracle.enumerate_endos(p, n, singular_only=True)) == gf.singular_count(p, n)
        assert len(sing_oracle.enumerate_endos(p, n)) == p ** (n * n)

def test_endo_guard():
    with pytest.raises(gf.GuardExceeded):
        sing_oracle.enumerate_endos(2, 9)

def test_unsupported_prime():
    with pytest.raises(ValueError):
        gf.enumerate_subspaces(4, 2)


# ---------------------------------------------------------------------------
# image, kernel, transpose

def test_image_and_kernel_examples():
    a = gh.endo([[1, 0], [0, 0]], 2)
    assert gh.image(a).basis == ((1, 0),) and gh.kernel(a).basis == ((0, 1),)
    z = gh.zero_endo(2, 2)
    assert gh.image(z).dim == 0 and gh.kernel(z) == gh.full_space(2, 2)
    a = gh.endo([[0, 0], [1, 0]], 2)
    assert gh.image(a).basis == ((1, 0),) and gh.kernel(a).basis == ((1, 0),)

def test_rank_nullity():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        for e in sing_oracle.enumerate_endos(p, n):
            assert e.rank + gh.kernel(e).dim == n

def test_kernel_is_left_kernel():
    for e in sing_oracle.enumerate_endos(2, 3, singular_only=True)[:64]:
        for v in all_vectors(gh.kernel(e)):
            assert gh.apply(e, v) == (0, 0, 0)

def test_transpose_examples():
    ident = gh.identity_endo(2, 2)
    assert gh.transpose(ident) == ident
    sym = gh.endo([[0, 1], [1, 0]], 2)
    assert gh.transpose(sym) == sym

def test_transpose_reverses_products():
    sing = sing_oracle.enumerate_endos(2, 2, singular_only=True)
    for a in sing:
        for b in sing:
            assert gh.transpose(a * b) == gh.transpose(b) * gh.transpose(a)
            assert gh.transpose(gh.transpose(a)) == a


# ---------------------------------------------------------------------------
# linear maps

def test_linear_map_apply_and_compose():
    a = gh.subspace_span([(1, 0, 0), (0, 1, 0)], 3, 2)
    b = gh.subspace_span([(0, 0, 1)], 3, 2)
    f = gh.linear_map(a, b, [(0, 0, 1), (0, 0, 0)])
    assert f.apply((1, 1, 0)) == (0, 0, 1)
    assert fo.image_subspace(f) == b
    assert fo.kernel_subspace(f).basis == ((0, 1, 0),)
    assert gh.identity_map(a).compose(f) == f

def test_linear_map_rejects_escaping_images():
    a = gh.subspace_span([(1, 0)], 2, 2)
    b = gh.subspace_span([(0, 1)], 2, 2)
    with pytest.raises(ValueError):
        gh.linear_map(a, b, [(1, 0)])

def test_inclusion_requires_containment():
    a = gh.subspace_span([(1, 0)], 2, 2)
    b = gh.subspace_span([(0, 1)], 2, 2)
    with pytest.raises(ValueError):
        gh.inclusion_map(a, b)

def test_hom_set_sizes():
    objs = lo.proper_subspaces(2, 3)
    for a in objs:
        for b in objs:
            assert sum(1 for _ in fo.all_linear_maps(a, b)) == 2 ** (a.dim * b.dim)


# ---------------------------------------------------------------------------
# serialization

def test_subspace_json_round_trip():
    for s in gh.subspaces(3, 2):
        doc = s.to_json()
        assert doc["p"] == 3 and doc["n"] == 2
        assert gh.Subspace.from_json(doc) == s

def test_endo_json_round_trip():
    e = gh.endo([[1, 0], [0, 0]], 2)
    assert e.to_json() == {"p": 2, "n": 2, "rows": [[1, 0], [0, 0]]}
    assert gh.Endo.from_json(e.to_json()) == e


# ---------------------------------------------------------------------------
# the integer-coded Sing kernel, against enumerate_endos and mat_mul

KERNEL_POINTS = [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)]

@pytest.mark.parametrize("p,n", KERNEL_POINTS)
def test_sing_table_matches_pure_python_products(p, n):
    elems, decode, table = sing_oracle.singular_endos(p, n), gf.sing_decode(p, n), gf.sing_table(p, n)
    assert elems == sing_oracle.enumerate_endos(p, n, singular_only=True)
    index = {e.rows: i for i, e in enumerate(elems)}
    assert table.shape == (len(elems), len(elems)) and table.dtype.name == "int32"
    assert not table.flags.writeable and not decode.flags.writeable
    for i, a in enumerate(elems):
        assert [index[gh.mat_mul(a.rows, b.rows, p)] for b in elems] == table[i].tolist()

@pytest.mark.parametrize("p,n", KERNEL_POINTS)
def test_sing_decode_inverts_the_base_p_code(p, n):
    elems, decode = sing_oracle.enumerate_endos(p, n, singular_only=True), gf.sing_decode(p, n)
    assert decode.dtype.name == "int32" and len(decode) == p ** (n * n)
    sing = {e.rows: i for i, e in enumerate(elems)}
    for code, e in enumerate(sing_oracle.enumerate_endos(p, n)):
        assert decode[code] == sing.get(e.rows, -1)

def test_sing_table_guards_refuse_before_enumerating(monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("enumerated before the guard refused")
    for name in ("_ranks", "_reduced", "_sing_matrices", "sing_decode"):
        monkeypatch.setattr(gf, name, enumerated)
    for refuse in (gf.sing_table, gf.check_sing_order):
        with pytest.raises(gf.GuardExceeded, match="order 45376, beyond the associativity guard 1500"):
            refuse(2, 4)
        with pytest.raises(gf.GuardExceeded, match="order 8451, beyond the associativity guard 1500"):
            refuse(3, 3)
        with pytest.raises(gf.GuardExceeded, match="endomorphism guard"):
            refuse(2, 9)


def test_sing_decode_answers_past_the_table_guard():
    # the decode array is behind the endomorphism guard only
    decode = gf.sing_decode(3, 3)
    assert np.count_nonzero(decode >= 0) == gf.singular_count(3, 3) == 8451
    assert decode[decode >= 0].tolist() == list(range(8451))
    assert gf.sing_decode(3, 3) is decode and not decode.flags.writeable
    with pytest.raises(gf.GuardExceeded, match="endomorphism guard"):
        gf.sing_decode(2, 5)

@pytest.mark.parametrize("p,n", KERNEL_POINTS)
def test_sing_table_matches_the_block_matmul_oracle(p, n):
    elems, table = sing_oracle.enumerate_endos(p, n, singular_only=True), gf.sing_table(p, n)
    want_elems, want = sing_oracle.matmul_table(p, n)
    assert elems == want_elems
    assert np.array_equal(table, want)
    assert gf._sing_matrices(p, n).tolist() == [list(map(list, e.rows)) for e in elems]

ENUMERATION_POINTS = [(p, n) for p in gf.SUPPORTED_PRIMES for n in (1, 2)] + [(2, 3), (3, 3)]

@pytest.mark.parametrize("p,n", ENUMERATION_POINTS)
def test_batched_ranks_match_the_per_matrix_rank_filter(p, n):
    assert sing_oracle.enumerate_endos(p, n, singular_only=True) == sing_oracle.singular_endos(p, n)
    autos = gf.enumerate_automorphisms(p, n)
    assert autos.dtype == np.int64 and autos.shape[1:] == (n, n) and not autos.flags.writeable
    assert gh.endos_of(autos, p) == sing_oracle.automorphisms(p, n)
    assert sing_oracle.enumerate_endos(p, n) == sing_oracle.endos(p, n)

@pytest.mark.parametrize("p,n", ENUMERATION_POINTS)
def test_endo_text_is_the_str_of_each_singular_endo(p, n):
    want = [str(e) for e in sing_oracle.enumerate_endos(p, n, singular_only=True)]
    assert gf.endo_text(gf._sing_matrices(p, n)) == want

def test_singular_count_at_2_4():
    assert len(sing_oracle.enumerate_endos(2, 4, singular_only=True)) == gf.singular_count(2, 4) == 45376
    assert len(gf.enumerate_automorphisms(2, 4)) == 2 ** 16 - 45376

def test_enumeration_makes_no_rref_call(monkeypatch):
    def rref(*args):
        raise AssertionError("rref called")
    for cached in (gf._reduced, gf._sing_matrices, sing_oracle.enumerate_endos, gf.enumerate_automorphisms,
                   gf.enumerate_subspaces):
        cached.cache_clear()
    monkeypatch.setattr(gh, "rref", rref)
    assert len(sing_oracle.enumerate_endos(5, 2, singular_only=True)) == gf.singular_count(5, 2)
    assert len(gf.enumerate_automorphisms(5, 2)) == 480
    assert len(gf.enumerate_subspaces(5, 2)) == 8

def test_dimension_must_be_positive():
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            gf.sing_table(2, n)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            sing_oracle.enumerate_endos(2, n)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            gf.enumerate_subspaces(2, n)


# ---------------------------------------------------------------------------
# the Record value types

def test_record_hash_is_the_hash_of_the_field_tuple():
    e = gh.identity_endo(2, 2)
    s = gh.Subspace(2, 2, e.rows)
    f = gh.LinearMap(s, s, e.rows)
    assert hash(e) == hash((e.p, e.n, e.rows))
    assert hash(s) == hash((s.p, s.n, s.basis))
    assert hash(f) == hash((f.dom, f.cod, f.matrix))

def test_record_equality_needs_the_same_class():
    rows = gh.identity_matrix(2)
    assert gh.Subspace(2, 2, rows) == gh.Subspace(2, 2, rows)
    assert gh.Subspace(2, 2, rows) != gh.Endo(2, 2, rows)
    assert gh.Endo(2, 2, rows) != (2, 2, rows)

def test_record_repr_and_keyword_construction():
    e = gh.Endo(p=2, n=2, rows=((1, 0), (0, 0)))
    assert e == gh.Endo(2, 2, ((1, 0), (0, 0))) == gh.Endo(2, n=2, rows=((1, 0), (0, 0)))
    assert repr(e) == "Endo(p=2, n=2, rows=((1, 0), (0, 0)))"
    assert repr(gh.Subspace(2, 1, ((1,),))) == "Subspace(p=2, n=1, basis=((1,),))"

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
        gh.Subspace(*args, **kwargs)

def test_record_is_immutable():
    e = gh.identity_endo(2, 2)
    with pytest.raises(AttributeError):
        e.rows = ()
    with pytest.raises(AttributeError):
        e.other = 1
    with pytest.raises(AttributeError):
        del e.rows
    assert e.rows == gh.identity_matrix(2)

def test_finite_semigroup_is_not_hashable():
    s = sg.from_table("ab", [[0, 0], [0, 0]])
    assert s._fields == ("elements", "table") and s.elements.index("b") == 1
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
