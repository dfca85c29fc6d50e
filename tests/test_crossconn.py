"""Cross-connections induced by automorphisms: functor actions, covering,
bifunctor sets, the linking bijection and the linked-pair semigroup.  The
claims are checked through the oracles of crossconn_oracle, and the index
decision that verify-all uses is compared with them verdict for verdict."""

import json

import numpy as np
import pytest

import crossconn_oracle as oracle
import gf_helpers as gh
import lattice_oracle as lo
import sing_oracle
from fibersemi import cli
from fibersemi import crossconn as xc
from fibersemi import gf
from fibersemi import semigroups as sg


SWAP = gh.endo([[0, 1], [1, 0]], 2)

@pytest.fixture(scope="module")
def cat22():
    return lo.build_category(2, 2)

@pytest.fixture(scope="module")
def all_eps():
    return gh.automorphisms(2, 2)


def test_rejects_singular_eps():
    with pytest.raises(ValueError):
        oracle.cross_connection(gh.endo([[1, 0], [0, 0]], 2))

def test_identity_acts_trivially(cat22):
    cc = oracle.cross_connection(gh.identity_endo(2, 2))
    for obj in cat22.objects:
        assert oracle.dual_object_image(cc, obj) == obj
        assert oracle.primal_object_image(cc, obj) == obj
        assert oracle.dual_morphism_image(cc, gh.identity_map(obj)) == gh.identity_map(obj)

def test_swap_object_maps():
    cc = oracle.cross_connection(SWAP)
    y = gh.subspace_span([(1, 0)], 2, 2)
    assert oracle.dual_object_image(cc, y) == gh.subspace_span([(0, 1)], 2, 2)
    assert oracle.primal_object_image(cc, gh.subspace_span([(1, 0)], 2, 2)) == \
        gh.subspace_span([(0, 1)], 2, 2)

def test_functoriality_checked_on_construction(all_eps):
    # identities and all composable pairs, for every automorphism
    for eps in all_eps:
        oracle.check_functorial(oracle.cross_connection(eps))

def test_conjugation_preserves_idempotents(all_eps):
    for eps in all_eps:
        cc = oracle.cross_connection(eps)
        for e in sing_oracle.enumerate_endos(2, 2, singular_only=True):
            if e * e == e:
                c = cc.conjugate(e)
                assert c * c == c

def test_conjugation_is_table_automorphism(all_eps):
    elems = sing_oracle.enumerate_endos(2, 2, singular_only=True)
    sing = sing_oracle.from_multiplication(elems, lambda a, b: a * b)
    for eps in all_eps:
        cc = oracle.cross_connection(eps)
        mapping = tuple(sing.elements.index(cc.conjugate(x)) for x in elems)
        rep = sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(sing, sing, mapping))
        assert rep.is_hom and rep.is_injective


# ---------------------------------------------------------------------------
# covering condition

def test_covering_holds_for_every_automorphism(all_eps):
    for eps in all_eps:
        rep = oracle.verify_cross_connection(oracle.cross_connection(eps))
        assert rep.covering_ok and rep.inclusion_ok and rep.hom_injective_ok

def test_covering_witness_example(cat22):
    cc = oracle.cross_connection(gh.identity_endo(2, 2))
    rep = oracle.verify_cross_connection(cc)
    witness = dict(rep.witnesses)
    a = gh.subspace_span([(1, 0)], 2, 2)
    y = witness[a]
    _, pre = oracle.functor_m_set(cc, cat22, y)
    assert gh.is_direct_sum(a, pre)

def test_zero_subspace_witnessed_by_zero_dual(cat22):
    cc = oracle.cross_connection(gh.identity_endo(2, 2))
    mset, pre = oracle.functor_m_set(cc, cat22, gh.zero_subspace(2, 2))
    assert pre == gh.full_space(2, 2)
    assert mset == (gh.zero_subspace(2, 2),)

def test_covering_sampled_at_2_3():
    eps = gh.endo([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2)
    cc = oracle.cross_connection(eps)
    cat = lo.build_category(2, 3)
    for a in cat.objects:
        assert any(
            a in oracle.functor_m_set(cc, cat, y)[0] for y in cat.objects
        )

def test_functoriality_sampled_at_2_3():
    import random
    eps = gh.endo([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 2)
    cc = oracle.cross_connection(eps)
    cat = lo.build_category(2, 3)
    rng = random.Random(3)
    for _ in range(300):
        x, y, z = (rng.choice(cat.objects) for _ in range(3))
        f = gh.LinearMap(x, y, tuple(
            tuple(rng.randrange(2) for _ in range(y.dim)) for _ in range(x.dim)))
        g = gh.LinearMap(y, z, tuple(
            tuple(rng.randrange(2) for _ in range(z.dim)) for _ in range(y.dim)))
        assert oracle.dual_morphism_image(cc, f.compose(g)) == \
            oracle.dual_morphism_image(cc, f).compose(oracle.dual_morphism_image(cc, g))
        assert oracle.primal_morphism_image(cc, f.compose(g)) == \
            oracle.primal_morphism_image(cc, f).compose(oracle.primal_morphism_image(cc, g))
        assert oracle.dual_morphism_image(cc, gh.identity_map(x)) == \
            gh.identity_map(oracle.dual_object_image(cc, x))


# ---------------------------------------------------------------------------
# bifunctor sets and the linking bijection

def test_zero_object_first_set_is_zero_map(cat22):
    cc = oracle.cross_connection(gh.identity_endo(2, 2))
    zero = gh.zero_subspace(2, 2)
    for y in cat22.objects:
        first, _ = oracle.bifunctor_sets(cc, zero, y)
        assert first == (gh.zero_endo(2, 2),)

def test_zero_map_membership(cat22):
    cc = oracle.cross_connection(gh.identity_endo(2, 2))
    full_dual = max(cat22.objects, key=lambda o: o.dim)
    for a in cat22.objects:
        first, _ = oracle.bifunctor_sets(cc, a, full_dual)
        assert gh.zero_endo(2, 2) in first

def test_set_sizes_match_under_kernel_mode(cat22, all_eps):
    for eps in all_eps:
        cc = oracle.cross_connection(eps)
        for a in cat22.objects:
            for y in cat22.objects:
                first, second = oracle.bifunctor_sets(cc, a, y, mode="kernel")
                assert len(first) == len(second)

def test_linking_bijection_kernel_mode_everywhere(cat22, all_eps):
    for eps in all_eps:
        cc = oracle.cross_connection(eps)
        for a in cat22.objects:
            for y in cat22.objects:
                rep = oracle.linking_bijection(cc, a, y, mode="kernel")
                assert rep.bijective, (eps, a.basis, y.basis)

def test_linking_round_trip(cat22, all_eps):
    for eps in all_eps:
        cc = oracle.cross_connection(eps)
        inv = oracle.cross_connection(eps.inverse())
        for a in cat22.objects:
            for y in cat22.objects:
                rep = oracle.linking_bijection(cc, a, y)
                for x, img in rep.pairs:
                    assert inv.conjugate(img) == x

def test_literal_image_mode_fails_bijectivity(cat22, all_eps):
    """The transcription constraining the annihilator of the image of the
    first argument breaks the bijection on some object pairs; this pins the
    kernel reading as the shipped default."""
    failures = 0
    for eps in all_eps:
        cc = oracle.cross_connection(eps)
        for a in cat22.objects:
            for y in cat22.objects:
                if not oracle.linking_bijection(cc, a, y, mode="image").bijective:
                    failures += 1
    assert failures > 0

def test_unknown_mode_rejected(cat22):
    cc = oracle.cross_connection(gh.identity_endo(2, 2))
    with pytest.raises(ValueError):
        oracle.bifunctor_sets(cc, cat22.objects[0], cat22.objects[0], mode="guess")

def test_identity_linking_is_identity(cat22):
    cc = oracle.cross_connection(gh.identity_endo(2, 2))
    for a in cat22.objects:
        for y in cat22.objects:
            rep = oracle.linking_bijection(cc, a, y)
            assert all(x == img for x, img in rep.pairs)

def test_swap_conjugation_example():
    cc = oracle.cross_connection(SWAP)
    assert cc.conjugate(gh.endo([[1, 0], [0, 0]], 2)) == gh.endo([[0, 0], [0, 1]], 2)


# ---------------------------------------------------------------------------
# the linked-pair semigroup

def test_order_is_singular_count(all_eps):
    for eps in all_eps:
        assert oracle.build_cross_conn_semigroup(eps).order == 10

def test_second_coordinates_follow_conjugation(all_eps):
    for eps in all_eps:
        s = oracle.build_cross_conn_semigroup(eps)
        cc = oracle.cross_connection(eps)
        for pr in s.pairs:
            assert pr.second == cc.conjugate(pr.first)
        # product's second coordinate is the conjugate of the first product
        for pa in s.pairs:
            for pb in s.pairs:
                k = s.semigroup.table[s.semigroup.elements.index((pa.first.rows, pa.second.rows))][
                    s.semigroup.elements.index((pb.first.rows, pb.second.rows))]
                first_rows, second_rows = s.semigroup.elements[k]
                assert first_rows == (pa.first * pb.first).rows
                assert second_rows == cc.conjugate(pa.first * pb.first).rows

def test_first_projection_is_isomorphism(all_eps):
    elems = sing_oracle.enumerate_endos(2, 2, singular_only=True)
    sing = sing_oracle.from_multiplication(elems, lambda a, b: a * b)
    for eps in all_eps:
        s = oracle.build_cross_conn_semigroup(eps)
        mapping = tuple(sing.elements.index(gh.Endo(2, 2, lbl[0])) for lbl in s.semigroup.elements)
        rep = sing_oracle.verify_morphism(sing_oracle.SemigroupMorphism(s.semigroup, sing, mapping))
        assert rep.is_hom and rep.is_injective

def test_linked_pair_semigroup_is_regular_with_matching_green(all_eps):
    elems = sing_oracle.enumerate_endos(2, 2, singular_only=True)
    sing = sing_oracle.from_multiplication(elems, lambda a, b: a * b)
    ref = sing_oracle.green_relations(sing)

    def shape(green):
        out = []
        for d in green.d_classes:
            dset = set(d)
            rs = [c for c in green.r_classes if set(c) <= dset]
            ls = [c for c in green.l_classes if set(c) <= dset]
            hs = sorted(len(set(c) & dset) for c in green.h_classes if set(c) <= dset)
            out.append((len(d), len(rs), len(ls), tuple(hs)))
        return sorted(out)

    for eps in all_eps:
        s = oracle.build_cross_conn_semigroup(eps)
        assert sg.is_regular(s.semigroup)
        assert shape(sing_oracle.green_relations(s.semigroup)) == shape(ref)

def test_crossconn_json_shape():
    [doc] = json.loads(xc.linked_pairs_json(xc.linked_pairs(2, 2, gh.stack([SWAP]))))
    assert doc["eps"]["rows"] == [[0, 1], [1, 0]]
    assert len(doc["elements"]) == 10 and len(doc["table"]) == 10
    assert doc["elements"][0].keys() == {"first", "second"}


# ---------------------------------------------------------------------------
# the conjugation permutations of the integer-coded kernel

def _perms_agree_with_conjugate(autos):
    elems = sing_oracle.enumerate_endos(autos[0].p, autos[0].n, singular_only=True)
    perms = xc.conjugations(autos[0].p, autos[0].n, gh.stack(autos)).perms
    for eps, perm in zip(autos, perms):
        cc = oracle.cross_connection(eps)
        assert [elems[k] for k in perm.tolist()] == [cc.conjugate(a) for a in elems]

@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_conjugation_perm_matches_conjugate_everywhere(p, n):
    _perms_agree_with_conjugate(gh.automorphisms(p, n))

def test_conjugation_perm_matches_conjugate_at_2_3():
    autos = gh.automorphisms(2, 3)
    _perms_agree_with_conjugate((autos[0], autos[1], autos[len(autos) // 2], autos[-1]))

def test_conjugation_law_check_is_live():
    table = gf.sing_table(2, 3)
    eps = gh.automorphisms(2, 3)[-1]
    perm = oracle.conjugation_perm(eps)
    oracle.check_conjugation_law(table, perm[None])
    # index 0 is the zero map, which every automorphism fixes
    broken = perm.copy()
    broken[[0, 1]] = broken[[1, 0]]
    with pytest.raises(AssertionError, match="conjugation law"):
        oracle.check_conjugation_law(table, broken[None])
    with pytest.raises(AssertionError, match="not a permutation"):
        oracle.check_conjugation_law(table, perm[None] * 0)

# ---------------------------------------------------------------------------
# the batch of automorphisms against the per-automorphism forms

def _law_error(table, perms):
    """What the oracle's check_conjugation_law raises for the stack, as
    (type, message)."""
    try:
        oracle.check_conjugation_law(table, perms)
    except AssertionError as exc:
        return type(exc), str(exc)
    return None


def _per_eps_law_error(table, perms):
    """The same from the per-automorphism loop: the first row's error."""
    for perm in perms:
        exc = oracle.conjugation_law_error(table, perm)
        if exc is not None:
            return type(exc), str(exc)
    return None


def _break(perm, i, j):
    broken = perm.copy()
    broken[[i, j]] = broken[[j, i]]
    return broken


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_batch_matches_the_per_eps_forms(p, n):
    autos = gh.automorphisms(p, n)
    table = gf.sing_table(p, n)
    conj = xc.conjugations(p, n, gf.enumerate_automorphisms(p, n))
    assert conj.inverts.all()
    assert [tuple(map(tuple, m)) for m in conj.inv.tolist()] == [eps.inverse().rows for eps in autos]
    assert np.array_equal(conj.perms, [oracle.conjugation_perm(eps) for eps in autos])
    assert conj.permutes.all()
    assert _law_error(table, conj.perms) is None is _per_eps_law_error(table, conj.perms)
    # one broken permutation per automorphism, decided alone and in the stack
    broken = np.array([_break(perm, 1, 2) for perm in conj.perms])
    for perm in broken:
        want = _per_eps_law_error(table, perm[None])
        assert want is not None and _law_error(table, perm[None]) == want
    assert _law_error(table, broken) == _per_eps_law_error(table, broken)


def _mutant_stacks(p, n):
    """(k, later, stack): the conjugation permutations with the law broken,
    or no permutation left, at the k-th automorphism and at a later one,
    the two in one chunk or in chunks of their own; then with one broken
    row only (later None), at each of the first 12 and at the last."""
    perms = xc.conjugations(p, n, gf.enumerate_automorphisms(p, n)).perms
    out = []
    for k, later in [(3, 4), (3, 40), (0, len(perms) - 1)]:
        for how in ("law", "law-then-perm", "perm-then-law"):
            stack = perms.copy()
            stack[k] = stack[k] * 0 if how == "perm-then-law" else _break(stack[k], 1, 2)
            stack[later] = stack[later] * 0 if how == "law-then-perm" else _break(stack[later], 3, 5)
            out.append((k, later, stack))
    for k in [*range(12), len(perms) - 1]:
        for broken in (_break(perms[k], 1, 2), perms[k] * 0):
            stack = perms.copy()
            stack[k] = broken
            out.append((k, None, stack))
    return out


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_law_error_names_the_first_failing_automorphism(p, n):
    table = gf.sing_table(p, n)
    for k, later, stack in _mutant_stacks(p, n):
        got = _law_error(table, stack)
        assert got == _per_eps_law_error(table, stack) == _law_error(table, stack[k:k + 1])
        if later is not None:
            assert _law_error(table, stack[later:later + 1]) not in (None, got)


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_one_automorphism_per_chunk_changes_nothing(monkeypatch, p, n):
    autos = gf.enumerate_automorphisms(p, n)
    table = gf.sing_table(p, n)
    want = xc.conjugations(p, n, autos)
    errors = [_law_error(table, stack) for _, _, stack in _mutant_stacks(p, n)]
    monkeypatch.setattr(gf, "TABLE_BLOCK_CELLS", 1)
    got = xc.conjugations(p, n, autos)
    for k in ("eps", "inv", "inverts", "perms", "permutes"):
        assert np.array_equal(getattr(got, k), getattr(want, k)), k
    assert [_law_error(table, stack) for _, _, stack in _mutant_stacks(p, n)] == errors
    assert _law_error(table, got.perms) is None


def test_linked_pairs_refuse_a_singular_eps():
    singular = gh.endo([[1, 0], [0, 0]], 2)
    for eps in ([singular], [SWAP, singular], [singular, SWAP]):
        with pytest.raises(ValueError, match="^cross-connections require an invertible endomorphism$"):
            xc.linked_pairs(2, 2, gh.stack(eps))
    with pytest.raises(ValueError, match="^cross-connections require an invertible endomorphism$"):
        oracle.build_cross_conn_semigroup(singular)


def test_linked_pairs_share_the_sing_table(all_eps):
    sing = sing_oracle.sing_semigroup(2, 2)
    for eps in all_eps:
        s = oracle.build_cross_conn_semigroup(eps)
        assert s.semigroup.table is sing.table
        assert [pr.first for pr in s.pairs] == list(sing.elements)

def test_inverse_computed_once_per_connection():
    cc = oracle.cross_connection(SWAP)
    assert cc.eps_inv is cc.eps_inv


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_tracer_hook_conjugates_as_the_batch_does(p, n):
    # crossconn.CrossConnection is the point perfbench/tracer.py wraps: its
    # conjugate, on one element or on all of Sing, is the batch's permutation
    sing, autos = gf._sing_matrices(p, n), gf.enumerate_automorphisms(p, n)
    perms = xc.conjugations(p, n, autos).perms
    for eps, perm in zip(autos, perms):
        cc = xc.CrossConnection(p, eps)
        assert np.array_equal(cc.conjugate(sing), sing[perm])
        assert all(np.array_equal(cc.conjugate(x), sing[k]) for x, k in zip(sing, perm))
        assert cc.eps_inv is cc.eps_inv
    singular = np.zeros((n, n), dtype=np.int64)
    singular[0, 0] = 1
    with pytest.raises(ValueError, match="^endomorphism is singular$"):
        xc.CrossConnection(p, singular).conjugate(sing[0])


# ---------------------------------------------------------------------------
# the index decision against the Subspace-object and full-table oracles

AUTOS_3_2 = gh.automorphisms(3, 2)
AUTOS_2_3 = gh.automorphisms(2, 3)


def _index_verdicts(eps):
    """(functorial, covering and inclusion, linking bijective) as verify-all
    decides them."""
    p, n = eps.p, eps.n
    conj = xc.conjugations(p, n, gh.stack([eps]))
    if not conj.inverts[0]:
        return False, None, None
    e_obj, et_obj = xc.object_actions(p, n, conj.eps[0])
    return True, xc.covers(p, n, et_obj), xc.link_failure(p, n, conj.perms[0], e_obj, et_obj) is None


def _oracle_verdicts(eps):
    cc = oracle.cross_connection(eps)
    cat = lo.build_category(eps.p, eps.n)
    cov = oracle.verify_cross_connection(cc)
    linked = all(oracle.linking_bijection(cc, a, y).bijective
                 for a in cat.objects for y in cat.objects)
    return cov.hom_injective_ok, cov.covering_ok and cov.inclusion_ok, linked


@pytest.mark.parametrize("eps", gh.automorphisms(2, 2) + AUTOS_3_2
                         + (AUTOS_2_3[1], AUTOS_2_3[-1]), ids=str)
def test_index_decision_agrees_with_oracle(eps):
    assert _index_verdicts(eps) == _oracle_verdicts(eps) == (True, True, True)


def _index_sets(p, n, images, e_obj, et_obj, ai, yi):
    """The bifunctor sets at objects (ai, yi) as link_failure reads them,
    through images = (img, timg), as masks over Sing order."""
    c, (img, timg) = gf.subspace_lattice(p, n).contains, images
    first = c[ai, img] & c[et_obj[yi], timg]
    second = c[yi, timg] & c[e_obj[ai], img]
    return first, second


def _sets_match_oracle(eps, images=None):
    """Whether the bifunctor sets at every object pair, read through images
    (gf.sing_images by default), are the oracle's, element for element."""
    p, n = eps.p, eps.n
    images = gf.sing_images(p, n) if images is None else images
    elems = sing_oracle.enumerate_endos(p, n, singular_only=True)
    cc = oracle.cross_connection(eps)
    e_obj, et_obj = xc.object_actions(p, n, np.array(eps.rows))
    objects = lo.proper_subspaces(p, n)
    for ai, a in enumerate(objects):
        for yi, y in enumerate(objects):
            got = _index_sets(p, n, images, e_obj, et_obj, ai, yi)
            want = oracle.bifunctor_sets(cc, a, y)
            if tuple(tuple(elems[i] for i in np.flatnonzero(m)) for m in got) != want:
                return False
    return True


def test_index_bifunctor_sets_match_oracle():
    for p, n in [(2, 2), (3, 2)]:
        for eps in gh.automorphisms(p, n):
            assert _sets_match_oracle(eps), eps


@pytest.mark.parametrize("p,n,step", [(2, 2, 1), (3, 2, 1), (5, 2, 1), (2, 3, 41), (7, 2, 401)])
def test_object_actions_match_oracle_object_images(p, n, step):
    subspaces = gh.subspaces(p, n)
    objects = subspaces[:-1]
    for eps in gh.automorphisms(p, n)[::step]:
        cc = oracle.cross_connection(eps)
        e_obj, et_obj = xc.object_actions(p, n, np.array(eps.rows))
        assert [subspaces[i] for i in e_obj] == [oracle.primal_object_image(cc, x) for x in objects]
        assert [subspaces[i] for i in et_obj] == [oracle.dual_object_image(cc, x) for x in objects]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_annihilator_of_kernel_is_image_of_transpose(p, n):
    """ann(ker x) = im(x^T) for x acting on row vectors, which lets
    gf.sing_images keep two per-element arrays; both are checked against
    Subspace objects."""
    subspaces, (img, timg) = gh.subspaces(p, n), gf.sing_images(p, n)
    for i, x in enumerate(sing_oracle.enumerate_endos(p, n, singular_only=True)):
        t_image = gh.image(gh.transpose(x))
        assert gh.annihilator(gh.kernel(x)) == t_image == subspaces[timg[i]]
        assert gh.image(x) == subspaces[img[i]]


@pytest.mark.parametrize("eps", gh.automorphisms(2, 2) + AUTOS_3_2[::9], ids=str)
def test_functoriality_by_restriction_inverses_agrees_with_oracle(eps):
    oracle.check_functorial(oracle.cross_connection(eps))
    assert xc.conjugations(eps.p, eps.n, gh.stack([eps])).inverts.tolist() == [True]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_the_conjugation_reduction_holds_on_the_table(p, n):
    # conjugations states the law as a reduction from E.E^-1 = I; the
    # oracle's law on Sing's table, whose associativity Light's test
    # decides, agrees at every automorphism
    table = sing_oracle.sing_semigroup(p, n).table
    conj = xc.conjugations(p, n, gf.enumerate_automorphisms(p, n))
    assert conj.inverts.all() and conj.permutes.all()
    oracle.check_conjugation_law(table, conj.perms)
    with pytest.raises(AssertionError, match="conjugation law"):
        oracle.check_conjugation_law(table, _break(conj.perms[-1], 1, 2)[None])


def test_permutes_marks_each_row_that_is_no_permutation(monkeypatch):
    # a singular eps sends Sing into the maps that kill its kernel, so its
    # row is no permutation; one sort per chunk, so chunks of one
    # automorphism change nothing
    singular = gh.endo([[1, 0], [0, 0]], 3)
    eps = gh.stack([gh.automorphisms(3, 2)[5], singular, gh.identity_endo(3, 2)])
    for cells in (gf.TABLE_BLOCK_CELLS, 1):
        monkeypatch.setattr(gf, "TABLE_BLOCK_CELLS", cells)
        conj = xc.conjugations(3, 2, eps)
        assert conj.permutes.tolist() == [True, False, True] == conj.inverts.tolist()
        assert [np.array_equal(np.sort(r), np.arange(33)) for r in conj.perms] == [True, False, True]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_generator_conjugation_law_agrees_with_full_table(p, n):
    table = gf.sing_table(p, n)
    assert len(sg._generators(table)) < len(table)
    perms = xc.conjugations(p, n, gf.enumerate_automorphisms(p, n)).perms
    for perm in perms:
        assert oracle.automorphism_witness(table, perm) is None
    oracle.check_conjugation_law(table, perms)


def test_generator_conjugation_law_rejects_every_transposition(all_eps):
    table = gf.sing_table(2, 2)
    for eps in all_eps:
        perm = oracle.conjugation_perm(eps)
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                broken = perm.copy()
                broken[[i, j]] = broken[[j, i]]
                assert oracle.automorphism_witness(table, broken) is not None
                with pytest.raises(AssertionError, match="conjugation law"):
                    oracle.check_conjugation_law(table, broken[None])


# mutations of the decision, each of which the check must catch

BROKEN_AT = 3


def _plant(monkeypatch, inverts_at=None, covers_at=None, links_at=None):
    """verify-all's cross-connection check at (3,2) with the conjugation of
    the automorphism BROKEN_AT no permutation (two elements sent to one) and,
    if given, functoriality, covering or linking failing at the automorphism
    of the given index."""
    real = xc.conjugations

    def conjugations(p, n, eps):
        conj = real(p, n, eps)
        perms, inverts, permutes = conj.perms.copy(), conj.inverts.copy(), conj.permutes.copy()
        perms[BROKEN_AT, 2] = perms[BROKEN_AT, 1]
        permutes[BROKEN_AT] = False
        if inverts_at is not None:
            inverts[inverts_at] = False
        return xc.Conjugations(conj.p, conj.n, conj.eps, conj.inv, inverts, perms, permutes)

    def failing_at(at, fn, failed):
        calls = []

        def planted(*args):
            calls.append(None)
            return failed if len(calls) == at + 1 else fn(*args)
        return planted

    monkeypatch.setattr(xc, "conjugations", conjugations)
    if covers_at is not None:
        monkeypatch.setattr(xc, "covers", failing_at(covers_at, xc.covers, False))
    if links_at is not None:
        monkeypatch.setattr(xc, "link_failure", failing_at(links_at, lambda *args: None, (1, 2)))
    subspaces = gh.subspaces(3, 2)
    return subspaces[1], subspaces[2]


@pytest.mark.parametrize("planted,witness", [
    ({}, None),
    ({"links_at": BROKEN_AT}, None),
    ({"covers_at": BROKEN_AT + 2}, None),
    ({"covers_at": 1}, (1, "covering")),
    ({"covers_at": BROKEN_AT}, (BROKEN_AT, "covering")),
    ({"inverts_at": BROKEN_AT}, (BROKEN_AT, "functoriality")),
    ({"links_at": 2}, (2, "link")),
], ids=["law", "law-before-linking", "law-before-later-covering", "earlier-covering",
        "covering-before-law", "functoriality-before-law", "earlier-linking"])
def test_cross_connection_failures_come_in_loop_order(monkeypatch, planted, witness):
    # At each automorphism: functoriality, covering, that the conjugation is
    # a permutation, linking; the first failure in that order is the check's
    # verdict.  "law" in the ids is the planted non-permutation, the part of
    # the conjugation law that is left to decide (xc.conjugations).
    autos = gh.automorphisms(3, 2)
    a, y = _plant(monkeypatch, **planted)
    if witness is None:
        with pytest.raises(AssertionError, match="^not a permutation of the element indices$"):
            cli._check_cross_connections(3, 2)
        return
    at, failure = witness
    eps = autos[at].to_json()
    expected = {"eps": eps, "a": a.to_json(), "y": y.to_json()} if failure == "link" else {"eps": eps, "failure": failure}
    assert cli._check_cross_connections(3, 2) == expected


def _check_fails(p=2, n=2):
    try:
        return cli._check_cross_connections(p, n) is not None
    except (AssertionError, ValueError):
        return True


def test_image_reading_of_annker_is_caught():
    # Reading ann(ker x) as ann(im x) in gf.sing_images' timg: the runtime
    # check alone cannot see it, because the mutant is consistent with
    # itself on both sides of the link, but the bifunctor sets no longer
    # match the oracle.
    img, _ = gf.sing_images(2, 2)
    mutant = img, gf.subspace_lattice(2, 2).ann[img]
    assert not all(_sets_match_oracle(eps, mutant) for eps in gh.automorphisms(2, 2))


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2)])
def test_transpose_image_read_as_image_is_caught(monkeypatch, p, n):
    img, _ = gf.sing_images(p, n)
    monkeypatch.setattr(gf, "sing_images", lambda p, n: (img, img))
    assert _check_fails(p, n)


def test_swapped_dual_object_action_is_caught(monkeypatch):
    real = xc.object_actions

    def swapped(*args):
        e_obj, et_obj = real(*args)
        et_obj = et_obj.copy()
        et_obj[[1, 2]] = et_obj[[2, 1]]   # two lines: inclusion and covering still hold
        return e_obj, et_obj

    monkeypatch.setattr(xc, "object_actions", swapped)
    assert _check_fails()


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_primal_action_through_the_transpose_is_caught(monkeypatch, p, n):
    real = xc.object_actions

    def through_transpose(*args):
        _, et_obj = real(*args)
        return et_obj, et_obj   # x.eps_t in place of x.eps

    monkeypatch.setattr(xc, "object_actions", through_transpose)
    assert _check_fails(p, n)


def test_wrong_inverse_fails_functoriality(monkeypatch):
    # eps in place of eps^-1 is right only for the involutions
    monkeypatch.setattr(gf, "inverse_stack", lambda mats, p: mats)
    witness = cli._check_cross_connections(2, 2)
    assert witness["failure"] == "functoriality"
    eps = gh.Endo.from_json(witness["eps"])
    assert eps * eps != gh.identity_endo(2, 2)


def test_cross_connections_build_no_linear_map():
    """The check reads the lattice and gf's lookups only: no LinearMap, no
    Subspace record and no subspace span (which live in the tests'
    gf_helpers, not in the package), so the per-object restrictions cannot
    come back unnoticed."""
    for name in ("LinearMap", "linear_map", "Subspace", "subspace_span", "rref"):
        assert not hasattr(gf, name), name
    assert cli._check_cross_connections(3, 2) is None
