"""Cross-connections induced by automorphisms: functor actions, covering,
bifunctor sets, the linking bijection and the linked-pair semigroup.  The
claims are checked through the oracles of crossconn_oracle, and the index
decision that verify-all uses is compared with them verdict for verdict."""

import numpy as np
import pytest

import crossconn_oracle as oracle
import gf_helpers as gh
from fibersemi import cli
from fibersemi import crossconn as xc
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi import subspace_category as sc


SWAP = gf.endo([[0, 1], [1, 0]], 2)

@pytest.fixture(scope="module")
def cat22():
    return sc.build_category(2, 2)

@pytest.fixture(scope="module")
def all_eps():
    return gf.enumerate_automorphisms(2, 2)


def test_rejects_singular_eps():
    with pytest.raises(ValueError):
        xc.cross_connection(gf.endo([[1, 0], [0, 0]], 2))

def test_identity_acts_trivially(cat22):
    cc = xc.cross_connection(gf.identity_endo(2, 2))
    for obj in cat22.objects:
        assert oracle.dual_object_image(cc, obj) == obj
        assert oracle.primal_object_image(cc, obj) == obj
        assert oracle.dual_morphism_image(cc, gf.identity_map(obj)) == gf.identity_map(obj)

def test_swap_object_maps():
    cc = xc.cross_connection(SWAP)
    y = gf.subspace_span([(1, 0)], 2, 2)
    assert oracle.dual_object_image(cc, y) == gf.subspace_span([(0, 1)], 2, 2)
    assert oracle.primal_object_image(cc, gf.subspace_span([(1, 0)], 2, 2)) == \
        gf.subspace_span([(0, 1)], 2, 2)

def test_functoriality_checked_on_construction(all_eps):
    # identities and all composable pairs, for every automorphism
    for eps in all_eps:
        oracle.check_functorial(xc.cross_connection(eps))

def test_conjugation_preserves_idempotents(all_eps):
    for eps in all_eps:
        cc = xc.cross_connection(eps)
        for e in gf.enumerate_endos(2, 2, singular_only=True):
            if e * e == e:
                c = cc.conjugate(e)
                assert c * c == c

def test_conjugation_is_table_automorphism(all_eps):
    elems = gf.enumerate_endos(2, 2, singular_only=True)
    sing = sg.from_multiplication(elems, lambda a, b: a * b)
    for eps in all_eps:
        cc = xc.cross_connection(eps)
        mapping = tuple(sing.index(cc.conjugate(x)) for x in elems)
        rep = sg.verify_morphism(sg.SemigroupMorphism(sing, sing, mapping))
        assert rep.is_hom and rep.is_injective


# ---------------------------------------------------------------------------
# covering condition

def test_covering_holds_for_every_automorphism(all_eps):
    for eps in all_eps:
        rep = oracle.verify_cross_connection(xc.cross_connection(eps))
        assert rep.covering_ok and rep.inclusion_ok and rep.hom_injective_ok

def test_covering_witness_example(cat22):
    cc = xc.cross_connection(gf.identity_endo(2, 2))
    rep = oracle.verify_cross_connection(cc)
    witness = dict(rep.witnesses)
    a = gf.subspace_span([(1, 0)], 2, 2)
    y = witness[a]
    _, pre = oracle.functor_m_set(cc, cat22, y)
    assert gf.is_direct_sum(a, pre)

def test_zero_subspace_witnessed_by_zero_dual(cat22):
    cc = xc.cross_connection(gf.identity_endo(2, 2))
    mset, pre = oracle.functor_m_set(cc, cat22, gf.zero_subspace(2, 2))
    assert pre == gh.full_space(2, 2)
    assert mset == (gf.zero_subspace(2, 2),)

def test_covering_sampled_at_2_3():
    eps = gf.endo([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2)
    cc = xc.cross_connection(eps)
    cat = sc.build_category(2, 3)
    for a in cat.objects:
        assert any(
            a in oracle.functor_m_set(cc, cat, y)[0] for y in cat.objects
        )

def test_functoriality_sampled_at_2_3():
    import random
    eps = gf.endo([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 2)
    cc = xc.cross_connection(eps)
    cat = sc.build_category(2, 3)
    rng = random.Random(3)
    for _ in range(300):
        x, y, z = (rng.choice(cat.objects) for _ in range(3))
        f = gf.LinearMap(x, y, tuple(
            tuple(rng.randrange(2) for _ in range(y.dim)) for _ in range(x.dim)))
        g = gf.LinearMap(y, z, tuple(
            tuple(rng.randrange(2) for _ in range(z.dim)) for _ in range(y.dim)))
        assert oracle.dual_morphism_image(cc, f.compose(g)) == \
            oracle.dual_morphism_image(cc, f).compose(oracle.dual_morphism_image(cc, g))
        assert oracle.primal_morphism_image(cc, f.compose(g)) == \
            oracle.primal_morphism_image(cc, f).compose(oracle.primal_morphism_image(cc, g))
        assert oracle.dual_morphism_image(cc, gf.identity_map(x)) == \
            gf.identity_map(oracle.dual_object_image(cc, x))


# ---------------------------------------------------------------------------
# bifunctor sets and the linking bijection

def test_zero_object_first_set_is_zero_map(cat22):
    cc = xc.cross_connection(gf.identity_endo(2, 2))
    zero = gf.zero_subspace(2, 2)
    for y in cat22.objects:
        first, _ = oracle.bifunctor_sets(cc, zero, y)
        assert first == (gh.zero_endo(2, 2),)

def test_zero_map_membership(cat22):
    cc = xc.cross_connection(gf.identity_endo(2, 2))
    full_dual = max(cat22.objects, key=lambda o: o.dim)
    for a in cat22.objects:
        first, _ = oracle.bifunctor_sets(cc, a, full_dual)
        assert gh.zero_endo(2, 2) in first

def test_set_sizes_match_under_kernel_mode(cat22, all_eps):
    for eps in all_eps:
        cc = xc.cross_connection(eps)
        for a in cat22.objects:
            for y in cat22.objects:
                first, second = oracle.bifunctor_sets(cc, a, y, mode="kernel")
                assert len(first) == len(second)

def test_linking_bijection_kernel_mode_everywhere(cat22, all_eps):
    for eps in all_eps:
        cc = xc.cross_connection(eps)
        for a in cat22.objects:
            for y in cat22.objects:
                rep = oracle.linking_bijection(cc, a, y, mode="kernel")
                assert rep.bijective, (eps, a.basis, y.basis)

def test_linking_round_trip(cat22, all_eps):
    for eps in all_eps:
        cc = xc.cross_connection(eps)
        inv = xc.cross_connection(eps.inverse())
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
        cc = xc.cross_connection(eps)
        for a in cat22.objects:
            for y in cat22.objects:
                if not oracle.linking_bijection(cc, a, y, mode="image").bijective:
                    failures += 1
    assert failures > 0

def test_unknown_mode_rejected(cat22):
    cc = xc.cross_connection(gf.identity_endo(2, 2))
    with pytest.raises(ValueError):
        oracle.bifunctor_sets(cc, cat22.objects[0], cat22.objects[0], mode="guess")

def test_identity_linking_is_identity(cat22):
    cc = xc.cross_connection(gf.identity_endo(2, 2))
    for a in cat22.objects:
        for y in cat22.objects:
            rep = oracle.linking_bijection(cc, a, y)
            assert all(x == img for x, img in rep.pairs)

def test_swap_conjugation_example():
    cc = xc.cross_connection(SWAP)
    assert cc.conjugate(gf.endo([[1, 0], [0, 0]], 2)) == gf.endo([[0, 0], [0, 1]], 2)


# ---------------------------------------------------------------------------
# the linked-pair semigroup

def test_order_is_singular_count(all_eps):
    for eps in all_eps:
        assert xc.build_cross_conn_semigroup(eps).order == 10

def test_second_coordinates_follow_conjugation(all_eps):
    for eps in all_eps:
        s = xc.build_cross_conn_semigroup(eps)
        cc = xc.cross_connection(eps)
        for pr in s.pairs:
            assert pr.second == cc.conjugate(pr.first)
        # product's second coordinate is the conjugate of the first product
        for pa in s.pairs:
            for pb in s.pairs:
                k = s.semigroup.table[s.semigroup.index((pa.first.rows, pa.second.rows))][
                    s.semigroup.index((pb.first.rows, pb.second.rows))]
                first_rows, second_rows = s.semigroup.elements[k]
                assert first_rows == (pa.first * pb.first).rows
                assert second_rows == cc.conjugate(pa.first * pb.first).rows

def test_first_projection_is_isomorphism(all_eps):
    elems = gf.enumerate_endos(2, 2, singular_only=True)
    sing = sg.from_multiplication(elems, lambda a, b: a * b)
    for eps in all_eps:
        s = xc.build_cross_conn_semigroup(eps)
        mapping = tuple(sing.index(gf.Endo(2, 2, lbl[0])) for lbl in s.semigroup.elements)
        rep = sg.verify_morphism(sg.SemigroupMorphism(s.semigroup, sing, mapping))
        assert rep.is_hom and rep.is_injective

def test_linked_pair_semigroup_is_regular_with_matching_green(all_eps):
    elems = gf.enumerate_endos(2, 2, singular_only=True)
    sing = sg.from_multiplication(elems, lambda a, b: a * b)
    ref = sg.green_relations(sing)

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
        s = xc.build_cross_conn_semigroup(eps)
        assert sg.is_regular(s.semigroup)
        assert shape(sg.green_relations(s.semigroup)) == shape(ref)

def test_crossconn_json_shape():
    s = xc.build_cross_conn_semigroup(SWAP)
    doc = s.to_json()
    assert doc["eps"]["rows"] == [[0, 1], [1, 0]]
    assert len(doc["elements"]) == 10 and len(doc["table"]) == 10
    assert doc["elements"][0].keys() == {"first", "second"}


# ---------------------------------------------------------------------------
# the conjugation permutation of the integer-coded kernel

def _perm_agrees_with_conjugate(eps):
    cc = xc.cross_connection(eps)
    elems, _, _ = gf.sing_table(eps.p, eps.n)
    perm = gf.sing_conjugation(cc.eps_inv, eps)
    assert [elems[k] for k in perm.tolist()] == [cc.conjugate(a) for a in elems]

@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_conjugation_perm_matches_conjugate_everywhere(p, n):
    for eps in gf.enumerate_automorphisms(p, n):
        _perm_agrees_with_conjugate(eps)

def test_conjugation_perm_matches_conjugate_at_2_3():
    autos = gf.enumerate_automorphisms(2, 3)
    for eps in (autos[0], autos[1], autos[len(autos) // 2], autos[-1]):
        _perm_agrees_with_conjugate(eps)

def test_conjugation_law_check_is_live():
    _, _, table = gf.sing_table(2, 3)
    eps = gf.enumerate_automorphisms(2, 3)[-1]
    perm = gf.sing_conjugation(eps.inverse(), eps)
    xc.check_conjugation_law(table, perm)
    # index 0 is the zero map, which every automorphism fixes
    broken = perm.copy()
    broken[[0, 1]] = broken[[1, 0]]
    with pytest.raises(AssertionError, match="conjugation law"):
        xc.check_conjugation_law(table, broken)
    with pytest.raises(ValueError, match="not a permutation"):
        xc.check_conjugation_law(table, perm * 0)

def test_linked_pairs_share_the_sing_table(all_eps):
    sing = sg.sing_semigroup(2, 2)
    for eps in all_eps:
        s = xc.build_cross_conn_semigroup(eps)
        assert s.semigroup.table is sing.table
        assert [pr.first for pr in s.pairs] == list(sing.elements)

def test_inverse_computed_once_per_connection():
    cc = xc.cross_connection(SWAP)
    assert cc.eps_inv is cc.eps_inv


# ---------------------------------------------------------------------------
# the index decision against the Subspace-object and full-table oracles

AUTOS_3_2 = gf.enumerate_automorphisms(3, 2)
AUTOS_2_3 = gf.enumerate_automorphisms(2, 3)


def _index_verdicts(eps):
    """(functorial, covering and inclusion, linking bijective) as verify-all
    decides them."""
    idx = xc.subspace_index(eps.p, eps.n)
    cc = xc.cross_connection(eps)
    actions = xc.object_actions(cc, idx)
    if actions is None:
        return False, None, None
    e_obj, et_obj = actions
    perm = gf.sing_conjugation(cc.eps_inv, eps)
    return True, xc.covers(idx, et_obj), xc.link_failure(idx, perm, e_obj, et_obj) is None


def _oracle_verdicts(eps):
    cc = xc.cross_connection(eps)
    cat = sc.build_category(eps.p, eps.n)
    cov = oracle.verify_cross_connection(cc)
    linked = all(oracle.linking_bijection(cc, a, y).bijective
                 for a in cat.objects for y in cat.objects)
    return cov.hom_injective_ok, cov.covering_ok and cov.inclusion_ok, linked


@pytest.mark.parametrize("eps", gf.enumerate_automorphisms(2, 2) + AUTOS_3_2
                         + (AUTOS_2_3[1], AUTOS_2_3[-1]), ids=str)
def test_index_decision_agrees_with_oracle(eps):
    assert _index_verdicts(eps) == _oracle_verdicts(eps) == (True, True, True)


def _index_sets(idx, e_obj, et_obj, ai, yi):
    """The bifunctor sets at objects (ai, yi) as link_failure reads them,
    as masks over sing_table order."""
    c = idx.contains
    first = c[idx.objects[ai], idx.img] & c[et_obj[yi], idx.timg]
    second = c[idx.objects[yi], idx.timg] & c[e_obj[ai], idx.img]
    return first, second


def _sets_match_oracle(idx, eps):
    """Whether the index's bifunctor sets at every object pair are the
    oracle's, element for element."""
    elems = gf.sing_table(eps.p, eps.n)[0]
    cc = xc.cross_connection(eps)
    e_obj, et_obj = xc.object_actions(cc, idx)
    for ai, a in enumerate(idx.subspaces[i] for i in idx.objects):
        for yi, y in enumerate(idx.subspaces[i] for i in idx.objects):
            got = _index_sets(idx, e_obj, et_obj, ai, yi)
            want = oracle.bifunctor_sets(cc, a, y)
            if tuple(tuple(elems[i] for i in np.flatnonzero(m)) for m in got) != want:
                return False
    return True


def test_index_bifunctor_sets_match_oracle():
    for p, n in [(2, 2), (3, 2)]:
        idx = xc.subspace_index(p, n)
        for eps in gf.enumerate_automorphisms(p, n):
            assert _sets_match_oracle(idx, eps), eps


@pytest.mark.parametrize("p,n,step", [(2, 2, 1), (3, 2, 1), (5, 2, 1), (2, 3, 41), (7, 2, 401)])
def test_object_actions_match_oracle_object_images(p, n, step):
    idx = xc.subspace_index(p, n)
    objects = [idx.subspaces[i] for i in idx.objects]
    for eps in gf.enumerate_automorphisms(p, n)[::step]:
        cc = xc.cross_connection(eps)
        e_obj, et_obj = xc.object_actions(cc, idx)
        assert [idx.subspaces[i] for i in e_obj] == [oracle.primal_object_image(cc, x) for x in objects]
        assert [idx.subspaces[i] for i in et_obj] == [oracle.dual_object_image(cc, x) for x in objects]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_annihilator_of_kernel_is_image_of_transpose(p, n):
    """ann(ker x) = im(x^T) for x acting on row vectors, which lets the
    index keep two per-element arrays; both are checked against Subspace
    objects."""
    idx = xc.subspace_index(p, n)
    for i, x in enumerate(gf.sing_table(p, n)[0]):
        t_image = gf.transpose(x).image()
        assert gf.annihilator(x.kernel()) == t_image == idx.subspaces[idx.timg[i]]
        assert x.image() == idx.subspaces[idx.img[i]]


@pytest.mark.parametrize("eps", gf.enumerate_automorphisms(2, 2) + AUTOS_3_2[::9], ids=str)
def test_functoriality_by_restriction_inverses_agrees_with_oracle(eps):
    oracle.check_functorial(xc.cross_connection(eps))
    assert xc.object_actions(xc.cross_connection(eps), xc.subspace_index(eps.p, eps.n)) is not None


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_generator_conjugation_law_agrees_with_full_table(p, n):
    _, _, table = gf.sing_table(p, n)
    assert len(sg.table_generators(table)) < len(table)
    for eps in gf.enumerate_automorphisms(p, n):
        perm = gf.sing_conjugation(eps.inverse(), eps)
        assert oracle.automorphism_witness(table, perm) is None
        xc.check_conjugation_law(table, perm)


def test_generator_conjugation_law_rejects_every_transposition(all_eps):
    _, _, table = gf.sing_table(2, 2)
    for eps in all_eps:
        perm = gf.sing_conjugation(eps.inverse(), eps)
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                broken = perm.copy()
                broken[[i, j]] = broken[[j, i]]
                assert oracle.automorphism_witness(table, broken) is not None
                with pytest.raises(AssertionError, match="conjugation law"):
                    xc.check_conjugation_law(table, broken)


def test_table_generators_computed_once_per_read_only_table():
    _, _, table = gf.sing_table(2, 2)
    assert sg.table_generators(table) is sg.table_generators(table)
    fresh = table.copy()
    assert sg.table_generators(fresh) is not sg.table_generators(fresh)
    assert np.array_equal(sg.table_generators(fresh), sg.table_generators(table))


# mutations of the decision, each of which the check must catch

def _check_fails(p=2, n=2):
    try:
        ok, _ = cli._check_cross_connections(p, n)
    except (AssertionError, ValueError):
        return True
    return not ok


def _with_timg(idx, timg):
    """A SubspaceIndex with idx's fields, timg replaced."""
    return xc.SubspaceIndex(*(timg if k == "timg" else getattr(idx, k) for k in idx._fields))


def test_image_reading_of_annker_is_caught():
    # Reading ann(ker x) as ann(im x) in the index: the runtime check alone
    # cannot see it, because the mutant is consistent with itself on both
    # sides of the link, but the bifunctor sets no longer match the oracle.
    idx = xc.subspace_index(2, 2)
    mutant = _with_timg(idx, idx.ann[idx.img])
    assert not all(_sets_match_oracle(mutant, eps) for eps in gf.enumerate_automorphisms(2, 2))


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2)])
def test_transpose_image_read_as_image_is_caught(monkeypatch, p, n):
    idx = xc.subspace_index(p, n)
    mutant = _with_timg(idx, idx.img)
    monkeypatch.setattr(xc, "subspace_index", lambda p, n: mutant)
    assert _check_fails(p, n)


def test_swapped_dual_object_action_is_caught(monkeypatch):
    real = xc.object_actions

    def swapped(cc, idx):
        e_obj, et_obj = real(cc, idx)
        et_obj = et_obj.copy()
        et_obj[[1, 2]] = et_obj[[2, 1]]   # two lines: inclusion and covering still hold
        return e_obj, et_obj

    monkeypatch.setattr(xc, "object_actions", swapped)
    assert _check_fails()


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_primal_action_through_the_transpose_is_caught(monkeypatch, p, n):
    real = xc.object_actions

    def through_transpose(cc, idx):
        _, et_obj = real(cc, idx)
        return et_obj, et_obj   # x.eps_t in place of x.eps

    monkeypatch.setattr(xc, "object_actions", through_transpose)
    assert _check_fails(p, n)


def test_wrong_inverse_fails_functoriality(monkeypatch):
    # eps in place of eps^-1 is right only for the involutions
    monkeypatch.setattr(xc.CrossConnection, "eps_inv", property(lambda self: self.eps))
    ok, witness = cli._check_cross_connections(2, 2)
    assert not ok and witness["failure"] == "functoriality"
    eps = gf.Endo.from_json(witness["eps"])
    assert eps * eps != gf.identity_endo(2, 2)


def test_cross_connections_build_no_linear_map(monkeypatch):
    """The check reads the subspace index only: no LinearMap and no
    subspace span per object, so the per-object restrictions cannot come
    back unnoticed."""
    xc.subspace_index(3, 2)

    def forbidden(*args):
        raise AssertionError("the cross-connection check built a subspace or a linear map")

    monkeypatch.setattr(gf, "linear_map", forbidden)
    monkeypatch.setattr(gf, "subspace_span", forbidden)
    assert cli._check_cross_connections(3, 2) == (True, None)
