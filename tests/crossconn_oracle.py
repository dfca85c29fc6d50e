"""Test oracles for the cross-connection check: the Subspace-object and
full-table forms that `verify-all` decided with before it moved to subspace
index arrays and the generator reduction, the LinearMap restrictions of
eps and eps^-1 that the functor actions are built from, and the
per-automorphism forms of the batched inverses, conjugation permutations
and conjugation law.  They are kept here so the tests can compare the two
verdict for verdict.  check_conjugation_law is the batched law on Sing's
table that the program ran before the law became the reduction stated in
crossconn.conjugations; the tests decide that reduction with it.  The
Endo-level connection (CrossConnection, cross_connection) and the
label-level linked-pair semigroup (LinkedPair records, labels of first and
second coordinates) are kept here too: the program holds an automorphism
as an int64 array and a linked-pair semigroup as a conjugation permutation
over Sing's table."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from factorization_oracle import all_linear_maps
import gf_helpers as gh
import lattice_oracle as lo
from sing_oracle import enumerate_endos, sing_semigroup
from fibersemi import crossconn as xc
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi.gf import Record
from gf_helpers import Endo, LinearMap, Subspace

#: membership readings for the bifunctor sets: the second condition either
#: constrains the annihilator of the kernel ("kernel", the reading under
#: which the linking map is a bijection) or of the image of the first
#: argument ("image", the literal transcription, kept for comparison).
MEMBERSHIP_MODES = ("kernel", "image")
DEFAULT_MODE = "kernel"


class CrossConnection(Record):
    """The connection induced by an automorphism, held as its Endo: the
    inverse from Endo.inverse, computed once, and conjugation by Endo
    products.  crossconn.CrossConnection is the same on an int64 array."""
    eps: Endo

    @property
    def p(self):
        return self.eps.p

    @property
    def n(self):
        return self.eps.n

    @cached_property
    def eps_inv(self) -> Endo:
        return self.eps.inverse()

    def conjugate(self, alpha: Endo) -> Endo:
        return self.eps_inv * alpha * self.eps


def cross_connection(eps: Endo) -> CrossConnection:
    """The connection induced by an automorphism."""
    if not eps.is_invertible():
        raise ValueError("cross-connections require an invertible endomorphism")
    return CrossConnection(eps)


def eps_t(cc: CrossConnection) -> Endo:
    return gh.transpose(cc.eps)


def eps_inv_t(cc: CrossConnection) -> Endo:
    return gh.transpose(cc.eps_inv)


def restrictions(cc: CrossConnection, x: Subspace, fwd_map: Endo, back_map: Endo):
    """(back_x, fwd_x) at object x: fwd_x is fwd_map restricted to
    x -> F(x), F(x) being its image, and back_x is back_map restricted to
    F(x) -> x.  Both actions on morphisms are back . f . fwd."""
    images = [gh.apply(fwd_map, v) for v in x.basis]
    fx = gh.subspace_span(images, cc.n, cc.p)
    back = gh.linear_map(fx, x, [gh.apply(back_map, v) for v in fx.basis])
    return back, gh.linear_map(x, fx, images)


def dual_restrictions(cc: CrossConnection, y: Subspace):
    """The action on the annihilator side (dual coordinates)."""
    return restrictions(cc, y, eps_t(cc), eps_inv_t(cc))


def primal_restrictions(cc: CrossConnection, a: Subspace):
    """The action on the subspace side."""
    return restrictions(cc, a, cc.eps, cc.eps_inv)


def dual_object_image(cc: CrossConnection, y: Subspace) -> Subspace:
    return gh.subspace_span([gh.apply(eps_t(cc), f) for f in y.basis], cc.n, cc.p)


def dual_morphism_image(cc: CrossConnection, m: LinearMap) -> LinearMap:
    """Conjugate a map of dual subspaces: transpose-inverse, m, transpose."""
    return dual_restrictions(cc, m.dom)[0].compose(m).compose(dual_restrictions(cc, m.cod)[1])


def primal_object_image(cc: CrossConnection, a: Subspace) -> Subspace:
    return gh.subspace_span([gh.apply(cc.eps, v) for v in a.basis], cc.n, cc.p)


def primal_morphism_image(cc: CrossConnection, f: LinearMap) -> LinearMap:
    return primal_restrictions(cc, f.dom)[0].compose(f).compose(primal_restrictions(cc, f.cod)[1])


def check_functorial(cc: CrossConnection):
    """Raise unless both actions preserve identities and composition, checked
    exhaustively over the proper subspaces and every composable pair."""
    cat = lo.build_category(cc.p, cc.n)
    for obj in cat.objects:
        y = dual_object_image(cc, obj)
        if dual_morphism_image(cc, gh.identity_map(obj)) != gh.identity_map(y):
            raise AssertionError("dual action does not preserve identities")
        a = primal_object_image(cc, obj)
        if primal_morphism_image(cc, gh.identity_map(obj)) != gh.identity_map(a):
            raise AssertionError("primal action does not preserve identities")
    for x in cat.objects:
        for y in cat.objects:
            for f in all_linear_maps(x, y):
                for z in cat.objects:
                    for g in all_linear_maps(y, z):
                        if dual_morphism_image(cc, f.compose(g)) != \
                                dual_morphism_image(cc, f).compose(dual_morphism_image(cc, g)):
                            raise AssertionError("dual action does not preserve composition")
                        if primal_morphism_image(cc, f.compose(g)) != \
                                primal_morphism_image(cc, f).compose(primal_morphism_image(cc, g)):
                            raise AssertionError("primal action does not preserve composition")


# ---------------------------------------------------------------------------
# covering condition and the local-isomorphism reading

@dataclass(frozen=True)
class CoveringReport:
    covering_ok: bool
    witnesses: tuple          # (subspace object, dual witness object) pairs
    inclusion_ok: bool
    hom_injective_ok: bool
    reading: str = "inclusion-preserving with injective hom maps"

    @property
    def ok(self):
        return self.covering_ok and self.inclusion_ok and self.hom_injective_ok


def functor_m_set(cc: CrossConnection, cat: lo.SubspaceCategory, y: Subspace):
    """M-set of the connection at a dual object: complements of the subspace
    annihilated by the transported functionals."""
    pre = gh.annihilator(dual_object_image(cc, y))
    return tuple(a for a in cat.objects if gh.is_direct_sum(a, pre)), pre


def verify_cross_connection(cc: CrossConnection) -> CoveringReport:
    """Covering plus the artifact's reading of local isomorphism.

    Covering: every subspace object lies in the M-set of some dual object.
    Local isomorphism is read as inclusion preservation on dual objects plus
    injectivity of the induced map on every hom-set.
    """
    cat = lo.build_category(cc.p, cc.n)
    witnesses = []
    covering = True
    for a in cat.objects:
        found = None
        for y in cat.objects:
            mset, _ = functor_m_set(cc, cat, y)
            if a in mset:
                found = y
                break
        if found is None:
            covering = False
        witnesses.append((a, found))
    inclusion_ok = True
    for y in cat.objects:
        for z in cat.objects:
            if gh.contains_subspace(z, y):
                if not gh.contains_subspace(dual_object_image(cc, z), dual_object_image(cc, y)):
                    inclusion_ok = False
    hom_injective = True
    for y in cat.objects:
        for z in cat.objects:
            images = [dual_morphism_image(cc, m) for m in all_linear_maps(y, z)]
            if len(set(images)) != len(images):
                hom_injective = False
    return CoveringReport(covering, tuple(witnesses), inclusion_ok, hom_injective)


# ---------------------------------------------------------------------------
# bifunctor sets and the linking bijection

def _first_member(cc, alpha: Endo, a: Subspace, y: Subspace, mode) -> bool:
    if not gh.contains_subspace(a, gh.image(alpha)):
        return False
    target = dual_object_image(cc, y)
    if mode == "kernel":
        constrained = gh.annihilator(gh.kernel(alpha))
    elif mode == "image":
        image_of_a = gh.subspace_span([gh.apply(alpha, v) for v in a.basis], cc.n, cc.p)
        constrained = gh.annihilator(image_of_a)
    else:
        raise ValueError(f"unknown membership mode {mode!r}")
    return gh.contains_subspace(target, constrained)


def _second_member(cc, beta: Endo, a: Subspace, y: Subspace, mode) -> bool:
    """Mirror conditions on the dual side, written in terms of the transpose
    action and pulled back to primal matrices."""
    bt = gh.transpose(beta)
    if not gh.contains_subspace(y, gh.image(bt)):
        return False
    target = primal_object_image(cc, a)
    if mode == "kernel":
        constrained = gh.annihilator(gh.kernel(bt))
    elif mode == "image":
        image_of_y = gh.subspace_span([gh.apply(bt, f) for f in y.basis], cc.n, cc.p)
        constrained = gh.annihilator(image_of_y)
    else:
        raise ValueError(f"unknown membership mode {mode!r}")
    return gh.contains_subspace(target, constrained)


def bifunctor_sets(cc: CrossConnection, a: Subspace, y: Subspace, mode=DEFAULT_MODE):
    """(first set, second set) of singular endomorphisms at the object pair.

    First set: image inside a, with the mode's annihilator condition against
    the transported dual object.  Second set: the mirror conditions through
    the transpose.  Under the kernel mode conjugation carries one onto the
    other; the image mode is the literal transcription and fails that test.
    """
    if mode not in MEMBERSHIP_MODES:
        raise ValueError(f"unknown membership mode {mode!r}")
    sing = enumerate_endos(cc.p, cc.n, singular_only=True)
    first = tuple(x for x in sing if _first_member(cc, x, a, y, mode))
    second = tuple(x for x in sing if _second_member(cc, x, a, y, mode))
    return first, second


@dataclass(frozen=True)
class LinkReport:
    pairs: tuple
    lands_in_second: bool
    injective: bool
    surjective: bool
    witness: tuple | None

    @property
    def bijective(self):
        return self.lands_in_second and self.injective and self.surjective


def linking_bijection(cc: CrossConnection, a: Subspace, y: Subspace,
                      mode=DEFAULT_MODE) -> LinkReport:
    """Conjugation by the automorphism from the first bifunctor set to the
    second, with an explicit bijectivity verdict."""
    first, second = bifunctor_sets(cc, a, y, mode)
    second_set = set(second)
    pairs = tuple((x, cc.conjugate(x)) for x in first)
    witness = None
    lands = True
    for x, img in pairs:
        if img not in second_set:
            lands = False
            witness = (x, img)
            break
    images = [img for _, img in pairs]
    injective = len(set(images)) == len(images)
    surjective = set(images) == second_set if lands else False
    return LinkReport(pairs, lands, injective, surjective, witness)


# ---------------------------------------------------------------------------
# the conjugation law over the full table

def automorphism_witness(table, perm):
    """First (i, j) with perm[ij] != perm[i]perm[j], or None.  table and perm
    are integer arrays; perm must be a permutation of the indices.
    Vectorized per row."""
    if not np.array_equal(np.sort(perm), np.arange(len(table))):
        raise ValueError("not a permutation of the element indices")
    for i in range(len(table)):
        bad = perm[table[i]] != table[perm[i], perm]   # row i of perm[T] vs T[perm][:, perm]
        if bad.any():
            return (i, int(np.argmax(bad)))
    return None


# ---------------------------------------------------------------------------
# the conjugation law on Sing's table, batched

def _first_false(mask) -> int:
    """The index of the first False of a boolean array, or its length."""
    return len(mask) if mask.all() else int(mask.argmin())


def check_conjugation_law(table, perms):
    """Raise unless, for each row perm of perms, the second coordinates
    multiply like the first ones; the error is the one of the first row in
    order that fails.

    perm[i] is the index of eps^-1.alpha_i.eps; the linked-pair product of
    (a, perm[a]) and (b, perm[b]) has second coordinate perm[ab], which must
    equal perm[a].perm[b].  After checking that perm is a permutation, that
    is tested for every a but only for b in the table's generating set G.
    This is sound on an associative table, as Light's test is: the set
    B = {b : perm[ab] = perm[a]perm[b] for all a} is closed under products,
    since for b, c in B
    perm[a(bc)] = perm[(ab)c] = perm[ab]perm[c] = (perm[a]perm[b])perm[c]
    = perm[a](perm[b]perm[c]) = perm[a]perm[bc].  So B holds the submagma
    G generates, which is the whole table.

    The rows are decided in chunks of about TABLE_BLOCK_CELLS cells.
    """
    order, gens = len(table), np.array(sg._generators(table), dtype=np.intp)
    products, cells = table[:, gens], table.ravel()   # products[a, k] = a g_k
    block = max(1, gf.TABLE_BLOCK_CELLS // (order * len(gens)))
    for lo in range(0, len(perms), block):
        chunk = perms[lo:lo + block].astype(np.intp)
        good = chunk[:_first_false((np.sort(chunk, axis=1) == np.arange(order)).all(axis=1))]
        # [e, a, k]: perm[a g_k] against perm[a]perm[g_k], read from the flat table
        bad = good[:, products] != cells[(good * order)[:, :, None] + good[:, None, gens]]
        failed = bad.any(axis=(1, 2))
        if failed.any():
            a, k = divmod(int(bad[failed.argmax()].argmax()), len(gens))
            raise AssertionError(f"linked-pair product broke the conjugation law at pair {(a, int(gens[k]))}")
        if len(good) < len(chunk):
            raise AssertionError("not a permutation of the element indices")


# ---------------------------------------------------------------------------
# one automorphism at a time: the forms of crossconn.conjugations and
# check_conjugation_law

def sing_conjugation(left: Endo, right: Endo):
    """perm[i] = index of left . elems[i] . right in Sing order (-1 where
    that product is invertible)."""
    p, n = right.p, right.n
    decode = gf.sing_decode(p, n)
    conj = np.array(left.rows) @ gf._sing_matrices(p, n) % p @ np.array(right.rows) % p
    return decode[gf.base_p(conj, p)]


def conjugation_perm(eps: Endo):
    """The conjugation permutation of eps, its inverse from Endo.inverse."""
    return sing_conjugation(eps.inverse(), eps)


def conjugation_law_error(table, perm):
    """The error the law check raises for the single permutation perm, or
    None: the same test on generators, one permutation at a time."""
    if not np.array_equal(np.sort(perm), np.arange(len(table))):
        return AssertionError("not a permutation of the element indices")
    gens = np.array(sg._generators(table), dtype=np.intp)
    bad = perm[table[:, gens]] != table[np.ix_(perm, perm[gens])]   # [a, k]: perm[a g_k] vs perm[a]perm[g_k]
    if bad.any():
        a, k = divmod(int(np.argmax(bad)), len(gens))
        return AssertionError(f"linked-pair product broke the conjugation law at pair {(a, int(gens[k]))}")
    return None


# ---------------------------------------------------------------------------
# the linked-pair semigroup as labelled records

class LinkedPair(Record):
    first: Endo
    second: Endo


class CrossConnSemigroup(Record):
    eps: Endo
    pairs: tuple
    semigroup: sg.FiniteSemigroup

    @property
    def order(self):
        return self.semigroup.order


def build_cross_conn_semigroup(eps: Endo) -> CrossConnSemigroup:
    """Linked pairs (alpha, eps^-1.alpha.eps) over all singular alpha, as a
    batch of one (linked_pairs), labelled by the rows of both coordinates.
    The pairs are in Sing order and share the verified Sing table, since the
    first projection is an isomorphism by construction."""
    perm = xc.linked_pairs(eps.p, eps.n, gh.stack([eps])).perms[0]
    sing = sing_semigroup(eps.p, eps.n)
    pairs = tuple(LinkedPair(x, sing.elements[k]) for x, k in zip(sing.elements, perm.tolist()))
    labels = tuple((pr.first.rows, pr.second.rows) for pr in pairs)
    return CrossConnSemigroup(eps, pairs, sg.FiniteSemigroup(labels, sing.table))
