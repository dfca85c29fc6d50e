"""Test oracles for the cross-connection check: the Subspace-object and
full-table forms that `verify-all` decided with before it moved to subspace
index arrays and the generator reduction, and the LinearMap restrictions of
eps and eps^-1 that the functor actions are built from.  They are kept here
so the tests can compare the two verdict for verdict."""

from dataclasses import dataclass

import numpy as np

from factorization_oracle import all_linear_maps
from fibersemi import gf
from fibersemi import subspace_category as sc
from fibersemi.crossconn import CrossConnection
from fibersemi.gf import Endo, LinearMap, Subspace

#: membership readings for the bifunctor sets: the second condition either
#: constrains the annihilator of the kernel ("kernel", the reading under
#: which the linking map is a bijection) or of the image of the first
#: argument ("image", the literal transcription, kept for comparison).
MEMBERSHIP_MODES = ("kernel", "image")
DEFAULT_MODE = "kernel"


def eps_t(cc: CrossConnection) -> Endo:
    return gf.transpose(cc.eps)


def eps_inv_t(cc: CrossConnection) -> Endo:
    return gf.transpose(cc.eps_inv)


def restrictions(cc: CrossConnection, x: Subspace, fwd_map: Endo, back_map: Endo):
    """(back_x, fwd_x) at object x: fwd_x is fwd_map restricted to
    x -> F(x), F(x) being its image, and back_x is back_map restricted to
    F(x) -> x.  Both actions on morphisms are back . f . fwd."""
    images = [fwd_map.apply(v) for v in x.basis]
    fx = gf.subspace_span(images, cc.n, cc.p)
    back = gf.linear_map(fx, x, [back_map.apply(v) for v in fx.basis])
    return back, gf.linear_map(x, fx, images)


def dual_restrictions(cc: CrossConnection, y: Subspace):
    """The action on the annihilator side (dual coordinates)."""
    return restrictions(cc, y, eps_t(cc), eps_inv_t(cc))


def primal_restrictions(cc: CrossConnection, a: Subspace):
    """The action on the subspace side."""
    return restrictions(cc, a, cc.eps, cc.eps_inv)


def dual_object_image(cc: CrossConnection, y: Subspace) -> Subspace:
    return gf.subspace_span([eps_t(cc).apply(f) for f in y.basis], cc.n, cc.p)


def dual_morphism_image(cc: CrossConnection, m: LinearMap) -> LinearMap:
    """Conjugate a map of dual subspaces: transpose-inverse, m, transpose."""
    return dual_restrictions(cc, m.dom)[0].compose(m).compose(dual_restrictions(cc, m.cod)[1])


def primal_object_image(cc: CrossConnection, a: Subspace) -> Subspace:
    return gf.subspace_span([cc.eps.apply(v) for v in a.basis], cc.n, cc.p)


def primal_morphism_image(cc: CrossConnection, f: LinearMap) -> LinearMap:
    return primal_restrictions(cc, f.dom)[0].compose(f).compose(primal_restrictions(cc, f.cod)[1])


def check_functorial(cc: CrossConnection):
    """Raise unless both actions preserve identities and composition, checked
    exhaustively over the proper subspaces and every composable pair."""
    cat = sc.build_category(cc.p, cc.n)
    for obj in cat.objects:
        y = dual_object_image(cc, obj)
        if dual_morphism_image(cc, gf.identity_map(obj)) != gf.identity_map(y):
            raise AssertionError("dual action does not preserve identities")
        a = primal_object_image(cc, obj)
        if primal_morphism_image(cc, gf.identity_map(obj)) != gf.identity_map(a):
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


def functor_m_set(cc: CrossConnection, cat: sc.SubspaceCategory, y: Subspace):
    """M-set of the connection at a dual object: complements of the subspace
    annihilated by the transported functionals."""
    pre = gf.annihilator(dual_object_image(cc, y))
    return tuple(a for a in cat.objects if gf.is_direct_sum(a, pre)), pre


def verify_cross_connection(cc: CrossConnection) -> CoveringReport:
    """Covering plus the artifact's reading of local isomorphism.

    Covering: every subspace object lies in the M-set of some dual object.
    Local isomorphism is read as inclusion preservation on dual objects plus
    injectivity of the induced map on every hom-set.
    """
    cat = sc.build_category(cc.p, cc.n)
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
            if z.contains_subspace(y):
                if not dual_object_image(cc, z).contains_subspace(dual_object_image(cc, y)):
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
    if not a.contains_subspace(alpha.image()):
        return False
    target = dual_object_image(cc, y)
    if mode == "kernel":
        constrained = gf.annihilator(alpha.kernel())
    elif mode == "image":
        image_of_a = gf.subspace_span([alpha.apply(v) for v in a.basis], cc.n, cc.p)
        constrained = gf.annihilator(image_of_a)
    else:
        raise ValueError(f"unknown membership mode {mode!r}")
    return target.contains_subspace(constrained)


def _second_member(cc, beta: Endo, a: Subspace, y: Subspace, mode) -> bool:
    """Mirror conditions on the dual side, written in terms of the transpose
    action and pulled back to primal matrices."""
    bt = gf.transpose(beta)
    if not y.contains_subspace(bt.image()):
        return False
    target = primal_object_image(cc, a)
    if mode == "kernel":
        constrained = gf.annihilator(bt.kernel())
    elif mode == "image":
        image_of_y = gf.subspace_span([bt.apply(f) for f in y.basis], cc.n, cc.p)
        constrained = gf.annihilator(image_of_y)
    else:
        raise ValueError(f"unknown membership mode {mode!r}")
    return target.contains_subspace(constrained)


def bifunctor_sets(cc: CrossConnection, a: Subspace, y: Subspace, mode=DEFAULT_MODE):
    """(first set, second set) of singular endomorphisms at the object pair.

    First set: image inside a, with the mode's annihilator condition against
    the transported dual object.  Second set: the mirror conditions through
    the transpose.  Under the kernel mode conjugation carries one onto the
    other; the image mode is the literal transcription and fails that test.
    """
    if mode not in MEMBERSHIP_MODES:
        raise ValueError(f"unknown membership mode {mode!r}")
    sing = gf.enumerate_endos(cc.p, cc.n, singular_only=True)
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
