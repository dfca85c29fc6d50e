"""Cross-connections of the subspace and annihilator categories induced by
an automorphism, and the linked-pair semigroup they generate.

An invertible endomorphism acts on dual objects through its transpose and on
subspace objects directly; conjugation links the two sides.  The linked pairs
(alpha, eps^-1.alpha.eps) over all singular alpha form a semigroup under the
componentwise product, isomorphic to the singular endomorphisms through the
first projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from . import gf
from . import semigroups as sg
from . import subspace_category as sc
from .gf import Endo, LinearMap, Subspace

#: membership readings for the bifunctor sets: the second condition either
#: constrains the annihilator of the kernel ("kernel", the reading under
#: which the linking map is a bijection) or of the image of the first
#: argument ("image", the literal transcription, kept for comparison).
MEMBERSHIP_MODES = ("kernel", "image")
DEFAULT_MODE = "kernel"


@dataclass(frozen=True)
class CrossConnection:
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

    @cached_property
    def eps_t(self) -> Endo:
        return gf.transpose(self.eps)

    @cached_property
    def eps_inv_t(self) -> Endo:
        return gf.transpose(self.eps_inv)

    # -- action on the annihilator side (dual coordinates) ------------------
    def dual_object_image(self, y: Subspace) -> Subspace:
        return gf.subspace_span([self.eps_t.apply(f) for f in y.basis], self.n, self.p)

    def dual_morphism_image(self, m: LinearMap) -> LinearMap:
        """Conjugate a map of dual subspaces: transpose-inverse, m, transpose."""
        src = self.dual_object_image(m.dom)
        dst = self.dual_object_image(m.cod)
        back = gf.linear_map(src, m.dom, [self.eps_inv_t.apply(f) for f in src.basis])
        fwd = gf.linear_map(m.cod, dst, [self.eps_t.apply(f) for f in m.cod.basis])
        return back.compose(m).compose(fwd)

    # -- action on the subspace side ----------------------------------------
    def primal_object_image(self, a: Subspace) -> Subspace:
        return gf.subspace_span([self.eps.apply(v) for v in a.basis], self.n, self.p)

    def primal_morphism_image(self, f: LinearMap) -> LinearMap:
        src = self.primal_object_image(f.dom)
        dst = self.primal_object_image(f.cod)
        back = gf.linear_map(src, f.dom, [self.eps_inv.apply(v) for v in src.basis])
        fwd = gf.linear_map(f.cod, dst, [self.eps.apply(v) for v in f.cod.basis])
        return back.compose(f).compose(fwd)

    def conjugate(self, alpha: Endo) -> Endo:
        return self.eps_inv * alpha * self.eps

    def to_json(self):
        return {"eps": self.eps.to_json()}


def cross_connection(eps: Endo) -> CrossConnection:
    """The connection induced by an automorphism; check_functorial verifies
    its two actions."""
    if not eps.is_invertible():
        raise ValueError("cross-connections require an invertible endomorphism")
    return CrossConnection(eps)


def check_functorial(cc: CrossConnection):
    """Raise unless both actions preserve identities and composition, checked
    exhaustively over the proper subspaces and every composable pair."""
    cat = sc.build_category(cc.p, cc.n)
    for obj in cat.objects:
        y = cc.dual_object_image(obj)
        if cc.dual_morphism_image(gf.identity_map(obj)) != gf.identity_map(y):
            raise AssertionError("dual action does not preserve identities")
        a = cc.primal_object_image(obj)
        if cc.primal_morphism_image(gf.identity_map(obj)) != gf.identity_map(a):
            raise AssertionError("primal action does not preserve identities")
    for x in cat.objects:
        for y in cat.objects:
            for f in gf.all_linear_maps(x, y):
                for z in cat.objects:
                    for g in gf.all_linear_maps(y, z):
                        if cc.dual_morphism_image(f.compose(g)) != \
                                cc.dual_morphism_image(f).compose(cc.dual_morphism_image(g)):
                            raise AssertionError("dual action does not preserve composition")
                        if cc.primal_morphism_image(f.compose(g)) != \
                                cc.primal_morphism_image(f).compose(cc.primal_morphism_image(g)):
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
    pre = gf.annihilator(cc.dual_object_image(y))
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
                if not cc.dual_object_image(z).contains_subspace(cc.dual_object_image(y)):
                    inclusion_ok = False
    hom_injective = True
    for y in cat.objects:
        for z in cat.objects:
            images = [cc.dual_morphism_image(m) for m in gf.all_linear_maps(y, z)]
            if len(set(images)) != len(images):
                hom_injective = False
    return CoveringReport(covering, tuple(witnesses), inclusion_ok, hom_injective)


# ---------------------------------------------------------------------------
# bifunctor sets and the linking bijection

def _first_member(cc, alpha: Endo, a: Subspace, y: Subspace, mode) -> bool:
    if not a.contains_subspace(alpha.image()):
        return False
    target = cc.dual_object_image(y)
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
    target = cc.primal_object_image(a)
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
# the linked-pair semigroup

@dataclass(frozen=True)
class LinkedPair:
    first: Endo
    second: Endo


@dataclass(frozen=True)
class CrossConnSemigroup:
    eps: Endo
    pairs: tuple
    semigroup: sg.FiniteSemigroup

    @property
    def order(self):
        return self.semigroup.order

    def to_json(self):
        return {
            "eps": self.eps.to_json(),
            "elements": [
                {"first": [list(r) for r in pr.first.rows],
                 "second": [list(r) for r in pr.second.rows]}
                for pr in self.pairs
            ],
            "table": [list(r) for r in self.semigroup.table],
        }


def check_conjugation_law(table, perm):
    """Raise unless the second coordinates multiply like the first ones.

    perm[i] is the index of eps^-1.alpha_i.eps; the linked-pair product of
    (a, perm[a]) and (b, perm[b]) has second coordinate perm[ab], which must
    equal the product perm[a].perm[b] on every pair.
    """
    w = sg.automorphism_witness(table, perm)
    if w is not None:
        raise AssertionError(f"linked-pair product broke the conjugation law at pair {w}")


def build_cross_conn_semigroup(eps: Endo) -> CrossConnSemigroup:
    """Linked pairs (alpha, eps^-1.alpha.eps) over all singular alpha.

    The product is componentwise; on second coordinates that is the opposite
    of the dual-side cone composition, and the convention-independent check
    is that the product's second coordinate is the conjugate of the product
    of the first coordinates, verified on every pair.  The pairs are in Sing
    order and share the verified Sing table, since the first projection is
    an isomorphism by construction.
    """
    cc = cross_connection(eps)
    sing = sg.sing_semigroup(eps.p, eps.n)
    _, _, table = gf.sing_table(eps.p, eps.n)
    perm = gf.sing_conjugation(cc.eps_inv, eps)
    check_conjugation_law(table, perm)
    pairs = tuple(LinkedPair(x, sing.elements[k]) for x, k in zip(sing.elements, perm.tolist()))
    labels = tuple((pr.first.rows, pr.second.rows) for pr in pairs)
    return CrossConnSemigroup(eps, pairs, sg.FiniteSemigroup(labels, sing.table))


def crossconn_json(s: CrossConnSemigroup) -> str:
    return json.dumps(s.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
