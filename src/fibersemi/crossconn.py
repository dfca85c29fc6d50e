"""Cross-connections of the subspace and annihilator categories induced by
an automorphism, and the linked-pair semigroup they generate.

An invertible endomorphism acts on dual objects through its transpose and on
subspace objects directly; conjugation links the two sides.  The linked pairs
(alpha, eps^-1.alpha.eps) over all singular alpha form a semigroup under the
componentwise product, isomorphic to the singular endomorphisms through the
first projection.

The claims about a connection (functoriality, covering, inclusion and the
linking bijection) are decided on integer arrays: every subspace of GF(p)^n
gets a position once per (p, n), and each Sing element is read through the
positions of four subspaces it determines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gf
from . import semigroups as sg
from .gf import Endo, Subspace


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

    def _restrictions(self, x: Subspace, fwd_map: Endo, back_map: Endo):
        """(back_x, fwd_x) at object x: fwd_x is fwd_map restricted to
        x -> F(x), F(x) being its image, and back_x is back_map restricted to
        F(x) -> x.  Both actions on morphisms are back . f . fwd."""
        images = [fwd_map.apply(v) for v in x.basis]
        fx = gf.subspace_span(images, self.n, self.p)
        back = gf.linear_map(fx, x, [back_map.apply(v) for v in fx.basis])
        return back, gf.linear_map(x, fx, images)

    def dual_restrictions(self, y: Subspace):
        """The action on the annihilator side (dual coordinates)."""
        return self._restrictions(y, self.eps_t, self.eps_inv_t)

    def primal_restrictions(self, a: Subspace):
        """The action on the subspace side."""
        return self._restrictions(a, self.eps, self.eps_inv)

    def conjugate(self, alpha: Endo) -> Endo:
        return self.eps_inv * alpha * self.eps


def cross_connection(eps: Endo) -> CrossConnection:
    """The connection induced by an automorphism; object_actions decides that
    its two actions are functors."""
    if not eps.is_invertible():
        raise ValueError("cross-connections require an invertible endomorphism")
    return CrossConnection(eps)


# ---------------------------------------------------------------------------
# the claims about a connection, decided on subspace positions

@dataclass(frozen=True)
class SubspaceIndex:
    """Every subspace of GF(p)^n at its position in enumerate_subspaces
    order, with the relations the cross-connection claims read.  The four
    per-element arrays follow sing_table order."""
    subspaces: tuple
    position: dict          # Subspace -> position
    objects: np.ndarray     # positions of the proper subspaces, the category's objects
    contains: np.ndarray    # contains[u, v]: v is a subspace of u
    direct_sum: np.ndarray  # direct_sum[u, v]: u (+) v is the whole space
    ann: np.ndarray         # position of the annihilator
    img: np.ndarray         # image of x
    annker: np.ndarray      # ann(ker x)
    timg: np.ndarray        # image of the transpose of x
    tannker: np.ndarray     # ann(ker) of the transpose of x


@lru_cache(maxsize=None)
def subspace_index(p, n) -> SubspaceIndex:
    """The index for (p, n), built once.  Sing's table comes first, so its
    order guard refuses before any subspace is enumerated."""
    elems, _, _ = gf.sing_table(p, n)
    subspaces = gf.enumerate_subspaces(p, n)
    position = {s: i for i, s in enumerate(subspaces)}

    def at(spaces):
        return np.array([position[s] for s in spaces], dtype=np.intp)

    transposes = [gf.transpose(x) for x in elems]
    return SubspaceIndex(
        subspaces, position,
        objects=at(gf.enumerate_subspaces(p, n, proper_only=True)),
        contains=np.array([[u.contains_subspace(v) for v in subspaces] for u in subspaces]),
        direct_sum=np.array([[gf.is_direct_sum(u, v) for v in subspaces] for u in subspaces]),
        ann=at(map(gf.annihilator, subspaces)),
        img=at(x.image() for x in elems),
        annker=at(gf.annihilator(x.kernel()) for x in elems),
        timg=at(t.image() for t in transposes),
        tannker=at(gf.annihilator(t.kernel()) for t in transposes),
    )


def object_actions(cc: CrossConnection, idx: SubspaceIndex):
    """(e_obj, et_obj), the positions of eps.x and eps_t.x for each object x,
    or None unless both actions are functors.

    Each action sends f: x -> y to F(f) = back_x . f . fwd_y (maps compose
    left to right), with back and fwd from _restrictions.  Suppose
    fwd_x . back_x = id_x and back_x . fwd_x = id_F(x) at every object x,
    which is what is checked here.  Then for f: x -> y and g: y -> z
    F(f)F(g) = back_x f (fwd_y back_y) g fwd_z = back_x f g fwd_z = F(fg),
    and F(id_x) = back_x fwd_x = id_F(x), so F is a functor.  Also
    f = (fwd_x back_x) f (fwd_y back_y) = fwd_x F(f) back_y, so F is
    injective on every hom-set.
    """
    e_obj, et_obj = [], []
    for i in idx.objects:
        x = idx.subspaces[i]
        for restrictions, out in ((cc.primal_restrictions, e_obj), (cc.dual_restrictions, et_obj)):
            back, fwd = restrictions(x)
            if (fwd.compose(back) != gf.identity_map(x)
                    or back.compose(fwd) != gf.identity_map(fwd.cod)):
                return None
            out.append(idx.position[fwd.cod])
    return np.array(e_obj, dtype=np.intp), np.array(et_obj, dtype=np.intp)


def covers(idx: SubspaceIndex, et_obj) -> bool:
    """Covering and inclusion.  Covering: every object a has a complement
    ann(eps_t.y) for some object y, that is a lies in the M-set of y.
    Inclusion: y <= z implies eps_t.y <= eps_t.z for objects y, z."""
    objs, c = idx.objects, idx.contains
    covering = idx.direct_sum[np.ix_(objs, idx.ann[et_obj])].any(axis=1).all()
    inclusion = (c[np.ix_(et_obj, et_obj)] | ~c[np.ix_(objs, objs)]).all()
    return bool(covering and inclusion)


def link_failure(idx: SubspaceIndex, perm, e_obj, et_obj):
    """The first object pair (a, y) at which conjugation is not a bijection
    from the first bifunctor set onto the second, or None.

    Sing element i is in the first set at (a, y) when its image lies in a
    and ann(ker x_i) in eps_t.y; j is in the second set when the image of
    its transpose lies in y and that transpose's ann(ker) in eps.a.  perm
    must be a permutation (check_conjugation_law decides that); it sends
    the first set onto the second exactly when i is in the first set iff
    perm[i] is in the second.
    """
    c = idx.contains
    objc = c[idx.objects]
    first = objc[:, None, idx.img] & c[et_obj][None, :, idx.annker]
    second = objc[None, :, idx.timg] & c[e_obj][:, None, idx.tannker]
    bad = (first != second[:, :, perm]).any(axis=2)
    if not bad.any():
        return None
    a, y = np.argwhere(bad)[0]
    return idx.subspaces[idx.objects[a]], idx.subspaces[idx.objects[y]]


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
            "table": self.semigroup.table.tolist(),
        }


def check_conjugation_law(table, perm):
    """Raise unless the second coordinates multiply like the first ones.

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
    """
    if not np.array_equal(np.sort(perm), np.arange(len(table))):
        raise ValueError("not a permutation of the element indices")
    gens = sg.table_generators(table)
    bad = perm[table[:, gens]] != table[np.ix_(perm, perm[gens])]   # [a, k]: perm[a g_k] vs perm[a]perm[g_k]
    if bad.any():
        a, k = divmod(int(np.argmax(bad)), len(gens))
        raise AssertionError(f"linked-pair product broke the conjugation law at pair {(a, int(gens[k]))}")


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
    perm = gf.sing_conjugation(cc.eps_inv, eps)
    check_conjugation_law(sing.table, perm)
    pairs = tuple(LinkedPair(x, sing.elements[k]) for x, k in zip(sing.elements, perm.tolist()))
    labels = tuple((pr.first.rows, pr.second.rows) for pr in pairs)
    return CrossConnSemigroup(eps, pairs, sg.FiniteSemigroup(labels, sing.table))
