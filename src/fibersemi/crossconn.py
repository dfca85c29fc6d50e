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
positions of its image and of its transpose's image.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import gf
from . import semigroups as sg
from .gf import Endo, Record


class CrossConnection(Record):
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
    """The connection induced by an automorphism; object_actions decides that
    its two actions are functors."""
    if not eps.is_invertible():
        raise ValueError("cross-connections require an invertible endomorphism")
    return CrossConnection(eps)


# ---------------------------------------------------------------------------
# the claims about a connection, decided on subspace positions

class SubspaceIndex(Record):
    """Every subspace of GF(p)^n at its position in enumerate_subspaces
    order, with the relations the cross-connection claims read.  The two
    per-element arrays follow sing_table order; for x acting on row vectors
    ann(ker x) = im(x^T), so they also give both annihilators of kernels."""
    subspaces: tuple
    position: np.ndarray    # base-p code of an RREF basis padded to n x n -> position, -1 elsewhere
    objects: np.ndarray     # positions of the proper subspaces, the category's objects
    bases: np.ndarray       # the objects' padded RREF bases, (objects, n, n)
    contains: np.ndarray    # contains[u, v]: v is a subspace of u
    direct_sum: np.ndarray  # direct_sum[u, v]: u (+) v is the whole space
    ann: np.ndarray         # position of the annihilator
    img: np.ndarray         # image of x, which is ann(ker) of its transpose
    timg: np.ndarray        # image of the transpose of x, which is ann(ker x)


def _row_spaces(position, mats, p):
    """The position of the row space of each matrix of a stack: its RREF,
    zero rows last, coded in base p and looked up."""
    return position[gf.base_p(gf.rref_stack(mats, p)[0], p)]


@lru_cache(maxsize=None)
def subspace_index(p, n) -> SubspaceIndex:
    """The index for (p, n), built once from the subspace lattice.  Sing's
    table comes first, so its order guard refuses before any subspace is
    enumerated."""
    gf.sing_table(p, n)
    lattice = gf.subspace_lattice(p, n)
    position = np.full(p ** (n * n), -1, dtype=np.intp)
    position[gf.base_p(lattice.bases, p)] = np.arange(len(lattice.subspaces))
    objects = np.flatnonzero(lattice.dims < n)
    mats = gf._sing_matrices(p, n)
    img, timg = _row_spaces(position, np.concatenate([mats, mats.transpose(0, 2, 1)]), p).reshape(2, -1)
    return SubspaceIndex(lattice.subspaces, position, objects, lattice.bases[objects], lattice.contains,
                         lattice.direct_sum, lattice.ann, img, timg)


def object_actions(cc: CrossConnection, idx: SubspaceIndex):
    """(e_obj, et_obj), the positions of eps.x and eps_t.x for each object x
    (eps_t the transpose of eps), or None unless both actions are functors.

    The primal action sends f: x -> y to F(f) = back_x . f . fwd_y (maps
    compose left to right), fwd_x being eps restricted to x -> F(x) = x.eps
    and back_x eps^-1 restricted to F(x) -> x; the dual action is the same
    with eps_t and (eps^-1)^T.  Suppose fwd_x . back_x = id_x and
    back_x . fwd_x = id_F(x) at every object x.  Then for f: x -> y and
    g: y -> z F(f)F(g) = back_x f (fwd_y back_y) g fwd_z = back_x f g fwd_z
    = F(fg), and F(id_x) = back_x fwd_x = id_F(x), so F is a functor.  Also
    f = (fwd_x back_x) f (fwd_y back_y) = fwd_x F(f) back_y, so F is
    injective on every hom-set.

    Both identities follow from eps.eps^-1 = I, the one thing checked here.
    For v in x, v.eps.eps^-1 = v, which is fwd_x . back_x = id_x and shows
    that eps^-1 maps F(x) into x, so back_x is defined.  For square
    matrices eps.eps^-1 = I also gives eps^-1.eps = I, so w.eps^-1.eps = w
    for w in F(x), which is back_x . fwd_x = id_F(x).  Transposing the two
    identities gives eps_t.(eps^-1)^T = (eps^-1.eps)^T = I and
    (eps^-1)^T.eps_t = (eps.eps^-1)^T = I, the same on the dual side.

    The objects' bases times eps and times eps_t are reduced in one batched
    rref and looked up by code.
    """
    p, eps = cc.p, np.array(cc.eps.rows)
    if not np.array_equal(eps @ np.array(cc.eps_inv.rows) % p, np.eye(cc.n, dtype=eps.dtype)):
        return None
    moved = np.concatenate([idx.bases @ eps, idx.bases @ eps.T])
    e_obj, et_obj = _row_spaces(idx.position, moved, p).reshape(2, -1)
    return e_obj, et_obj


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
    and ann(ker x_i) = im(x_i^T) in eps_t.y; j is in the second set when
    the image of its transpose lies in y and that transpose's ann(ker),
    which is im(x_j), in eps.a.  perm must be a permutation
    (check_conjugation_law decides that); it sends the first set onto the
    second exactly when i is in the first set iff perm[i] is in the second.
    """
    c = idx.contains
    objc = c[idx.objects]
    first = objc[:, None, idx.img] & c[et_obj][None, :, idx.timg]
    second = objc[None, :, idx.timg] & c[e_obj][:, None, idx.img]
    bad = (first != second[:, :, perm]).any(axis=2)
    if not bad.any():
        return None
    a, y = np.argwhere(bad)[0]
    return idx.subspaces[idx.objects[a]], idx.subspaces[idx.objects[y]]


# ---------------------------------------------------------------------------
# the linked-pair semigroup

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
