"""Cross-connections of the subspace and annihilator categories induced by
an automorphism, and the linked-pair semigroup they generate.

An invertible endomorphism acts on dual objects through its transpose and on
subspace objects directly; conjugation links the two sides.  The linked pairs
(alpha, eps^-1.alpha.eps) over all singular alpha form a semigroup under the
componentwise product, isomorphic to the singular endomorphisms through the
first projection.

The claims about a connection (functoriality, covering, inclusion and the
linking bijection) are decided on integer arrays: every subspace of GF(p)^n
is its position in gf.subspace_lattice, a moved object is looked up by code
in gf.row_spaces, and each Sing element is read through the positions of
its image and of its transpose's image (gf.sing_images).  The inverses and the
conjugation permutations are computed for a whole stack of automorphisms at
once (conjugations); the conjugation law is a reduction stated there, and
no Cayley table is read.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from . import gf
from . import semigroups as sg
from .gf import Record


class CrossConnection(Record):
    """The connection induced by an automorphism eps of GF(p)^n, an n x n
    int64 array; its only caller is perfbench/tracer.py's instrument, which
    wraps conjugate."""
    p: int
    eps: np.ndarray

    @cached_property
    def eps_inv(self) -> np.ndarray:
        inv = gf.inverse_stack(self.eps[None], self.p)[0]
        if not (self.eps @ inv % self.p == np.eye(len(inv), dtype=np.int64)).all():
            raise ValueError("endomorphism is singular")
        return inv

    def conjugate(self, alpha: np.ndarray) -> np.ndarray:
        """eps^-1.alpha.eps, for a matrix alpha or a stack of them."""
        return self.eps_inv @ alpha % self.p @ self.eps % self.p


# ---------------------------------------------------------------------------
# the claims about a connection, decided on subspace positions

def object_actions(p, n, eps):
    """(e_obj, et_obj), the lattice positions of eps.x and eps_t.x for each
    object x, a proper subspace (eps an n x n array over GF(p), eps_t its
    transpose).

    Both actions are functors once eps.eps^-1 = I, which conjugations
    checks (Conjugations.inverts).  The primal action sends f: x -> y to
    F(f) = back_x . f . fwd_y (maps compose left to right), fwd_x being eps
    restricted to x -> F(x) = x.eps and back_x eps^-1 restricted to
    F(x) -> x; the dual action is the same with eps_t and (eps^-1)^T.
    Suppose fwd_x . back_x = id_x and back_x . fwd_x = id_F(x) at every
    object x.  Then for f: x -> y and g: y -> z F(f)F(g) = back_x f
    (fwd_y back_y) g fwd_z = back_x f g fwd_z = F(fg), and F(id_x) =
    back_x fwd_x = id_F(x), so F is a functor.  Also f = (fwd_x back_x) f
    (fwd_y back_y) = fwd_x F(f) back_y, so F is injective on every hom-set.

    Both identities follow from eps.eps^-1 = I.  For v in x,
    v.eps.eps^-1 = v, which is fwd_x . back_x = id_x and shows that eps^-1
    maps F(x) into x, so back_x is defined.  For square matrices
    eps.eps^-1 = I also gives eps^-1.eps = I, so w.eps^-1.eps = w for w in
    F(x), which is back_x . fwd_x = id_F(x).  Transposing the two
    identities gives eps_t.(eps^-1)^T = (eps^-1.eps)^T = I and
    (eps^-1)^T.eps_t = (eps.eps^-1)^T = I, the same on the dual side.

    The objects' bases times eps and times eps_t are looked up by code in
    gf.row_spaces; nothing is reduced.
    """
    bases = gf.subspace_lattice(p, n).bases[:-1]
    moved = np.concatenate([bases @ eps, bases @ eps.T]) % p
    e_obj, et_obj = gf.row_spaces(p, n)[gf.base_p(moved, p)].reshape(2, -1)
    return e_obj, et_obj


def covers(p, n, et_obj) -> bool:
    """Covering and inclusion.  Covering: every object a has a complement
    ann(eps_t.y) for some object y, that is a lies in the M-set of y.
    Inclusion: y <= z implies eps_t.y <= eps_t.z for objects y, z."""
    lattice = gf.subspace_lattice(p, n)
    c = lattice.contains
    covering = lattice.direct_sum[:-1, lattice.ann[et_obj]].any(axis=1).all()
    inclusion = (c[np.ix_(et_obj, et_obj)] | ~c[:-1, :-1]).all()
    return bool(covering and inclusion)


def link_failure(p, n, perm, e_obj, et_obj):
    """The lattice positions of the first object pair (a, y) at which
    conjugation is not a bijection from the first bifunctor set onto the
    second, or None.

    Sing element i is in the first set at (a, y) when its image lies in a
    and ann(ker x_i) = im(x_i^T) in eps_t.y; j is in the second set when
    the image of its transpose lies in y and that transpose's ann(ker),
    which is im(x_j), in eps.a.  perm must be a permutation
    (Conjugations.permutes decides that); it sends the first set onto the
    second exactly when i is in the first set iff perm[i] is in the second.
    Both sets are read from gf.sing_images.
    """
    lattice, (img, timg) = gf.subspace_lattice(p, n), gf.sing_images(p, n)
    c = lattice.contains
    objc = c[:-1]
    first = objc[:, None, img] & c[et_obj][None, :, timg]
    second = objc[None, :, timg] & c[e_obj][:, None, img]
    bad = (first != second[:, :, perm]).any(axis=2)
    if not bad.any():
        return None
    return tuple(np.argwhere(bad)[0].tolist())


# ---------------------------------------------------------------------------
# the linked-pair semigroups of a stack of automorphisms

class Conjugations(Record):
    """Automorphisms eps_1..eps_k of GF(p)^n with what their linked-pair
    semigroups are built from.  Every one of those semigroups lies on Sing:
    the pairs of the e-th are (x_i, x_perms[e, i]) over the elements x_i of
    gf._sing_matrices, and they multiply as their first coordinates do."""
    p: int
    n: int
    eps: np.ndarray      # (k, n, n)
    inv: np.ndarray      # (k, n, n) the right half of the rref of [eps | I]
    inverts: np.ndarray  # (k,) eps.inv = I, so inv is eps^-1
    perms: np.ndarray    # (k, N) index of inv.x_i.eps, -1 where it is invertible
    permutes: np.ndarray # (k,) perms[e] is a permutation of 0..N-1


def conjugations(p, n, mats) -> Conjugations:
    """The Conjugations of a stack mats (k, n, n) of automorphisms of
    GF(p)^n, such as gf.enumerate_automorphisms gives, computed for all of
    them at once; nothing is raised here.  The inverses come from one
    batched rref, E.E^-1 = I from one batched product, and the conjugates of
    every Sing element from broadcast products, in chunks of about
    TABLE_BLOCK_CELLS entries, read by code from gf.sing_decode; one sort
    per chunk decides which rows are permutations.

    The conjugation law is a reduction, not a search.  Where inverts holds,
    perm[i] is the index of E^-1.x_i.E with E.E^-1 = I, and Sing's product
    is the matrix product, so
    perm[ab] = E^-1.x_a.x_b.E = (E^-1.x_a.E)(E^-1.x_b.E) = perm[a].perm[b]:
    conjugation keeps the rank, so each perm maps Sing into itself as an
    endomorphism, and conjugation by E^-1 is its inverse, so it is an
    automorphism.  The linked pairs (x_i, x_perm[i])
    therefore multiply componentwise exactly as their first coordinates
    do.  What is left to decide is E.E^-1 = I (inverts) and, for the
    index arrays that link_failure reads, that each row is a permutation
    (permutes).  No Cayley table is read."""
    sing, decode = gf._sing_matrices(p, n), gf.sing_decode(p, n)
    inv = gf.inverse_stack(mats, p)
    inverts = (mats @ inv % p == np.eye(n, dtype=np.int64)).all(axis=(1, 2))
    perms = np.empty((len(mats), len(sing)), dtype=np.int32)
    permutes = np.empty(len(mats), dtype=bool)
    block = max(1, gf.TABLE_BLOCK_CELLS // (len(sing) * n * n))
    for lo in range(0, len(mats), block):
        conj = inv[lo:lo + block, None] @ sing % p @ mats[lo:lo + block, None] % p
        perms[lo:lo + block] = decode[gf.base_p(conj.reshape(-1, n, n), p)].reshape(-1, len(sing))
        permutes[lo:lo + block] = (np.sort(perms[lo:lo + block], axis=1) == np.arange(len(sing))).all(axis=1)
    return Conjugations(p, n, mats, inv, inverts, perms, permutes)


def linked_pairs(p, n, mats) -> Conjugations:
    """conjugations(p, n, mats), raising for the first automorphism in order
    that fails, at each one first eps.eps^-1 = I and then that its
    conjugation is a permutation; the conjugation law then holds by the
    reduction that conjugations states."""
    conj = conjugations(p, n, mats)
    held = conj.inverts & conj.permutes
    if not held.all():
        if not conj.inverts[held.argmin()]:
            raise ValueError("cross-connections require an invertible endomorphism")
        raise AssertionError("not a permutation of the element indices")
    return conj


def sing_json(p, n):
    """(matrices, table): the JSON text of each Sing(GF(p)^n) element's
    matrix, in Sing order, and of Sing's table (sg.table_json), as json.dumps
    writes them with separators (",", ":").  The document writers encode
    each once."""
    mats = [json.dumps(m, separators=(",", ":")) for m in gf._sing_matrices(p, n).tolist()]
    return mats, sg.table_json(gf.sing_table(p, n))


def linked_pairs_json(conj: Conjugations) -> str:
    """The crossconn --format json document of a batch, byte for byte as
    json.dumps(sort_keys=True, separators=(",", ":")) writes the list of
    {"elements": [{"first", "second"}...], "eps", "table"} objects."""
    p, n = conj.p, conj.n
    mats, table = sing_json(p, n)
    firsts = [f'{{"first":{m},"second":' for m in mats]
    docs = []
    for rows, perm in zip(conj.eps.tolist(), conj.perms.tolist()):
        elements = ",".join([f"{first}{mats[k]}}}" for first, k in zip(firsts, perm)])
        eps = json.dumps(rows, separators=(",", ":"))
        docs.append(f'{{"elements":[{elements}],"eps":{{"n":{n},"p":{p},"rows":{eps}}},"table":{table}}}')
    return f"[{','.join(docs)}]\n"
