"""The category of proper subspaces of GF(p)^n and its cone semigroup.

Objects are the proper subspaces (zero included), morphisms all linear maps,
inclusions the containment order.  Cones assign a morphism into a fixed
vertex to every object, compatibly with restriction; composing normal cones
through epimorphic components makes them a semigroup isomorphic to the
singular endomorphisms.  A cone is held as one integer code row (_ConeCode).
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import gf
from . import semigroups as sg
from .gf import Subspace


class SubspaceCategory:
    """Proper subspaces of GF(p)^n with all linear maps as morphisms, at
    their positions in gf.subspace_lattice (the full space comes last)."""

    def __init__(self, p, n):
        lattice = gf.subspace_lattice(p, n)
        self.p = p
        self.n = n
        self.objects = lattice.subspaces[:-1]
        self._index = {obj: i for i, obj in enumerate(self.objects)}
        # (i, j) with objects[i] inside objects[j], by i then j
        self.inclusion_pairs = tuple(map(tuple, np.argwhere(lattice.contains[:-1, :-1].T).tolist()))

    def index(self, obj: Subspace) -> int:
        return self._index[obj]

    def __contains__(self, obj):
        return obj in self._index


def build_category(p, n) -> SubspaceCategory:
    return SubspaceCategory(p, n)


# ---------------------------------------------------------------------------
# retractions and normal factorization

def complement_rows(pivot):
    """E_J for each mask of a stack of pivot masks (count, w): the unit rows
    at the non-pivot columns J in increasing order, then zero rows, as
    (count, w, w).  For an RREF matrix with those pivots they span the
    deterministic complement of its row space."""
    slots = np.arange(pivot.shape[1])
    return (((np.cumsum(~pivot, axis=1) - 1)[:, None] == slots[:, None]) & ~pivot[:, None]).astype(np.int64)


def retraction_law(cat: SubspaceCategory):
    """Whether the inclusion a -> b then the retraction b -> a is the
    identity on a, for every (a, b) of cat.inclusion_pairs, in that order.
    The retraction projects b onto a along the deterministic complement of
    a in b, the span of E_J.B_b, J the non-pivot columns of rref(A), where
    A, a's basis at b's pivot columns, is the inclusion's matrix (B_a =
    A.B_b, which is checked, since those columns of B_b are unit columns).

    The law holds iff rank [A; E_J] = d_b.  Proof: x -> x.B_b is an
    isomorphism GF(p)^d_b -> b, so everything may be read in b's
    coordinates, where a is the row space of A, of dimension d_a since
    B_a's rows are independent, and the complement is span(E_J), of
    dimension d_b - d_a.  If rank [A; E_J] = d_b the d_b rows of [A; E_J]
    are a basis, the projection onto row A along span(E_J) exists, and it
    fixes each row of A, so inclusion then retraction is I.  Otherwise
    a + complement is not all of b: some vector of b has no component in
    a, no projection along the complement exists, and the law fails.

    Every pair is decided in one batch, with one rref_stack of the A and
    one of the [A; E_J]: each A is zero-padded to n x n, which changes
    neither its rref's pivots nor a rank, and E_J's unit rows at the
    padding columns are zeroed."""
    lattice, p = gf.subspace_lattice(cat.p, cat.n), cat.p
    a, b = np.array(cat.inclusion_pairs, dtype=np.intp).reshape(-1, 2).T
    inside = np.arange(cat.n) < lattice.dims[b, None]  # the columns of b's coordinates
    coords = np.take_along_axis(lattice.bases[a], lattice.pivots[b, None], axis=2) * inside[:, None]
    pivot = gf.rref_stack(coords, p)[1]
    rank = gf.rref_stack(np.concatenate([coords, complement_rows(pivot) * inside[:, None]], axis=1), p)[2]
    return (coords @ lattice.bases[b] % p == lattice.bases[a]).all(axis=(1, 2)) & (rank == lattice.dims[b])


def _span_in(obj: Subspace, coords) -> Subspace:
    """The subspace of obj spanned by X.B, X = coords in RREF, B obj's basis.
    X.B is in RREF (row i leads where B's row at X's pivot i does, and its
    column at B's pivot k is X's column k), so it is the canonical basis."""
    return Subspace(obj.p, obj.n, tuple(obj.from_coords(c) for c in coords))


SWEEP_LIMIT = 1 << 16  # rows of one batched sweep: matrices of a hom-set shape, or cone assignments


@lru_cache(maxsize=None)
def shape_factors(p, da, db) -> SimpleNamespace:
    """The normal factorization of every da x db matrix M over GF(p), as
    arrays indexed by M's base-p code and padded to da rows or columns; r =
    rank[i].  One batched rref of [M | I] gives image = RREF(M) (rows ..r)
    and the RREF basis of K = {x : xM = 0} (kernel, rows r..).  complement
    holds the unit rows E_J (rows ..r) of the deterministic complement C of
    K, J the non-pivots of K; q (columns ..r) projects onto C along K, over
    E_J; u = M[J] at the pivot columns of image (leading r x r block); epi =
    q.u; matrices holds M.  For every x, x.M = q(x).M[J] = q(x).u.image."""
    count, slots = p ** (da * db), np.arange(da)
    if count > SWEEP_LIMIT:
        raise gf.GuardExceeded(f"p^(da*db) = {count} matrices of shape {da}x{db} exceed limit {SWEEP_LIMIT}")
    mats = gf.from_base_p(np.arange(count), p, da, db)
    eye = np.broadcast_to(np.eye(da, dtype=np.int64), (count, da, da))
    red, pivot, _ = gf.rref_stack(np.concatenate([mats, eye], axis=2), p)
    rank, lead = pivot[:, :db].sum(axis=1), pivot[:, db:]
    kernel = np.where(slots[:, None] >= rank[:, None, None], red[:, :, db:], 0)
    # e_t - (the row of K leading at t) for each pivot t of K, e_t elsewhere
    proj = eye - (lead[:, None, :] & (kernel != 0)).astype(np.int64).transpose(0, 2, 1) @ kernel
    complement = complement_rows(lead)
    at_pivots = ((np.cumsum(pivot[:, :db], axis=1) - 1)[:, :, None] == slots) & pivot[:, :db, None]
    q, u = proj @ complement.transpose(0, 2, 1) % p, complement @ mats @ at_pivots
    factors = SimpleNamespace(matrices=mats, rank=rank, kernel=kernel, complement=complement,
                              q=q, u=u, image=red[:, :, :db], epi=q @ u % p)
    for a in vars(factors).values():
        a.flags.writeable = False  # shared by every caller
    return factors


def factorization_witness(cat: SubspaceCategory):
    """None if shape_factors' normal factorization (f = q.u.j: retraction
    onto the complement of ker f along ker f, isomorphism, inclusion of the
    image) splits every morphism of cat, else a witness.  It reads
    f: a -> b's arrays at f's matrix M alone, so one pass per shape decides
    q.u.image = M and rank u = rank M for all.

    The objects enter through their bases only, and x -> x.B_a is an
    isomorphism GF(p)^d -> a that keeps RREF (X.B_a is in RREF iff X is,
    and X.B_a at a's pivot columns is X).  So at every object a of
    dimension d, with K the kernel rows and E_J the complement rows:
    _span_in(a, E_J) is the deterministic complement of K.B_a in a iff E_J
    is complement_rows of rref(K) with d - rank K = rank M rows; the
    projection onto it along K.B_a has q's matrix iff E_J.q = I and K.q = 0,
    since [E_J; K] is then a basis; and at b, _span_in(b, R) is the
    canonical span of R.B_b iff the image rows R are in RREF.  None of this
    depends on the object, so each is decided once per shape on the
    arrays, and the witness names the first object of the smallest
    dimension that fails, the retraction first, as a sweep over the
    objects in order would."""
    p, dims = cat.p, sorted({obj.dim for obj in cat.objects})
    failing = {"retraction": set(), "image": set()}
    for da, db in itertools.product(dims, dims):
        fac, count, width = shape_factors(p, da, db), p ** (da * db), max(da, db)
        kept = np.arange(da) < fac.rank[:, None]  # the first rank M rows or columns
        image = fac.image * kept[:, :, None]
        # u, the kernel rows and the image rows in one rref_stack, padded by
        # zero columns to a common width, which changes no pivot or rank
        stack = np.zeros((3, count, da, width), dtype=np.int64)
        stack[0, :, :, :da], stack[1, :, :, :da], stack[2, :, :, :db] = fac.u, fac.kernel, image
        red, lead, rank = (x.reshape(3, count, *x.shape[1:])
                           for x in gf.rref_stack(stack.reshape(3 * count, da, width), p))
        ok = (fac.q @ fac.u @ fac.image % p == fac.matrices).all(axis=(1, 2))
        bad = np.flatnonzero(~ok | (rank[0] != fac.rank))
        if len(bad):
            return {"failure": "factorization identity", "shape": [da, db],
                    "matrix": fac.matrices[bad[0]].tolist()}
        complement, q = fac.complement * kept[:, :, None], fac.q * kept[:, None]
        if not ((rank[1] + fac.rank == da) & (complement == complement_rows(lead[1, :, :da])).all(axis=(1, 2))
                & (complement @ q % p == kept[:, :, None] * np.eye(da, dtype=bool)).all(axis=(1, 2))
                & ~(fac.kernel @ q % p).any(axis=(1, 2))).all():
            failing["retraction"].add(da)
        if not ((rank[2] == fac.rank) & (red[2, :, :, :db] == image).all(axis=(1, 2))).all():
            failing["image"].add(db)
    for d in dims:
        for kind in ("retraction", "image"):
            if d in failing[kind]:
                return {"failure": f"{kind} translation",
                        "object": next(obj for obj in cat.objects if obj.dim == d).to_json()}
    return None


# ---------------------------------------------------------------------------
# the cone semigroup on integer code rows

class _ConeCode:
    """A cone as one row: the matrix R stacking its components over the
    objects' canonical bases, in object order.  R has D = sum of the object
    dimensions rows, holds each row's coordinates in the vertex basis, and is
    padded with zero columns to n - 1, the largest vertex dimension.  The
    code vertex * p^(D(n-1)) + (R read in base p) is one int64 per cone."""

    def __init__(self, cat: SubspaceCategory):
        p, n = cat.p, cat.n
        self.p = p
        self.dims = [obj.dim for obj in cat.objects]
        self.offsets = [0, *itertools.accumulate(self.dims)]
        self.depth, self.width = self.offsets[-1], n - 1
        self.stride = p ** (self.depth * self.width)
        if len(cat.objects) * self.stride > np.iinfo(np.int64).max:
            raise AssertionError(f"cone codes of GF({p})^{n} do not fit in 63 bits")
        lattice = gf.subspace_lattice(p, n)
        bases = lattice.bases[:-1]
        self.stacked = bases[np.arange(n) < lattice.dims[:-1, None]]  # every object's basis rows
        self.bases = bases[:, :self.width]  # vertex bases padded to width rows, for ambient()

    def codes(self, vertex, rows):
        return vertex * self.stride + gf.base_p(rows, self.p)

    def ambient(self, vertex, rows):
        """Every component's values on its object's basis, in GF(p)^n."""
        return rows @ self.bases[vertex] % self.p

    def block(self, rows, k):
        """Every row's component at object k."""
        return rows[:, self.offsets[k]:self.offsets[k + 1]]


def _principal_rows(cat: SubspaceCategory, code: _ConeCode):
    """(vertex, rows) of the principal cone of every singular endomorphism.

    B @ alpha pushes every object's basis through alpha.  Objects come in
    order of dimension, so the first one containing alpha's rows is its
    image: the vertex.  Components are read at the vertex's pivot columns
    and multiplied back to check the reading.
    """
    p, n = cat.p, cat.n
    alphas = gf._sing_matrices(p, n)
    images = code.stacked @ alphas % p
    vertex = np.full(len(alphas), -1)
    rows = np.zeros((len(alphas), code.depth, code.width), dtype=np.int64)
    for k, obj in enumerate(cat.objects):
        basis, pivots = code.bases[k, :obj.dim], list(obj.pivots)
        inside = (alphas[:, :, pivots] @ basis % p == alphas).all(axis=(1, 2))
        here = np.flatnonzero(inside & (vertex < 0))
        comps = images[here][:, :, pivots]
        if not (comps @ basis % p == images[here]).all():
            raise AssertionError("principal cone component outside its vertex")
        vertex[here] = k
        rows[here, :, :obj.dim] = comps
    return vertex, rows


def _assignments(cat: SubspaceCategory, code: _ConeCode):
    """(vertex, rows) of every assignment of a morphism into each vertex,
    vertex by vertex in the order of itertools.product over the objects'
    hom-sets, each lexicographic by matrix entries."""
    p = cat.p
    vertices, blocks = [], []
    for k, v in enumerate(code.dims):
        places = code.depth * v
        count = p ** places
        weights = p ** np.arange(places - 1, -1, -1, dtype=np.int64)
        digits = np.arange(count, dtype=np.int64)[:, None] // weights % p
        rows = np.zeros((count, code.depth, code.width), dtype=np.int64)
        rows[:, :, :v] = digits.reshape(count, code.depth, v)
        vertices.append(np.full(count, k))
        blocks.append(rows)
    return np.concatenate(vertices), np.concatenate(blocks)


def _admissible(cat: SubspaceCategory, code: _ConeCode, vertex, rows):
    """(endos, ok): the endomorphism read off the coordinate lines of each
    row, and where the row is a well-formed normal cone.

    Restriction compatibility is decided over cat.inclusion_pairs with the
    inclusion matrices, read from the lattice as in retraction_law; global
    linearity by checking that every component is the restriction of the
    endomorphism; normality by some component between equal dimensions
    having full rank in shape_factors.
    """
    p, n = cat.p, cat.n
    lattice = gf.subspace_lattice(p, n)
    ok = np.ones(len(rows), dtype=bool)
    for i, j in cat.inclusion_pairs:
        if i != j:  # the inclusion's matrix: objects[i]'s basis at objects[j]'s pivot columns
            incl = lattice.bases[i, :code.dims[i]][:, lattice.pivots[j, :code.dims[j]]]
            ok &= (incl @ code.block(rows, j) % p == code.block(rows, i)).all(axis=(1, 2))
    ambient = code.ambient(vertex, rows)
    if n == 1:
        endos = np.zeros((len(rows), 1, 1), dtype=np.int64)
    else:
        # the coordinate line through e_i has basis e_i, so its row is e_i's image
        lines = [code.offsets[cat.index(gf.subspace_span([e], n, p))] for e in gf.identity_matrix(n)]
        endos = ambient[:, lines]
    ok &= (code.stacked @ endos % p == ambient).all(axis=(1, 2))
    vdim, normal = np.array(code.dims)[vertex], np.zeros(len(rows), dtype=bool)
    for k, d in enumerate(code.dims):
        at = np.flatnonzero(vdim == d)
        normal[at] |= shape_factors(p, d, d).rank[gf.base_p(code.block(rows[at], k)[:, :, :d], p)] == d
    return endos, ok & normal


def _push(rows, epi, p):
    """Push cones along an epimorphism out of their vertex, on code rows:
    every component of every row, all into a vertex of dimension len(epi),
    composed with the epimorphism whose matrix is epi."""
    e = np.zeros((len(epi), rows.shape[2]), dtype=np.int64)
    e[:, :epi.shape[1]] = epi
    return rows[:, :, :len(epi)] @ e % p


def _matrix(block):
    return tuple(map(tuple, block))


def principal_codes(cat: SubspaceCategory, code: _ConeCode):
    """The code of the principal cone of every singular endomorphism, in Sing order."""
    return code.codes(*_principal_rows(cat, code))


def check_cone_order(p, n):
    """Refuse the cone semigroup of GF(p)^n as build_category would (a bad
    field or dimension, or too many subspaces), then when its order, that
    of Sing(GF(p)^n) in closed form, is beyond the associativity guard;
    nothing is enumerated."""
    gf.subspace_count(p, n)
    size = gf.singular_count(p, n)
    if size > gf.ASSOC_GUARD:
        raise gf.GuardExceeded(
            f"the cone semigroup of GF({p})^{n} has order {gf.count_text(size)}, "
            f"beyond the associativity guard {gf.ASSOC_GUARD}"
        )


def coded_normal_cones(cat: SubspaceCategory):
    """The cone semigroup on code rows: (semigroup, code, vertex, rows), the
    cone of element i being the row (vertex[i], rows[i]) of code.

    The closed-form order of Sing(GF(p)^n), which the cone semigroup has, is
    checked against the associativity guard, and the code width against
    int64, before any cone is built.  Cones are code rows (_ConeCode).
    Small categories are swept exhaustively: every assignment of a morphism
    into each vertex is a row, kept when it is a well-formed normal cone.
    Larger ones take the principal cones of every singular endomorphism, and
    each of them must pass the same test.

    Either way every cell of the Cayley table is a cone composition, never a
    matrix shortcut, filled one vertex object at a time: g1.g2 pushes g1
    along the epimorphic part of g2's component at the vertex of g1, so it
    reads g2 only through that component, which depends only on its
    values in GF(p)^n, so all columns whose components there agree as maps
    share the product.  Each such component's epimorphic part and image are
    read from shape_factors once, every row with
    that vertex is pushed along it in one product, and the products are
    looked up by code; each must be an enumerated cone.

    Elements are in order of the inducing endomorphisms' codes, labelled by
    their matrices.
    """
    p, n = cat.p, cat.n
    check_cone_order(p, n)
    code = _ConeCode(cat)
    exhaustive = sum(p ** (code.depth * d) for d in code.dims) <= SWEEP_LIMIT
    vertex, rows = (_assignments if exhaustive else _principal_rows)(cat, code)
    endos, ok = _admissible(cat, code, vertex, rows)
    if not (exhaustive or ok.all()):
        raise AssertionError("a principal cone is not a well-formed normal cone")
    # in order of the endomorphisms' codes, by a slot per matrix rather than
    # np.argsort, whose sort kernels add to peak RSS
    slot = np.full(p ** (n * n), -1)
    slot[gf.base_p(endos[ok], p)] = np.flatnonzero(ok)
    by_endo = slot[slot >= 0]
    if len(by_endo) != ok.sum():
        raise AssertionError("two normal cones with one inducing endomorphism")
    vertex, rows, endos = vertex[by_endo], rows[by_endo], endos[by_endo]
    index = {c: i for i, c in enumerate(code.codes(vertex, rows).tolist())}
    order = len(rows)
    table = np.empty((order, order), dtype=np.int32)
    ambient = code.ambient(vertex, rows)
    for k in range(len(cat.objects)):
        left = np.flatnonzero(vertex == k)
        if not len(left):
            continue
        columns = {}
        for j, key in enumerate(code.block(ambient, k)):
            columns.setdefault(key.tobytes(), []).append(j)
        for cols in columns.values():
            v = cat.objects[vertex[cols[0]]]
            fac = shape_factors(p, code.dims[k], v.dim)
            i = gf.base_p(code.block(rows[cols[:1]], k)[:, :, :v.dim], p)[0]
            img = _span_in(v, fac.image[i, :fac.rank[i]].tolist())
            prod = code.codes(cat.index(img), _push(rows[left], fac.epi[i, :, :fac.rank[i]], p))
            found = [index.get(c, -1) for c in prod.tolist()]
            if -1 in found:
                raise AssertionError("cone composition left the enumerated set")
            table[np.ix_(left, cols)] = np.array(found)[:, None]
    labels = tuple(_matrix(e) for e in endos.tolist())
    table.flags.writeable = False  # so from_table keeps it rather than a copy
    return sg.from_table(labels, table), code, vertex, rows


def cone_map_witnesses(cones, source, mats, p):
    """sg.morphism_witnesses of the map from the table source into the cone
    semigroup cones that sends element i to the cone labelled by the matrix
    mats[i], found by the matrices' base-p codes; {"no cone": (i,)} for the
    first i whose matrix labels no cone, so no index is ever -1."""
    slot = np.full(p ** mats[0].size, -1, dtype=np.intp)
    slot[gf.base_p(np.array(cones.elements, dtype=np.int64).reshape(-1, *mats.shape[1:]), p)] = np.arange(cones.order)
    img = slot[gf.base_p(mats, p)]
    if (img < 0).any():
        return {"no cone": (int(img.argmin()),)}
    return sg.morphism_witnesses(source, cones.table, img)


def cone_semigroup_json(cat: SubspaceCategory, semigroup, code: _ConeCode, vertex, rows):
    """The cone semigroup as JSON, each cone written from its code row: its
    vertex, and at each object the component's matrix over the canonical
    bases, dim(object) rows of dim(vertex) coordinates."""
    objects = [obj.to_json() for obj in cat.objects]
    spans = list(zip(objects, code.offsets, code.offsets[1:]))
    cones = [
        {"vertex": objects[k],
         "components": [{"object": obj, "matrix": [row[:code.dims[k]] for row in r[lo:hi]]}
                        for obj, lo, hi in spans]}
        for k, r in zip(vertex.tolist(), rows.tolist())
    ]
    doc = {
        "p": cat.p,
        "n": cat.n,
        "elements": [list(map(list, e)) for e in semigroup.elements],
        "table": semigroup.table.tolist(),
        "cones": cones,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def m_sets(p, n):
    """The M-set of the principal cone of every idempotent e in
    Sing(GF(p)^n), read two ways: (idempotents, by_iso, by_sum), the
    idempotents in code order and two boolean arrays over them and the proper
    subspaces a in enumerate_subspaces order.

    by_iso[i, a]: the cone's component at a, e restricted to a into Im e, is
    an isomorphism, that is dim a = rank e and rank(B_a.e) = dim a.
    by_sum[i, a]: a (+) ker e = V, that is dim a + dim ker e = n and
    rank [B_a; I - e] = n, since ker e = Im(I - e) for an idempotent e.  B_a
    is a's basis padded with zero rows.  The ranks of the pairs of matching
    dimensions come from one batched rref per side; no category or cone is
    built."""
    lattice = gf.subspace_lattice(p, n)
    bases, dims = lattice.bases[:-1], lattice.dims[:-1]
    ranks, idem = gf._ranks(p, n), gf.idempotent_matrices(p, n)
    complement = (np.eye(n, dtype=np.int64) - idem) % p
    by_iso, by_sum = np.zeros((2, len(idem), len(dims)), dtype=bool)
    i, a = np.nonzero(dims == ranks[gf.base_p(idem, p)][:, None])
    by_iso[i, a] = gf.rref_stack(bases[a] @ idem[i] % p, p)[2] == dims[a]
    i, a = np.nonzero(dims + ranks[gf.base_p(complement, p)][:, None] == n)
    by_sum[i, a] = gf.rref_stack(np.concatenate([bases[a], complement[i]], axis=1), p)[2] == n
    return idem, by_iso, by_sum
