"""The category of proper subspaces of GF(p)^n and its cone semigroup.

Objects are the proper subspaces (zero included), at their positions in
gf.subspace_lattice (the full space comes last), morphisms all linear maps,
inclusions the containment order.  Every function reads the category from
the lattice of its (p, n).  Cones assign a morphism into a fixed
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


def inclusion_pairs(p, n):
    """(i, j) for every pair of objects with object i inside object j, by i
    then j, as a (pairs, 2) array of lattice positions."""
    return np.argwhere(gf.subspace_lattice(p, n).contains[:-1, :-1].T)


# ---------------------------------------------------------------------------
# retractions and normal factorization

def complement_rows(pivot):
    """E_J for each mask of a stack of pivot masks (count, w): the unit rows
    at the non-pivot columns J in increasing order, then zero rows, as
    (count, w, w).  For an RREF matrix with those pivots they span the
    deterministic complement of its row space."""
    slots = np.arange(pivot.shape[1])
    return (((np.cumsum(~pivot, axis=1) - 1)[:, None] == slots[:, None]) & ~pivot[:, None]).astype(np.int64)


def retraction_law(p, n):
    """Whether the inclusion a -> b then the retraction b -> a is the
    identity on a, for every (a, b) of inclusion_pairs, in that order.
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
    lattice = gf.subspace_lattice(p, n)
    a, b = inclusion_pairs(p, n).T
    inside = np.arange(n) < lattice.dims[b, None]  # the columns of b's coordinates
    coords = np.take_along_axis(lattice.bases[a], lattice.pivots[b, None], axis=2) * inside[:, None]
    pivot = gf.rref_stack(coords, p)[1]
    rank = gf.rref_stack(np.concatenate([coords, complement_rows(pivot) * inside[:, None]], axis=1), p)[2]
    return (coords @ lattice.bases[b] % p == lattice.bases[a]).all(axis=(1, 2)) & (rank == lattice.dims[b])


SWEEP_LIMIT = 1 << 16  # rows of one batched sweep: matrices of a hom-set shape


def _check_sweep(p, da, db):
    """GuardExceeded if the da x db matrices over GF(p) are too many to sweep."""
    count = p ** (da * db)
    if count > SWEEP_LIMIT:
        raise gf.GuardExceeded(f"p^(da*db) = {count} matrices of shape {da}x{db} exceed limit {SWEEP_LIMIT}")


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
    _check_sweep(p, da, db)
    mats = gf.from_base_p(np.arange(count), p, da, db)
    red, pivot, _ = gf.rref_augmented(mats, p)
    rank, lead = pivot[:, :db].sum(axis=1), pivot[:, db:]
    kernel = np.where(slots[:, None] >= rank[:, None, None], red[:, :, db:], 0)
    # e_t - (the row of K leading at t) for each pivot t of K, e_t elsewhere
    proj = np.eye(da, dtype=np.int64) - (lead[:, None] & (kernel != 0)).astype(np.int64).transpose(0, 2, 1) @ kernel
    complement = complement_rows(lead)
    at_pivots = ((np.cumsum(pivot[:, :db], axis=1) - 1)[:, :, None] == slots) & pivot[:, :db, None]
    q, u = proj @ complement.transpose(0, 2, 1) % p, complement @ mats @ at_pivots
    factors = SimpleNamespace(matrices=mats, rank=rank, kernel=kernel, complement=complement,
                              q=q, u=u, image=red[:, :, :db], epi=q @ u % p)
    for a in vars(factors).values():
        a.flags.writeable = False  # shared by every caller
    return factors


def factorization_witness(p, n):
    """None if shape_factors' normal factorization (f = q.u.j: retraction
    onto the complement of ker f along ker f, isomorphism, inclusion of the
    image) splits every morphism of the category, else a witness.  It reads
    f: a -> b's arrays at f's matrix M alone, so one pass per shape decides
    q.u.image = M and rank u = rank M for all.

    The objects enter through their bases only, and x -> x.B_a is an
    isomorphism GF(p)^d -> a that keeps RREF (X.B_a is in RREF iff X is,
    and X.B_a at a's pivot columns is X).  So at every object a of
    dimension d, with K the kernel rows and E_J the complement rows:
    E_J.B_a spans the deterministic complement of K.B_a in a iff E_J is
    complement_rows of rref(K) with d - rank K = rank M rows; the
    projection onto it along K.B_a has q's matrix iff E_J.q = I and K.q = 0,
    since [E_J; K] is then a basis; and at b, R.B_b is the canonical basis
    of the image iff the image rows R are in RREF.  None of this
    depends on the object, so each is decided once per shape on the
    arrays, and the witness names the first object of the smallest
    dimension that fails, the retraction first, as a sweep over the
    objects in order would.  The proper subspaces have the dimensions
    0..n-1, so the subspace guard, then the sweep guard of every shape,
    refuse before the lattice is built or any shape is swept."""
    gf.subspace_count(p, n)
    dims = range(n)
    failing = {"retraction": set(), "image": set()}
    for da, db in itertools.product(dims, dims):
        _check_sweep(p, da, db)
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
                lattice = gf.subspace_lattice(p, n)
                return {"failure": f"{kind} translation",
                        "object": gf.rows_json(p, lattice.basis(int(np.argmax(lattice.dims == d))))}
    return None


# ---------------------------------------------------------------------------
# the cone semigroup on integer code rows

class _ConeCode:
    """A cone as one row: the matrix R stacking its components over the
    objects' canonical bases, in object order.  R has D = sum of the object
    dimensions rows, holds each row's coordinates in the vertex basis, and is
    padded with zero columns to n - 1, the largest vertex dimension.  The
    code vertex * p^(D(n-1)) + (R read in base p) is one int64 per cone."""

    def __init__(self, p, n):
        lattice = gf.subspace_lattice(p, n)
        self.p = p
        self.dims = lattice.dims[:-1].tolist()
        self.offsets = [0, *itertools.accumulate(self.dims)]
        self.depth, self.width = self.offsets[-1], n - 1
        self.stride = p ** (self.depth * self.width)
        if len(self.dims) * self.stride > np.iinfo(np.int64).max:
            raise AssertionError(f"cone codes of GF({p})^{n} do not fit in 63 bits")
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


def _principal_rows(p, n, code: _ConeCode):
    """(vertex, rows) of the principal cone of every singular endomorphism.

    The vertex is alpha's image, read from gf.sing_images.  B @ alpha
    pushes every object's basis through alpha; each component is read at
    the vertex's pivot columns and multiplied back to check the reading.
    """
    lattice, alphas = gf.subspace_lattice(p, n), gf._sing_matrices(p, n)
    vertex = gf.sing_images(p, n)[0]
    images = code.stacked @ alphas % p
    at_pivots = np.take_along_axis(images, lattice.pivots[vertex, None, :code.width], axis=2)
    rows = at_pivots * (np.arange(code.width) < lattice.dims[vertex, None, None])
    if not (rows @ code.bases[vertex] % p == images).all():
        raise AssertionError("principal cone component outside its vertex")
    return vertex, rows


def _admissible(p, n, code: _ConeCode, vertex, rows):
    """Where each row is a normal cone: compatible with restriction, decided
    over inclusion_pairs with the inclusion matrices, read from the lattice
    as in retraction_law, and normal, by some component between equal
    dimensions having full rank in shape_factors."""
    lattice = gf.subspace_lattice(p, n)
    ok = np.ones(len(rows), dtype=bool)
    for i, j in inclusion_pairs(p, n).tolist():
        if i != j:  # the inclusion's matrix: objects[i]'s basis at objects[j]'s pivot columns
            incl = lattice.bases[i, :code.dims[i]][:, lattice.pivots[j, :code.dims[j]]]
            ok &= (incl @ code.block(rows, j) % p == code.block(rows, i)).all(axis=(1, 2))
    vdim, normal = np.array(code.dims)[vertex], np.zeros(len(rows), dtype=bool)
    for k, d in enumerate(code.dims):
        at = np.flatnonzero(vdim == d)
        normal[at] |= shape_factors(p, d, d).rank[gf.base_p(code.block(rows[at], k)[:, :, :d], p)] == d
    return ok & normal


def _push(rows, epi, p):
    """Push cones along epimorphisms out of their vertex, on code rows: every
    component of every row composed with each epi[g], the matrix of a map
    out of the rows' vertex, of dimension epi.shape[1], padded with zero
    columns to the code width; as (epimorphisms, rows, D, width)."""
    return rows[None, :, :, :epi.shape[1]] @ epi[:, None] % p


def _image_object(p, n, v, image):
    """The position of the span of image[g].B_v[g] for every g, image[g] a
    component's image rows (zero past its rank) in the coordinates of
    object v[g], B_v[g] its basis; looked up by code in gf.row_spaces."""
    rows = np.zeros((len(v), n, n), dtype=np.int64)
    rows[:, :image.shape[1]] = image @ gf.subspace_lattice(p, n).bases[v, :image.shape[2]] % p
    return gf.row_spaces(p, n)[gf.base_p(rows, p)]


def coded_normal_cones(p, n):
    """The cone semigroup on code rows: (semigroup, code, vertex, rows), the
    cone of element i being the row (vertex[i], rows[i]) of code.

    The subspace guard, then the closed-form order of Sing(GF(p)^n), which
    the cone semigroup has, against the associativity guard, refuse before
    the lattice is built, and the code width against int64 before any cone
    is built.  Cones are code rows (_ConeCode).

    The cones are the principal cones of the singular endomorphisms, in Sing
    order: cone i, labelled i, is that of gf._sing_matrices' element i.
    Each must be a normal cone (_admissible), and no two may share a code.
    At n = 1 the zero cone is the only cone.  At n >= 3 the principal cones
    are every normal cone: any two vectors lie in a proper subspace, of
    dimension at most 2 < n, and compatibility makes the components agree
    where objects meet, so they glue to one map on GF(p)^n that is linear on
    the span of any two vectors, hence linear.  Normality makes its image
    the vertex, a proper subspace, so the map is singular and the cone is
    its principal cone.  At n = 2 no inclusion joins two lines, so a normal
    cone need not be linear, and the principal cones are only some of them:
    Nambooripad's cone semigroup of GF(p)^2 has (p+1)(p^(p+1)-1)+1 normal
    cones (22 at p = 2, 321 at p = 3), which are not built here (ROADMAP.md,
    item 15).

    Every cell of the Cayley table is a cone composition, never a matrix
    shortcut, filled one vertex object k at a time: g1.g2 pushes g1 along the
    epimorphic part of g2's component at the vertex of g1, so it reads g2
    only through that component, which depends only on its values in
    GF(p)^n, so all columns whose components there agree as maps share the
    product, and one column stands for each such group.  At k, each
    group's epimorphic part and image are read from shape_factors in one
    index per vertex dimension of the representatives, the images' objects
    are looked up by code in one batch (_image_object), every row with
    vertex k is pushed along every group's epimorphism in one product
    (_push), and the products are looked up by code; each must be one of
    the principal cones.  The epimorphism is pushed along as shape_factors
    holds it, with all its columns: epi = q.u and u = E_J.M.P, where P,
    from the image's pivot columns to the first r coordinates, has no
    nonzero column past r = rank M, so neither have u and epi, and the
    product is that of the epimorphism's first r columns.
    """
    gf.subspace_count(p, n)
    size = gf.singular_count(p, n)
    if size > gf.ASSOC_GUARD:
        raise gf.GuardExceeded(f"the cone semigroup of GF({p})^{n} has order {gf.count_text(size)}, "
                               f"beyond the associativity guard {gf.ASSOC_GUARD}")
    code = _ConeCode(p, n)
    vertex, rows = _principal_rows(p, n, code)
    if not _admissible(p, n, code, vertex, rows).all():
        raise AssertionError("a principal cone is not a normal cone")
    index = {c: i for i, c in enumerate(code.codes(vertex, rows).tolist())}
    order = len(rows)
    if len(index) != order:
        raise AssertionError("two principal cones with one code")
    table = np.empty((order, order), dtype=np.int32)
    ambient, vdims = code.ambient(vertex, rows), np.array(code.dims)[vertex]
    for k, dk in enumerate(code.dims):
        left = np.flatnonzero(vertex == k)
        if not len(left):
            continue
        # each component's group, keyed by its code (p^(dk.n) <= code.stride),
        # each group's first column, each column's group
        group, reps, of = {}, [], []
        for j, key in enumerate(gf.base_p(code.block(ambient, k), p).tolist()):
            if key not in group:
                group[key] = len(reps)
                reps.append(j)
            of.append(group[key])
        reps = np.array(reps)
        rdims = vdims[reps]
        epi, img = np.zeros((len(reps), dk, code.width), dtype=np.int64), np.empty(len(reps), dtype=np.intp)
        for dv in set(rdims.tolist()):
            at = np.flatnonzero(rdims == dv)
            fac = shape_factors(p, dk, dv)
            i = gf.base_p(code.block(rows[reps[at]], k)[:, :, :dv], p)
            epi[at, :, :dk] = fac.epi[i]
            img[at] = _image_object(p, n, vertex[reps[at]], fac.image[i])
        prod = _push(rows[left], epi, p)
        codes = code.codes(np.repeat(img, len(left)), prod.reshape(len(reps) * len(left), *prod.shape[2:]))
        found = [index.get(c, -1) for c in codes.tolist()]
        if -1 in found:
            raise AssertionError("cone composition left the enumerated set")
        table[left] = np.array(found).reshape(len(reps), len(left)).T[:, of]
    table.flags.writeable = False  # so from_table keeps it rather than a copy
    return sg.from_table(range(order), table), code, vertex, rows


def cone_semigroup_json(p, n, semigroup, code: _ConeCode, vertex, rows):
    """The cone semigroup as JSON, each cone written from its code row: its
    vertex, and at each object the component's matrix over the canonical
    bases, dim(object) rows of dim(vertex) coordinates.

    Byte for byte as json.dumps(sort_keys=True, separators=(",", ":"))
    writes {"cones", "elements", "n", "p", "table"}, but from pre-encoded
    pieces: each object's JSON once, each component once per distinct
    (object, vertex dimension, matrix), keyed by the padded block's code,
    the elements' matrices, Sing's in order, in one call, and the table
    through sg.table_json."""
    lattice = gf.subspace_lattice(p, n)
    objects = [json.dumps(gf.rows_json(p, lattice.basis(k)), sort_keys=True, separators=(",", ":"))
               for k in range(len(code.dims))]
    vdims = np.array(code.dims)[vertex]
    columns = []  # per object, every cone's component text
    for k, obj in enumerate(objects):
        block, encoded = code.block(rows, k), {}
        keys = (gf.base_p(block, p) * n + vdims).tolist()
        for i, key in enumerate(keys):
            if key not in encoded:
                matrix = json.dumps(block[i, :, :vdims[i]].tolist(), separators=(",", ":"))
                encoded[key] = f'{{"matrix":{matrix},"object":{obj}}}'
        columns.append([encoded[key] for key in keys])
    cones = ",".join([f'{{"components":[{",".join(parts)}],"vertex":{objects[k]}}}'
                      for k, parts in zip(vertex.tolist(), zip(*columns))])
    elements = json.dumps(gf._sing_matrices(p, n).tolist(), separators=(",", ":"))
    return (f'{{"cones":[{cones}],"elements":{elements},"n":{n},"p":{p},'
            f'"table":{sg.table_json(semigroup.table)}}}\n')


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
    ranks, idem = gf._ranks(p, n), gf.idempotent_matrices(p, n)  # the endomorphism guard first
    lattice = gf.subspace_lattice(p, n)
    bases, dims = lattice.bases[:-1], lattice.dims[:-1]
    complement = (np.eye(n, dtype=np.int64) - idem) % p
    by_iso, by_sum = np.zeros((2, len(idem), len(dims)), dtype=bool)
    i, a = np.nonzero(dims == ranks[gf.base_p(idem, p)][:, None])
    by_iso[i, a] = gf.rref_stack(bases[a] @ idem[i] % p, p)[2] == dims[a]
    i, a = np.nonzero(dims + ranks[gf.base_p(complement, p)][:, None] == n)
    by_sum[i, a] = gf.rref_stack(np.concatenate([bases[a], complement[i]], axis=1), p)[2] == n
    return idem, by_iso, by_sum
