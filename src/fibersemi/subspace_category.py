"""The category of proper subspaces of GF(p)^n and its cone semigroup.

Objects are the proper subspaces (zero included), morphisms all linear maps,
inclusions the containment order.  Cones assign a morphism into a fixed
vertex to every object, compatibly with restriction; composing normal cones
through epimorphic components makes them a semigroup isomorphic to the
singular endomorphisms.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import gf
from . import semigroups as sg
from .gf import Endo, LinearMap, Record, Subspace


class SubspaceCategory:
    """Proper subspaces of GF(p)^n with all linear maps as morphisms."""

    def __init__(self, p, n, objects):
        self.p = p
        self.n = n
        self.objects = objects
        self._index = {obj: i for i, obj in enumerate(objects)}
        self.inclusion_pairs = tuple(
            (i, j)
            for i, a in enumerate(objects)
            for j, b in enumerate(objects)
            if b.contains_subspace(a)
        )

    def index(self, obj: Subspace) -> int:
        return self._index[obj]

    def __contains__(self, obj):
        return obj in self._index


def build_category(p, n) -> SubspaceCategory:
    return SubspaceCategory(p, n, gf.enumerate_subspaces(p, n, proper_only=True))


# ---------------------------------------------------------------------------
# retractions and normal factorization

def projection_along(b: Subspace, a: Subspace, kernel: Subspace) -> LinearMap:
    """The map b -> a splitting b = a (+) kernel, identity on a, zero on kernel."""
    stacked = a.basis + kernel.basis
    images = []
    for v in b.basis:
        t = gf.express_in_basis(v, stacked, b.p)
        if t is None:
            raise ValueError("projection requires b = a + kernel")
        images.append(a.from_coords(t[: a.dim]))
    return gf.linear_map(b, a, images)


def retraction(b: Subspace, a: Subspace) -> LinearMap:
    """Projection b -> a along the deterministic complement of a inside b,
    so the inclusion a -> b followed by it is the identity on a."""
    return projection_along(b, a, gf.complement_in(a, b))


class NormalFactorization(Record):
    q: LinearMap    # retraction dom -> c', c' the complement of ker f in dom
    u: LinearMap    # isomorphism c' -> image
    j: LinearMap    # inclusion image -> cod
    epi: LinearMap  # q then u, the epimorphic component


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
    complement = (((np.cumsum(~lead, axis=1) - 1)[:, None] == slots[:, None]) & ~lead[:, None]).astype(np.int64)
    at_pivots = ((np.cumsum(pivot[:, :db], axis=1) - 1)[:, :, None] == slots) & pivot[:, :db, None]
    q, u = proj @ complement.transpose(0, 2, 1) % p, complement @ mats @ at_pivots
    factors = SimpleNamespace(matrices=mats, rank=rank, kernel=kernel, complement=complement,
                              q=q, u=u, image=red[:, :, :db], epi=q @ u % p)
    for a in vars(factors).values():
        a.flags.writeable = False  # shared by every caller
    return factors


def normal_factorization(f: LinearMap) -> NormalFactorization:
    """Split f as retraction, isomorphism, inclusion (f = q.u.j), read from
    shape_factors at f's matrix.  The retraction projects onto the
    deterministic complement of ker f in the domain along ker f itself, so
    q.u agrees with f everywhere, not only on the complement."""
    a, b, p = f.dom, f.cod, f.p
    fac = shape_factors(p, a.dim, b.dim)
    i = gf.base_p(np.array(f.matrix, dtype=np.int64).reshape(1, -1) % p, p)[0]
    r = fac.rank[i]
    cprime, img = _span_in(a, fac.complement[i, :r].tolist()), _span_in(b, fac.image[i, :r].tolist())
    q, u, j, epi = (_matrix(m.tolist())
                    for m in (fac.q[i, :, :r], fac.u[i, :r, :r], fac.image[i, :r], fac.epi[i, :, :r]))
    return NormalFactorization(LinearMap(a, cprime, q), LinearMap(cprime, img, u),
                               LinearMap(img, b, j), LinearMap(a, img, epi))


def factorization_witness(cat: SubspaceCategory):
    """None if normal_factorization splits every morphism of cat, else a
    witness.  It reads f: a -> b's matrices at f's matrix M alone, so one
    pass per shape decides q.u.image = M and rank u = rank M for all.  The
    objects enter by one translation per coordinate subspace: at a,
    _span_in(a, E_J) is complement_in(K.B_a, a) and projection_along onto it
    along K.B_a has q's matrix; at b, _span_in(b, R) is the canonical span
    of R.B_b.  So q is that retraction and j the image's inclusion."""
    p, n, dims = cat.p, cat.n, sorted({obj.dim for obj in cat.objects})
    kernels, images = {}, {}
    for da, db in itertools.product(dims, dims):
        fac = shape_factors(p, da, db)
        ok = (fac.q @ fac.u @ fac.image % p == fac.matrices).all(axis=(1, 2))
        bad = np.flatnonzero(~ok | (gf.rref_stack(fac.u, p)[2] != fac.rank))
        if len(bad):
            return {"failure": "factorization identity", "shape": [da, db],
                    "matrix": fac.matrices[bad[0]].tolist()}
        for i, r in enumerate(fac.rank.tolist()):
            kernels[da, r, fac.kernel[i].tobytes(), fac.complement[i].tobytes(), fac.q[i].tobytes()] = fac, i
            images[db, r, fac.image[i, :r].tobytes()] = fac, i
    for obj in cat.objects:
        def span(rows):
            return gf.subspace_span([obj.from_coords(c) for c in rows], n, p)
        for (d, r, *_), (fac, i) in kernels.items():
            if d != obj.dim:
                continue
            ker, cprime = span(fac.kernel[i, r:].tolist()), _span_in(obj, fac.complement[i, :r].tolist())
            if (gf.complement_in(ker, obj) != cprime
                    or projection_along(obj, cprime, ker).matrix != _matrix(fac.q[i, :, :r].tolist())):
                return {"failure": "retraction translation", "object": obj.to_json()}
        for (d, r, _), (fac, i) in images.items():
            rows = fac.image[i, :r].tolist()
            if d == obj.dim and _span_in(obj, rows) != span(rows):
                return {"failure": "image translation", "object": obj.to_json()}
    return None


# ---------------------------------------------------------------------------
# cones

class Cone(Record):
    """Vertex plus one component per category object, in object order."""
    vertex: Subspace
    components: tuple  # LinearMap per object, aligned with cat.objects

    def to_json(self, cat: SubspaceCategory):
        return {
            "vertex": self.vertex.to_json(),
            "components": [
                {"object": obj.to_json(), "matrix": [list(r) for r in m.matrix]}
                for obj, m in zip(cat.objects, self.components)
            ],
        }


def principal_cone(cat: SubspaceCategory, alpha: Endo) -> Cone:
    """Cone with vertex Im(alpha) whose component at A restricts alpha to A."""
    if alpha.is_invertible():
        raise ValueError("principal cone requires a singular endomorphism")
    vertex = alpha.image()
    comps = tuple(gf.restriction(alpha, obj, vertex) for obj in cat.objects)
    return Cone(vertex, comps)


def cone_star(cat: SubspaceCategory, cone: Cone, f: LinearMap) -> Cone:
    """Push a cone along an epimorphism out of its vertex."""
    if f.dom != cone.vertex:
        raise ValueError("map must start at the cone vertex")
    if not f.is_epi():
        raise ValueError("map must be an epimorphism")
    if f.cod not in cat:
        raise ValueError("codomain must be an object of the category")
    return Cone(f.cod, tuple(c.compose(f) for c in cone.components))


def is_normal_cone(cone: Cone) -> bool:
    return any(c.is_iso() for c in cone.components)


def cone_compose(cat: SubspaceCategory, g1: Cone, g2: Cone) -> Cone:
    """g1 . g2 = g1 * (epimorphic component of g2 at the vertex of g1)."""
    if not (is_normal_cone(g1) and is_normal_cone(g2)):
        raise ValueError("cone composition requires normal cones")
    through = g2.components[cat.index(g1.vertex)]
    epi = normal_factorization(through).epi
    return cone_star(cat, g1, epi)


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
        self.stacked = np.array(
            [row for obj in cat.objects for row in obj.basis], dtype=np.int64
        ).reshape(self.depth, n)
        # vertex bases padded to width rows, for ambient()
        self.bases = np.zeros((len(cat.objects), self.width, n), dtype=np.int64)
        for k, obj in enumerate(cat.objects):
            self.bases[k, :obj.dim] = np.array(obj.basis, dtype=np.int64).reshape(obj.dim, n)

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
    alphas = np.array([a.rows for a in gf.enumerate_endos(p, n, singular_only=True)], dtype=np.int64)
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
    inclusion matrices; global linearity by checking that every component is
    the restriction of the endomorphism; normality by some component between
    equal dimensions having full rank in shape_factors.
    """
    p, n = cat.p, cat.n
    ok = np.ones(len(rows), dtype=bool)
    for i, j in cat.inclusion_pairs:
        if i != j:
            incl = np.array(gf.inclusion_map(cat.objects[i], cat.objects[j]).matrix, dtype=np.int64)
            incl = incl.reshape(code.dims[i], code.dims[j])
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
    """cone_star on code rows: every component of every row, all into a
    vertex of dimension len(epi), composed with the epimorphism whose matrix
    is epi."""
    e = np.zeros((len(epi), rows.shape[2]), dtype=np.int64)
    e[:, :epi.shape[1]] = epi
    return rows[:, :, :len(epi)] @ e % p


def _matrix(block):
    return tuple(map(tuple, block))


def _cones(cat: SubspaceCategory, code: _ConeCode, vertex, rows):
    """The Cone of each code row."""
    spans = list(zip(cat.objects, code.offsets, code.offsets[1:]))
    cones = []
    for k, r in zip(vertex.tolist(), rows.tolist()):
        v, d = cat.objects[k], code.dims[k]
        cones.append(Cone(v, tuple(
            LinearMap(obj, v, _matrix(row[:d] for row in r[lo:hi])) for obj, lo, hi in spans
        )))
    return tuple(cones)


def principal_codes(cat: SubspaceCategory, code: _ConeCode):
    """The code of the principal cone of every singular endomorphism, in Sing order."""
    return code.codes(*_principal_rows(cat, code))


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
    matrix shortcut, filled one vertex object at a time:
    cone_compose(g1, g2) reads g2 only through the epimorphic part of its
    component at the vertex of g1, which depends only on that component's
    values in GF(p)^n, so all columns whose components there agree as maps
    share the product.  Each such component's epimorphic part and image are
    read from shape_factors once, as in normal_factorization, every row with
    that vertex is pushed along it in one product, and the products are
    looked up by code; each must be an enumerated cone.

    Elements are in order of the inducing endomorphisms' codes, labelled by
    their matrices.
    """
    p, n = cat.p, cat.n
    size = gf.singular_count(p, n)
    if size > gf.ASSOC_GUARD:
        raise gf.GuardExceeded(
            f"the cone semigroup of GF({p})^{n} has order {size}, "
            f"beyond the associativity guard {gf.ASSOC_GUARD}"
        )
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


def enumerate_normal_cones(cat: SubspaceCategory):
    """(semigroup, cones, endos) with parallel indexing: coded_normal_cones with
    each code row as a Cone, and the map back to inducing endomorphisms."""
    semigroup, code, vertex, rows = coded_normal_cones(cat)
    return semigroup, _cones(cat, code, vertex, rows), tuple(Endo(cat.p, cat.n, e) for e in semigroup.elements)


def m_set(cat: SubspaceCategory, cone: Cone):
    """Objects where an idempotent cone's component is an isomorphism.

    Idempotency is decided by composing the cone with itself.
    """
    if cone_compose(cat, cone, cone) != cone:
        raise ValueError("m-set requires a cone idempotent under composition")
    return tuple(
        obj for obj, comp in zip(cat.objects, cone.components) if comp.is_iso()
    )


def cone_semigroup_json(cat: SubspaceCategory, semigroup, cones):
    doc = {
        "p": cat.p,
        "n": cat.n,
        "elements": [list(map(list, e)) for e in semigroup.elements],
        "table": semigroup.table.tolist(),
        "cones": [c.to_json(cat) for c in cones],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
