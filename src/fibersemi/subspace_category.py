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
from dataclasses import dataclass

import numpy as np

from . import gf
from . import semigroups as sg
from .gf import Endo, LinearMap, Subspace


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

    def lines(self):
        return [obj for obj in self.objects if obj.dim == 1]

    def all_morphisms(self):
        for a in self.objects:
            for b in self.objects:
                yield from gf.all_linear_maps(a, b)


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


@dataclass(frozen=True)
class NormalFactorization:
    q: LinearMap    # retraction dom -> c', c' the complement of ker f in dom
    u: LinearMap    # isomorphism c' -> image
    j: LinearMap    # inclusion image -> cod
    epi: LinearMap  # q then u, the epimorphic component

    def recomposed(self) -> LinearMap:
        return self.q.compose(self.u).compose(self.j)


def normal_factorization(f: LinearMap) -> NormalFactorization:
    """Split f as retraction, isomorphism, inclusion (f = q.u.j).

    The retraction projects onto the deterministic complement of ker f in
    the domain, along ker f itself; that makes q.u agree with f everywhere,
    not only on the complement.
    """
    ker = f.kernel_subspace()
    cprime = gf.complement_in(ker, f.dom)
    img = f.image_subspace()
    q = projection_along(f.dom, cprime, ker)
    u = gf.linear_map(cprime, img, [f.apply(v) for v in cprime.basis])
    j = gf.inclusion_map(img, f.cod)
    return NormalFactorization(q, u, j, q.compose(u))


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class Cone:
    """Vertex plus one component per category object, in object order."""
    vertex: Subspace
    components: tuple  # LinearMap per object, aligned with cat.objects

    def component_at(self, cat: SubspaceCategory, obj: Subspace) -> LinearMap:
        return self.components[cat.index(obj)]

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

EXHAUSTIVE_CONE_LIMIT = 1 << 16


def _base_p(mats, p):
    """Base-p number of the row-major entries of each matrix in a stack."""
    flat = mats.reshape(len(mats), -1)
    return flat @ p ** np.arange(flat.shape[1] - 1, -1, -1, dtype=np.int64)


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
        return vertex * self.stride + _base_p(rows, self.p)

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
    equal dimensions having its code in GL_d(p).
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
    vdim = np.array(code.dims)[vertex]
    normal = vdim == 0  # into the zero vertex the zero object's component is invertible
    for d in set(code.dims) - {0}:
        autos = np.array([a.rows for a in gf.enumerate_automorphisms(p, d)], dtype=np.int64)
        invertible = np.zeros(p ** (d * d), dtype=bool)
        invertible[_base_p(autos, p)] = True
        at = np.flatnonzero(vdim == d)
        for k in (k for k, dk in enumerate(code.dims) if dk == d):
            normal[at] |= invertible[_base_p(code.block(rows[at], k)[:, :, :d], p)]
    return endos, ok & normal


def _push(rows, epi: LinearMap, p):
    """cone_star on code rows: every component of every row, all into the
    vertex epi.dom, composed with epi."""
    e = np.zeros((epi.dom.dim, rows.shape[2]), dtype=np.int64)
    e[:, :epi.cod.dim] = np.array(epi.matrix, dtype=np.int64).reshape(epi.dom.dim, epi.cod.dim)
    return rows[:, :, :epi.dom.dim] @ e % p


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


def enumerate_normal_cones(cat: SubspaceCategory):
    """The cone semigroup, with the map back to inducing endomorphisms.

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
    component at the vertex of g1, and normal_factorization reads that
    component only through its values in GF(p)^n, so all columns whose
    components there agree as maps share the product.  Each such component
    is factored once, every row with that vertex is pushed along its
    epimorphic part in one product, and the products are looked up by code;
    each must be an enumerated cone.

    Returns (semigroup, cones, endos) with parallel indexing; labels are the
    matrices of the inducing endomorphisms.
    """
    p, n = cat.p, cat.n
    size = gf.singular_count(p, n)
    if size > gf.ASSOC_GUARD:
        raise gf.GuardExceeded(
            f"the cone semigroup of GF({p})^{n} has order {size}, "
            f"beyond the associativity guard {gf.ASSOC_GUARD}"
        )
    code = _ConeCode(cat)
    exhaustive = sum(p ** (code.depth * d) for d in code.dims) <= EXHAUSTIVE_CONE_LIMIT
    vertex, rows = (_assignments if exhaustive else _principal_rows)(cat, code)
    endos, ok = _admissible(cat, code, vertex, rows)
    if not (exhaustive or ok.all()):
        raise AssertionError("a principal cone is not a well-formed normal cone")
    # in order of the endomorphisms' codes, by a slot per matrix rather than
    # np.argsort, whose sort kernels add to peak RSS
    slot = np.full(p ** (n * n), -1)
    slot[_base_p(endos[ok], p)] = np.flatnonzero(ok)
    by_endo = slot[slot >= 0]
    if len(by_endo) != ok.sum():
        raise AssertionError("two normal cones with one inducing endomorphism")
    vertex, rows, endos = vertex[by_endo], rows[by_endo], endos[by_endo]
    index = {c: i for i, c in enumerate(code.codes(vertex, rows).tolist())}
    order = len(rows)
    table = np.empty((order, order), dtype=np.int32)
    cones = _cones(cat, code, vertex, rows)
    ambient = code.ambient(vertex, rows)
    for k in range(len(cat.objects)):
        left = np.flatnonzero(vertex == k)
        if not len(left):
            continue
        columns = {}
        for j, key in enumerate(code.block(ambient, k)):
            columns.setdefault(key.tobytes(), []).append(j)
        for cols in columns.values():
            epi = normal_factorization(cones[cols[0]].components[k]).epi
            prod = code.codes(cat.index(epi.cod), _push(rows[left], epi, p))
            found = [index.get(c, -1) for c in prod.tolist()]
            if -1 in found:
                raise AssertionError("cone composition left the enumerated set")
            table[np.ix_(left, cols)] = np.array(found)[:, None]
    labels = tuple(_matrix(e) for e in endos.tolist())
    ints = tuple(range(order))  # one int object per index, shared by every row
    semigroup = sg.from_table(labels, (tuple(map(ints.__getitem__, row)) for row in table.tolist()))
    return semigroup, cones, tuple(Endo(p, n, e) for e in labels)


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
        "table": [list(r) for r in semigroup.table],
        "cones": [c.to_json(cat) for c in cones],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
