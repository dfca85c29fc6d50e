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


@dataclass(frozen=True)
class ConeReport:
    typing_ok: bool
    restriction_compatible: bool
    globally_linear: bool
    is_normal: bool
    iso_objects: tuple
    witness: tuple | None

    @property
    def well_formed(self):
        return self.typing_ok and self.restriction_compatible and self.globally_linear


def cone_to_endo(cat: SubspaceCategory, cone: Cone):
    """The endomorphism whose restrictions give the components, or None.

    Components on the coordinate lines pin down a candidate matrix; the cone
    is coherent exactly when every component is a restriction of it.  For
    n >= 3 restriction-compatibility already forces this; at n = 2 the lines
    share no proper superspace, so the check is a real constraint.
    """
    p, n = cat.p, cat.n
    if n == 1:
        candidate = gf.zero_endo(p, n)
    else:
        rows = []
        for k in range(n):
            ek = tuple(1 if i == k else 0 for i in range(n))
            line = gf.subspace_span([ek], n, p)
            comp = cone.components[cat.index(line)]
            rows.append(comp.apply(ek))
        candidate = Endo(p, n, tuple(rows))
    for obj, comp in zip(cat.objects, cone.components):
        for v in obj.basis:
            if comp.apply(v) != candidate.apply(v):
                return None
    return candidate


def validate_cone(cat: SubspaceCategory, cone: Cone) -> ConeReport:
    """Typing, restriction compatibility, global coherence, normality."""
    witness = None
    typing_ok = len(cone.components) == len(cat.objects) and cone.vertex in cat
    if typing_ok:
        for obj, comp in zip(cat.objects, cone.components):
            if comp.dom != obj or comp.cod != cone.vertex:
                typing_ok = False
                witness = ("typing", obj)
                break
    restriction_ok = typing_ok
    if typing_ok:
        for i, j in cat.inclusion_pairs:
            if i == j:
                continue
            small, big = cat.objects[i], cat.objects[j]
            incl = gf.inclusion_map(small, big)
            if incl.compose(cone.components[j]) != cone.components[i]:
                restriction_ok = False
                witness = ("restriction", small, big)
                break
    globally_linear = bool(restriction_ok and cone_to_endo(cat, cone) is not None)
    if restriction_ok and not globally_linear and witness is None:
        witness = ("not-globally-linear",)
    iso_objects = tuple(
        obj for obj, comp in zip(cat.objects, cone.components)
        if typing_ok and comp.is_iso()
    )
    return ConeReport(
        typing_ok, restriction_ok, globally_linear,
        bool(iso_objects), iso_objects, witness,
    )


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


def _assignment_space(cat: SubspaceCategory, vertex: Subspace):
    per_object = [list(gf.all_linear_maps(obj, vertex)) for obj in cat.objects]
    for combo in itertools.product(*per_object):
        yield Cone(vertex, combo)


EXHAUSTIVE_CONE_LIMIT = 1 << 16


def enumerate_normal_cones(cat: SubspaceCategory):
    """The cone semigroup, with the map back to inducing endomorphisms.

    The closed-form order of Sing(GF(p)^n), which the cone semigroup has, is
    checked against the associativity guard before any cone is built.  Small
    categories are then swept assignment by assignment and filtered through
    validate_cone; larger ones take the principal cones of every singular
    endomorphism and verify closure instead.

    Either way every cell of the Cayley table is a cone composition, never a
    matrix shortcut, filled once per (row cone, component) pair:
    cone_compose(g1, g2) reads g2 only through its component at the vertex
    of g1, so all columns that share that component share the product.  Each
    distinct component is factored once, and each row pushes g1 along each
    distinct epimorphic part once; the product must be an enumerated cone.

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
    space = sum(
        _count_assignments(cat, v) for v in cat.objects
    )
    if space <= EXHAUSTIVE_CONE_LIMIT:
        cones = []
        for vertex in cat.objects:
            for cone in _assignment_space(cat, vertex):
                rep = validate_cone(cat, cone)
                if rep.well_formed and rep.is_normal:
                    cones.append(cone)
    else:
        cones = [principal_cone(cat, a) for a in gf.enumerate_endos(p, n, singular_only=True)]
    endos = [cone_to_endo(cat, c) for c in cones]
    if any(e is None for e in endos):
        raise AssertionError("normal cone without an inducing endomorphism")
    order = sorted(range(len(cones)), key=lambda i: endos[i].rows)
    cones = [cones[i] for i in order]
    endos = [endos[i] for i in order]
    if not all(is_normal_cone(c) for c in cones):
        raise ValueError("cone composition requires normal cones")
    index = {c: i for i, c in enumerate(cones)}
    # per object k: (epimorphic part of a component at k, columns having it)
    columns = []
    for k in range(len(cat.objects)):
        by_component = {}
        for j, c in enumerate(cones):
            by_component.setdefault(c.components[k], []).append(j)
        columns.append([
            (normal_factorization(through).epi, cols)
            for through, cols in by_component.items()
        ])
    table = []
    for g1 in cones:
        row = [None] * len(cones)
        for epi, cols in columns[cat.index(g1.vertex)]:
            prod = index.get(cone_star(cat, g1, epi))
            if prod is None:
                raise AssertionError("cone composition left the enumerated set")
            for j in cols:
                row[j] = prod
        table.append(tuple(row))
    semigroup = sg.from_table(tuple(e.rows for e in endos), table)
    return semigroup, tuple(cones), tuple(endos)


def _count_assignments(cat, vertex):
    total = 1
    for obj in cat.objects:
        total *= cat.p ** (obj.dim * vertex.dim)
    return total


def identity_cone(cat: SubspaceCategory, obj: Subspace) -> Cone:
    """A normal cone with the given vertex whose component there is the
    identity: the principal cone of the projection onto obj."""
    if obj.dim == 0:
        e = gf.zero_endo(cat.p, cat.n)
    else:
        proj = retraction(gf.full_space(cat.p, cat.n), obj)
        rows = []
        for k in range(cat.n):
            ek = tuple(1 if i == k else 0 for i in range(cat.n))
            rows.append(proj.apply(ek))
        e = Endo(cat.p, cat.n, tuple(rows))
    return principal_cone(cat, e)


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
