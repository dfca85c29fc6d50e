"""Test oracles for the cone semigroup: the Cone object API, a vertex and one
LinearMap component per object, with principal cones, pushing along an
epimorphism, composition and M-sets; the view of code rows as Cones; the
LinearMap-level cone validation and assignment sweep that the cone semigroup
was decided with before cones became integer code rows; and _assignments,
every assignment as code rows, which coded_normal_cones swept at n = 1 and
at (2,2) and (3,2) before it took the principal cones at every point.  They
are kept here, unchanged, so the tests can compare the code rows, the cone
JSON, sc._admissible and the batched M-sets with them.  span_in is the
Subspace the cone semigroup built for each product's vertex before it
looked the vertex up by code.  swap_two_cone_labels plants a mutant cone
semigroup for the checks that map Sing onto it.  build_ta_semigroup is the
dual cone semigroup as the package built it before verify-all's
cone-semigroup check decided the transposition claim on its own build."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import factorization_oracle as fo
from factorization_oracle import all_linear_maps
import gf_helpers as gh
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi import subspace_category as sc
from fibersemi.gf import Record
from gf_helpers import Endo, LinearMap, Subspace
from lattice_oracle import SubspaceCategory
from fibersemi.subspace_category import _ConeCode


def span_in(obj: Subspace, coords) -> Subspace:
    """The subspace of obj spanned by X.B, X = coords in RREF, B obj's basis.
    X.B is in RREF (row i leads where B's row at X's pivot i does, and its
    column at B's pivot k is X's column k), so it is the canonical basis."""
    return Subspace(obj.p, obj.n, tuple(gh.from_coords(obj, c) for c in coords))


def restriction(alpha: Endo, dom: Subspace, cod: Subspace) -> LinearMap:
    """alpha restricted to dom, landing in cod."""
    return gh.linear_map(dom, cod, [gh.apply(alpha, v) for v in dom.basis])


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
    vertex = gh.image(alpha)
    comps = tuple(restriction(alpha, obj, vertex) for obj in cat.objects)
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
    epi = fo.from_shape_factors(through).epi
    return cone_star(cat, g1, epi)


def _cones(cat: SubspaceCategory, code: _ConeCode, vertex, rows):
    """The Cone of each code row."""
    spans = list(zip(cat.objects, code.offsets, code.offsets[1:]))
    cones = []
    for k, r in zip(vertex.tolist(), rows.tolist()):
        v, d = cat.objects[k], code.dims[k]
        cones.append(Cone(v, tuple(
            LinearMap(obj, v, tuple(tuple(row[:d]) for row in r[lo:hi])) for obj, lo, hi in spans
        )))
    return tuple(cones)


def enumerate_normal_cones(cat: SubspaceCategory):
    """(semigroup, cones, endos) with parallel indexing: coded_normal_cones with
    each code row as a Cone, and the map back to inducing endomorphisms."""
    semigroup, code, vertex, rows = sc.coded_normal_cones(cat.p, cat.n)
    return semigroup, _cones(cat, code, vertex, rows), tuple(gh.from_code(e, cat.p, cat.n) for e in semigroup.elements)


def m_set(cat: SubspaceCategory, cone: Cone):
    """Objects where an idempotent cone's component is an isomorphism.

    Idempotency is decided by composing the cone with itself.
    """
    if cone_compose(cat, cone, cone) != cone:
        raise ValueError("m-set requires a cone idempotent under composition")
    return tuple(
        obj for obj, comp in zip(cat.objects, cone.components) if comp.is_iso()
    )


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
        candidate = gh.zero_endo(p, n)
    else:
        rows = []
        for k in range(n):
            ek = tuple(1 if i == k else 0 for i in range(n))
            line = gh.subspace_span([ek], n, p)
            comp = cone.components[cat.index(line)]
            rows.append(comp.apply(ek))
        candidate = Endo(p, n, tuple(rows))
    for obj, comp in zip(cat.objects, cone.components):
        for v in obj.basis:
            if comp.apply(v) != gh.apply(candidate, v):
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
            incl = gh.inclusion_map(small, big)
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


def _assignment_space(cat: SubspaceCategory, vertex: Subspace):
    per_object = [list(all_linear_maps(obj, vertex)) for obj in cat.objects]
    for combo in itertools.product(*per_object):
        yield Cone(vertex, combo)



def _assignments(code: _ConeCode):
    """(vertex, rows) of every assignment of a morphism into each vertex,
    vertex by vertex in the order of itertools.product over the objects'
    hom-sets, each lexicographic by matrix entries."""
    p = code.p
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


def swap_two_cone_labels(monkeypatch, i=1, j=2):
    """Have sc.coded_normal_cones return its semigroup with the labels of
    elements i and j exchanged, its table unchanged; (i, j)."""
    real = sc.coded_normal_cones

    def planted(p, n):
        smg, *rest = real(p, n)
        labels = list(smg.elements)
        labels[i], labels[j] = labels[j], labels[i]
        return (sg.FiniteSemigroup(tuple(labels), smg.table), *rest)

    monkeypatch.setattr(sc, "coded_normal_cones", planted)
    return i, j


def build_ta_semigroup(p, n):
    """(semigroup, witnesses): the cone semigroup of the annihilator
    category, which is the cone semigroup over the dual space labelled by
    the codes of matrices acting on dual coordinates, and the morphism witnesses
    (sc.cone_map_witnesses) of alpha -> the dual cone of alpha^T from the
    opposite of Sing's table.  Empty witnesses say that transposition is an
    anti-isomorphism, (alpha^T).(beta^T) = (beta.alpha)^T for every pair;
    the opposite of an associative table is associative."""
    ta = sc.coded_normal_cones(p, n)[0]
    transposed = gf._sing_matrices(p, n).transpose(0, 2, 1)
    return ta, sc.cone_map_witnesses(ta, gf.sing_table(p, n).T, transposed, p)
