"""Test oracles for the cone semigroup: the LinearMap-level cone validation
and assignment sweep that enumerate_normal_cones decided with before cones
became integer code rows.  They are kept here, unchanged, so the tests can
compare the coded sweep with them assignment for assignment."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from factorization_oracle import all_linear_maps
import gf_helpers as gh
from fibersemi import gf
from fibersemi.gf import Endo, Subspace
from fibersemi.subspace_category import Cone, SubspaceCategory


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


def _assignment_space(cat: SubspaceCategory, vertex: Subspace):
    per_object = [list(all_linear_maps(obj, vertex)) for obj in cat.objects]
    for combo in itertools.product(*per_object):
        yield Cone(vertex, combo)

