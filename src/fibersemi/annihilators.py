"""The annihilator category of GF(p)^n and its identification with the
subspace category of the dual space.

Objects are the annihilators of nonzero subspaces, which are exactly the
proper subspaces of the dual (zero included); its cone semigroup realizes the
opposite of the singular endomorphism semigroup through transposition.
"""

from __future__ import annotations

from . import gf
from . import semigroups as sg
from . import subspace_category as sc
from .gf import Record, Subspace


class DualObjectTag(Record):
    """A nonzero subspace paired with its annihilator in dual coordinates."""
    primal: Subspace
    dual: Subspace

    def to_json(self):
        return {"primal": self.primal.to_json(), "dual": self.dual.to_json()}


class AnnihilatorCategory:
    """Annihilators of nonzero subspaces, with all linear maps between them.

    dual_category is the subspace category of the dual space; tags align its
    objects with their primal partners.
    """

    def __init__(self, p, n, tags, dual_category):
        self.p = p
        self.n = n
        self.tags = tags
        self.dual_category = dual_category

    @property
    def objects(self):
        return self.dual_category.objects


def build_annihilator_category(p, n) -> AnnihilatorCategory:
    """Index the annihilators A° of all nonzero A and check they are exactly
    the proper subspaces of the dual, with containment reversed."""
    nonzero = [a for a in gf.enumerate_subspaces(p, n) if a.dim > 0]
    duals = {gf.annihilator(a): a for a in nonzero}
    dual_category = sc.build_category(p, n)
    if set(duals) != set(dual_category.objects):
        raise AssertionError("annihilators of nonzero subspaces must be the proper dual subspaces")
    if any(b.contains_subspace(a) and not gf.annihilator(a).contains_subspace(gf.annihilator(b))
           for a in nonzero for b in nonzero):
        raise AssertionError("annihilator failed to reverse containment")
    tags = tuple(DualObjectTag(duals[y], y) for y in dual_category.objects)
    return AnnihilatorCategory(p, n, tags, dual_category)


class DualIsoReport(Record):
    object_pairs: tuple      # (annihilator object, dual-space object), identical sets
    counts_match: bool
    double_annihilator_ok: bool
    order_reversal_ok: bool

    @property
    def ok(self):
        return self.counts_match and self.double_annihilator_ok and self.order_reversal_ok


def iso_to_dual_subspace_category(acat: AnnihilatorCategory) -> DualIsoReport:
    """Exhibit the identification with the subspace category of the dual.

    Annihilator objects are realized as canonical subspaces of the dual, so
    the object bijection is A -> A° against the dual category's own list and
    the morphism bijection is the identity on linear maps; composition is
    then preserved by construction, and so are the hom-sets.  What is
    checked: the two object lists coincide with matching counts, and
    annihilation is an order-reversing bijection with (A°)° = A.
    """
    dcat = acat.dual_category
    pairs = tuple((t.dual, obj) for t, obj in zip(acat.tags, dcat.objects))
    counts = (
        len(acat.tags) == len(dcat.objects)
        and len({t.primal for t in acat.tags}) == len(acat.tags)
    )
    double = all(gf.annihilator(t.dual) == t.primal for t in acat.tags)
    reversal = all(t.primal.contains_subspace(s.primal) == s.dual.contains_subspace(t.dual)
                   for s in acat.tags for t in acat.tags)
    return DualIsoReport(pairs, counts, double, reversal)


class DualConeSemigroupReport(Record):
    semigroup: sg.FiniteSemigroup
    anti_isomorphism: sg.MorphismReport


def build_ta_semigroup(p, n) -> DualConeSemigroupReport:
    """Cone semigroup of the annihilator category via the dual-space
    identification, plus the transpose anti-isomorphism from the primal side.

    The returned semigroup is the cone semigroup over the dual space; its
    labels are matrices acting on dual coordinates.  Transposition is checked
    to reverse products: the map sends alpha to the dual cone of alpha^T, and
    the verified morphism is alpha -> that image over the opposite table,
    which is exactly (alpha^T).(beta^T) = (beta.alpha)^T for every pair.
    """
    acat = build_annihilator_category(p, n)
    ta = sc.coded_normal_cones(acat.dual_category)[0]
    sing = sg.sing_semigroup(p, n)
    # the opposite of an associative table is associative
    opposite = sg.FiniteSemigroup(sing.elements, sing.table.T)
    mapping = tuple(ta.index(gf.transpose(a).rows) for a in opposite.elements)
    report = sg.verify_morphism(sg.SemigroupMorphism(opposite, ta, mapping))
    return DualConeSemigroupReport(ta, report)
