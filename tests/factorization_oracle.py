"""Test oracle for normal factorization: the LinearMap-level body that
normal factorization computed each morphism with before it read the
per-shape arrays, with the kernel, image and hom-set enumerations it used,
and the same factorization read from subspace_category.shape_factors
(from_shape_factors), kept here so the tests can compare the two morphism
for morphism; and the retraction of every inclusion as a LinearMap, with
the per-pair loop that subspace_category.retraction_law is compared
against."""

from __future__ import annotations

import itertools

import numpy as np

import gf_helpers as gh
from fibersemi import gf
from fibersemi import subspace_category as sc
from fibersemi.gf import Record
from gf_helpers import LinearMap, Subspace
from lattice_oracle import SubspaceCategory


class NormalFactorization(Record):
    q: LinearMap    # retraction dom -> c', c' the complement of ker f in dom
    u: LinearMap    # isomorphism c' -> image
    j: LinearMap    # inclusion image -> cod
    epi: LinearMap  # q then u, the epimorphic component


def projection_along(b: Subspace, a: Subspace, kernel: Subspace) -> LinearMap:
    """The map b -> a splitting b = a (+) kernel, identity on a, zero on kernel."""
    stacked = a.basis + kernel.basis
    images = []
    for v in b.basis:
        t = gh.express_in_basis(v, stacked, b.p)
        if t is None:
            raise ValueError("projection requires b = a + kernel")
        images.append(gh.from_coords(a, t[: a.dim]))
    return gh.linear_map(b, a, images)


def retraction(b: Subspace, a: Subspace, complement=gh.complement_in) -> LinearMap:
    """Projection b -> a along the deterministic complement of a inside b,
    so the inclusion a -> b followed by it is the identity on a."""
    return projection_along(b, a, complement(a, b))


def retraction_law(cat: SubspaceCategory, complement=gh.complement_in):
    """Per inclusion pair of cat, in order: whether the inclusion a -> b then
    the retraction b -> a along the complement is the identity of a.  A
    pair with no projection along the complement (projection_along
    raises: a and the complement do not span b) breaks the law."""
    verdicts = []
    for i, j in cat.inclusion_pairs:
        a, b = cat.objects[i], cat.objects[j]
        try:
            verdicts.append(gh.inclusion_map(a, b).compose(retraction(b, a, complement)) == gh.identity_map(a))
        except ValueError:
            verdicts.append(False)
    return verdicts


def all_linear_maps(dom: Subspace, cod: Subspace):
    """Every linear map dom -> cod, lexicographic by matrix entries."""
    for entries in itertools.product(range(dom.p), repeat=dom.dim * cod.dim):
        m = tuple(entries[i * cod.dim:(i + 1) * cod.dim] for i in range(dom.dim))
        yield LinearMap(dom, cod, m)


def all_morphisms(cat: SubspaceCategory):
    """Every morphism of cat, hom-set by hom-set in object order."""
    for a in cat.objects:
        for b in cat.objects:
            yield from all_linear_maps(a, b)


def image_subspace(f: LinearMap) -> Subspace:
    vecs = [gh.from_coords(f.cod, row) for row in f.matrix]
    return gh.subspace_span(vecs, f.cod.n, f.p)


def kernel_subspace(f: LinearMap) -> Subspace:
    coords = gh.solve_homogeneous(gh.mat_transpose(f.matrix), f.dom.dim, f.p) \
        if f.matrix else ()
    vecs = [gh.from_coords(f.dom, c) for c in coords]
    if f.cod.dim == 0:
        vecs = list(f.dom.basis)
    return gh.subspace_span(vecs, f.dom.n, f.p)


def normal_factorization(f: LinearMap) -> NormalFactorization:
    """Split f as retraction, isomorphism, inclusion (f = q.u.j), one
    morphism at a time through rref."""
    ker = kernel_subspace(f)
    cprime = gh.complement_in(ker, f.dom)
    img = image_subspace(f)
    q = projection_along(f.dom, cprime, ker)
    u = gh.linear_map(cprime, img, [f.apply(v) for v in cprime.basis])
    j = gh.inclusion_map(img, f.cod)
    return NormalFactorization(q, u, j, q.compose(u))


def recomposed(nf: NormalFactorization) -> LinearMap:
    """q then u then j, which must give back the factored morphism."""
    return nf.q.compose(nf.u).compose(nf.j)


def from_shape_factors(f: LinearMap) -> NormalFactorization:
    """Split f as retraction, isomorphism, inclusion (f = q.u.j), read from
    sc.shape_factors at f's matrix.  The retraction projects onto the
    deterministic complement of ker f in the domain along ker f itself, so
    q.u agrees with f everywhere, not only on the complement."""
    import cone_oracle  # not at the top: cone_oracle imports this module
    a, b, p = f.dom, f.cod, f.p
    fac = sc.shape_factors(p, a.dim, b.dim)
    i = gf.base_p(np.array(f.matrix, dtype=np.int64).reshape(1, -1) % p, p)[0]
    r = fac.rank[i]
    cprime, img = (cone_oracle.span_in(a, fac.complement[i, :r].tolist()),
                   cone_oracle.span_in(b, fac.image[i, :r].tolist()))
    q, u, j, epi = (tuple(map(tuple, m.tolist()))
                    for m in (fac.q[i, :, :r], fac.u[i, :r, :r], fac.image[i, :r], fac.epi[i, :, :r]))
    return NormalFactorization(LinearMap(a, cprime, q), LinearMap(cprime, img, u),
                               LinearMap(img, b, j), LinearMap(a, img, epi))
