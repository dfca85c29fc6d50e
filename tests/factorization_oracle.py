"""Test oracle for normal factorization: the LinearMap-level body that
subspace_category.normal_factorization computed each morphism with before
it read the per-shape arrays, with the kernel, image and hom-set
enumerations it used, kept here so the tests can compare the two morphism
for morphism."""

from __future__ import annotations

import itertools

from fibersemi import gf
from fibersemi.gf import LinearMap, Subspace
from fibersemi.subspace_category import NormalFactorization, SubspaceCategory, projection_along


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
    vecs = [f.cod.from_coords(row) for row in f.matrix]
    return gf.subspace_span(vecs, f.cod.n, f.p)


def kernel_subspace(f: LinearMap) -> Subspace:
    coords = gf.solve_homogeneous(gf.mat_transpose(f.matrix), f.dom.dim, f.p) \
        if f.matrix else ()
    vecs = [f.dom.from_coords(c) for c in coords]
    if f.cod.dim == 0:
        vecs = list(f.dom.basis)
    return gf.subspace_span(vecs, f.dom.n, f.p)


def normal_factorization(f: LinearMap) -> NormalFactorization:
    """Split f as retraction, isomorphism, inclusion (f = q.u.j), one
    morphism at a time through rref."""
    ker = kernel_subspace(f)
    cprime = gf.complement_in(ker, f.dom)
    img = image_subspace(f)
    q = projection_along(f.dom, cprime, ker)
    u = gf.linear_map(cprime, img, [f.apply(v) for v in cprime.basis])
    j = gf.inclusion_map(img, f.cod)
    return NormalFactorization(q, u, j, q.compose(u))


def recomposed(nf: NormalFactorization) -> LinearMap:
    """q then u then j, which must give back the factored morphism."""
    return nf.q.compose(nf.u).compose(nf.j)
