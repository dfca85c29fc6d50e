"""GF(p) constructions the tests use and the program does not: the full
space, the zero map, sums and intersections of subspaces, and the Gaussian
binomial that counts subspaces of each dimension."""

from __future__ import annotations

from fibersemi import gf
from fibersemi.gf import Endo, Subspace


def full_space(p, n) -> Subspace:
    return Subspace(p, n, gf.identity_matrix(n))


def zero_endo(p, n) -> Endo:
    return Endo(p, n, gf.zero_matrix(n, n))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return gf.subspace_span(a.basis + b.basis, a.n, a.p)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection via the left kernel of the stacked bases."""
    stacked = a.basis + b.basis
    if not stacked:
        return gf.zero_subspace(a.p, a.n)
    kern = gf.solve_homogeneous(gf.mat_transpose(stacked), len(stacked), a.p)
    return gf.subspace_span([a.from_coords(k[: a.dim]) for k in kern], a.n, a.p)


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** n - p ** i
        den *= p ** k - p ** i
    return num // den
