"""Test oracles for gf.subspace_lattice: the Subspace-object sweeps over
every subspace or every ordered pair of subspaces that the subspace
category, the annihilator check and the cross-connection index were built
with before they read the lattice's arrays; the subspace category as
Subspace objects (SubspaceCategory), which the package held before its
functions took (p, n) and read the lattice; the proper subspaces and a
subspace -> position dict, which gf gave before the lattice's positions
were the one identity; and mutated, a lattice with one containment dropped
or two annihilator positions swapped, for the mutation tests of the checks
that read it."""

from __future__ import annotations

import numpy as np

import gf_helpers as gh
from fibersemi import gf
from gf_helpers import Subspace


class SubspaceCategory:
    """Proper subspaces of GF(p)^n with all linear maps as morphisms, at
    their positions in gf.subspace_lattice (the full space comes last)."""

    def __init__(self, p, n):
        lattice = gf.subspace_lattice(p, n)
        self.p = p
        self.n = n
        self.objects = gh.subspaces(p, n)[:-1]
        self._index = {obj: i for i, obj in enumerate(self.objects)}
        # (i, j) with objects[i] inside objects[j], by i then j
        self.inclusion_pairs = tuple(map(tuple, np.argwhere(lattice.contains[:-1, :-1].T).tolist()))

    def index(self, obj: Subspace) -> int:
        return self._index[obj]

    def __contains__(self, obj):
        return obj in self._index


def build_category(p, n) -> SubspaceCategory:
    return SubspaceCategory(p, n)


def proper_subspaces(p, n):
    """Every subspace of GF(p)^n but the full space, in lattice order."""
    return gh.subspaces(p, n)[:-1]


def positions(p, n):
    """subspace -> its position in gf.subspace_lattice(p, n)."""
    return {s: k for k, s in enumerate(gh.subspaces(p, n))}


def containment(subspaces):
    """contains[u][v]: v is a subspace of u, one contains_subspace per pair."""
    return [[gh.contains_subspace(u, v) for v in subspaces] for u in subspaces]


def direct_sums(subspaces):
    return [[gh.is_direct_sum(u, v) for v in subspaces] for u in subspaces]


def annihilators(subspaces):
    """The position of each subspace's annihilator, rref'd one at a time."""
    at = {s: k for k, s in enumerate(subspaces)}
    return [at[gh.annihilator(s)] for s in subspaces]


def inclusion_pairs(objects):
    """(i, j) with objects[i] inside objects[j], by i then j."""
    return tuple((i, j) for i, a in enumerate(objects) for j, b in enumerate(objects)
                 if gh.contains_subspace(b, a))


def mutated(p, n, drop=None, swap=None) -> gf.SubspaceLattice:
    """A copy of gf.subspace_lattice(p, n) with contains[drop] set False, or
    the annihilator positions of the two subspaces at swap exchanged."""
    lattice = gf.subspace_lattice(p, n)
    contains, ann = lattice.contains.copy(), lattice.ann.copy()
    if drop is not None:
        contains[drop] = False
    if swap is not None:
        ann[list(swap)] = ann[list(swap[::-1])]
    fields = {k: getattr(lattice, k) for k in lattice._fields}
    return gf.SubspaceLattice(**{**fields, "contains": contains, "ann": ann})


def first_proper_containment(p, n):
    """(u, v), the first pair in row-major order of two distinct proper
    subspaces with v inside u."""
    contains = gf.subspace_lattice(p, n).contains[:-1, :-1].copy()
    contains[range(len(contains)), range(len(contains))] = False
    return tuple(int(x) for x in divmod(int(contains.argmax()), len(contains)))


def plant(monkeypatch, p, n, lattice):
    """Have gf.subspace_lattice return lattice at (p, n) and the real
    lattice elsewhere."""
    real, at = gf.subspace_lattice, (p, n)
    monkeypatch.setattr(gf, "subspace_lattice", lambda *pn: lattice if pn == at else real(*pn))
