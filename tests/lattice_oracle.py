"""Test oracles for gf.subspace_lattice: the Subspace-object sweeps over
every subspace or every ordered pair of subspaces that the subspace
category, the annihilator check and the cross-connection index were built
with before they read the lattice's arrays; and mutated, a lattice with one
containment dropped or two annihilator positions swapped, for the mutation
tests of the checks that read it."""

from __future__ import annotations

import gf_helpers as gh
from fibersemi import gf


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


def plant(monkeypatch, lattice):
    """Have gf.subspace_lattice return lattice at its own (p, n) and the
    real lattice elsewhere."""
    real, zero = gf.subspace_lattice, lattice.subspaces[0]
    monkeypatch.setattr(gf, "subspace_lattice", lambda p, n: lattice if (p, n) == (zero.p, zero.n) else real(p, n))
