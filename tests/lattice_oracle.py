"""Test oracles for gf.subspace_lattice: the Subspace-object sweeps over
every subspace or every ordered pair of subspaces that the subspace
category, the annihilator check and the cross-connection index were built
with before they read the lattice's arrays."""

from __future__ import annotations

import gf_helpers as gh


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
