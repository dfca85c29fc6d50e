"""The annihilator category of GF(p)^n and its identification with the
subspace category of the dual space.

Objects are the annihilators of nonzero subspaces, which are exactly the
proper subspaces of the dual (zero included); its cone semigroup realizes the
opposite of the singular endomorphism semigroup through transposition, which
verify-all's cone-semigroup check decides on the cone semigroup it builds.
The category is read from gf.subspace_lattice, whose positions serve both
sides: the dual category is the subspace category of the dual space, so its
objects are the proper subspaces at their lattice positions.
"""

from __future__ import annotations

import numpy as np

from . import gf


def build_annihilator_category(p, n):
    """The primal partner of every dual object: primal[k] is the lattice
    position of the nonzero subspace whose annihilator is the proper
    subspace at position k.  Checks first that annihilation maps the
    nonzero subspaces onto the proper ones; iso_to_dual_subspace_category
    decides that it reverses containment."""
    lattice = gf.subspace_lattice(p, n)
    nonzero = np.flatnonzero(lattice.dims > 0)
    # proper subspaces take the positions before the full space's
    if not np.array_equal(np.sort(lattice.ann[nonzero]), np.arange(len(lattice.dims) - 1)):
        raise AssertionError("annihilators of nonzero subspaces must be the proper dual subspaces")
    primal = np.empty(len(nonzero), dtype=np.intp)
    primal[lattice.ann[nonzero]] = nonzero
    return primal


def iso_to_dual_subspace_category(p, n):
    """None if A -> A° identifies the annihilator category with the subspace
    category of the dual, else a witness.

    Dual object k is the annihilator of primal[k] (build_annihilator_category)
    and the morphisms on both sides are all linear maps between the same
    subspaces, so the identification is the identity on hom-sets and
    composition is kept.  What is decided, on the lattice's ann and contains
    arrays: (A°)° = A, that is the annihilator of dual object k is primal[k];
    and order reversal, A ⊆ B iff B° ⊆ A°, for every pair of objects.  The
    containment of mutually annihilating B ⊂ A = B° is read on both sides
    alike, so it rests on the lattice's own build."""
    lattice = gf.subspace_lattice(p, n)
    primal = build_annihilator_category(p, n)
    double = lattice.ann[:-1] != primal
    if double.any():
        k = int(double.argmax())
        return {"failure": "double annihilator", "object": gf.rows_json(p, lattice.basis(k))}
    # [i, j]: primal[j] ⊆ primal[i], against dual object i inside dual object j
    reversal = lattice.contains[np.ix_(primal, primal)] != lattice.contains[:-1, :-1].T
    if reversal.any():
        i, j = divmod(int(reversal.argmax()), len(primal))
        return {"failure": "order reversal",
                "objects": [gf.rows_json(p, lattice.basis(i)), gf.rows_json(p, lattice.basis(j))]}
    return None

