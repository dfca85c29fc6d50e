"""Exact computation with singular endomorphism semigroups over small prime
fields: subspace and annihilator categories, normal cones, cross-connection
semigroups and the amalgams attached to bundle fibers."""
