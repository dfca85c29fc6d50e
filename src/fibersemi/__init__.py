"""Exact computation with singular endomorphism semigroups over small prime
fields: subspace and annihilator categories, normal cones, cross-connection
semigroups and the amalgams attached to bundle fibers."""

from .gf import (
    GuardExceeded,
    enumerate_automorphisms,
    enumerate_subspaces,
    singular_count,
    subspace_lattice,
)
from .semigroups import (
    FiniteSemigroup,
    GreenStructure,
    NotAssociative,
    from_table,
    is_regular,
    null_semigroup_fixture,
    semigroup_from_json,
)
from .annihilators import (
    build_annihilator_category,
    iso_to_dual_subspace_category,
)
from .bundles import (
    BundleAmalgam,
    FiberFamilySpec,
    assemble_amalgam,
    build_core,
    fiber_family,
)

__version__ = "0.1.0"
