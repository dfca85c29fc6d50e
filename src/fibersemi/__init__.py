"""Exact computation with singular endomorphism semigroups over small prime
fields: subspace and annihilator categories, normal cones, cross-connection
semigroups and the amalgams attached to bundle fibers."""

from .gf import (
    Endo,
    GuardExceeded,
    Subspace,
    endo,
    enumerate_automorphisms,
    enumerate_endos,
    enumerate_subspaces,
    identity_endo,
    singular_count,
    subspace_lattice,
    subspace_span,
    transpose,
)
from .semigroups import (
    Amalgam,
    FiniteSemigroup,
    GreenStructure,
    NotAssociative,
    SemigroupMorphism,
    from_table,
    green_relations,
    idempotents,
    is_regular,
    null_semigroup_fixture,
    semigroup_from_json,
    verify_amalgam,
    verify_morphism,
)
from .subspace_category import (
    SubspaceCategory,
    build_category,
)
from .annihilators import (
    AnnihilatorCategory,
    DualObjectTag,
    build_annihilator_category,
    build_ta_semigroup,
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
