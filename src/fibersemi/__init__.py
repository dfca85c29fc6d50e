"""Exact computation with singular endomorphism semigroups over small prime
fields: subspace and annihilator categories, normal cones, cross-connection
semigroups and the amalgams attached to bundle fibers."""

from .gf import (
    Endo,
    GuardExceeded,
    LinearMap,
    Subspace,
    annihilator,
    complement_in,
    endo,
    enumerate_automorphisms,
    enumerate_endos,
    enumerate_subspaces,
    identity_endo,
    is_direct_sum,
    singular_count,
    subspace_span,
    transpose,
    zero_subspace,
)
from .semigroups import (
    Amalgam,
    FiniteSemigroup,
    GreenStructure,
    NotAssociative,
    SemigroupMorphism,
    amalgam_to_json,
    from_multiplication,
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
    Cone,
    NormalFactorization,
    SubspaceCategory,
    build_category,
    cone_compose,
    cone_star,
    enumerate_normal_cones,
    m_set,
    normal_factorization,
    principal_cone,
    retraction,
)
from .annihilators import (
    AnnihilatorCategory,
    DualObjectTag,
    build_annihilator_category,
    build_ta_semigroup,
    iso_to_dual_subspace_category,
)
from .crossconn import (
    CrossConnection,
    CrossConnSemigroup,
    LinkedPair,
    build_cross_conn_semigroup,
    cross_connection,
)
from .bundles import (
    BundleAmalgam,
    FiberFamilySpec,
    assemble_amalgam,
    block_embed,
    build_core,
    fiber_family,
)

__version__ = "0.1.0"
