"""Toolkit for finite nonassociative algebra: IP loops, quasigroupoids,
matched pairs and their double cross products, exact factorizations, and
the exact-arithmetic linear structures they generate."""

from .bowtie import (
    bowtie_whq,
    canonical_iso,
    linearized_actions,
    module_law_report,
    nabla_phi,
    phi_map,
    verify_canonical_iso,
)
from .factorizations import (
    FactorizationCandidate,
    canonical_factorization,
    check_exact_factorization,
    enumerate_factorizations,
    reconstruct_matched_pair,
    sub_quasigroupoid,
)
from .hopf import (
    MagmaCoalgebra,
    check_whq,
    check_whq_morphism,
    derived_property_suite,
    is_cocommutative,
    is_commutative,
    is_hopf_quasigroup,
    magma_functor,
    magma_of_quasigroupoid,
    nabla,
    projections,
)
from .linalg import (
    GFElement,
    LinearMap,
    PrimeField,
    RATIONALS,
    convolution,
    free_coalgebra,
    span_basis,
    span_equal,
)
from .matched_pairs import (
    LeftAction,
    MatchedPair,
    MpMorphism,
    RightAction,
    check_left_action,
    check_matched_pair,
    check_mp_morphism,
    check_right_action,
    compose_mp_morphisms,
    dcp_pairs,
    double_cross_product,
    inclusion_a,
    inclusion_h,
    matched_pair,
    matched_pair_identity_suite,
    mixed_associativity_suite,
    mixed_pairs,
    mp_action_left,
    mp_discrete_right,
    theta,
    theta_identity_report,
)
from .quasigroupoids import (
    QgpdMorphism,
    Quasigroupoid,
    check_action_on_set,
    check_morphism,
    check_quasigroupoid,
    coarse_groupoid,
    compose_morphisms,
    derived_identity_suite,
    discrete_groupoid,
    from_quasigroup_action,
    identity_morphism,
    is_isomorphism,
    pair_quasigroupoid,
    pullback_quasigroupoid,
    quasigroup_as_quasigroupoid,
)
from .quasigroups import (
    FiniteQuasigroup,
    check_quasigroup,
    chein_double,
    cyclic_group,
    derived_inverse_suite,
    dihedral_group,
    direct_product,
    is_associative,
    moufang_loop_12,
    quasigroup,
    quaternion_group,
    symmetric_group,
)
from .reports import (
    BoundExceeded,
    DimensionMismatch,
    InvalidStructureError,
    StructureError,
    StructureReport,
    Violation,
    format_report,
)

__version__ = "0.1.0"
