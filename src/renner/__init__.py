"""Exact-arithmetic combinatorics of normal reductive monoids.

Root data and Weyl groups, rational polyhedral cones with exact duality,
Hilbert bases of affine monoids, the wedge monoid and Renner cone attached
to a parabolic, weight sets of dual Weyl modules, and the enveloping
semigroup's pair cone with its idempotent projection.
"""

from .cones import (
    LatticeMonoid,
    RationalCone,
    SaturationCertificate,
    dual_cone,
    enumerate_points,
    hilbert_basis,
    is_saturated,
    monoid_contains,
)
from .errors import BudgetExceededError, InternalError, SearchBudgetExceededError
from .parabolic_monoid import (
    ParabolicData,
    build_parabolic,
    cartan_closure_semigroup,
    check_duality,
    check_intersection_lemma,
    check_saturation,
    check_weight_hull,
    in_wm_dominant,
    renner_cone,
)
from .repr_weights import (
    WeightSet,
    check_cor_uinv,
    check_levi_restriction,
    dual_weyl_weights,
    up_invariant_weights,
)
from .reports import CheckReport
from .root_datum import (
    Coweight,
    LeviSubset,
    RootDatum,
    Weight,
    WeylElement,
    build_datum,
    dominance_leq,
    dominant_representative,
    levi,
    pairing,
    positive_coroots,
    weyl_group,
    weyl_orbit,
)
from .vinberg import (
    CpPoint,
    VinbergCone,
    check_image,
    eval_at_cp,
    lattice_pairs,
    project_idempotent,
    vinberg_cone,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
