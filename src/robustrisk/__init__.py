"""Worst-case risk evaluation over families of uncertainty sets.

The package evaluates a base risk measure at the worst member of a
position-indexed uncertainty set, verifies which structural properties
survive that robustification, cross-checks values against scenario-based
dual representations, and extends the machinery to acceptance sets and
capital allocation.
"""

from .prob_core import (
    Position,
    ProbSpace,
    ScenarioMeasure,
    density_norm,
    expectation,
    expectation_under,
    quantile_function,
    rearranged_expectation,
    relative_entropy,
    same_distribution,
    wasserstein_distance,
)
from .risk_measures import (
    AxiomFlags,
    LossFunction,
    RiskFunctional,
    certainty_equivalent,
    entropic,
    expectation_floor,
    expected_shortfall,
    exponential_loss,
    identity_loss,
    neg_expectation,
    power_loss,
    q_entropic,
    worst_case,
)
from .uncertainty import (
    FAMILY_PROPERTIES,
    PropertyVerdict,
    UncertaintyFamily,
    check_property,
    cone_witness,
    level_band,
    level_upper_set,
    minkowski_split,
    p_norm_ball,
    replay_witness,
    solidify,
    sup_norm_ball,
    wasserstein_ball,
)
from .robustify import (
    RobustValue,
    largest_family_member,
    largest_family_properties,
    robust_value,
    verify_preservation,
)
from .duality import (
    PenaltySurface,
    dual_argmax,
    loss_penalty,
    minimal_penalty,
    non_expansivity_check,
    penalty_type,
    simplex_grid,
    support_function,
    verify_convex_cash_additive_dual,
    verify_primal_dual,
    verify_robust_dual,
    verify_second_approach_dual,
    wasserstein_bound_check,
)
from .acceptance import acceptance_level, is_acceptable, robust_acceptance_check
from .allocation import (
    AllocationRule,
    check_no_undercut,
    check_sandwich,
    check_subadditive_allocation,
    gradient_car,
    robust_car,
)

__version__ = "0.1.0"
