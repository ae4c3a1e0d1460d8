"""Acceptance families at target levels, their inversion, and the robust
acceptance correspondence: a position is robust-acceptable at level m exactly
when its whole uncertainty set is acceptable at m, that is when its robust
value is at most m."""

from __future__ import annotations

import math

from .prob_core import Position
from .risk_measures import RiskFunctional
from .robustify import robust_value
from .uncertainty import UncertaintyFamily

__all__ = [
    "is_acceptable",
    "acceptance_level",
    "robust_acceptance_check",
]

_TOL = 1e-9


def is_acceptable(rho: RiskFunctional, X: Position, m: float) -> bool:
    """X lies in the acceptance set at target level m: rho(X) <= m."""
    return rho(X) <= m


def acceptance_level(rho: RiskFunctional, X: Position) -> float:
    """inf{m : X acceptable at m}, which is rho(X) itself: the sets {rho <= m}
    recover rho exactly, +inf included. A NaN value accepts at no level."""
    value = rho(X)
    if math.isnan(value):
        raise ValueError(f"{rho.name} is NaN at X: no level accepts it")
    return value


def robust_acceptance_check(
    rho: RiskFunctional,
    family: UncertaintyFamily,
    X: Position,
    m: float,
    seed: int = 0,
) -> dict:
    """Whether X is robust-acceptable at m, from one solve of its robust value;
    with a lower-bound solver a False verdict is certain, a True one is not."""
    rv = robust_value(rho, family, X, seed=seed)
    return {
        "x_in_robust": rv.value <= m + _TOL,
        "robust_value": rv.value,
        "guarantee": rv.guarantee,
    }
