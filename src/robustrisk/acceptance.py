"""Acceptance families at target levels, their inversion, and the robust
acceptance correspondence: a position is robust-acceptable at level m exactly
when its whole uncertainty set is acceptable at m, that is when its robust
value is at most m."""

from __future__ import annotations

import numpy as np

from .prob_core import Position, _bisect
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
    """inf{m : X acceptable at m}, reproducing rho(X) within 1e-9: a bracket
    around the values of X grows until it straddles the level, then bisection
    to relative width 1e-12."""
    hi = float(np.max(np.abs(X.values))) + 10.0
    lo = -hi
    grow = 0
    while not is_acceptable(rho, X, hi):
        lo, hi = hi, hi + 2.0 * (hi - lo)
        grow += 1
        if grow > 80:
            raise ValueError("bracket expansion failed: risk appears unbounded")
    while is_acceptable(rho, X, lo):
        lo, hi = lo - 2.0 * (hi - lo), lo
        grow += 1
        if grow > 160:
            raise ValueError("bracket expansion failed downward")
    return _bisect(lambda m: not is_acceptable(rho, X, m), lo, hi, 200, 1e-12)[1]


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
