"""Acceptance families at target levels, their inversion, and the robust
acceptance correspondence: a position is robust-acceptable at level m exactly
when its whole uncertainty set is acceptable at m."""

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
    "robust_level_by_sets",
]

_TOL = 1e-9


def is_acceptable(rho: RiskFunctional, X: Position, m: float) -> bool:
    """X lies in the acceptance set at target level m: rho(X) <= m."""
    return rho(X) <= m


def _level_by_bisection(holds, X: Position, unbounded: str) -> float:
    """inf{m : holds(m)} for a test that holds at all large enough m: a
    bracket around the values of X grows until it straddles the level, then
    bisection to relative width 1e-12."""
    hi = float(np.max(np.abs(X.values))) + 10.0
    lo = -hi
    grow = 0
    while not holds(hi):
        lo, hi = hi, hi + 2.0 * (hi - lo)
        grow += 1
        if grow > 80:
            raise ValueError(f"bracket expansion failed: {unbounded}")
    while holds(lo):
        lo, hi = lo - 2.0 * (hi - lo), lo
        grow += 1
        if grow > 160:
            raise ValueError("bracket expansion failed downward")
    return _bisect(lambda m: not holds(m), lo, hi, 200, 1e-12)[1]


def acceptance_level(rho: RiskFunctional, X: Position) -> float:
    """inf{m : X acceptable at m}; bisection, reproduces rho(X) within 1e-9."""
    return _level_by_bisection(lambda m: is_acceptable(rho, X, m), X, "risk appears unbounded")


def robust_acceptance_check(
    rho: RiskFunctional,
    family: UncertaintyFamily,
    X: Position,
    m: float,
    seed: int = 0,
) -> dict:
    """Check the two sides of: robust-acceptable at m iff U_X subset of the
    acceptance set at m. Both sides reduce to the same scalar supremum; with a
    LowerBound solver only the forward implication is asserted."""
    rv = robust_value(rho, family, X, seed=seed)
    x_in_robust = rv.value <= m + _TOL
    u_subset_a = rv.value <= m + _TOL  # sup over U_X of rho, same solve
    agree = (x_in_robust == u_subset_a) if rv.exact else (not x_in_robust or u_subset_a)
    return {
        "x_in_robust": x_in_robust,
        "U_subset_A": u_subset_a,
        "agree": agree,
        "robust_value": rv.value,
        "guarantee": rv.guarantee,
    }


def robust_level_by_sets(rho: RiskFunctional, family: UncertaintyFamily, X: Position, seed: int = 0) -> float:
    """inf{m : U_X subset of the level-m acceptance set}, by bisection on m."""
    rv = robust_value(rho, family, X, seed=seed)
    return _level_by_bisection(lambda m: rv.value <= m + _TOL, X, "robust level unbounded")
