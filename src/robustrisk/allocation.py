"""Capital allocation rules, their robustification, and the associated
inequality checks (no-undercut, sandwich, sub-allocation under hypotheses)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .duality import SimplexGrid, _minimal_penalty_rows, _polish_simplex, _support_of, dual_argmax, minimal_penalty
from .prob_core import Position, ProbSpace, ScenarioMeasure, _masses, expectation_under
from .risk_measures import RiskFunctional
from .robustify import robust_value
from .uncertainty import (
    PropertyVerdict,
    UncertaintyFamily,
    _require_count,
    counterexample,
    no_counterexample,
    random_position,
    unknown,
)

__all__ = [
    "AllocationRule",
    "gradient_car",
    "robust_car",
    "check_no_undercut",
    "check_sandwich",
    "check_subadditive_allocation",
]

_GRID_TOL = 1e-6
_COVERAGE_SAMPLES = 24  # candidate budget for the union-coverage hypothesis


@dataclass(frozen=True)
class AllocationRule:
    """A capital allocation rule Lambda with Lambda(Y, Y) = rho(Y)."""

    name: str
    lam: Callable[[Position, Position], float]
    base_rho: RiskFunctional
    params: dict = field(default_factory=dict)

    def __call__(self, X: Position, Y: Position) -> float:
        return self.lam(X, Y)

    def _robust(self, family, X, Y, seed) -> Optional[float]:
        """sup_{Z in U_X} Lambda(Z, Y) where the rule knows it, else None."""
        return None


class _GradientRule(AllocationRule):
    def _robust(self, family, X, Y, seed):
        # Lambda(., Y) is linear, so its supremum over U_X is the support
        # function at the aggregate's dual scenario
        W = _masses(self.params["scenario_for"](Y))
        return float(_support_of(family, X, seed)(W)[0] - _minimal_penalty_rows(self.base_rho, W, X.space)[0])


def gradient_car(rho: RiskFunctional, grid: SimplexGrid) -> AllocationRule:
    """Dual-argmax allocation: charge X the scenario price of the aggregate Y.

    Lambda(X, Y) = E_{Q*}[-X] - c_rho(Q*) with Q* the dual argmax for rho(Y).
    For the shipped convex cash-additive measures Q* is the measure's closed
    form, and the CAR identity Lambda(Y, Y) = rho(Y) holds to rounding. A
    measure without one takes the argmax over ``grid`` (ties by smallest
    density 2-norm), refined by a local search on the simplex; ``grid``
    serves only that fallback. No-undercut holds for convex cash-additive
    rho by the Fenchel inequality.
    """
    if not (rho.flags.convex and rho.flags.cash_additive):
        raise ValueError(f"gradient allocation requires a convex cash-additive measure, got {rho.name}")

    def scenario_for(Y: Position) -> ScenarioMeasure:
        Qs = rho._dual_scenario(Y)
        if Qs is not None:
            return Qs
        Q0 = dual_argmax(rho, Y, grid, 2.0)
        # refine the lattice argmax so the identity Lambda(Y,Y)=rho(Y) holds
        # to solver precision rather than lattice precision
        w0 = _masses(Q0)[0]
        _, w = _polish_simplex(
            grid.space,
            lambda W: -(W @ Y.values) - _minimal_penalty_rows(rho, W, grid.space),
            w0,
            grid.step,
        )
        return Q0 if w is w0 else ScenarioMeasure(grid.space, w / grid.space.probs)

    def lam(X: Position, Y: Position) -> float:
        Qs = scenario_for(Y)
        return -expectation_under(Qs, X) - minimal_penalty(rho, Qs)

    return _GradientRule(
        name=f"gradient_car({rho.name})",
        lam=lam,
        base_rho=rho,
        params={"scenario_for": scenario_for},
    )


def robust_car(rule: AllocationRule, family: UncertaintyFamily, X: Position, Y: Position, seed: int = 0) -> float:
    """Robustified allocation sup_{Z in U_X} Lambda(Z, Y).

    A rule that knows this supremum gives it; the gradient rule's is exact on
    norm balls via the Hoelder closed forms. Other rules take the best of X
    and the members ``discretize`` yields at resolution 0.1 and budget 64.
    """
    closed = rule._robust(family, X, Y, seed)
    if closed is not None:
        return closed
    best = rule(X, Y)
    for Z in family.discretize(X, 0.1, 64, seed):
        best = max(best, rule(Z, Y))
    return best


def check_no_undercut(
    rule: AllocationRule,
    family: UncertaintyFamily,
    samples: int = 500,
    seed: int = 0,
    *,
    space: ProbSpace,
) -> PropertyVerdict:
    """Base no-undercut Lambda(X,Y) <= rho(X), then the robust version
    robust Lambda(X,Y) <= robust rho(X), sampled."""
    _require_count(samples, "samples")
    rng = np.random.default_rng(seed)
    rho = rule.base_rho
    for t in range(samples):
        X, Y = random_position(space, rng), random_position(space, rng)
        base = rule(X, Y)
        if base > rho(X) + _GRID_TOL:
            return counterexample({"X": X, "Y": Y, "lam": base, "rho": rho(X)}, "base rule undercuts")
        lam_t = robust_car(rule, family, X, Y, seed=seed + t)
        rv = robust_value(rho, family, X, seed=seed + t)
        slack = _GRID_TOL if rv.exact else 1e-3
        if lam_t > rv.value + slack:
            return counterexample(
                {"X": X, "Y": Y, "lam_robust": lam_t, "rho_robust": rv.value},
                "robust rule undercuts",
            )
    return no_counterexample(samples)


def check_sandwich(
    rule: AllocationRule,
    family: UncertaintyFamily,
    samples: int = 500,
    seed: int = 0,
    *,
    space: ProbSpace,
) -> PropertyVerdict:
    """rho(Y) <= robust Lambda(Y,Y) <= robust rho(Y), sampled over Y."""
    _require_count(samples, "samples")
    rng = np.random.default_rng(seed)
    rho = rule.base_rho
    for t in range(samples):
        Y = random_position(space, rng)
        if not family.membership(Y, Y):
            return counterexample({"Y": Y}, "Y not a member of its own uncertainty set")
        mid = robust_car(rule, family, Y, Y, seed=seed + t)
        lo = rho(Y)
        rv = robust_value(rho, family, Y, seed=seed + t)
        slack = _GRID_TOL if rv.exact else 1e-3
        if mid < lo - _GRID_TOL or mid > rv.value + slack:
            return counterexample({"Y": Y, "lo": lo, "mid": mid, "hi": rv.value})
    return no_counterexample(samples)


def check_subadditive_allocation(
    rule: AllocationRule,
    family: UncertaintyFamily,
    Y: Position,
    parts: Sequence[Position],
    seed: int = 0,
) -> PropertyVerdict:
    """Sub-allocation: robust Lambda(Y,Y) <= sum_i robust Lambda(Y_i,Y), under
    the hypotheses (i) the union of the parts' sets covers U_Y, (ii) 0 lies in
    every part's set, (iii) Lambda(0,Y) >= 0. Hypothesis failures yield
    Unknown, never a counterexample; under (i) alone the max form is checked.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("at least one component is required")
    space = Y.space
    total = parts[0]
    for Yi in parts[1:]:
        total = total + Yi
    if not np.allclose(total.values, Y.values, rtol=0.0, atol=1e-9):
        return unknown("hypothesis failure: components do not sum to the aggregate")

    # (i) union coverage on sampled members of U_Y
    for Z in family.discretize(Y, 0.25, _COVERAGE_SAMPLES, seed):
        if not any(family.membership(Yi, Z) for Yi in parts):
            return unknown("hypothesis failure: a sampled member of U_Y is outside every component set")

    zero = Position(space, np.zeros(space.n))
    for i, Yi in enumerate(parts):
        if not family.membership(Yi, zero):
            return unknown(f"hypothesis failure: 0 not in the uncertainty set of component {i}")
    if rule(zero, Y) < -_GRID_TOL:
        return unknown("hypothesis failure: the rule charges the zero position")

    lhs = robust_car(rule, family, Y, Y, seed=seed)
    terms = [robust_car(rule, family, Yi, Y, seed=seed + 1 + i) for i, Yi in enumerate(parts)]
    if lhs > sum(terms) + _GRID_TOL * len(parts):
        return counterexample({"Y": Y, "parts": parts, "lhs": lhs, "terms": terms}, "sum form")
    if lhs > max(terms) + _GRID_TOL:
        return counterexample({"Y": Y, "parts": parts, "lhs": lhs, "terms": terms}, "max form")
    return no_counterexample(1 + len(parts))
