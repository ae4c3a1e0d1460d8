"""Catalogue of base risk measures with declared axiom flags.

All measures follow the monotone-decreasing convention: larger payoffs mean
smaller risk. Flags are declared at construction and independently validated
by the sampled checks in the test suite; they drive solver selection in the
robustify and duality modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .prob_core import Position, ProbSpace, ScenarioMeasure, expectation, relative_entropy

__all__ = [
    "AxiomFlags",
    "RiskFunctional",
    "LossFunction",
    "exponential_loss",
    "identity_loss",
    "power_loss",
    "neg_expectation",
    "expectation_floor",
    "worst_case",
    "entropic",
    "expected_shortfall",
    "certainty_equivalent",
    "q_entropic",
]


@dataclass(frozen=True)
class AxiomFlags:
    monotone: bool = False
    convex: bool = False
    quasi_convex: bool = False
    cash_additive: bool = False
    cash_subadditive: bool = False
    law_invariant: bool = False
    continuous_from_above: bool = False


@dataclass(frozen=True)
class RiskFunctional:
    """A risk measure rho together with its declared axioms.

    ``evaluate`` maps a Position to an extended real (float, possibly +-inf).
    ``kind``/``params`` identify the measure for reports and for the
    closed forms at the end of this module, the only code that reads them.
    """

    name: str
    evaluate: Callable[[Position], float]
    flags: AxiomFlags
    kind: str = ""
    params: dict = field(default_factory=dict)

    def __call__(self, X: Position) -> float:
        return self.evaluate(X)


@dataclass(frozen=True)
class LossFunction:
    """Strictly increasing convex loss with inverse and convex conjugate.

    ``exponential`` is true only for the loss built by ``exponential_loss``,
    whose closed forms (vectorized ell, relative-entropy penalty) the package
    uses; a loss built by hand, even from the same callables, takes the
    generic numeric path.
    """

    name: str
    ell: Callable[[float], float]
    ell_inv: Callable[[float], float]
    ell_conj: Callable[[float], float]
    exponential = False

    def ell_vec(self, x: np.ndarray) -> np.ndarray:
        return np.vectorize(self.ell, otypes=[float])(x)

    def conj_vec(self, y: np.ndarray) -> np.ndarray:
        return np.vectorize(self.ell_conj, otypes=[float])(y)


class _ExponentialLoss(LossFunction):
    exponential = True

    def ell_vec(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)


def exponential_loss() -> LossFunction:
    """ell(x) = e^x with conjugate y ln y - y (0 at y=0, +inf for y<0)."""

    def conj(y: float) -> float:
        if y < 0:
            return math.inf
        if y == 0:
            return 0.0
        return y * math.log(y) - y

    return _ExponentialLoss("exp", math.exp, math.log, conj)


def identity_loss() -> LossFunction:
    """ell(x) = x; conjugate is the indicator of {y = 1}."""

    def conj(y: float) -> float:
        return 0.0 if abs(y - 1.0) <= 1e-12 else math.inf

    return LossFunction("identity", lambda x: x, lambda y: y, conj)


def power_loss(k: float) -> LossFunction:
    """ell(x) = |x|^k sign-adjusted to be increasing and convex on [0, inf).

    Defined on x >= 0 only (sufficient for losses); k must be > 1.
    """
    if k <= 1:
        raise ValueError("power loss requires exponent k > 1")
    kc = k / (k - 1)

    def ell(x: float) -> float:
        if x < 0:
            raise ValueError("power loss defined on x >= 0")
        return x**k

    def conj(y: float) -> float:
        if y < 0:
            return math.inf
        return (k - 1) * (y / k) ** kc

    return LossFunction(f"power{k}", ell, lambda y: y ** (1.0 / k), conj)


def neg_expectation() -> RiskFunctional:
    """rho(X) = E[-X], the linear benchmark measure."""
    return RiskFunctional(
        name="neg_expectation",
        evaluate=lambda X: -expectation(X),
        flags=AxiomFlags(
            monotone=True,
            convex=True,
            quasi_convex=True,
            cash_additive=True,
            cash_subadditive=True,
            law_invariant=True,
            continuous_from_above=True,
        ),
        kind="neg_expectation",
    )


def expectation_floor(K: float) -> RiskFunctional:
    """rho(X) = max(E[-X], K): quasi-convex and monotone, not cash-additive."""
    if K <= 0:
        raise ValueError("floor level K must be positive")

    return RiskFunctional(
        name=f"expectation_floor(K={K})",
        evaluate=lambda X: max(-expectation(X), K),
        flags=AxiomFlags(
            monotone=True,
            quasi_convex=True,
            law_invariant=True,
            continuous_from_above=True,
        ),
        kind="expectation_floor",
        params={"K": K},
    )


def worst_case() -> RiskFunctional:
    """rho(X) = max_i(-x_i), the essential supremum of the loss."""
    return RiskFunctional(
        name="worst_case",
        evaluate=lambda X: float(np.max(-X.values)),
        flags=AxiomFlags(
            monotone=True,
            convex=True,
            quasi_convex=True,
            cash_additive=True,
            cash_subadditive=True,
            law_invariant=True,
            continuous_from_above=True,
        ),
        kind="worst_case",
    )


def entropic(gamma: float) -> RiskFunctional:
    """rho(X) = (1/gamma) ln E[exp(-gamma X)], overflow-safe via log-sum-exp."""
    if gamma <= 0:
        raise ValueError("entropic parameter gamma must be positive")

    def evaluate(X: Position) -> float:
        z = -gamma * X.values
        m = float(z.max())
        return (m + math.log(float(np.dot(X.space.probs, np.exp(z - m))))) / gamma

    return RiskFunctional(
        name=f"entropic(gamma={gamma})",
        evaluate=evaluate,
        flags=AxiomFlags(
            monotone=True,
            convex=True,
            quasi_convex=True,
            cash_additive=True,
            cash_subadditive=True,
            law_invariant=True,
            continuous_from_above=True,
        ),
        kind="entropic",
        params={"gamma": gamma},
    )


def expected_shortfall(alpha: float) -> RiskFunctional:
    """Expected shortfall at level alpha: average of the worst alpha-tail of -X.

    Exact atom-splitting quantile average; second convex cash-additive
    instance next to the entropic one.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")

    def evaluate(X: Position) -> float:
        losses = -X.values
        order = np.argsort(-losses)  # worst first
        w = X.space.probs[order]
        l_sorted = losses[order]
        cum = np.cumsum(w)
        take = np.minimum(w, np.maximum(alpha - (cum - w), 0.0))
        return float(np.dot(take, l_sorted) / alpha)

    return RiskFunctional(
        name=f"expected_shortfall(alpha={alpha})",
        evaluate=evaluate,
        flags=AxiomFlags(
            monotone=True,
            convex=True,
            quasi_convex=True,
            cash_additive=True,
            cash_subadditive=True,
            law_invariant=True,
            continuous_from_above=True,
        ),
        kind="expected_shortfall",
        params={"alpha": alpha},
    )


def certainty_equivalent(loss: LossFunction) -> RiskFunctional:
    """rho(X) = ell^-1(E[ell(-X)]) for a strictly increasing convex loss ell."""

    def evaluate(X: Position) -> float:
        return float(loss.ell_inv(float(np.dot(X.space.probs, loss.ell_vec(-X.values)))))

    return RiskFunctional(
        name=f"certainty_equivalent({loss.name})",
        evaluate=evaluate,
        flags=AxiomFlags(
            monotone=True,
            quasi_convex=True,
            law_invariant=True,
            continuous_from_above=True,
        ),
        kind="certainty_equivalent",
        params={"loss": loss},
    )


def _ln_q(x: float, q: float) -> float:
    if x < 0:
        raise ValueError("ln_q defined for x >= 0 when q in (0,1)")
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def _exp_q(x: np.ndarray, q: float) -> np.ndarray:
    base = 1.0 + (1.0 - q) * np.asarray(x, dtype=float)
    if np.any(base < 0):
        raise ValueError("exp_q argument out of domain: need x >= 1/(q-1)")
    return base ** (1.0 / (1.0 - q))


def q_entropic(q: float, beta: float) -> RiskFunctional:
    """Tsallis-deformed entropic risk on losses: ln_q E[exp_q((X+beta)^-)].

    Evaluated on the loss part (X+beta)^-, so the measure is decreasing in X.
    Out-of-domain exp_q arguments raise instead of saturating.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    if beta <= 0:
        raise ValueError("target beta must be positive")

    def evaluate(X: Position) -> float:
        loss_part = np.maximum(-(X.values + beta), 0.0)
        return _ln_q(float(np.dot(X.space.probs, _exp_q(loss_part, q))), q)

    return RiskFunctional(
        name=f"q_entropic(q={q},beta={beta})",
        evaluate=evaluate,
        flags=AxiomFlags(
            monotone=True,
            convex=True,
            quasi_convex=True,
            cash_subadditive=True,
            law_invariant=True,
            continuous_from_above=True,
        ),
        kind="q_entropic",
        params={"q": q, "beta": beta},
    )


# ---------------------------------------------------------------------------
# closed forms keyed on the measure's kind


def _entropic_gamma(rho: RiskFunctional) -> Optional[float]:
    """gamma when rho is an entropic measure; CE of the exponential loss is entropic(1)."""
    if rho.kind == "entropic":
        return rho.params["gamma"]
    if rho.kind == "certainty_equivalent" and getattr(rho.params.get("loss"), "exponential", False):
        return 1.0
    return None


def _same_functional(rho: RiskFunctional, other: RiskFunctional) -> bool:
    if rho is other:
        return True
    if rho.kind != other.kind:
        return False
    pa = {k: v for k, v in rho.params.items() if isinstance(v, (int, float))}
    pb = {k: v for k, v in other.params.items() if isinstance(v, (int, float))}
    return pa == pb and rho.kind != ""


def _shifted_mean(rho: RiskFunctional, X: Position, eps: float) -> Optional[float]:
    """rho(X - eps) from E[X] alone, for the measures that depend on the mean only."""
    if rho.kind == "neg_expectation":
        return -expectation(X) + eps
    if rho.kind == "expectation_floor":
        return max(-expectation(X) + eps, rho.params["K"])
    return None


def _closed_form_penalty(rho: RiskFunctional, Q: ScenarioMeasure) -> Optional[float]:
    """Minimal penalty c_rho(Q) where it is known in closed form, else None."""
    kind = rho.kind
    gamma = _entropic_gamma(rho)
    if gamma is not None:
        return relative_entropy(Q) / gamma
    if kind == "expected_shortfall":
        alpha = rho.params["alpha"]
        return 0.0 if float(Q.density.max()) <= 1.0 / alpha + 1e-9 else math.inf
    if kind == "neg_expectation":
        return 0.0 if np.allclose(Q.density, 1.0, rtol=0.0, atol=1e-9) else math.inf
    if kind == "worst_case":
        return 0.0
    return None


def _batch_rho(rho: RiskFunctional, pts: np.ndarray, space: ProbSpace) -> np.ndarray:
    """rho on each row of pts, vectorized for the shipped measure kinds; loop otherwise."""
    pr = space.probs
    kind = rho.kind
    gamma = _entropic_gamma(rho)
    if kind == "neg_expectation":
        return -pts @ pr
    if kind == "expectation_floor":
        return np.maximum(-pts @ pr, rho.params["K"])
    if kind == "worst_case":
        return np.max(-pts, axis=1)
    if gamma is not None:
        a = np.log(pr)[None, :] - gamma * pts
        m = a.max(axis=1, keepdims=True)
        return (m[:, 0] + np.log(np.exp(a - m).sum(axis=1))) / gamma
    if kind == "expected_shortfall":
        alpha = rho.params["alpha"]
        losses = -pts
        order = np.argsort(-losses, axis=1)
        w = pr[order]
        l_sorted = np.take_along_axis(losses, order, axis=1)
        cum = np.cumsum(w, axis=1)
        take = np.minimum(w, np.maximum(alpha - (cum - w), 0.0))
        return (take * l_sorted).sum(axis=1) / alpha
    return np.array([rho(Position(space, row)) for row in pts])
