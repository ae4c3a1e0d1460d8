"""Catalogue of base risk measures with declared axiom flags.

All measures follow the monotone-decreasing convention: larger payoffs mean
smaller risk. Flags are declared at construction and independently validated
by the sampled checks in the test suite; they drive solver selection in the
robustify and duality modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .prob_core import Position, ProbSpace, ScenarioMeasure, _relative_entropy_rows, expectation

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
    A measure's kind is its class. The underscore methods are its closed
    forms; here they give the generic answer, and the kinds built below
    override what they have. A measure built by hand takes the generic
    numeric paths.
    """

    name: str
    evaluate: Callable[[Position], float]
    flags: AxiomFlags
    params: dict = field(default_factory=dict)

    def __call__(self, X: Position) -> float:
        return self.evaluate(X)

    def _batch(self, pts: np.ndarray, space: ProbSpace) -> np.ndarray:
        """rho on each row of pts."""
        return np.array([self(Position(space, row)) for row in pts])

    def _penalty_rows(self, W: np.ndarray, space: ProbSpace) -> Optional[np.ndarray]:
        """Minimal penalty c_rho(Q) for each row of W, the Q-masses of a
        measure Q on space, where it is known in closed form, else None."""
        return None

    def _dual_scenario(self, X: Position) -> Optional[ScenarioMeasure]:
        """A maximizer Q of E_Q[-X] - c_rho(Q) where it is known in closed
        form, else None. Ties are spread in proportion to P."""
        return None

    def _dual_vertices(self, space: ProbSpace) -> Optional[np.ndarray]:
        """The extreme points of the dual set {Q : c_rho(Q) = 0} as the rows
        of Q-masses of an (m, n) array, where that set is a polytope the kind
        enumerates, else None. A coherent rho is the max of E_Q[-X] over it."""
        return None

    def _same(self, other: RiskFunctional) -> bool:
        """Whether other is known to be the same measure."""
        return self is other


_ALL_AXIOMS = AxiomFlags(**{f.name: True for f in fields(AxiomFlags)})
_QUASI_CONVEX_AXIOMS = AxiomFlags(monotone=True, quasi_convex=True, law_invariant=True, continuous_from_above=True)


class _Kind(RiskFunctional):
    """A shipped measure: the same as another of its class with equal params."""

    def _same(self, other: RiskFunctional) -> bool:
        return self is other or (type(other) is type(self) and self.params == other.params)


class _MeanOnly(_Kind):
    """A nondecreasing function of E[-X] alone."""


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
    if not 1 < k < math.inf:
        raise ValueError("power loss requires a finite exponent k > 1")
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


class _NegExpectation(_MeanOnly):
    def _batch(self, pts, space):
        return -pts @ space.probs

    def _penalty_rows(self, W, space):
        return np.where(np.abs(W / space.probs - 1.0).max(axis=1) <= 1e-9, 0.0, math.inf)

    def _dual_scenario(self, X):
        return ScenarioMeasure.reference(X.space)

    def _dual_vertices(self, space):
        return space.probs[None, :].copy()


def neg_expectation() -> RiskFunctional:
    """rho(X) = E[-X], the linear benchmark measure."""
    return _NegExpectation(name="neg_expectation", evaluate=lambda X: -expectation(X), flags=_ALL_AXIOMS)


class _ExpectationFloor(_MeanOnly):
    def _batch(self, pts, space):
        return np.maximum(-pts @ space.probs, self.params["K"])


def expectation_floor(K: float) -> RiskFunctional:
    """rho(X) = max(E[-X], K): quasi-convex and monotone, not cash-additive."""
    if not 0 < K < math.inf:
        raise ValueError("floor level K must be positive and finite")

    return _ExpectationFloor(
        name=f"expectation_floor(K={K})",
        evaluate=lambda X: max(-expectation(X), K),
        flags=_QUASI_CONVEX_AXIOMS,
        params={"K": K},
    )


class _WorstCase(_Kind):
    def _batch(self, pts, space):
        return np.max(-pts, axis=1)

    def _penalty_rows(self, W, space):
        return np.zeros(len(W))

    def _dual_vertices(self, space):
        return np.eye(space.n)  # the unit masses

    def _dual_scenario(self, X):
        # P conditioned on the atoms where X is smallest
        worst = X.values == X.values.min()
        return ScenarioMeasure(X.space, worst / X.space.probs[worst].sum())


def worst_case() -> RiskFunctional:
    """rho(X) = max_i(-x_i), the essential supremum of the loss."""
    return _WorstCase(name="worst_case", evaluate=lambda X: float(np.max(-X.values)), flags=_ALL_AXIOMS)


class _Entropic(_Kind):
    def _batch(self, pts, space):
        gamma = self.params["gamma"]
        a = np.log(space.probs)[None, :] - gamma * pts
        m = a.max(axis=1, keepdims=True)
        return (m[:, 0] + np.log(np.exp(a - m).sum(axis=1))) / gamma

    def _penalty_rows(self, W, space):
        return _relative_entropy_rows(W, space.probs) / self.params["gamma"]

    def _dual_scenario(self, X):
        # the Esscher density e^{-gamma X} / E[e^{-gamma X}]
        z = -self.params["gamma"] * X.values
        w = np.exp(z - z.max())
        return ScenarioMeasure(X.space, w / np.dot(X.space.probs, w))


def entropic(gamma: float) -> RiskFunctional:
    """rho(X) = (1/gamma) ln E[exp(-gamma X)], overflow-safe via log-sum-exp."""
    if not 0 < gamma < math.inf:
        raise ValueError("entropic parameter gamma must be positive and finite")

    def evaluate(X: Position) -> float:
        z = -gamma * X.values
        m = float(z.max())
        return (m + math.log(float(np.dot(X.space.probs, np.exp(z - m))))) / gamma

    return _Entropic(name=f"entropic(gamma={gamma})", evaluate=evaluate, flags=_ALL_AXIOMS, params={"gamma": gamma})


_ENTROPIC_1 = entropic(1.0)


class _ExpectedShortfall(_Kind):
    def _batch(self, pts, space):
        alpha = self.params["alpha"]
        losses = -pts
        order = np.argsort(-losses, axis=1)
        w = space.probs[order]
        l_sorted = np.take_along_axis(losses, order, axis=1)
        cum = np.cumsum(w, axis=1)
        take = np.minimum(w, np.maximum(alpha - (cum - w), 0.0))
        return (take * l_sorted).sum(axis=1) / alpha

    def _penalty_rows(self, W, space):
        return np.where((W / space.probs).max(axis=1) <= 1.0 / self.params["alpha"] + 1e-9, 0.0, math.inf)

    def _dual_scenario(self, X):
        # density 1/alpha on the lowest values of X up to mass alpha; the
        # atoms of the value that crosses alpha share what mass is left
        alpha, probs = self.params["alpha"], X.space.probs
        _, group = np.unique(X.values, return_inverse=True)
        mass = np.bincount(group, weights=probs)
        before = np.cumsum(mass) - mass
        share = np.clip((alpha - before) / mass, 0.0, 1.0)
        return ScenarioMeasure(X.space, share[group] / alpha)

    def _dual_vertices(self, space):
        # {dQ/dP <= 1/alpha} is a box cut by the plane of total mass 1: at a
        # vertex every density but at most one is 0 or 1/alpha. The atoms of a
        # set S take mass p_i/alpha; what is left is 0 (the vertex is S's row)
        # or goes to one atom j outside S, when it fits under p_j/alpha, so
        # that each vertex is made once. All 2^n sets S: guarded at n <= 12.
        n, alpha, probs = space.n, self.params["alpha"], space.probs
        if n > 12:
            return None
        S = (np.arange(2**n)[:, None] >> np.arange(n) & 1).astype(bool)
        full = np.where(S, probs / alpha, 0.0)
        left = 1.0 - full.sum(axis=1)
        cap = probs / alpha
        at, j = np.nonzero(~S & (left[:, None] > 1e-12) & (left[:, None] < cap - 1e-12))
        split = full[at]
        split[np.arange(at.size), j] = left[at]
        return np.concatenate((full[np.abs(left) <= 1e-12], split))


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

    return _ExpectedShortfall(
        name=f"expected_shortfall(alpha={alpha})", evaluate=evaluate, flags=_ALL_AXIOMS, params={"alpha": alpha}
    )


class _CertaintyEquivalent(_Kind):
    """CE of the exponential loss is entropic(1) and takes its closed forms;
    two CEs are the same when their losses share class and name."""

    def _batch(self, pts, space):
        if self.params["loss"].exponential:
            return _ENTROPIC_1._batch(pts, space)
        return super()._batch(pts, space)

    def _penalty_rows(self, W, space):
        return _ENTROPIC_1._penalty_rows(W, space) if self.params["loss"].exponential else None

    def _same(self, other):
        if type(other) is not type(self):
            return False
        la, lb = self.params["loss"], other.params["loss"]
        return la is lb or (type(la) is type(lb) and la.name == lb.name)


def certainty_equivalent(loss: LossFunction) -> RiskFunctional:
    """rho(X) = ell^-1(E[ell(-X)]) for a strictly increasing convex loss ell."""

    def evaluate(X: Position) -> float:
        return float(loss.ell_inv(float(np.dot(X.space.probs, loss.ell_vec(-X.values)))))

    return _CertaintyEquivalent(
        name=f"certainty_equivalent({loss.name})", evaluate=evaluate, flags=_QUASI_CONVEX_AXIOMS, params={"loss": loss}
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


class _QEntropic(_Kind):
    def _batch(self, pts, space):
        q = self.params["q"]
        y = _exp_q(np.maximum(-(pts + self.params["beta"]), 0.0), q) @ space.probs
        return (y ** (1.0 - q) - 1.0) / (1.0 - q)


def q_entropic(q: float, beta: float) -> RiskFunctional:
    """Tsallis-deformed entropic risk on losses: ln_q E[exp_q((X+beta)^-)].

    Evaluated on the loss part (X+beta)^-, so the measure is decreasing in X.
    Out-of-domain exp_q arguments raise instead of saturating.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    if not 0 < beta < math.inf:
        raise ValueError("target beta must be positive and finite")

    def evaluate(X: Position) -> float:
        loss_part = np.maximum(-(X.values + beta), 0.0)
        return _ln_q(float(np.dot(X.space.probs, _exp_q(loss_part, q))), q)

    flags = replace(_ALL_AXIOMS, cash_additive=False)
    return _QEntropic(
        name=f"q_entropic(q={q},beta={beta})", evaluate=evaluate, flags=flags, params={"q": q, "beta": beta}
    )
