"""Support functions, minimal penalties, penalty-type surfaces and dual verifiers.

The dual side of every verifier is a finite maximization over a simplex grid
of scenario measures. Brute-force penalty surfaces always include
caller-supplied anchor positions so the gap at the query point is one-sided
despite lattice coarseness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .prob_core import (
    Position,
    ProbSpace,
    ScenarioMeasure,
    density_norm,
    expectation_under,
    relative_entropy,
)
from .risk_measures import LossFunction, RiskFunctional
from .robustify import robust_value
from .uncertainty import (
    PropertyVerdict,
    UncertaintyFamily,
    _conjugate_order,
    _require_count,
    counterexample,
    no_counterexample,
)

__all__ = [
    "SimplexGrid",
    "simplex_grid",
    "PenaltySurface",
    "support_function",
    "minimal_penalty",
    "penalty_type",
    "loss_penalty",
    "verify_primal_dual",
    "verify_robust_dual",
    "verify_convex_cash_additive_dual",
    "verify_second_approach_dual",
    "non_expansivity_check",
    "wasserstein_bound_check",
    "dual_argmax",
]


# ---------------------------------------------------------------------------
# simplex grids

_RANDOM_GRID_POINTS = 300  # Dirichlet draws on a space of more than 3 atoms
# Largest lattice simplex_grid builds on up to 3 atoms. Step 0.002 on three
# atoms gives 125,751 measures in a few seconds; each measure is a Python object.
_SIMPLEX_GRID_CAP = 200_000


@dataclass(frozen=True)
class SimplexGrid:
    """Finite set of scenario measures covering the probability simplex."""

    space: ProbSpace
    step: float
    points: tuple

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def simplex_grid(space: ProbSpace, step: float = 0.01, seed: int = 0) -> SimplexGrid:
    """Uniform lattice of probability vectors at the given step (n <= 3), plus
    vertices and the reference measure; Dirichlet sample for larger n. A
    lattice of more than 200,000 measures is a ValueError."""
    if not 0 < step <= 1:
        raise ValueError("step must lie in (0, 1]")
    n = space.n
    seen = {}

    def add(weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        key = tuple(np.round(w, 12))
        if key not in seen:
            seen[key] = ScenarioMeasure(space, w / space.probs)

    add(space.probs)  # P itself
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        add(v)
    if n <= 3:
        M = max(1, int(round(1.0 / step)))
        size = math.comb(M + n - 1, n - 1)
        if size > _SIMPLEX_GRID_CAP:
            raise ValueError(f"step {step} gives {size} lattice measures on {n} atoms, more than {_SIMPLEX_GRID_CAP}")
        for comp in _compositions(M, n):
            add(np.array(comp, dtype=float) / M)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(_RANDOM_GRID_POINTS):
            add(rng.dirichlet(np.ones(n)))
    return SimplexGrid(space=space, step=step, points=tuple(seen.values()))


# ---------------------------------------------------------------------------
# support functions


def support_function(family: UncertaintyFamily, Q: ScenarioMeasure, X: Position, seed: int = 0) -> float:
    """phi_Q(X) = sup over U_X of E_Q[-Z]: the family's closed form where it
    has one, else a numeric lower bound over the members discretized at
    resolution 0.1 and budget 64."""
    closed = family._support(Q, X)
    if closed is not None:
        return closed
    best = -math.inf
    for Z in [X, *family.discretize(X, 0.1, 64, seed)]:
        best = max(best, expectation_under(Q, -Z))
    return best


# ---------------------------------------------------------------------------
# minimal penalties


# Box lattices span [-20, 20]^n at step 0.1 (minimal_penalty) or 0.4 (brute-force
# surfaces), up to the cap: at step 0.1, n = 2 needs 160,801 points and n = 3
# needs 64,481,201 (several GB once evaluated).
_BOX_BOUND = 20.0
_PENALTY_STEP = 0.1
_SURFACE_STEP = 0.4
_LATTICE_CAP = 2_000_000


def _box_lattice(n: int, h: float) -> np.ndarray:
    axis = np.arange(-_BOX_BOUND, _BOX_BOUND + h / 2, h)
    if axis.size**n > _LATTICE_CAP:
        raise ValueError(f"box lattice of {axis.size}^{n} points exceeds the cap of {_LATTICE_CAP}")
    return np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)


def minimal_penalty(rho: RiskFunctional, Q: ScenarioMeasure) -> float:
    """c_rho(Q) = sup_X {E_Q[-X] - rho(X)}; closed form where known, else a
    supremum over the box lattice of step 0.1 on [-20, 20]^n with
    linear-growth detection. Raises ValueError when the lattice would exceed
    ``_LATTICE_CAP`` points, as it does from n = 3 on."""
    closed = rho._penalty(Q)
    if closed is not None:
        return closed
    space = Q.space
    lattice = _box_lattice(space.n, _PENALTY_STEP)
    gains = -(lattice @ (space.probs * Q.density)) - rho._batch(lattice, space)
    inner = np.max(np.abs(lattice), axis=1) <= _BOX_BOUND / 2 + 1e-12
    s_full, s_half = float(gains.max()), float(gains[inner].max())
    if s_full > s_half + 1e-6:
        return math.inf  # still growing at the box boundary
    return s_full


# ---------------------------------------------------------------------------
# penalty-type surfaces R(t, Q)


@dataclass(frozen=True)
class PenaltySurface:
    """R(t, Q): smallest risk among positions with Q-expected loss t."""

    evaluator: Callable[[float, ScenarioMeasure], float]
    kind: str  # "brute_force" | "cash_additive" | "loss"

    def __call__(self, t: float, Q: ScenarioMeasure) -> float:
        return self.evaluator(t, Q)


def _brute_force_R(rho_eval, space: ProbSpace, anchors: Sequence[Position]):
    def evaluator(t: float, Q: ScenarioMeasure) -> float:
        a = space.probs * Q.density  # weights of E_Q[.]
        live = a > 1e-15
        idx = np.argsort(-a)
        j = int(idx[0])  # solve the constraint for the heaviest coordinate
        best = math.inf
        free = [i for i in range(space.n) if i != j and live[i]]
        base = np.full(space.n, _BOX_BOUND, dtype=float)  # null atoms pushed to the top
        mesh = _box_lattice(len(free), _SURFACE_STEP) if free else np.zeros((1, 0))
        pts = np.tile(base, (mesh.shape[0], 1))
        for col, i in enumerate(free):
            pts[:, i] = mesh[:, col]
        resid = -t - pts[:, [i for i in range(space.n) if i != j]] @ a[[i for i in range(space.n) if i != j]]
        yj = resid / a[j]
        ok = np.abs(yj) <= _BOX_BOUND + 1e-9
        if np.any(ok):
            pts = pts[ok]
            pts[:, j] = yj[ok]
            best = float(np.min(rho_eval._batch(pts, space)))
        for Y in anchors:
            shift = expectation_under(Q, -Y) - t  # move the anchor onto the hyperplane
            best = min(best, rho_eval(Y + shift))
        return best

    return evaluator


def penalty_type(
    rho: RiskFunctional,
    kind: str = "cash_additive",
    space: Optional[ProbSpace] = None,
    anchors: Sequence[Position] = (),
    loss: Optional[LossFunction] = None,
) -> PenaltySurface:
    """Build the penalty-type functional R_rho as a reusable surface. The
    brute-force kind minimizes over the box lattice of step 0.4 on
    [-20, 20]^n cut by the hyperplane E_Q[-Y] = t, and over the anchors."""
    if kind == "cash_additive":
        if not rho.flags.cash_additive:
            raise ValueError(f"{rho.name} is not flagged cash-additive")

        def evaluator(t: float, Q: ScenarioMeasure) -> float:
            return t - minimal_penalty(rho, Q)

        return PenaltySurface(evaluator, "cash_additive")
    if kind == "loss":
        if loss is None:
            raise ValueError("loss surface requires a loss function")
        return PenaltySurface(lambda t, Q: loss_penalty(loss, t, Q), "loss")
    if kind == "brute_force":
        if space is None:
            raise ValueError("brute-force surface requires the probability space")
        return PenaltySurface(_brute_force_R(rho, space, tuple(anchors)), "brute_force")
    raise ValueError(f"unknown penalty surface kind {kind!r}")


def loss_penalty(loss: LossFunction, t: float, Q: ScenarioMeasure) -> float:
    """R_ell(t, Q) = ell^-1(max_{x >= 0} { x t - E_P[ell*(x dQ/dP)] })."""
    if loss.exponential:
        return t - relative_entropy(Q)
    pr, d = Q.space.probs, Q.density

    def g(x: float) -> float:
        conj = loss.conj_vec(x * d)
        if np.any(np.isinf(conj)):
            return -math.inf
        return x * t - float(np.dot(pr, conj))

    lo, hi = 0.0, 1.0
    grew = 0
    while g(hi) >= g(max(hi / 2.0, 1e-12)) and math.isfinite(g(hi)):
        hi *= 2.0
        grew += 1
        if hi > 1e12:
            return math.inf  # objective still rising: +inf tendency
    if not math.isfinite(g(hi)) and not math.isfinite(g(0.0)):
        # scan for any feasible x before giving up
        xs = np.concatenate(([0.0], np.geomspace(1e-8, 1e4, 200)))
        vals = [g(float(x)) for x in xs]
        best = max(vals)
        if not math.isfinite(best):
            return -math.inf
        i = int(np.argmax(vals))
        lo, hi = xs[max(0, i - 1)], xs[min(len(xs) - 1, i + 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, dd = b - phi * (b - a), a + phi * (b - a)
    fc, fd = g(c), g(dd)
    for _ in range(200):
        if fc >= fd:
            b, dd, fd = dd, c, fc
            c = b - phi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, dd, fd
            dd = a + phi * (b - a)
            fd = g(dd)
        if b - a < 1e-12 * max(1.0, abs(b)):
            break
    best = max(g(0.0), fc, fd)
    return float(loss.ell_inv(best)) if math.isfinite(best) else best


# ---------------------------------------------------------------------------
# dual verifiers


def _grid_sup(grid: SimplexGrid, f, polish: bool = True) -> float:
    """Max of f over the grid, refined by ``_polish_simplex`` around the
    first maximizer when ``polish`` is set."""
    best, arg = -math.inf, None
    for Q in grid:
        v = f(Q)
        if v > best:
            best, arg = v, Q
    if polish and arg is not None:
        best = max(best, _polish_simplex(grid.space, f, arg, grid.step)[0])
    return best


def _robust_report(lhs, dual: float, grid: SimplexGrid) -> dict:
    return {
        "robust": lhs.value,
        "dual": dual,
        "gap": lhs.value - dual,
        "step": grid.step,
        "guarantee": lhs.guarantee,
    }


def _polish_simplex(space: ProbSpace, f, Q0: ScenarioMeasure, radius: float):
    """Local pattern search on the simplex around Q0: pairwise mass transfers
    with a halving radius, for at most 120 rounds. Tightens the lattice
    supremum without leaving the feasible set, so the result is still a valid
    dual lower bound. Returns the refined value together with the refined
    measure."""
    w = np.array(Q0.density * space.probs, dtype=float)
    Qbest = Q0
    best = f(Q0)
    r = radius
    for _ in range(120):
        improved = False
        for i in range(space.n):
            for j in range(space.n):
                if i == j:
                    continue
                move = min(r, w[j])
                if move <= 0.0:
                    continue
                w2 = w.copy()
                w2[i] += move
                w2[j] -= move
                Q2 = ScenarioMeasure(space, w2 / w2.sum() / space.probs)
                v = f(Q2)
                if v > best + 1e-15:
                    w, best, Qbest, improved = w2, v, Q2, True
        if not improved:
            r *= 0.5
            if r < 1e-13:
                break
    return best, Qbest


def verify_primal_dual(
    rho: RiskFunctional, X: Position, grid: SimplexGrid, penalty: PenaltySurface, polish: bool = True
) -> dict:
    """Compare rho(X) with the grid supremum of R(E_Q[-X], Q)."""
    if not (rho.flags.monotone and rho.flags.quasi_convex and rho.flags.continuous_from_above):
        raise ValueError(f"{rho.name} lacks the flags required by the dual representation")
    primal = rho(X)

    def g(Q):
        return penalty(expectation_under(Q, -X), Q)

    dual = _grid_sup(grid, g, polish)
    return {"primal": primal, "dual": dual, "gap": primal - dual, "step": grid.step}


def verify_robust_dual(
    rho: RiskFunctional,
    family: UncertaintyFamily,
    X: Position,
    grid: SimplexGrid,
    loss: Optional[LossFunction] = None,
    seed: int = 0,
) -> dict:
    """Robust value vs sup_Q R_rho(phi_Q(X), Q) (certainty-equivalent form when
    a loss is supplied). R_rho is the loss surface given a loss, else the
    cash-additive surface when rho is cash-additive, else a brute-force
    surface anchored at X and X - eps."""
    if not (rho.flags.quasi_convex and (rho.flags.cash_subadditive or rho.flags.cash_additive or loss is not None)):
        raise ValueError(f"{rho.name} lacks the flags required by the robust dual")
    if loss is not None:
        penalty = penalty_type(rho, "loss", loss=loss)
    elif rho.flags.cash_additive:
        penalty = penalty_type(rho, "cash_additive")
    else:
        penalty = penalty_type(rho, "brute_force", space=X.space, anchors=(X, X - family.eps))
    lhs = robust_value(rho, family, X, seed=seed)

    def g(Q):
        return penalty(support_function(family, Q, X, seed=seed), Q)

    dual = _grid_sup(grid, g)
    return _robust_report(lhs, dual, grid)


def verify_convex_cash_additive_dual(
    rho: RiskFunctional, family: UncertaintyFamily, X: Position, grid: SimplexGrid
) -> dict:
    """Robust value vs sup_{Qt} { E_Qt[-X] - inf_Q { c_{phi_Q}(Qt) + c_rho(Q) } }."""
    if not (rho.flags.convex and rho.flags.cash_additive):
        raise ValueError(f"{rho.name} must be convex and cash-additive")
    lhs = robust_value(rho, family, X)
    pts = list(grid)
    c_rho = [minimal_penalty(rho, Q) for Q in pts]
    dual, arg = -math.inf, None
    for Qt in pts:
        inner = math.inf
        for Q, cr in zip(pts, c_rho):
            if math.isinf(cr):
                continue
            cphi = family._support_penalty(Q, Qt)
            if cphi is None:
                raise ValueError(f"no support-penalty closed form for {family.name}")
            if math.isinf(cphi):
                continue
            inner = min(inner, cphi + cr)
        if math.isinf(inner):
            continue
        v = expectation_under(Qt, -X) - inner
        if v > dual:
            dual, arg = v, Qt
    if arg is not None:
        # along the diagonal Qt = Q the inner infimum collapses to the closed
        # form -k_Q + c_rho(Q), giving a one-measure objective to refine
        def g(Q):
            cphi = family._support_penalty(Q, Q)
            return expectation_under(Q, -X) - cphi - minimal_penalty(rho, Q)

        dual = max(dual, _polish_simplex(grid.space, g, arg, grid.step)[0])
    return _robust_report(lhs, dual, grid)


def verify_second_approach_dual(
    rho: RiskFunctional,
    family: UncertaintyFamily,
    X: Position,
    grid: SimplexGrid,
    seed: int = 0,
) -> dict:
    """Robust value vs sup_{Q,Qt} { R_{phi_Q}(E_Qt[-X], Qt) - c_rho(Q) }."""
    if not (rho.flags.convex and rho.flags.cash_additive and rho.flags.continuous_from_above):
        raise ValueError(f"{rho.name} must be convex, cash-additive, continuous from above")
    lhs = robust_value(rho, family, X, seed=seed)
    rho1, P = family.rho1, ScenarioMeasure.reference(X.space)
    if rho1 is not None:
        if not rho1.flags.cash_additive:
            raise ValueError("second-approach verifier needs a cash-additive base for level families")
        base = penalty_type(rho1, "cash_additive")

        # phi_Q(Y) = rho1(Y) + eps + c_rho1(Q), hence R_{phi_Q} = R_rho1 + eps + c_rho1(Q)
        def g_inner(Qt):
            return base(expectation_under(Qt, -X), Qt)

        inner = _grid_sup(grid, g_inner)

        def g_outer(Q):
            cr = minimal_penalty(rho, Q)
            c1 = rho1._penalty(Q)
            if c1 is None or math.isinf(c1) or math.isinf(cr):
                return -math.inf
            return inner + family.eps + c1 - cr

        dual = _grid_sup(grid, g_outer)
    elif family._support_penalty(P, P) is not None:
        # phi_Q = E_Q[-.] + k_Q up to rearrangement, so R_{phi_Q}(t, Qt) is
        # t + k_Q at Qt = Q and -inf otherwise
        def g(Q):
            cr = minimal_penalty(rho, Q)
            if math.isinf(cr):
                return -math.inf
            return support_function(family, Q, X) - cr

        dual = _grid_sup(grid, g)
    else:
        raise ValueError(f"no second-approach closed form for {family.name}")
    return _robust_report(lhs, dual, grid)


def non_expansivity_check(
    penalty: PenaltySurface,
    grid: SimplexGrid,
    samples: int = 500,
    seed: int = 0,
) -> PropertyVerdict:
    """|R(t,Q) - R(t',Q)| <= |t - t'| + tol and R increasing in t, sampled
    (tol = 1e-6)."""
    tol = 1e-6
    _require_count(samples, "samples")
    rng = np.random.default_rng(seed)
    pts = list(grid)
    for k in range(samples):
        Q = pts[int(rng.integers(len(pts)))]
        t, tp = float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))
        a, b = penalty(t, Q), penalty(tp, Q)
        if math.isinf(a) or math.isinf(b):
            continue
        if abs(a - b) > abs(t - tp) + tol:
            return counterexample({"t": t, "tp": tp, "Q": Q, "Rt": a, "Rtp": b})
        lo, hi = min(t, tp), max(t, tp)
        vlo, vhi = (a, b) if t <= tp else (b, a)
        if vlo > vhi + tol:
            return counterexample({"t": lo, "tp": hi, "Q": Q, "Rt": vlo, "Rtp": vhi}, "not increasing in t")
    return no_counterexample(samples)


def dual_argmax(
    rho: RiskFunctional, X: Position, grid: SimplexGrid, q: float
) -> ScenarioMeasure:
    """Grid argmax of R_rho(E_Q[-X], Q); ties by smallest density q-norm, then
    lexicographically smallest density."""
    best = None
    best_val = -math.inf
    for Q in grid:
        c = minimal_penalty(rho, Q)
        if math.isinf(c):
            continue
        v = expectation_under(Q, -X) - c
        if best is None or v > best_val + 1e-12:
            best, best_val = Q, v
        elif abs(v - best_val) <= 1e-12:
            dn_new, dn_old = density_norm(Q, q), density_norm(best, q)
            if dn_new < dn_old - 1e-12 or (
                abs(dn_new - dn_old) <= 1e-12 and tuple(Q.density) < tuple(best.density)
            ):
                best = Q
    if best is None:
        raise ValueError("dual supremum is -inf on the whole grid")
    return best


def wasserstein_bound_check(
    rho: RiskFunctional,
    eps: float,
    p: float,
    X: Position,
    grid: SimplexGrid,
    seed: int = 0,
) -> dict:
    """lhs = robust value over the Wasserstein ball; rhs = rho(X) plus eps times
    the density q-norm of the dual argmax scenario."""
    from .uncertainty import wasserstein_ball

    q = _conjugate_order(p)
    family = wasserstein_ball(p, eps)
    lhs = robust_value(rho, family, X, seed=seed)
    Qstar = dual_argmax(rho, X, grid, q)
    rhs = rho(X) + eps * density_norm(Qstar, q)
    return {"lhs": lhs.value, "rhs": rhs, "holds": lhs.value <= rhs + 1e-9, "Qstar": Qstar}
