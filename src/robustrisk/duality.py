"""Support functions, minimal penalties, penalty-type surfaces and dual verifiers.

The dual side of every verifier is a finite maximization over a simplex grid
of scenario measures, scored as the rows of an (m, n) array of Q-masses:
penalties, support functions and surfaces each take all rows in one call.
Brute-force penalty surfaces always include
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
    _lp_rows,
    _masses,
    _relative_entropy_rows,
    density_norm,
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
# atoms gives 125,751 measures in under a second, a row of ``weights`` each.
_SIMPLEX_GRID_CAP = 200_000


@dataclass(frozen=True)
class SimplexGrid:
    """Finite set of scenario measures covering the probability simplex.

    ``weights`` is the (m, n) array of their Q-masses, one measure a row; the
    dual searches score its rows. Iterating the grid yields the same
    measures, in the same order, as ScenarioMeasures with density row / P.
    """

    space: ProbSpace
    step: float
    weights: np.ndarray

    def measure(self, k: int) -> ScenarioMeasure:
        """Row k as a ScenarioMeasure."""
        return ScenarioMeasure(self.space, self.weights[k] / self.space.probs)

    def __iter__(self):
        return (self.measure(k) for k in range(len(self.weights)))

    def __len__(self):
        return len(self.weights)


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
        seen.setdefault(tuple(np.round(w, 12)), w)

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
    weights = np.array(list(seen.values()))
    weights.flags.writeable = False
    return SimplexGrid(space=space, step=step, weights=weights)


# ---------------------------------------------------------------------------
# support functions


def support_function(family: UncertaintyFamily, Q: ScenarioMeasure, X: Position, seed: int = 0) -> float:
    """phi_Q(X) = sup over U_X of E_Q[-Z]: the family's closed form where it
    has one, else a numeric lower bound over the members discretized at
    resolution 0.1 and budget 64."""
    return float(_support_of(family, X, seed)(_masses(Q))[0])


def _support_of(family: UncertaintyFamily, X: Position, seed: int):
    """W -> ``support_function`` for each row of W, the Q-masses of a measure
    Q. A family without a closed form is discretized at the first call, and
    later calls reuse its members: they depend on X and the seed only."""
    members = []

    def rows(W: np.ndarray) -> np.ndarray:
        closed = family._support_rows(W, X)
        if closed is not None:
            return closed
        if not members:
            members.append(np.array([X.values, *(Z.values for Z in family.discretize(X, 0.1, 64, seed))]))
        return (W @ -members[0].T).max(axis=1)

    return rows


# ---------------------------------------------------------------------------
# minimal penalties


# Box lattices span [-20, 20]^n at step 0.1 (minimal_penalty) or 0.4 (brute-force
# surfaces), up to the cap: at step 0.1, n = 2 needs 160,801 points and n = 3
# needs 64,481,201 (several GB once evaluated).
_BOX_BOUND = 20.0
_PENALTY_STEP = 0.1
_SURFACE_STEP = 0.4
_LATTICE_CAP = 2_000_000
# Rows times lattice points scored in one array pass. Without it, a brute-force
# surface over three atoms at grid step 0.01 would hold 5,151 x 10,201 points.
_CHUNK = 2**20


def _box_lattice(n: int, h: float) -> np.ndarray:
    if n == 0:
        return np.zeros((1, 0))
    axis = np.arange(-_BOX_BOUND, _BOX_BOUND + h / 2, h)
    if axis.size**n > _LATTICE_CAP:
        raise ValueError(f"box lattice of {axis.size}^{n} points exceeds the cap of {_LATTICE_CAP}")
    return np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)


def minimal_penalty(rho: RiskFunctional, Q: ScenarioMeasure) -> float:
    """c_rho(Q) = sup_X {E_Q[-X] - rho(X)}; closed form where known, else a
    supremum over the box lattice of step 0.1 on [-20, 20]^n with
    linear-growth detection. Raises ValueError when the lattice would exceed
    ``_LATTICE_CAP`` points, as it does from n = 3 on."""
    return float(_minimal_penalty_rows(rho, _masses(Q), Q.space)[0])


def _minimal_penalty_rows(rho: RiskFunctional, W: np.ndarray, space: ProbSpace) -> np.ndarray:
    """``minimal_penalty`` for each row of W, the Q-masses of a measure Q.
    The lattice and rho on it are computed once for all rows."""
    closed = rho._penalty_rows(W, space)
    if closed is not None:
        return closed
    lattice = _box_lattice(space.n, _PENALTY_STEP)
    risk = rho._batch(lattice, space)[:, None]
    inner = np.max(np.abs(lattice), axis=1) <= _BOX_BOUND / 2 + 1e-12
    out = np.empty(len(W))
    rows = max(1, _CHUNK // len(lattice))
    for k in range(0, len(W), rows):
        gains = -(lattice @ W[k : k + rows].T) - risk
        s_full, s_half = gains.max(axis=0), gains[inner].max(axis=0)
        # still growing at the box boundary: +inf
        out[k : k + rows] = np.where(s_full > s_half + 1e-6, math.inf, s_full)
    return out


# ---------------------------------------------------------------------------
# penalty-type surfaces R(t, Q)


@dataclass(frozen=True)
class PenaltySurface:
    """R(t, Q): smallest risk among positions with Q-expected loss t.

    ``evaluator(t, W, space)`` scores rows: levels t of shape (m,) against
    W, the (m, n) Q-masses of measures on space, giving m values.
    ``evaluator(t, Q)`` is the one-row case and gives a float.
    """

    evaluator: Callable
    kind: str  # "brute_force" | "cash_additive" | "loss"

    def __call__(self, *args):
        return self.evaluator(*args)


def _surface(rows, kind: str) -> PenaltySurface:
    """The surface whose evaluator scores rows with ``rows(t, W, space)``."""

    def evaluator(t, W, space: Optional[ProbSpace] = None):
        if isinstance(W, ScenarioMeasure):
            return float(rows(np.array([t], dtype=float), _masses(W), W.space)[0])
        return rows(np.asarray(t, dtype=float), W, space)

    return PenaltySurface(evaluator, kind)


def _brute_force_R(rho_eval, space: ProbSpace, anchors: Sequence[Position]):
    n = space.n
    meshes = {}  # box lattice of each number of free coordinates, built once
    anchor_rows = np.array([Y.values for Y in anchors]).reshape(-1, n)

    def rows(t: np.ndarray, W: np.ndarray, _space: ProbSpace) -> np.ndarray:
        m = len(W)
        best = np.full(m, math.inf)
        # solve the constraint for the heaviest coordinate j; the other live
        # coordinates run over the lattice, null atoms are pushed to the top
        j = np.argmax(W, axis=1)
        free = W > 1e-15
        free[np.arange(m), j] = False
        group = j * 2**n + free @ (1 << np.arange(n))
        for g in dict.fromkeys(group.tolist()):
            idx = np.flatnonzero(group == g)
            jg, cols = int(j[idx[0]]), np.flatnonzero(free[idx[0]])
            if cols.size not in meshes:
                meshes[cols.size] = _box_lattice(cols.size, _SURFACE_STEP)
            mesh = meshes[cols.size]
            pts = np.full((mesh.shape[0], n), _BOX_BOUND)
            pts[:, cols] = mesh
            others = np.arange(n) != jg
            chunk = max(1, _CHUNK // mesh.shape[0])
            for k in range(0, idx.size, chunk):
                sub = idx[k : k + chunk]
                a = W[sub]
                yj = (-t[sub, None] - a[:, others] @ pts[:, others].T) / a[:, jg, None]
                row, at = np.nonzero(np.abs(yj) <= _BOX_BOUND + 1e-9)
                cand = pts[at]
                cand[:, jg] = yj[row, at]
                low = np.full(sub.size, math.inf)
                np.minimum.at(low, row, rho_eval._batch(cand, space))
                best[sub] = low
        for y in anchor_rows:
            shift = -(W @ y) - t  # move the anchor onto the hyperplane
            best = np.minimum(best, rho_eval._batch(y + shift[:, None], space))
        return best

    return rows


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
        return _surface(lambda t, W, space: t - _minimal_penalty_rows(rho, W, space), "cash_additive")
    if kind == "loss":
        if loss is None:
            raise ValueError("loss surface requires a loss function")
        return _surface(lambda t, W, space: _loss_rows(loss, t, W, space), "loss")
    if kind == "brute_force":
        if space is None:
            raise ValueError("brute-force surface requires the probability space")
        return _surface(_brute_force_R(rho, space, tuple(anchors)), "brute_force")
    raise ValueError(f"unknown penalty surface kind {kind!r}")


def loss_penalty(loss: LossFunction, t: float, Q: ScenarioMeasure) -> float:
    """R_ell(t, Q) = ell^-1(max_{x >= 0} { x t - E_P[ell*(x dQ/dP)] })."""
    return float(_loss_rows(loss, np.array([t], dtype=float), _masses(Q), Q.space)[0])


def _loss_rows(loss: LossFunction, t: np.ndarray, W: np.ndarray, space: ProbSpace) -> np.ndarray:
    """``loss_penalty`` for each row of W, the Q-masses of a measure Q: in
    closed form for the exponential loss, else one golden search per row."""
    if loss.exponential:
        return t - _relative_entropy_rows(W, space.probs)
    return np.array([_golden_loss_penalty(loss, float(tk), w / space.probs, space.probs) for tk, w in zip(t, W)])


def _golden_loss_penalty(loss: LossFunction, t: float, d: np.ndarray, pr: np.ndarray) -> float:
    """``loss_penalty`` at density d by a golden-section search over x."""

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
#
# Each objective f maps an (m, n) array of Q-mass rows to m values.


def _grid_sup(grid: SimplexGrid, f, polish: bool = True) -> float:
    """Max of f over the grid rows, refined by ``_polish_simplex`` around the
    first maximizer when ``polish`` is set. NaN never wins."""
    vals = f(grid.weights)
    vals = np.where(np.isnan(vals), -math.inf, vals)
    k = int(np.argmax(vals))
    best = float(vals[k])
    if best == -math.inf:
        return best
    if polish:
        best = max(best, _polish_simplex(grid.space, f, grid.weights[k], grid.step)[0])
    return best


def _robust_report(lhs, dual: float, grid: SimplexGrid) -> dict:
    return {
        "robust": lhs.value,
        "dual": dual,
        "gap": lhs.value - dual,
        "step": grid.step,
        "guarantee": lhs.guarantee,
    }


def _polish_simplex(space: ProbSpace, f, w0: np.ndarray, radius: float):
    """Local pattern search on the simplex around the Q-masses w0: pairwise
    mass transfers with a halving radius, for at most 120 rounds. Tightens
    the lattice supremum without leaving the feasible set, so the result is
    still a valid dual lower bound. Returns the refined value together with
    the refined Q-masses, w0 itself when no move improves on it.

    A round tries the moves in order and keeps each that improves the value
    by more than 1e-15; a round that keeps none halves the radius, down to
    1e-13. f scores ahead: one call takes the moves left in the round, and
    at a round's start also the rounds after it at the halved radii, which
    start from the same masses unless a move is kept. The first move that
    improves is kept and what follows it is scored again. So the moves kept
    are those of a scan that scores one move at a time. The rounds scored
    ahead double in number while none improves."""
    moves = [(i, j) for i in range(space.n) for j in range(space.n) if i != j]

    def candidates(w, radii, first):
        at, rows = [], []
        for level, r in enumerate(radii):
            for idx in range(first, len(moves)):
                i, j = moves[idx]
                move = min(r, w[j])
                if move <= 0.0:
                    continue
                w2 = w.copy()
                w2[i] += move
                w2[j] -= move
                at.append((level, idx))
                rows.append(w2)
        return at, rows

    w = best_row = w0
    best = float(f(w0[None, :])[0])
    r, rounds, ahead = radius, 0, 1
    while rounds < 120:
        radii = [r]
        while len(radii) < min(ahead, 120 - rounds) and radii[-1] * 0.5 >= 1e-13:
            radii.append(radii[-1] * 0.5)
        kept = False
        at, rows = candidates(w, radii, 0)
        while rows:
            rows = np.array(rows)
            normed = rows / rows.sum(axis=1, keepdims=True)
            vals = f(normed)
            hit = np.flatnonzero(vals > best + 1e-15)
            if hit.size == 0:
                break
            h = int(hit[0])
            level, idx = at[h]
            if not kept:  # the rounds before this one kept nothing
                kept, rounds, r = True, rounds + level, radii[level]
            w, best_row, best = rows[h], normed[h], float(vals[h])
            at, rows = candidates(w, [r], idx + 1)
        if kept:
            rounds, ahead = rounds + 1, 1
        else:
            rounds, r, ahead = rounds + len(radii), radii[-1] * 0.5, 2 * ahead
            if r < 1e-13:
                break
    return best, best_row


def verify_primal_dual(
    rho: RiskFunctional, X: Position, grid: SimplexGrid, penalty: PenaltySurface, polish: bool = True
) -> dict:
    """Compare rho(X) with the grid supremum of R(E_Q[-X], Q)."""
    if not (rho.flags.monotone and rho.flags.quasi_convex and rho.flags.continuous_from_above):
        raise ValueError(f"{rho.name} lacks the flags required by the dual representation")
    primal = rho(X)

    def g(W):
        return penalty(-(W @ X.values), W, grid.space)

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
    support = _support_of(family, X, seed)

    def g(W):
        return penalty(support(W), W, grid.space)

    dual = _grid_sup(grid, g)
    return _robust_report(lhs, dual, grid)


def verify_convex_cash_additive_dual(
    rho: RiskFunctional, family: UncertaintyFamily, X: Position, grid: SimplexGrid
) -> dict:
    """Robust value vs sup_{Qt} { E_Qt[-X] - inf_Q { c_{phi_Q}(Qt) + c_rho(Q) } }.

    c_{phi_Q}(Qt) is finite only where dQ/dP and dQt/dP share a law (Q = Qt
    for norm balls), so the infimum runs over the grid measures whose
    E_P[(dQ/dP)^2] lies in Qt's window, found by one sort; the pairs with
    c_rho(Q) finite are scored in one ``_support_penalty_rows`` call."""
    if not (rho.flags.convex and rho.flags.cash_additive):
        raise ValueError(f"{rho.name} must be convex and cash-additive")
    space, W, P = grid.space, grid.weights, grid.space.probs[None, :]
    if family._support_penalty_rows(P, P, space) is None:
        raise ValueError(f"no support-penalty closed form for {family.name}")
    lhs = robust_value(rho, family, X)
    # E_P[D^2] is law-invariant. Where two quantile functions of densities
    # up to M differ by at most 1e-9 off intervals of width at most 1e-12
    # (at most 2n of them), it moves by at most 2M 1e-9 + 2n M^2 1e-12.
    D = W / space.probs
    M = max(1.0, float(D.max(initial=0.0)))
    key, win = (D * D) @ space.probs, 4e-9 * M + 4e-12 * space.n * M * M
    order = np.argsort(key, kind="stable")
    lo = np.searchsorted(key[order], key - win, "left")
    size = np.searchsorted(key[order], key + win, "right") - lo
    # pair j of Qt's run is Q = order[lo[t] + j - start of the run]
    t = np.repeat(np.arange(len(W)), size)
    s = order[np.arange(t.size) + np.repeat(lo - np.cumsum(size) + size, size)]
    c_rho = _minimal_penalty_rows(rho, W, space)
    keep = ~np.isinf(c_rho[s])
    s, t = s[keep], t[keep]
    inner = np.full(len(W), math.inf)
    np.minimum.at(inner, t, c_rho[s] + family._support_penalty_rows(W[s], W[t], space))
    v = -(W @ X.values) - inner
    dual, arg = float(v.max()), int(v.argmax())
    if dual > -math.inf:
        # along the diagonal Qt = Q the inner infimum collapses to the closed
        # form -k_Q + c_rho(Q), giving a one-measure objective to refine
        def g(V):
            return -(V @ X.values) + family._k_rows(V, space) - _minimal_penalty_rows(rho, V, space)

        dual = max(dual, _polish_simplex(space, g, W[arg], grid.step)[0])
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
    rho1, space, P = family.rho1, grid.space, grid.space.probs[None, :]
    if rho1 is not None and not rho1.flags.cash_additive:
        raise ValueError("second-approach verifier needs a cash-additive base for level families")
    if rho1 is None and family._support_penalty_rows(P, P, space) is None:
        raise ValueError(f"no second-approach closed form for {family.name}")
    lhs = robust_value(rho, family, X, seed=seed)
    if rho1 is not None:
        base = penalty_type(rho1, "cash_additive")

        # phi_Q(Y) = rho1(Y) + eps + c_rho1(Q), hence R_{phi_Q} = R_rho1 + eps + c_rho1(Q)
        def g_inner(W):
            return base(-(W @ X.values), W, space)

        inner = _grid_sup(grid, g_inner)

        def g_outer(W):
            cr = _minimal_penalty_rows(rho, W, space)
            c1 = rho1._penalty_rows(W, space)
            if c1 is None:
                return np.full(len(W), -math.inf)
            return np.where(np.isinf(c1) | np.isinf(cr), -math.inf, inner + family.eps + c1 - cr)

        dual = _grid_sup(grid, g_outer)
    else:
        # phi_Q = E_Q[-.] + k_Q up to rearrangement, so R_{phi_Q}(t, Qt) is
        # t + k_Q at Qt = Q and -inf otherwise
        support = _support_of(family, X, 0)

        def g(W):
            cr = _minimal_penalty_rows(rho, W, space)
            return np.where(np.isinf(cr), -math.inf, support(W) - cr)

        dual = _grid_sup(grid, g)
    return _robust_report(lhs, dual, grid)


def non_expansivity_check(
    penalty: PenaltySurface,
    grid: SimplexGrid,
    samples: int = 500,
    seed: int = 0,
) -> PropertyVerdict:
    """|R(t,Q) - R(t',Q)| <= |t - t'| + tol and R increasing in t, sampled
    (tol = 1e-6). All samples are drawn first and scored in two calls of the
    surface; the first violation in draw order is reported."""
    tol = 1e-6
    _require_count(samples, "samples")
    rng = np.random.default_rng(seed)
    draws = [
        (int(rng.integers(len(grid))), float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))) for _ in range(samples)
    ]
    idx, ts, tps = (np.array(col) for col in zip(*draws))
    rows = grid.weights[idx]
    Rt, Rtp = penalty(ts, rows, grid.space).tolist(), penalty(tps, rows, grid.space).tolist()
    for (k, t, tp), a, b in zip(draws, Rt, Rtp):
        if math.isinf(a) or math.isinf(b):
            continue
        if abs(a - b) > abs(t - tp) + tol:
            return counterexample({"t": t, "tp": tp, "Q": grid.measure(k), "Rt": a, "Rtp": b})
        lo, hi = min(t, tp), max(t, tp)
        vlo, vhi = (a, b) if t <= tp else (b, a)
        if vlo > vhi + tol:
            witness = {"t": lo, "tp": hi, "Q": grid.measure(k), "Rt": vlo, "Rtp": vhi}
            return counterexample(witness, "not increasing in t")
    return no_counterexample(samples)


def dual_argmax(
    rho: RiskFunctional, X: Position, grid: SimplexGrid, q: float
) -> ScenarioMeasure:
    """Grid argmax of R_rho(E_Q[-X], Q); ties by smallest density q-norm, then
    lexicographically smallest density."""
    space, W = grid.space, grid.weights
    c = _minimal_penalty_rows(rho, W, space)
    v = (-(W @ X.values) - c).tolist()
    D = W / space.probs
    dn = _lp_rows(D, space.probs, q).tolist()
    best = None
    best_val = -math.inf
    for k in np.flatnonzero(~np.isinf(c)).tolist():
        if best is None or v[k] > best_val + 1e-12:
            best, best_val = k, v[k]
        elif abs(v[k] - best_val) <= 1e-12:
            if dn[k] < dn[best] - 1e-12 or (abs(dn[k] - dn[best]) <= 1e-12 and tuple(D[k]) < tuple(D[best])):
                best = k
    if best is None:
        raise ValueError("dual supremum is -inf on the whole grid")
    return grid.measure(best)


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
