"""Robustification: worst-case risk over an uncertainty set, with labelled solvers.

``robust_value`` dispatches between the family's closed-form worst case
(Exact, or LowerBound where attainment is not certified), vertex enumeration
of polytope families (Exact), and discretize-based search (LowerBound).
Preservation checks for the robustified measure and the induced largest
family are sound one-sided tests: with LowerBound solvers, members of one
compared set are carried into the other (as dominated members, Minkowski
parts or rearrangements) so a reported counterexample is a genuine
violation; a monotonicity trial whose witness found no dominated member is
counted as undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .prob_core import Position, ProbSpace, _bisect
from .risk_measures import RiskFunctional
from .uncertainty import (
    PropertyVerdict,
    UncertaintyFamily,
    _best_row,
    _require_count,
    _require_step,
    _sampled,
    _scan,
    check_property,
    cone_witness,
    counterexample,
    minkowski_split,
    no_counterexample,
    random_position,
    unknown,
)

__all__ = [
    "RobustValue",
    "robust_value",
    "largest_family_member",
    "verify_preservation",
    "largest_family_properties",
]

_TOL = 1e-9
_SOLVERS = ("auto", "analytic", "vertex_enum", "grid", "projected_ascent")


@dataclass(frozen=True)
class RobustValue:
    """Worst-case risk sup_{Z in U_X} rho(Z) with provenance of the solve."""

    value: float
    witness: Optional[Position]
    solver: str
    guarantee: str  # "exact" | "lower_bound"

    @property
    def exact(self) -> bool:
        return self.guarantee == "exact"


def _best(rho: RiskFunctional, candidates: Sequence[Position]):
    """Max of rho over candidates by ``_scan``, and the values of rho
    computed on the way: all of them unless one is +inf, where it stops."""
    values = []

    def evaluated():
        for Z in candidates:
            values.append(rho(Z))
            yield values[-1]

    i = _scan(evaluated(), [Z.values for Z in candidates])
    return (-math.inf, None, values) if i is None else (values[i], candidates[i], values)


def _best_vertex(rho: RiskFunctional, X: Position, rows: np.ndarray) -> RobustValue:
    """``_best_row`` over the vertex rows; only the chosen row becomes a
    Position, and its value is scalar rho there."""
    i = _best_row(rho, rows, X.space)
    if i is None:
        return RobustValue(-math.inf, None, "vertex_enum", "exact")
    W = Position(X.space, rows[i])
    return RobustValue(rho(W), W, "vertex_enum", "exact")


def _project(family: UncertaintyFamily, X: Position, Z: Position, x_member: bool) -> Optional[Position]:
    """A member of U_X on the segment from X to Z, or None; ``x_member`` says
    whether X is in U_X.

    Z itself when it is a member. Otherwise, if X is a member, the point where
    the segment leaves U_X by the kind's own search (``family._pullback``),
    or else by a scalar bisection on membership. A ball's search gives the
    first exit, also on a Wasserstein ball, which is not X-star-shaped. A
    level family's gives an exit from the set without membership slack, the
    first one its margin search sees, also on a level band, which need not
    be X-star-shaped. The kind's point is confirmed by ``family.membership``.
    The bisection serves kinds without a search (solidified and hand-built
    families) and runs when that confirmation fails; it moves only to points
    where membership held, and on a set that is not X-star-shaped its exit
    need not be the first.
    """
    if family.membership(X, Z):
        return Z
    if not x_member:
        return None
    t = family._pullback(X, Z)
    if t is not None:
        W = Position(X.space, X.values + t * (Z.values - X.values))
        if family.membership(X, W):
            return W
    lo, _ = _bisect(lambda t: family.membership(X, X + t * (Z - X)), 0.0, 1.0, 60)
    return X + lo * (Z - X)


def _ascend(
    rho: RiskFunctional,
    family: UncertaintyFamily,
    X: Position,
    start: Position,
    start_value: float,
    rng: np.random.Generator,
) -> tuple:
    """Random-direction ascent of rho from ``start`` (where rho is
    ``start_value``) over U_X, for at most 500 steps; returns the last point
    and its value."""
    Z, best = start, start_value
    x_member = family.membership(X, X)
    step = 1.0
    it = 0
    while step > 1e-7 and it < 500:
        it += 1
        D = rng.normal(size=X.space.n)
        cand = _project(family, X, Position(X.space, Z.values + step * D), x_member)
        if cand is not None:
            v = rho(cand)
            if v > best + 1e-12:
                Z, best = cand, v
                continue
        step *= 0.5
    return Z, best


def robust_value(
    rho: RiskFunctional,
    family: UncertaintyFamily,
    X: Position,
    solver: str = "auto",
    resolution: float = 0.1,
    budget: int = 64,
    seed: int = 0,
    extra_candidates: Sequence[Position] = (),
    restarts: int = 8,
) -> RobustValue:
    """sup_{Z in U_X} rho(Z), with guarantee label Exact or LowerBound.

    ``extra_candidates`` are membership-filtered and added to search-based
    solvers; callers use this to anchor known members carried over from a
    related set.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {', '.join(_SOLVERS)}")
    _require_step(resolution, "resolution")
    extras = [Z for Z in extra_candidates if family.membership(X, Z)]

    rv = None
    if solver in ("auto", "analytic"):
        closed = family._worst_case(rho, X)
        if closed is not None:
            value, witness, guarantee = closed
            rv = RobustValue(value, witness, "analytic", guarantee)
        elif solver == "analytic":
            raise ValueError(f"no analytic solver for {rho.name} over {family.name}")
    if rv is None and solver in ("auto", "vertex_enum"):
        rows = family._vertices(X) if rho.flags.convex or rho.flags.quasi_convex else None
        if rows is not None:
            rv = _best_vertex(rho, X, rows)
        elif solver == "vertex_enum":
            raise ValueError(f"vertex enumeration not applicable to {rho.name} over {family.name}")
    if rv is not None:
        if extras:
            v, w, _ = _best(rho, [rv.witness, *extras])
            if rv.exact and v > rv.value + _TOL:
                raise RuntimeError(
                    f"{rv.solver} value {rv.value!r} labelled exact for {rho.name} over {family.name} "
                    f"is beaten by a member by {v - rv.value!r}"
                )
            if v > rv.value + 1e-12:
                return RobustValue(v, w, rv.solver, rv.guarantee)
        return rv

    candidates = [X, *family.discretize(X, resolution, budget, seed), *extras]
    v, w, values = _best(rho, candidates)
    if solver == "projected_ascent" or (solver == "auto" and restarts > 0 and v < math.inf):
        rng = np.random.default_rng(seed + 101)
        n_restarts = 32 if solver == "projected_ascent" else restarts
        starts = list(np.argsort([-u for u in values])[: max(1, n_restarts // 4)])
        while len(starts) < n_restarts:
            starts.append(int(rng.integers(len(candidates))))
        for i in starts:
            if v == math.inf:
                break  # nothing beats it, and values stop at it
            cand, cv = _ascend(rho, family, X, candidates[i], values[i], rng)
            if cv > v + 1e-12:
                v, w = cv, cand
        return RobustValue(v, w, f"projected_ascent({n_restarts})", "lower_bound")
    return RobustValue(v, w, f"grid({resolution})", "lower_bound")


def largest_family_member(rho: RiskFunctional, robust_val: float, Z: Position) -> bool:
    """Membership in the largest inducing family: rho(Z) <= robust value at X."""
    return rho(Z) <= robust_val + _TOL


# ---------------------------------------------------------------------------
# preservation of properties under robustification


_LIGHT = dict(resolution=0.25, budget=10, restarts=0)


def _solve(rho, family, X, seed, extra=()):
    return robust_value(rho, family, X, seed=seed, extra_candidates=extra, **_LIGHT)


def _family_holds(family, prop, space, seed) -> bool:
    return check_property(family, prop, space, trials=40, seed=seed).holds


def _carry(rho, family, W, src, exact, seed, dsts, place):
    """Re-solve at each point of ``dsts`` with members carried over from U_src.

    The pool is the witness W of a solve at src, plus a light discretization
    of U_src when that solve was not exact. ``place(Z)`` gives, for each point
    of ``dsts``, the candidates made from the pool member Z for its set (None
    where it made none). Returns the re-solves and the pool members placed.
    """
    pool = [W] if exact else [W, *family.discretize(src, 0.25, 8, seed)]
    extras, kept = [[] for _ in dsts], []
    for Z in pool:
        if Z is None:
            continue
        placed = [[V for V in cands if V is not None] for cands in place(Z)]
        if any(placed):
            kept.append(Z)
        for extra, cands in zip(extras, placed):
            extra.extend(cands)
    return [_solve(rho, family, D, seed, extra) for D, extra in zip(dsts, extras)], kept


def _place(family, X, Y, lam, Z, via_union, via_convex):
    """Candidates for U_X and U_Y made from a member Z of the midpoint set:
    with ``via_union`` a dominated member of U_X, else of U_Y (the midpoint set
    of a (c-)quasi-convex family lies in their union plus the cone); failing
    that, with ``via_convex`` the two parts of a Minkowski split."""
    for k, P in enumerate((X, Y) if via_union else ()):
        W = cone_witness(family, P, Z)
        if W is not None:
            return ([W], []) if k == 0 else ([], [W])
    split = minkowski_split(family, X, Y, lam, Z) if via_convex else None
    return ([], []) if split is None else ([split[0]], [split[1]])


def verify_preservation(
    rho: RiskFunctional,
    family: UncertaintyFamily,
    prop: str,
    trials: int = 200,
    seed: int = 0,
    *,
    space: ProbSpace,
) -> PropertyVerdict:
    """Sampled check that a property of rho/the family carries over to the
    robustified measure, with hypotheses validated first.

    Supported conclusions: monotone, convex, quasi_convex,
    continuous_from_above, law_invariant. Hypothesis failures are reported as
    Unknown with a note, never silently skipped.
    """
    _require_count(trials)
    rng = np.random.default_rng(seed)

    if prop == "monotone":
        if not (_family_holds(family, "monotone", space, seed) or _family_holds(family, "order_preserving", space, seed)):
            return unknown("hypothesis violation: family neither monotone nor order preserving")
        if not rho.flags.monotone:
            return unknown("hypothesis violation: base measure not monotone")
        undecided = 0
        for t in range(trials):
            X = random_position(space, rng)
            Y = X + Position(space, np.abs(rng.normal(size=space.n)))
            rY = _solve(rho, family, Y, seed + t)
            # a member of U_X below a member Z of U_Y has rho at least rho(Z)
            (rX,), kept = _carry(rho, family, rY.witness, Y, rY.exact, seed + t, (X,),
                                 lambda Z: ([cone_witness(family, X, Z)],))
            if rX.value < rY.value - _TOL:
                if rX.exact or any(Z is rY.witness for Z in kept):
                    return counterexample({"X": X, "Y": Y, "rX": rX.value, "rY": rY.value})
                undecided += 1  # a search's shortfall, not a violation
        return _sampled(trials, undecided)

    if prop in ("convex", "quasi_convex"):
        if prop == "convex":
            if not rho.flags.convex:
                return unknown("hypothesis violation: base measure not flagged convex")
            if not _family_holds(family, "convex", space, seed):
                return unknown("hypothesis violation: family not certified/sampled convex")
            via_union, via_convex = False, True
        else:
            via_union = rho.flags.monotone and any(
                _family_holds(family, p, space, seed) for p in ("c_quasi_convex", "quasi_convex")
            )
            via_convex = rho.flags.quasi_convex and _family_holds(family, "convex", space, seed)
            if not (via_union or via_convex):
                return unknown(
                    "hypothesis violation: need a (c-)quasi-convex family with monotone "
                    "base measure, or a quasi-convex base measure with a convex family"
                )
        for t in range(trials):
            X, Y = random_position(space, rng), random_position(space, rng)
            lam = float(rng.uniform())
            mid = lam * X + (1.0 - lam) * Y
            r_mid = _solve(rho, family, mid, seed + t)
            (rX, rY), kept = _carry(rho, family, r_mid.witness, mid, r_mid.exact, seed + t, (X, Y),
                                    lambda Z: _place(family, X, Y, lam, Z, via_union, via_convex))
            lhs = r_mid.value if r_mid.exact else _best(rho, [mid, *kept])[0]
            rhs = lam * rX.value + (1.0 - lam) * rY.value if prop == "convex" else max(rX.value, rY.value)
            if lhs > rhs + _TOL:
                return counterexample(
                    {"X": X, "Y": Y, "lam": lam, "lhs": lhs, "rX": rX.value, "rY": rY.value}
                )
        return no_counterexample(trials)

    if prop == "continuous_from_above":
        if not _family_holds(family, "monotone", space, seed):
            return unknown("hypothesis violation: family not monotone")
        if check_property(family, "continuous_from_above", space, trials=20, seed=seed).is_counterexample:
            return unknown("hypothesis violation: family continuity from above falsified")
        depth = 12
        for t in range(trials):
            X = random_position(space, rng)
            Delta = Position(space, np.abs(rng.normal(size=space.n)))
            Xn = X + (0.5**depth) * Delta
            rX = _solve(rho, family, X, seed + t)
            rXn = _solve(rho, family, Xn, seed + t)
            exact = rX.exact and rXn.exact
            if not exact and rXn.value > rX.value + _TOL:
                # anchor U_X with members of U_Xn before judging the monotone half
                (rX,), _ = _carry(rho, family, rXn.witness, Xn, exact, seed + t, (X,), lambda Z: ([Z],))
            # shipped measures are 1-Lipschitz in the sup norm, so exact robust
            # values along the chain may differ by at most the gap
            gap = float(np.max(np.abs(Xn.values - X.values)))
            if rXn.value > rX.value + _TOL or (exact and rX.value - rXn.value > gap + _TOL):
                return counterexample({"X": X, "Delta": Delta, "rX": rX.value, "rXn": rXn.value})
        return no_counterexample(trials)

    if prop == "law_invariant":
        if not _family_holds(family, "law_invariant", space, seed):
            return unknown("hypothesis violation: family not law invariant")
        for t in range(trials):
            X = random_position(space, rng)
            perm = rng.permutation(space.n)
            if not np.allclose(space.probs[perm], space.probs):
                continue
            Xp = Position(space, X.values[perm])
            rX = _solve(rho, family, X, seed + t)
            if rX.exact:
                rXp = _solve(rho, family, Xp, seed + t)
                if abs(rX.value - rXp.value) > _TOL:
                    return counterexample({"X": X, "Xp": Xp, "rX": rX.value, "rXp": rXp.value})
            else:
                (rXp,), _ = _carry(rho, family, rX.witness, X, rX.exact, seed + t, (Xp,),
                                   lambda Z: ([Position(space, Z.values[perm])],))
                if rXp.value < rX.value - _TOL and rho.flags.law_invariant:
                    return counterexample({"X": X, "Xp": Xp, "rX": rX.value, "rXp": rXp.value})
        return no_counterexample(trials)

    raise ValueError(f"unsupported preservation property {prop!r}")


def largest_family_properties(
    rho: RiskFunctional,
    family: UncertaintyFamily,
    trials: int = 200,
    seed: int = 0,
    *,
    space: ProbSpace,
) -> dict:
    """Verdicts for solidity, monotonicity and quasi-convexity of the largest
    family Z -> {rho(Z) <= robust value}."""
    _require_count(trials)
    rng = np.random.default_rng(seed)
    out = {}

    # solidity: lift any member upward, it must stay a member
    tested = 0
    for t in range(trials):
        X = random_position(space, rng)
        rX = _solve(rho, family, X, seed + t)
        Z = rX.witness if rX.witness is not None else X
        Zbar = Z + Position(space, np.abs(rng.normal(size=space.n)))
        if not largest_family_member(rho, rX.value, Z):
            continue
        tested += 1
        if not largest_family_member(rho, rX.value, Zbar):
            out["solid"] = counterexample({"X": X, "Z": Z, "Zbar": Zbar})
            break
    else:
        out["solid"] = _sampled(trials, trials - tested)

    # monotonicity of the induced family, via monotonicity of the robust value
    out["monotone"] = verify_preservation(rho, family, "monotone", trials=trials, seed=seed + 1, space=space)

    # quasi-convexity of the induced family: X -> {Z : rho(Z) <= R(X)} is
    # quasi-convex exactly when the robust value R is
    out["quasi_convex"] = verify_preservation(rho, family, "quasi_convex", trials=trials, seed=seed + 2, space=space)
    return out
