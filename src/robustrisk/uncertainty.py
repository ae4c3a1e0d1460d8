"""Uncertainty-set families: the map X -> U_X, property checkers, solidification.

Each family carries an exact membership predicate and a solver-facing
``discretize`` generator. A family's kind is its class: norm balls (p in
[1, inf], where p = inf is the sup ball), Wasserstein balls, level bands and
upper sets, and solidified families each own their predicate, their candidate
generator and their closed forms (worst cases, support functions, cone
and split witnesses, certified property rules) as methods. A family
built by hand, ``UncertaintyFamily(name, params, membership, discretize)``,
has no closed forms. The module functions add only what does not depend on
the kind: membership checks of what a closed form returns, and generic
numeric fallbacks.
``check_property`` combines certified rules (closed-form arguments or
constructed counterexamples, verified before being returned) with seeded
sampled falsification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .prob_core import (
    Position,
    ProbSpace,
    quantile_function,
    same_distribution,
    _exit_search,
    _gap_norm_rows,
    _lp_rows,
    _merged_rows,
    _rearranged_rows,
    _same_law_rows,
    _wasserstein_rows,
)
from .risk_measures import RiskFunctional, _MeanOnly

__all__ = [
    "MEMBER_TOL",
    "UncertaintyFamily",
    "PropertyVerdict",
    "sup_norm_ball",
    "p_norm_ball",
    "wasserstein_ball",
    "level_band",
    "level_upper_set",
    "check_property",
    "replay_witness",
    "solidify",
    "random_position",
    "cone_witness",
    "minkowski_split",
    "FAMILY_PROPERTIES",
]

MEMBER_TOL = 1e-12

FAMILY_PROPERTIES = (
    "monotone",
    "order_preserving",
    "convex",
    "quasi_convex",
    "c_quasi_convex",
    "solid",
    "law_invariant",
    "cash_invariant",
    "continuous_from_above",
)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a family/measure property check."""

    tag: str  # "certified_holds" | "sampled_no_counterexample" | "counterexample" | "unknown"
    trials: int = 0
    witness: Optional[dict] = None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.tag in ("certified_holds", "sampled_no_counterexample")

    @property
    def is_counterexample(self) -> bool:
        return self.tag == "counterexample"


def certified(note: str = "") -> PropertyVerdict:
    return PropertyVerdict("certified_holds", note=note)


def no_counterexample(trials: int, note: str = "") -> PropertyVerdict:
    return PropertyVerdict("sampled_no_counterexample", trials=trials, note=note)


def counterexample(witness: dict, note: str = "") -> PropertyVerdict:
    return PropertyVerdict("counterexample", witness=witness, note=note)


def unknown(note: str = "") -> PropertyVerdict:
    return PropertyVerdict("unknown", note=note)


def _sampled(trials: int, undecided: int) -> PropertyVerdict:
    """The verdict of ``trials`` trials that found no violation, of which
    ``undecided`` could not have found one."""
    if undecided == trials:
        return unknown("no trial could have found a violation")
    return no_counterexample(trials - undecided, f"{undecided} undecided trials" if undecided else "")


def _require_count(count: int, name: str = "trials") -> None:
    """A sampled check with no trial would report an empty search as a pass."""
    if count < 1:
        raise ValueError(f"{name} must be >= 1")


def _require_step(value: float, name: str) -> None:
    """A step or bound that is zero, negative, infinite or NaN would fail late
    and obscurely, deep inside a lattice or a division."""
    if not 0.0 < value < math.inf:  # NaN fails it
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# family container


@dataclass(frozen=True)
class UncertaintyFamily:
    """A family of uncertainty sets X -> U_X with solver-facing structure.

    A family's kind is its class: it owns its predicate ``_member(X, Z)`` and
    its array form ``_member_rows(X, rows)``, its generator ``_candidates(X,
    resolution, budget, rng)`` of the rows of an (m, n) array, and its closed
    forms, the other underscore methods. A ball's predicate is the one-row
    call of its array form; a level family's takes the scalar rho1, which
    costs less than a one-row batch. Here each closed form returns None
    ("no closed form"), which sends the callers to generic numerics, and the
    kinds below override them. Left unset, the fields ``membership`` and
    ``discretize`` are the kind's ``_member`` and ``_discretize`` bound to
    this family. A copy made with ``dataclasses.replace`` rebinds them, so it
    answers with its own params. A family built by hand passes both,
    ``membership(X, Z)`` and ``discretize(X, resolution, budget, seed)``, and
    takes the generic paths; a missing one is a TypeError. The closed forms
    test membership through ``self.membership``, so a copy with a replaced
    predicate keeps its closed forms around it.
    """

    name: str
    params: dict
    membership: Optional[Callable[[Position, Position], bool]] = field(default=None, repr=False)
    discretize: Optional[Callable[[Position, float, int, int], list]] = field(default=None, repr=False)

    def __post_init__(self):
        for name, own in (("membership", "_member"), ("discretize", "_discretize")):
            given = getattr(self, name)
            if given is None or type(getattr(given, "__self__", None)) is type(self) and given.__name__ == own:
                if not hasattr(self, "_member"):  # a family built by hand has no kind methods
                    raise TypeError(f"a family built by hand needs a {name} callable")
                object.__setattr__(self, name, getattr(self, own))

    @property
    def eps(self) -> float:
        return self.params.get("eps", 0.0)

    @property
    def rho1(self) -> Optional[RiskFunctional]:
        return self.params.get("rho1")

    def _discretize(self, X: Position, resolution: float, budget: int, seed: int) -> list:
        """The members among the kind's candidates for U_X, drawn from one
        seeded stream, as Positions in the order drawn. The candidates are the
        rows of one array, tested in one ``_member_rows`` call; a family whose
        ``membership`` is not its kind's own ``_member`` (a copy with a
        replaced predicate) tests them row by row through ``membership``."""
        rng = np.random.default_rng(seed)
        rows = self._candidates(X, resolution, budget, rng)
        if not np.isfinite(rows).all():
            raise ValueError("position values must be finite")
        keep = self._member_rows(X, rows) if _own_rows(self) else UncertaintyFamily._member_rows(self, X, rows)
        return [Position(X.space, row) for row in rows[keep]]

    def _member_rows(self, X: Position, rows: np.ndarray) -> np.ndarray:
        """Whether each row of the (m, n) array lies in U_X, by one
        ``membership`` call per row."""
        return np.array([bool(self.membership(X, Position(X.space, row))) for row in rows], dtype=bool)

    def _member_grid(self, centers: list, rows: np.ndarray) -> np.ndarray:
        """A (len(centers), m) array: whether each row lies in U_C for each
        center C, one ``_member_rows`` call per center."""
        return np.array([self._member_rows(C, rows) for C in centers])

    def _worst_case(self, rho: RiskFunctional, X: Position) -> Optional[tuple]:
        """(value, witness, guarantee) for sup over U_X of rho, where the kind
        has a closed form for it, else None; the value is rho at the witness."""
        return None

    def _vertices(self, X: Position) -> Optional[np.ndarray]:
        """Vertices of the polytope U_X as the rows of an (m, n) array; a
        quasi-convex rho attains its sup at one."""
        return None

    def _support_rows(self, W: np.ndarray, X: Position) -> Optional[np.ndarray]:
        """phi_Q(X) = sup over U_X of E_Q[-Z] for each row of W, the Q-masses
        of a measure Q, where the kind has a closed form, else None."""
        return None

    def _support_argmax(self, W: np.ndarray, X: Position) -> Optional[np.ndarray]:
        """For each row of W, the Q-masses of a measure Q, a member Z of U_X
        with E_Q[-Z] = phi_Q(X), as the rows of an (m, n) array, where the
        kind has a closed form, else None."""
        return None

    def _support_penalty_rows(self, W: np.ndarray, Wt: np.ndarray, space: ProbSpace) -> Optional[np.ndarray]:
        """c_{phi_Q}(Qt), the minimal penalty of the support functional phi_Q
        at Qt, for each aligned pair of rows of W and Wt, the Q-masses of Q
        and Qt, where the kind has a closed form, else None. It is finite
        only where the densities dQ/dP and dQt/dP have the same law within
        1e-9, so a search for Qt's partners keeps to Qt's law class."""
        return None

    def _plus_cone(self, X: Position, Z: Position) -> Optional[bool]:
        """Whether Z lies in U_X + L^p_+, i.e. some member of U_X lies
        pointwise below Z; None when the kind has no exact decision."""
        return None

    def _dominated(self, X: Position, Z: Position) -> Optional[Position]:
        """A candidate member W <= Z of U_X, for Z outside U_X; no W <= Z is
        a member unless Z lies in U_X + L^p_+.
        A monotone rho has rho(W) >= rho(Z), so a monotonicity trial carries
        a member Z of U_Y, Y >= X, into U_X by it (``cone_witness``)."""
        return None

    def _split(self, X: Position, Y: Position, lam: float, Z: Position) -> Optional[tuple]:
        """Candidates (Z1, Z2) for U_X and U_Y with Z = lam*Z1 + (1-lam)*Z2."""
        return None

    def _rule(self, prop: str, space: ProbSpace) -> Optional[PropertyVerdict]:
        """A certified verdict (or verified counterexample) for the property."""
        return None

    def _margin(self, X: Position, Z: Position) -> Optional[float]:
        """Distance-style violation margin of Z relative to U_X."""
        return None

    def _pullback(self, X: Position, Z: Position) -> Optional[float]:
        """For a member X and a non-member Z, a t in [0, 1] where the segment
        X + t (Z - X) leaves U_X; None sends the caller to a scalar bisection
        on membership. Balls give the first exit: a norm ball in closed form,
        a Wasserstein ball by an exact search over the pieces of the segment
        between crossing times. A level family gives an exit from the set
        without MEMBER_TOL, the first exit an exit search on its margin sees,
        over any base (one built by hand through its row loop); on a band
        that the segment leaves and re-enters between two points of the
        search's first fan it is not the first."""
        return None


def _own_rows(family: UncertaintyFamily) -> bool:
    """Whether ``family.membership`` is its kind's own predicate and the kind
    decides it for many rows in one array call: not a family built by hand,
    nor a solidified one, nor a copy with a replaced ``membership``."""
    rows = type(family)._member_rows is not UncertaintyFamily._member_rows
    return rows and family.membership == family._member


def _scan(values, rows) -> Optional[int]:
    """Index of the largest of ``values``, the value at each row of ``rows``:
    values within 1e-12 of the best so far tie and go to the lexicographically
    smaller row, and the first +inf ends the scan. None when no value is
    above -inf. ``values`` may be lazy: the scan draws no value past a +inf."""
    best_v, best_i = -math.inf, None
    for i, v in enumerate(values):
        if v == math.inf:
            return i
        if v > best_v + 1e-12 or (
            abs(v - best_v) <= 1e-12 and (best_i is None or tuple(rows[i]) < tuple(rows[best_i]))
        ):
            best_v, best_i = v, i
    return best_i


_BATCH_ROWS = 1 << 14  # rows per rho._batch call, which bounds its temporaries


def _best_row(rho: RiskFunctional, rows: np.ndarray, space: ProbSpace) -> Optional[int]:
    """``_scan`` over the rows of an (m, n) array, evaluated by ``rho._batch``
    in one call (one per 2^14 rows)."""
    parts = [rho._batch(rows[k : k + _BATCH_ROWS], space) for k in range(0, len(rows), _BATCH_ROWS)]
    return _scan(np.concatenate(parts).tolist(), rows)


def random_position(space: ProbSpace, rng: np.random.Generator) -> Position:
    return Position(space, rng.normal(0.0, 2.0, size=space.n))


def _conjugate_order(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# balls: translated L^p(P) balls and Wasserstein balls


class _Ball(UncertaintyFamily):
    """Balls of radius eps around X in a distance that each kind writes once,
    as ``_dist_rows(X, rows)`` for the rows of an (m, n) array. The scalar
    distance and membership are its one-row calls, so both forms give the
    same bits."""

    @property
    def p(self) -> float:
        return self.params["p"]

    def _dist(self, X: Position, Z: Position) -> float:
        return float(self._dist_rows(X, Z.values[None, :])[0])

    def _member(self, X, Z):
        return self._dist(X, Z) <= self.eps + MEMBER_TOL

    def _member_rows(self, X, rows):
        return self._dist_rows(X, rows) <= self.eps + MEMBER_TOL

    def _k_rows(self, W: np.ndarray, space: ProbSpace) -> np.ndarray:
        """phi_Q(X) minus the (rearranged) Q-expectation of -X, for each row
        of W, the Q-masses of a measure Q: eps times the dual norm of dQ/dP,
        which is 1 for p = inf. It is also -c_{phi_Q}(Q), the support penalty
        on the diagonal."""
        if math.isinf(self.p):
            return np.full(len(W), self.eps)
        return self.eps * _lp_rows(W / space.probs, space.probs, _conjugate_order(self.p))

    def _split(self, X, Y, lam, Z):
        D = Z - (lam * X + (1.0 - lam) * Y)
        return X + D, Y + D

    def _margin(self, X, Z):
        return self._dist(X, Z) - self.eps


class _NormBall(_Ball):
    """U_X = {Z : ||Z - X||_{L^p(P)} <= eps}, p in [1, inf]; p = inf is the sup ball."""

    def _dist_rows(self, X, rows):
        return _lp_rows(np.abs(rows - X.values), X.space.probs, self.p)

    def _member_grid(self, centers, rows):
        # every center's distances in one array expression
        at = np.array([C.values for C in centers])[:, None, :]
        return _lp_rows(np.abs(rows - at), centers[0].space.probs, self.p) <= self.eps + MEMBER_TOL

    def _candidates(self, X, resolution, budget, rng):
        """Rows: X, X -/+ eps, then for p = inf the 2^n sign corners (when
        they fit the budget) and a mesh or uniform draws of the box, else the
        2n spikes of height eps / p_i^(1/p) (the vertices for p = 1) and
        draws of radius at most eps."""
        n, p, eps, x = X.space.n, self.p, self.eps, X.values
        pts = [x, x - eps, x + eps]
        if math.isinf(p):
            if 0 < n <= 16 and 2**n <= budget:
                bits = np.arange(2**n)[:, None] >> np.arange(n) & 1
                pts.extend(x + eps * np.where(bits == 1, 1.0, -1.0))
            per_dim = max(2, int(round(2 * eps / resolution)) + 1) if eps > 0 else 1
            if per_dim**n <= budget and eps > 0:
                axes = np.linspace(-eps, eps, per_dim)
                mesh = np.stack(np.meshgrid(*([axes] * n), indexing="ij"), axis=-1).reshape(-1, n)
                pts.extend(x + mesh)
            else:
                pts.extend(x + rng.uniform(-eps, eps, size=n) for _ in range(max(0, budget - len(pts))))
            return np.array(pts)
        # extreme spikes of the weighted-ell^p ball (exact vertices for p=1)
        spikes = np.zeros((2 * n, n))
        i = np.arange(n)
        height = np.array([eps / q ** (1.0 / p) for q in X.space.probs])  # scalar powers, as the draws' norms
        spikes[2 * i, i], spikes[2 * i + 1, i] = -height, height
        pts.extend(x + spikes)
        while len(pts) < budget:
            d = rng.normal(size=n)
            nrm = _lp_rows(np.abs(d), X.space.probs, p)
            if nrm == 0:
                continue
            r = eps * rng.uniform() ** (1.0 / max(n, 1))
            pts.append(x + d * (r / nrm))
        return np.array(pts)

    def _worst_case(self, rho, X):
        eps = self.eps
        if math.isinf(self.p):
            if not rho.flags.monotone:
                return None
            W = X - eps  # lies below every member
            return rho(W), W, "exact"
        if eps == 0.0:
            return rho(X), X, "exact"
        if isinstance(rho, _MeanOnly):  # constant shift has L^p(P) norm exactly eps
            W = X - eps
            return rho(W), W, "exact"
        return _dual_vertex_worst_case(self, rho, X) if self.p > 1.0 else None

    def _vertices(self, X):
        """Rows: for p = inf the 2^n corners X + eps * s, the signs s in
        ``itertools.product((-1, 1), repeat=n)`` order; for p = 1, X and then
        X - eps/p_i e_i, X + eps/p_i e_i for each atom i in turn."""
        n, eps = X.space.n, self.eps
        if math.isinf(self.p):
            if n > 20:
                raise ValueError(f"vertex enumeration guarded at n <= 20, got n = {n}")
            # column j: blocks of 2^(n-1-j) rows at -eps, then at +eps
            rows = np.empty((2**n, n))
            for j, x in enumerate(X.values):
                block = rows.reshape(2**j, 2, 2 ** (n - 1 - j), n)
                block[:, 0, :, j], block[:, 1, :, j] = x - eps, x + eps
            return rows
        if self.p != 1.0:
            return None
        rows = np.tile(X.values, (2 * n + 1, 1))
        i = np.arange(n)
        rows[2 * i + 1, i] += -eps / X.space.probs
        rows[2 * i + 2, i] += eps / X.space.probs
        return rows

    def _support_rows(self, W, X):
        return -(W @ X.values) + self._k_rows(W, X.space)

    def _support_argmax(self, W, X):
        # Hoelder's equality case for 1 < p < inf: with q = dQ/dP, the
        # direction g = q^(p*-1) / ||q^(p*-1)||_p has ||g||_p = 1 and
        # E_P[q g] = ||q||_p*, so X - eps g attains phi_Q(X)
        if not 1.0 < self.p < math.inf:
            return None
        G = (W / X.space.probs) ** (_conjugate_order(self.p) - 1.0)
        return X.values - self.eps * G / _lp_rows(G, X.space.probs, self.p)[:, None]

    def _support_penalty_rows(self, W, Wt, space):
        # phi_Q is E_Q[-.] plus a constant, so the penalty is finite only at Qt = Q
        same = np.abs(W / space.probs - Wt / space.probs).max(axis=1) <= 1e-9
        return np.where(same, -self._k_rows(W, space), math.inf)

    def _plus_cone(self, X, Z):
        deficit = np.maximum(X.values - Z.values, 0.0)
        return bool(_lp_rows(deficit, X.space.probs, self.p) <= self.eps + MEMBER_TOL)

    def _dominated(self, X, Z):
        # min(X, Z) - X = -(X - Z)^+, whose norm _plus_cone bounds by eps
        return Position(X.space, np.minimum(X.values, Z.values))

    def _pullback(self, X, Z):
        # ||t (Z - X)|| = t ||Z - X||: homogeneity puts the boundary at eps / ||Z - X||
        return min(1.0, self.eps / self._dist(X, Z))

    def _rule(self, prop, space):
        eps = self.eps
        if prop == "convex":
            return certified("translated norm balls form a convex family")
        if prop == "cash_invariant":
            return certified("membership depends on Z - X only")
        if prop == "order_preserving":
            return certified("X' = Y' - (Y - X) is a dominated member")
        if prop == "quasi_convex":
            return _ball_quasi_counterexample(self, space)
        if prop == "c_quasi_convex":
            return _ball_c_quasi_counterexample(self, space)
        if prop == "solid" and eps < math.inf:
            return _lifted(self, prop, space, 2.0 * eps + 1.0, "raise above the band")
        if prop == "monotone" and eps < math.inf:
            return _lifted(self, prop, space, 3.0 * eps + 1.0, "translated ball escapes U_X")
        if prop == "law_invariant" and eps < math.inf:
            groups = _equal_mass_groups(space)
            if groups == []:
                return certified("no two atom groups share a mass, so no two distinct positions share a law")
            # X = c 1_A and X' = c 1_B share a law; the ball around X' misses X
            c = 3.0 * eps + 1.0
            pairs = ((Position(space, c * A), Position(space, c * B)) for A, B in groups or ())
            witnesses = ({"X": X, "Xp": Xp, "Z": X} for X, Xp in pairs)
            return _verified(self, prop, witnesses, "rearranged center moves the ball")
        return None


class _WassersteinBall(_Ball):
    """U_X = {Z : d_Wp(X, Z) <= eps}; membership depends on laws only."""

    def _dist_rows(self, X, rows):
        return _wasserstein_rows(quantile_function(X), rows, X.space.probs, self.p)

    def _candidates(self, X, resolution, budget, rng):
        """Rows: X, X -/+ eps, quantile-space shifts of X of norm at most
        eps realized along X's order, then rearrangements of X."""
        n, p, eps, x = X.space.n, self.p, self.eps, X.values
        order = np.argsort(x, kind="stable")
        widths = X.space.probs[order]
        sorted_v = x[order]

        def from_sorted(new_sorted: np.ndarray) -> np.ndarray:
            vals = np.empty(n)
            vals[order] = np.sort(new_sorted)
            return vals

        pts = [x, x - eps, x + eps, from_sorted(sorted_v)]
        # quantile-space shifts of norm <= eps (comonotone worst cases included)
        n_shifts = max(4, budget // 4)
        for k in range(n_shifts):
            d = rng.normal(size=n)
            nrm = _lp_rows(np.abs(d), widths, p)
            if nrm == 0:
                continue
            radius = eps if k < n_shifts // 2 else eps * rng.uniform()
            pts.append(from_sorted(sorted_v + d * (radius / nrm)))
        # rearrangements keep the law, hence always members
        for _ in range(max(2, budget // 8)):
            pts.append(x[rng.permutation(n)])
        return np.array(pts)

    def _worst_case(self, rho, X):
        eps, f = self.eps, rho.flags
        if eps == 0.0 and f.law_invariant:
            return rho(X), X, "exact"
        if math.isinf(self.p) and f.monotone and f.law_invariant:
            W = X - eps
            return rho(W), W, "exact"
        if isinstance(rho, _MeanOnly):
            W = X - eps
            return rho(W), W, "exact"
        if f.convex and f.law_invariant:
            # comonotone shift: X - eps sits on the ball boundary for every
            # order; attainment of the supremum there is not certified
            W = X - eps
            return rho(W), W, "lower_bound"
        probs = X.space.probs
        if self.p == 1.0 and f.law_invariant and f.quasi_convex and (probs == probs[0]).all():
            # Birkhoff-von Neumann: an optimal coupling of two uniform laws is
            # a permutation, so the laws in the W1 ball are those in the L1
            # ball, and a quasi-convex rho peaks at one of its vertices
            rows = _NormBall._vertices(self, X)
            i = _best_row(rho, rows, X.space)
            W = None if i is None else Position(X.space, rows[i])
            if W is not None and self.membership(X, W):
                return rho(W), W, "exact"
        return None

    def _support_rows(self, W, X):
        return _rearranged_rows(W, -X) + self._k_rows(W, X.space)

    def _support_penalty_rows(self, W, Wt, space):
        # phi_Q depends on the law of its argument: finite at rearrangements
        # of Q. Each run of rows that share a Qt (a run starts where Wt moves,
        # or at row 0) is one merge against Qt's law.
        same = np.empty(len(W), dtype=bool)
        starts = np.flatnonzero(np.diff(Wt, axis=0, prepend=np.nan).any(axis=1))
        for a, b in zip(starts, [*starts[1:], len(W)]):
            qt = quantile_function(Position(space, Wt[a] / space.probs))
            same[a:b] = _same_law_rows(qt, W[a:b] / space.probs, space.probs, 1e-9)
        return np.where(same, -self._k_rows(W, space), math.inf)

    def _plus_cone(self, X, Z):
        # lowering coordinates reaches exactly the laws with dominated quantiles
        qx = quantile_function(X)
        widths, ix, atom = _merged_rows(qx, Z.values[None, :], X.space.probs)
        deficit = np.maximum(qx.values[ix] - Z.values[atom], 0.0)
        return bool(_gap_norm_rows(widths, deficit, self.p)[0] <= self.eps + MEMBER_TOL)

    def _dominated(self, X, Z):
        # dominated quantile envelope, realized comonotonically along Z
        qx = quantile_function(X)
        order = np.argsort(Z.values, kind="stable")
        cum = np.cumsum(Z.space.probs[order])
        mids = cum - 0.5 * Z.space.probs[order]
        ixq = np.minimum(np.searchsorted(qx.cum, mids, side="left"), qx.values.size - 1)
        vals = np.empty(order.size)
        vals[order] = np.minimum(Z.values[order], qx.values[ixq])
        return Position(Z.space, vals)

    def _pullback(self, X, Z):
        # The order of X + t D, D = Z - X, changes only at the times where two
        # atoms cross. Between two of them the quantile gaps are affine in t,
        # so the distance is convex there: the first scored time outside the
        # ball closes the piece that holds the first exit, which the piece's
        # gaps give without sorting again. For p = 1 the distance on the piece
        # is piecewise linear, kinked where a gap changes sign, so one call
        # scores the piece's ends and kinks and the exit is linear between the
        # last point inside and the first outside; for other p a search on the
        # margin W_p - eps finds it. Crossing times are scored 64 to a call,
        # in order, after skipping those that the bound
        # W_p(X + s D, X + t D) <= |t - s| ||D||_p keeps inside the ball.
        x, D, probs, qx = X.values, Z.values - X.values, X.space.probs, quantile_function(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            T = (x[None, :] - x[:, None]) / (D[:, None] - D[None, :])
        T = np.sort(T[(T > 0.0) & (T < 1.0)])
        T = np.concatenate(([0.0], T[:1], T[1:][T[1:] > T[:-1]], [1.0]))  # np.unique's times, at less cost
        lipschitz = _lp_rows(np.abs(D), probs, self.p)
        at, d = 0, 0.0  # T[at] is inside, at distance d <= eps
        while True:
            at = int(np.searchsorted(T, T[at] + (self.eps - d) / lipschitz, side="right"))
            if at == T.size:
                return 1.0
            dist = _wasserstein_rows(qx, x + T[at : at + 64, None] * D, probs, self.p)
            out = np.flatnonzero(dist > self.eps)
            if out.size:
                break
            at, d = at + dist.size - 1, dist[-1]
        # T[j - 1] was scored or skipped, so the piece [T[j - 1], T[j]] starts inside
        j = at + int(out[0])
        widths, ix, atom = _merged_rows(qx, (x + 0.5 * (T[j - 1] + T[j]) * D)[None, :], probs)
        a, b = qx.values[ix][0] - x[atom][0], -D[atom][0]

        def margin(s):
            return _gap_norm_rows(widths, np.abs(a + s[:, None] * b), self.p) - self.eps

        if self.p != 1.0:
            return _exit_search(margin, T[j - 1], T[j])[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = -a / b
        s = np.concatenate(([T[j - 1]], np.sort(kinks[(kinks > T[j - 1]) & (kinks < T[j])]), [T[j]]))
        m = margin(s)
        out = m > 0.0
        out[0], out[-1] = False, True  # as for _exit_search: the start counts as inside, the end as outside
        i = int(out.argmax())
        m0, m1 = min(float(m[i - 1]), 0.0), max(float(m[i]), 0.0)
        return float(s[i - 1] - m0 * (s[i] - s[i - 1]) / (m1 - m0)) if m1 > m0 else float(s[i - 1])

    def _rule(self, prop, space):
        eps = self.eps
        if prop == "convex":
            return certified("Wasserstein balls form a convex family")
        if prop == "law_invariant":
            return certified("membership depends on laws only")
        if prop == "cash_invariant":
            return certified("d_W(X + c, Z) = d_W(X, Z - c)")
        if prop == "order_preserving":
            return certified("dominated comonotone quantile envelope is a member")
        if prop in ("solid", "monotone") and eps < math.inf:
            note = "upward shift leaves the ball" if prop == "solid" else "ball around Y escapes U_X"
            return _lifted(self, prop, space, 3.0 * eps + 1.0, note)
        if prop == "quasi_convex":
            return _ball_quasi_counterexample(self, space)
        if prop == "c_quasi_convex":
            return _ball_c_quasi_counterexample(self, space)
        return None


def sup_norm_ball(eps: float) -> UncertaintyFamily:
    """U_X = {Z : X - eps <= Z <= X + eps pointwise}, the family p_norm_ball(inf, eps)."""
    if not 0 <= eps < math.inf:
        raise ValueError("radius eps must be nonnegative and finite")
    return _NormBall(name=f"sup_norm_ball(eps={eps})", params={"p": math.inf, "eps": eps})


def p_norm_ball(p: float, eps: float) -> UncertaintyFamily:
    """U_X = {Z : ||Z - X||_{L^p(P)} <= eps}."""
    if not p >= 1:
        raise ValueError("norm order p must be >= 1")
    if not 0 <= eps < math.inf:
        raise ValueError("radius eps must be nonnegative and finite")
    return _NormBall(name=f"p_norm_ball(p={p},eps={eps})", params={"p": p, "eps": eps})


def wasserstein_ball(p: float, eps: float) -> UncertaintyFamily:
    """U_X = {Z : d_Wp(X, Z) <= eps}; membership depends on laws only."""
    if not p >= 1:
        raise ValueError("Wasserstein order p must be >= 1")
    if not 0 <= eps < math.inf:
        raise ValueError("radius eps must be nonnegative and finite")
    return _WassersteinBall(name=f"wasserstein_ball(p={p},eps={eps})", params={"p": p, "eps": eps})


# ---------------------------------------------------------------------------
# level families of a base measure rho1


def _require_level_flags(rho1: RiskFunctional):
    if not (rho1.flags.quasi_convex and (rho1.flags.cash_subadditive or rho1.flags.cash_additive)):
        raise ValueError(
            "level families require a quasi-convex, cash-subadditive base measure; "
            f"{rho1.name} is not flagged as such"
        )


def _boundary_step(rho1: RiskFunctional, Z: Position, target: float) -> float:
    """Smallest k >= 0 with rho1(Z - k) ~= target.

    A cash-additive rho1 has rho1(Z - k) = rho1(Z) + k, so k = target - rho1(Z)
    in closed form. Otherwise by bracket growth and an exit search on the
    margin rho1(Z - k) - below, which rely on k -> rho1(Z - k) being
    increasing and continuous (rho1 monotone) and growing without bound, so
    that the bracket reaches the target. The search returns its failing end,
    where rho1(Z - k) >= target.
    """
    start = rho1(Z)
    if start >= target:
        return 0.0
    if rho1.flags.cash_additive:
        return target - start
    hi = 1.0
    while rho1(Z - hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("level boundary bracket growth failed")
    z, below = Z.values, math.nextafter(target, -math.inf)
    return _exit_search(lambda k: rho1._batch(z - k[:, None], Z.space) - below, 0.0, hi)[1]


class _LevelFamily(UncertaintyFamily):
    """Level families of a quasi-convex, cash-subadditive base measure rho1."""

    def _candidates(self, X, resolution, budget, rng):
        """Rows: X, a scan along X - k down to the level boundary, the
        constant at the level, three upward shifts, then per random ray its
        boundary point and the midpoint (X + D when the ray never leaves)."""
        rho1, space, x = self.rho1, X.space, X.values
        level = rho1(X) + self.eps
        pts = [x]
        # scan along X - k down to the level boundary
        k_star = _boundary_step(rho1, X, level)
        m = max(2, min(16, budget // 4))
        pts.extend(x - k_star * j / m for j in range(m + 1))
        # the constant position sitting exactly at the level (when it qualifies)
        pts.append(np.full(space.n, -level))
        # upward shifts (members whenever the family is solid)
        pts.extend(x + j * max(resolution, 0.25) for j in range(1, 4))
        # random directions rescaled to the boundary: rho1 is quasi-convex and
        # X inside, so rho1 < level holds on an initial segment of each ray,
        # searched on the margin rho1 - below, <= 0 exactly where rho1 < level
        below = math.nextafter(level, -math.inf)
        while len(pts) < budget:
            D = Position(space, rng.normal(size=space.n))
            s_hi = 1.0
            for _ in range(40):
                down = rho1(X - s_hi * D) >= level
                if down or rho1(X + s_hi * D) >= level:
                    break
                s_hi *= 2.0
            else:
                pts.append(x + D.values)
                continue
            ray = -D.values if down else D.values
            lo, _ = _exit_search(lambda s: rho1._batch(x + s[:, None] * ray, space) - below, 0.0, s_hi)
            pts.append(x + ray * lo)
            pts.append(x + ray * (0.5 * lo))
        return np.array(pts)

    def _member(self, X, Z):
        return bool(self._within(self.rho1(Z), self.rho1(X), MEMBER_TOL))

    def _member_rows(self, X, rows):
        return self._within(self.rho1._batch(rows, X.space), self.rho1(X), MEMBER_TOL)

    def _member_grid(self, centers, rows):
        # the rows' rho1 once, compared with each center's scalar rho1
        r = self.rho1._batch(rows, centers[0].space)
        return self._within(r[None, :], np.array([self.rho1(C) for C in centers])[:, None], MEMBER_TOL)

    def _worst_case(self, rho, X):
        """rho1 itself: X shifted down to the level. A mean-only rho over the
        set of a convex cash-additive rho1 with c1(P) = 0: members have
        E[-Z] <= rho1(Z) + c1(P) <= rho1(X) + eps, which the constant at that
        level attains. It is confirmed within the level without MEMBER_TOL,
        and moved by the excess where rounding puts rho1 there outside."""
        rho1 = self.rho1
        if rho._same(rho1):
            target = rho(X) + self.eps
            W = X - _boundary_step(rho1, X, target)
            val = rho(W)
            if abs(val - target) <= 1e-8:
                return target, W, "exact"
            return val, W, "lower_bound"
        if not isinstance(rho, _MeanOnly) or not (rho1.flags.convex and rho1.flags.cash_additive):
            return None
        c1 = rho1._penalty_rows(X.space.probs[None, :], X.space)  # c1(P)
        if c1 is None or c1[0] != 0.0:
            return None
        r0 = rho1(X)
        c = r0 + self.eps
        for _ in range(4):
            W = Position(X.space, np.full(X.space.n, -c))
            r = rho1(W)
            excess = self._excess(r, r0)
            if excess <= 0.0:
                return rho(W), W, "exact"
            step = max(excess, math.ulp(c))
            c = c - step if r > r0 else c + step
        return None

    def _support_rows(self, W, X):
        rho1 = self.rho1
        c1 = rho1._penalty_rows(W, X.space) if rho1.flags.cash_additive else None
        if c1 is None:
            return None
        # members satisfy E_Q[-Z] <= rho1(Z) + c(Q) <= rho1(X) + eps + c(Q)
        return rho1(X) + self.eps + c1

    def _plus_cone(self, X, Z):
        # k -> rho1(Z - k) rises continuously and without bound from rho1(Z),
        # so some Z - k reaches the band or upper set iff rho1(Z) is at most
        # its top rho1(X) + eps; an upper set is solid, so this is membership
        return self.rho1(Z) <= self.rho1(X) + self.eps + MEMBER_TOL

    def _pullback(self, X, Z):
        # an exit from the set without MEMBER_TOL, so the point is within the level
        rho1, r0 = self.rho1, self.rho1(X)
        D = Z.values - X.values
        return _exit_search(lambda s: self._excess(rho1._batch(X.values + s[:, None] * D, X.space), r0), 0.0, 1.0)[0]

    def _rule(self, prop, space):
        rho1 = self.rho1
        if prop == "c_quasi_convex":
            return certified("intermediate-value scan over downward cash shifts")
        if prop == "law_invariant" and rho1.flags.law_invariant:
            return certified("base measure is law invariant")
        if prop == "cash_invariant" and rho1.flags.cash_additive:
            return certified("base measure is cash additive")
        return None


class _LevelUpperSet(_LevelFamily):
    """U_X = {Z : rho1(Z) <= rho1(X) + eps}."""

    def _within(self, r, r0, tol):
        return r <= r0 + self.eps + tol

    def _excess(self, r, r0):
        return r - (r0 + self.eps)  # <= 0 where _within(r, r0, 0.0), for finite values

    def _rule(self, prop, space):
        verdict = super()._rule(prop, space)
        if verdict is None and prop in ("solid", "monotone"):
            return certified("monotonicity of the base measure")
        if verdict is None and prop == "order_preserving":
            return certified("monotone families preserve order (take X' = Y')")
        if verdict is None and prop == "quasi_convex":
            return certified("c-quasi-convex and solid")
        return verdict

    def _margin(self, X, Z):
        return self.rho1(Z) - self.rho1(X) - self.eps


class _LevelBand(_LevelFamily):
    """U_X = {Z : |rho1(Z) - rho1(X)| <= eps}."""

    def _within(self, r, r0, tol):
        return np.abs(r - r0) <= self.eps + tol

    def _excess(self, r, r0):
        return np.abs(r - r0) - self.eps  # <= 0 where _within(r, r0, 0.0), for finite values

    def _dominated(self, X, Z):
        return Z - _boundary_step(self.rho1, Z, self.rho1(X) - self.eps)

    def _rule(self, prop, space):
        verdict = super()._rule(prop, space)
        eps = self.eps
        if verdict is None and prop in ("solid", "monotone") and self.rho1.flags.cash_additive and eps < math.inf:
            note = "level drops out of the band" if prop == "solid" else "band around Y misses U_X"
            return _lifted(self, prop, space, 2.0 * eps + 1.0, note)
        return verdict

    def _margin(self, X, Z):
        return abs(self.rho1(Z) - self.rho1(X)) - self.eps


def level_band(rho1: RiskFunctional, eps: float) -> UncertaintyFamily:
    """U_X = {Z : |rho1(Z) - rho1(X)| <= eps} for quasi-convex cash-subadditive rho1."""
    if not 0 <= eps < math.inf:
        raise ValueError("band width eps must be nonnegative and finite")
    _require_level_flags(rho1)
    return _LevelBand(name=f"level_band({rho1.name},eps={eps})", params={"eps": eps, "rho1": rho1})


def level_upper_set(rho1: RiskFunctional, eps: float) -> UncertaintyFamily:
    """U_X = {Z : rho1(Z) <= rho1(X) + eps}; solid and monotone by construction."""
    if not 0 <= eps < math.inf:
        raise ValueError("level offset eps must be nonnegative and finite")
    _require_level_flags(rho1)
    return _LevelUpperSet(name=f"level_upper_set({rho1.name},eps={eps})", params={"eps": eps, "rho1": rho1})


# ---------------------------------------------------------------------------
# membership-verified witnesses from the kinds' closed forms


def cone_witness(family: UncertaintyFamily, X: Position, Z: Position) -> Optional[Position]:
    """A member W of U_X with W <= Z pointwise: Z when it is a member, else
    the kind's dominated member when that is one (it can be only where Z lies
    in U_X + L^p_+, so ``_plus_cone`` is not asked); else None."""
    if family.membership(X, Z):
        return Z
    W = family._dominated(X, Z)
    return W if W is not None and family.membership(X, W) else None


def _dual_vertex_worst_case(family: UncertaintyFamily, rho: RiskFunctional, X: Position) -> Optional[tuple]:
    """(rho(Z), Z, "exact") from the vertices of rho's dual set, where rho has
    them and the family maximizes each support function in closed form, else
    None.

    R(X) = sup_Q [phi_Q(X) - c(Q)], and phi_Q(X) is convex in Q, so R(X) is
    the best vertex's score. The member Z attaining that vertex's phi_Q has
    rho(Z) >= E_Q[-Z] - c(Q), the score, and rho(Z) <= R(X), so Z attains R.
    Z is confirmed by ``membership`` and rho(Z) against the score."""
    V = rho._dual_vertices(X.space)
    if V is None:
        return None
    score = family._support_rows(V, X) - rho._penalty_rows(V, X.space)
    i = int(np.argmax(score))
    Z = Position(X.space, family._support_argmax(V[i : i + 1], X)[0])
    if not family.membership(X, Z):
        return None
    value = rho(Z)
    return (value, Z, "exact") if value >= score[i] - 1e-9 else None


def minkowski_split(
    family: UncertaintyFamily, X: Position, Y: Position, lam: float, Z: Position
):
    """Decompose Z = lam*Z1 + (1-lam)*Z2 with Z1 in U_X, Z2 in U_Y, if certified.

    Exact for translated norm balls; attempted (membership-verified) for
    Wasserstein balls; None otherwise.
    """
    pair = family._split(X, Y, lam, Z)
    if pair is not None and family.membership(X, pair[0]) and family.membership(Y, pair[1]):
        return pair
    return None


# ---------------------------------------------------------------------------
# violations: one predicate per property, shared by sampling, replay and rules


def _leq(A: Position, B: Position) -> bool:
    return bool((A.values <= B.values).all())


def _fails(decided: Optional[bool]) -> Optional[bool]:
    return None if decided is None else not decided


def _violation(family: UncertaintyFamily, prop: str, w: dict) -> Optional[bool]:
    """Whether the witness w violates the property, with the property's full
    hypothesis tested (last, as it rarely settles a sampled candidate); None
    when the family has no decision procedure: no kind decides convexity, a
    kind without ``_plus_cone`` cannot decide order preservation or
    c-quasi-convexity, and a finite chain may not settle continuity from
    above. The other properties are decided by ``membership``."""
    m = family.membership
    if prop == "monotone":
        return _leq(w["X"], w["Y"]) and not m(w["X"], w["Z"]) and m(w["Y"], w["Z"])
    if prop == "order_preserving":
        return _leq(w["X"], w["Y"]) and _fails(family._plus_cone(w["X"], w["Yp"])) and m(w["Y"], w["Yp"])
    if prop == "solid":
        return _leq(w["Z"], w["Zbar"]) and not m(w["X"], w["Zbar"]) and m(w["X"], w["Z"])
    if prop == "convex":
        return None  # no kind decides membership in lam*U_X + (1-lam)*U_Y
    if prop in ("quasi_convex", "c_quasi_convex"):
        X, Y, lam, Z = w["X"], w["Y"], w["lam"], w["Z"]
        if prop == "quasi_convex":
            outside = not m(X, Z) and not m(Y, Z)
        else:
            inside = [family._plus_cone(V, Z) for V in (X, Y)]
            outside = None if None in inside else not any(inside)
        return outside and m(lam * X + (1.0 - lam) * Y, Z)
    if prop == "law_invariant":
        return m(w["X"], w["Z"]) != m(w["Xp"], w["Z"]) and same_distribution(w["X"], w["Xp"])
    if prop == "cash_invariant":
        return m(w["X"] + w["c"], w["Z"] + w["c"]) != m(w["X"], w["Z"])
    if prop == "continuous_from_above":
        return next(_above(family, w["X"], w["Delta"], [w["Z"]]))
    raise ValueError(f"unknown family property {prop!r}")


def _above(family: UncertaintyFamily, X: Position, Delta: Position, Zs: list):
    """``_violation`` of continuity from above for each candidate Z of Zs,
    lazily and in order, along the finite decreasing chain X_k = X + 2^-k
    Delta, k = 11, ..., 1: a member of U_X must eventually enter U_{X_k}.
    False when Z enters some U_{X_k}, Delta has a negative entry or Z is not
    in U_X; otherwise True when the violation margin persists along the tail
    of the chain, and None when it may still decay.

    A kind with its own array membership decides all candidates together, one
    membership array per chain point and one for X (``_member_grid``). Any
    other family tests one candidate at a time through ``membership``."""
    chain = [Position(X.space, X.values + 0.5**k * Delta.values) for k in range(11, 0, -1)]
    negative = bool((Delta.values < 0).any())
    if _own_rows(family):
        inside = family._member_grid([*chain, X], np.array([Z.values for Z in Zs]))
        settled = iter(inside[:-1].any(axis=0) | negative | ~inside[-1])
    else:
        # members usually enter near the end of the chain, so the candidate
        # at a time tests it from there and stops at the first set it enters
        m = family.membership
        settled = (any(m(C, Z) for C in chain) or negative or not m(X, Z) for Z in Zs)
    for Z, done in zip(Zs, settled):
        if done:
            yield False
            continue
        # a finite chain cannot falsify the limit property unless the
        # violation margin persists instead of decaying along the tail
        m_prev, m_last = family._margin(chain[1], Z), family._margin(chain[0], Z)
        persists = m_prev is not None and m_last is not None and m_last > 1e-9 and m_last > 0.75 * m_prev
        yield True if persists else None


def _verified(family: UncertaintyFamily, prop: str, witnesses, note: str) -> Optional[PropertyVerdict]:
    """A counterexample from the first of the witnesses that violates the property."""
    return next((counterexample(w, note) for w in witnesses if _violation(family, prop, w)), None)


# ---------------------------------------------------------------------------
# certified rules


def _lifted(family: UncertaintyFamily, prop: str, space: ProbSpace, shift: float, note: str):
    """Solidity or monotonicity tested at X = 0 and the constant S = shift:
    the member 0 of U_0 lifted to S, or the center S of U_S."""
    X, S = Position(space, np.zeros(space.n)), Position(space, np.full(space.n, shift))
    w = {"X": X, "Z": X, "Zbar": S} if prop == "solid" else {"X": X, "Y": S, "Z": S}
    return _verified(family, prop, [w], note)


def _ball_quasi_counterexample(family: UncertaintyFamily, space: ProbSpace) -> Optional[PropertyVerdict]:
    eps = family.eps
    c = 10.0 * eps if eps > 0 else 1.0
    X = Position(space, np.zeros(space.n))
    Y = Position(space, np.full(space.n, c))
    Z = Position(space, np.full(space.n, 0.5 * c + 0.5 * eps))
    return _verified(family, "quasi_convex", [{"X": X, "Y": Y, "lam": 0.5, "Z": Z}], "constant-shift witness")


def _ball_c_quasi_counterexample(family: UncertaintyFamily, space: ProbSpace) -> Optional[PropertyVerdict]:
    if space.n < 2:
        return None
    eps = family.eps
    base = max(eps, 1.0)
    X = Position(space, np.zeros(space.n))
    sign = np.where(np.arange(space.n) == 0, 1.0, -1.0)
    ys = (scale * base * sign for scale in (10.0, 40.0, 160.0, 640.0))
    witnesses = ({"X": X, "Y": Position(space, y), "lam": 0.5, "Z": Position(space, 0.5 * y + 0.5 * eps)} for y in ys)
    return _verified(family, "c_quasi_convex", witnesses, "two-sided spread witness")


_GROUP_SEARCH_MAX_N = 16


def _equal_mass_groups(space: ProbSpace) -> Optional[list]:
    """Disjoint nonempty atom groups (A, B) of equal mass, as 0/1 vectors.

    Two distinct positions share a law only if such groups exist: the sets
    where they take one of their values differ. The empty list, returned only
    when no two atom subsets have masses within 1e-12, is therefore a safe
    certificate. None when the space has too many atoms to enumerate its
    subsets, or when near-equal masses gave no candidate.
    """
    n = space.n
    if n > _GROUP_SEARCH_MAX_N:
        return None
    subsets = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1 == 1
    mass = subsets @ space.probs
    order = np.argsort(mass, kind="stable")
    close = np.flatnonzero(np.diff(mass[order]) <= 1e-12)
    groups = []
    for k in close[:8]:  # a few candidates suffice: the rule verifies each
        S, T = subsets[order[k]], subsets[order[k + 1]]
        if np.any(S & ~T) and np.any(T & ~S):
            groups.append(((S & ~T).astype(float), (T & ~S).astype(float)))
    return groups if groups or close.size == 0 else None


# ---------------------------------------------------------------------------
# sampled falsification


def _draw(prop: str, X: Position, rng: np.random.Generator):
    """One trial's draws after X: the point whose set is discretized and the
    witness made from each candidate Z of that set; None when the trial can
    test nothing."""
    space = X.space
    if prop in ("monotone", "order_preserving"):
        Y = X + Position(space, np.abs(rng.normal(size=space.n)))
        key = "Z" if prop == "monotone" else "Yp"
        return Y, lambda Z: {"X": X, "Y": Y, key: Z}
    if prop == "solid":
        return X, lambda Z: {"X": X, "Z": Z, "Zbar": Z + Position(space, np.abs(rng.normal(size=space.n)))}
    if prop == "convex":
        return None  # no kind decides membership in lam*U_X + (1-lam)*U_Y
    if prop in ("quasi_convex", "c_quasi_convex"):
        Y = random_position(space, rng)
        lam = float(rng.uniform())
        return lam * X + (1.0 - lam) * Y, lambda Z: {"X": X, "Y": Y, "lam": lam, "Z": Z}
    if prop == "law_invariant":
        # the identity, or a permutation that changes the law, cannot find a violation
        perm = rng.permutation(space.n)
        if not np.allclose(space.probs[perm], space.probs) or np.all(perm == np.arange(space.n)):
            return None
        Xp = Position(space, X.values[perm])
        return X, lambda Z: {"X": X, "Xp": Xp, "Z": Z}
    if prop == "cash_invariant":
        c = float(rng.uniform(-3, 3))
        return X, lambda Z: {"X": X, "c": c, "Z": Z}
    Delta = Position(space, np.abs(rng.normal(size=space.n)))  # continuous_from_above
    return X, lambda Z: {"X": X, "Delta": Delta, "Z": Z}


def _trial(family: UncertaintyFamily, prop: str, witnesses):
    """Each witness of one trial with its ``_violation``, in order. The
    witnesses of a continuity trial share X and Delta, and ``_above`` decides
    their candidates together."""
    if prop != "continuous_from_above":
        return ((w, _violation(family, prop, w)) for w in witnesses)
    ws = list(witnesses)
    if not ws:
        return ()
    return zip(ws, _above(family, ws[0]["X"], ws[0]["Delta"], [w["Z"] for w in ws]))


def _sampled_check(
    family: UncertaintyFamily, prop: str, space: ProbSpace, trials: int, seed: int
) -> PropertyVerdict:
    rng = np.random.default_rng(seed)
    resolution = max(family.eps / 2.0, 0.25)
    budget = 12
    undecided = 0  # trials that could not have found a violation

    for t in range(trials):
        drawn = _draw(prop, random_position(space, rng), rng)
        decided = False
        if drawn is not None:
            point, witness = drawn
            members = family.discretize(point, resolution, budget, seed + 7 * t + 1)
            for w, out in _trial(family, prop, map(witness, members)):
                if out:
                    return counterexample(w)
                decided = decided or out is not None
        undecided += not decided
    return _sampled(trials, undecided)


def check_property(
    family: UncertaintyFamily,
    prop: str,
    space: ProbSpace,
    trials: int = 200,
    seed: int = 0,
) -> PropertyVerdict:
    """Check a structural property of the family on the given space.

    Certified closed-form rules (including constructed, replay-verified
    counterexamples) take precedence; otherwise seeded sampled falsification.
    """
    if prop not in FAMILY_PROPERTIES:
        raise ValueError(f"unknown family property {prop!r}")
    _require_count(trials)
    verdict = family._rule(prop, space)
    if verdict is not None:
        return verdict
    return _sampled_check(family, prop, space, trials, seed)


def replay_witness(family: UncertaintyFamily, prop: str, witness: dict) -> bool:
    """Re-verify that a counterexample witness violates the property. Deterministic."""
    return bool(_violation(family, prop, witness))


# ---------------------------------------------------------------------------
# solidification


class _Solidified(UncertaintyFamily):
    """Upward closure of the family params["base"]."""

    def _member(self, X, Z):
        return self.params["base"]._plus_cone(X, Z)

    def _discretize(self, X, resolution, budget, seed):
        pts = self.params["base"].discretize(X, resolution, budget, seed)
        rng = np.random.default_rng(seed + 1)
        lifted = [Z + Position(X.space, np.abs(rng.normal(size=X.space.n))) for Z in pts[: budget // 4]]
        return [Z for Z in pts + lifted if self.membership(X, Z)]

    def _rule(self, prop, space):
        if prop == "solid":
            return certified("an upward closure is solid by construction")
        return None


def solidify(family: UncertaintyFamily) -> UncertaintyFamily:
    """Upward closure: membership'(X, Z) iff Z - K is a member for some K >= 0,
    decided by the kind's ``_plus_cone``; a kind without one (a family built
    by hand) is a ValueError. A level upper set or a solidified family is
    solid already and is returned as it is."""
    if isinstance(family, (_LevelUpperSet, _Solidified)):
        return family
    if type(family)._plus_cone is UncertaintyFamily._plus_cone:
        raise ValueError(f"solidify needs a family kind that decides U_X + L^p_+; {family.name} has none")
    return _Solidified(name=f"solidified({family.name})", params={"base": family, "eps": family.eps})
