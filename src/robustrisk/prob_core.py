"""Finite probability spaces, positions, scenario measures and distributional tooling.

Everything here is exact finite-atom arithmetic: quantile functions are step
functions with rational-free breakpoint merging, Wasserstein distances are
computed on merged quantile breakpoints (no LP), relative entropy is a plain
weighted sum. One L^p(P) norm (``_lp_rows``) serves distances of norm balls
and density norms, and one row merge (``_merged_rows``) serves W_p rows, the
rearranged expectation and the law test; each scalar form is its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOL",
    "ProbSpace",
    "Position",
    "ScenarioMeasure",
    "expectation",
    "expectation_under",
    "quantile_function",
    "QuantileSteps",
    "wasserstein_distance",
    "rearranged_expectation",
    "relative_entropy",
    "density_norm",
    "same_distribution",
]

# Construction-time tolerance for probability/density normalization.
ATOL = 1e-12
# Merged quantile intervals no wider than this are slivers between two
# cumulative masses that differ only by summation order (0.7 against
# 0.7000000000000001). Sups and law comparisons skip them; integrals keep
# them, since their weight is their width.
_SLIVER = ATOL
_TINY = np.finfo(float).tiny


def _bisect(below, lo: float, hi: float, steps: int):
    """Bisection on [lo, hi]: where ``below(mid)`` holds lo moves up to mid,
    else hi moves down, for ``steps`` halvings. Returns the final (lo, hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


# The first fan of _exit_search: 65 points, ends included. Each later fan is
# the secant point g of the bracket [a, b] and g +- (b - a) 2^-k for 31
# geometric k from 1 to 52, or the 63 inner points of a uniform fan.
_UNIFORM = np.arange(65) / 64
_SECANT = 0.5 ** np.geomspace(1.0, 52.0, 31)
_SECANT = np.concatenate((-_SECANT, [0.0], _SECANT[::-1]))


def _exit_search(margin, lo: float, hi: float):
    """Where a predicate stops holding on [lo, hi], searched on its signed
    margin: ``margin`` maps a 1-D array of points to margins, and a point
    holds where its margin is <= 0 (NaN fails). lo is taken to hold.

    The first call scores a uniform fan of 65 points, ends included; the end
    margins only feed the secant, and hi counts as failing. The first failing
    point and the point before it bracket an exit. Each later call scores the
    secant point of the bracket's margins with a fan of geometric offsets
    around it (Brent 1973, ch. 4), or, after a secant fan that shrank the
    bracket less than 64-fold, a uniform fan, and keeps the first failing
    point again. Stops at adjacent floats, once the bracket is 2**-60 of
    [lo, hi] as 60 halvings leave it, or when no point of a fan falls inside
    it; so no exit takes more than about 20 calls.
    Returns (lo, hi): lo holds or is the given lo, hi fails or is the given hi."""
    floor = (hi - lo) * 0.5**60
    s = lo + (hi - lo) * _UNIFORM
    s[-1] = hi
    m = margin(s)
    ok = m <= 0.0
    ok[0], ok[-1] = True, False
    i = int(ok.argmin())
    a, b, ma, mb = float(s[i - 1]), float(s[i]), float(m[i - 1]), float(m[i])
    uniform = False
    while b - a > floor and math.nextafter(a, b) < b:
        w = b - a
        if uniform:
            s = a + w * _UNIFORM[1:-1]
        else:
            d = mb - ma
            g = a - ma * w / d if d > 0.0 else a
            if not a < g < b:  # the margins give no secant root inside
                g = a + 0.5 * w
            s = g + w * _SECANT
        s = s[(s > a) & (s < b)]
        if not s.size:
            break
        m = margin(s)
        ok = m <= 0.0
        i = int(ok.argmin())
        if ok[i]:
            a, ma = float(s[-1]), float(m[-1])
        else:
            b, mb = float(s[i]), float(m[i])
            if i:
                a, ma = float(s[i - 1]), float(m[i - 1])
        uniform = not uniform and (b - a) * 64.0 > w
    return a, b


@dataclass(frozen=True)
class ProbSpace:
    """Finite outcome space with a strictly positive reference measure P."""

    probs: np.ndarray

    def __init__(self, probs):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-D sequence")
        if np.any(p <= 0):
            raise ValueError("all atom probabilities must be strictly positive")
        if not abs(p.sum() - 1.0) <= ATOL:  # NaN fails it
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return isinstance(other, ProbSpace) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())


@dataclass(frozen=True)
class Position:
    """Payoff vector over the atoms of a ProbSpace; positive values are gains.
    It keeps a read-only copy of the values it is given."""

    space: ProbSpace
    values: np.ndarray
    _quantiles = None  # not a field: the QuantileSteps of quantile_function

    def __init__(self, space: ProbSpace, values):
        v = np.array(values, dtype=float)
        if v.shape != (space.n,):
            raise ValueError(f"values must have length {space.n}, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("position values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        if isinstance(other, Position):
            _check_same_space(self, other)
            return Position(self.space, self.values + other.values)
        return Position(self.space, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Position):
            _check_same_space(self, other)
            return Position(self.space, self.values - other.values)
        return Position(self.space, self.values - float(other))

    def __mul__(self, scalar):
        return Position(self.space, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Position(self.space, -self.values)


@dataclass(frozen=True)
class ScenarioMeasure:
    """Probability measure Q << P given by its density dQ/dP per atom."""

    space: ProbSpace
    density: np.ndarray

    def __init__(self, space: ProbSpace, density):
        d = np.array(density, dtype=float)
        if d.shape != (space.n,):
            raise ValueError(f"density must have length {space.n}, got shape {d.shape}")
        if (d < 0).any():
            raise ValueError("density must be nonnegative")
        mass = float(np.dot(space.probs, d))
        if not abs(mass - 1.0) <= 1e-9:  # NaN fails it
            raise ValueError(f"density integrates to {mass!r}, expected 1")
        d.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "density", d)

    @staticmethod
    def reference(space: ProbSpace) -> "ScenarioMeasure":
        return ScenarioMeasure(space, np.ones(space.n))


def _check_same_space(a, b):
    if a.space is b.space:
        return
    if a.space.n != b.space.n or not np.allclose(a.space.probs, b.space.probs, rtol=0.0, atol=ATOL):
        raise ValueError("operands live on different probability spaces")


def expectation(X: Position) -> float:
    """E_P[X], the reference-measure expectation."""
    return float(np.dot(X.space.probs, X.values))


def expectation_under(Q: ScenarioMeasure, X: Position) -> float:
    """E_Q[X] computed through the density dQ/dP."""
    _check_same_space(Q, X)
    return float(np.dot(X.space.probs * Q.density, X.values))


@dataclass(frozen=True)
class QuantileSteps:
    """Right-continuous inverse CDF as a step function.

    ``values[k]`` is the quantile on the interval ``(cum[k-1], cum[k]]`` of
    (0, 1], with ``cum`` strictly increasing and ``cum[-1] == 1``.
    """

    values: np.ndarray
    cum: np.ndarray


def quantile_function(X: Position) -> QuantileSteps:
    """Quantile (inverse CDF) of the law of X under P, atoms merged. It is
    computed once per Position, which owns its values, and kept on it: every
    call for X returns the same read-only steps."""
    if X._quantiles is None:
        order = X.values.argsort(kind="stable")
        v = X.values[order]
        # merge equal values so breakpoints are unique
        keep = np.empty(v.size, dtype=bool)
        keep[0] = True
        np.greater(v[1:], v[:-1], out=keep[1:])
        merged_v = v[keep]
        merged_w = np.zeros(merged_v.size)
        np.add.at(merged_w, np.add.accumulate(keep, dtype=np.intp) - 1, X.space.probs[order])
        cum = np.add.accumulate(merged_w)
        cum[-1] = 1.0
        merged_v.flags.writeable = cum.flags.writeable = False
        object.__setattr__(X, "_quantiles", QuantileSteps(values=merged_v, cum=cum))
    return X._quantiles


def wasserstein_distance(X: Position, Y: Position, p: float = 1.0) -> float:
    """Order-p Wasserstein distance between the laws of X and Y.

    Computed exactly from the quantile-function gap on merged breakpoints:
    (integral_0^1 |F_X^-1(u) - F_Y^-1(u)|^p du)^(1/p), essential sup for p=inf.
    It merges the two quantile functions on its own, as the reference that
    the row kernel ``_wasserstein_rows`` is tested against.
    """
    if not p >= 1:
        raise ValueError("Wasserstein order p must be >= 1")
    qx, qy = quantile_function(X), quantile_function(Y)
    cum = np.union1d(qx.cum, qy.cum)
    cum = cum[cum > 0]
    widths = np.diff(np.concatenate(([0.0], cum)))
    ix = np.minimum(np.searchsorted(qx.cum, cum, side="left"), qx.values.size - 1)
    iy = np.minimum(np.searchsorted(qy.cum, cum, side="left"), qy.values.size - 1)
    gap = np.abs(qx.values[ix] - qy.values[iy])
    if math.isinf(p):
        return float(gap[widths > _SLIVER].max(initial=0.0))
    return float(np.dot(widths, gap**p) ** (1.0 / p))


def _lp_rows(V: np.ndarray, probs: np.ndarray, p: float) -> np.ndarray:
    """The L^p(P) norm of V >= 0 along its last axis, atoms of masses
    ``probs``; for p = inf the max. Summed along that contiguous axis, so
    that a row's bits do not depend on how many rows come with it; a scalar
    norm that must give a row's bits is the call on a (1, n) array, since
    numpy takes the root of a 0-d result another way."""
    if math.isinf(p):
        return np.maximum.reduce(V, axis=-1)
    return np.add.reduce(V**p * probs, axis=-1) ** (1.0 / p)


def _merged_rows(qx: QuantileSteps, rows: np.ndarray, probs: np.ndarray):
    """Per row of the (m, n) array ``rows``, a position on atoms of masses
    ``probs``, the breakpoints of qx merged with the row's own: the widths
    of the merged intervals, and on each interval the index of qx's step and
    the atom whose value is the row's quantile there. Written with ufunc
    methods and plain indexing, as these run once per ascent step on one row."""
    (m, n), k = rows.shape, qx.cum.size
    order = rows.argsort(axis=1, kind="stable")
    both = np.empty((m, k + n))  # qx's breakpoints, then the row's
    both[:, :k] = qx.cum
    np.add.accumulate(probs[order], axis=1, out=both[:, k:])
    both[:, -1] = 1.0
    pos = both.argsort(axis=1, kind="stable")
    r = np.arange(m)[:, None]
    merged = both[r, pos]
    widths = merged.copy()
    widths[:, 1:] -= merged[:, :-1]
    # on each merged interval, the index of either step: the count of its
    # breakpoints that come before (qx's first among equal breakpoints)
    from_row = pos >= k
    seen = np.add.accumulate(from_row, axis=1, dtype=np.intp)
    iy = np.minimum(seen - from_row, n - 1)
    ix = np.minimum(np.arange(k + n) - seen + from_row, k - 1)
    return widths, ix, order[r, iy]


def _gap_norm_rows(widths: np.ndarray, gap: np.ndarray, p: float) -> np.ndarray:
    """The L^p norm on (0, 1] of each row of ``gap`` >= 0, a step function
    on intervals of the given widths, along the last axis: ``_lp_rows`` with
    the widths as masses, where for p = inf the max skips the slivers."""
    return _lp_rows(np.where(widths > _SLIVER, gap, 0.0) if math.isinf(p) else gap, widths, p)


def _wasserstein_rows(qx: QuantileSteps, rows: np.ndarray, probs: np.ndarray, p: float) -> np.ndarray:
    """``wasserstein_distance`` from the law with quantile function ``qx`` to
    each row of the (m, n) array ``rows``, a position on atoms of masses
    ``probs``: the L^p norm of the quantile gap on the merged breakpoints of
    each row (``_merged_rows``)."""
    widths, ix, atom = _merged_rows(qx, rows, probs)
    return _gap_norm_rows(widths, np.abs(qx.values[ix] - rows[np.arange(len(rows))[:, None], atom]), p)


def _masses(Q: ScenarioMeasure) -> np.ndarray:
    """Q as the one row of a (1, n) array of Q-masses, the form the row
    functions below take."""
    return (Q.space.probs * Q.density)[None, :]


def rearranged_expectation(Q: ScenarioMeasure, Y: Position) -> float:
    """sup over Y' with the law of Y of E_Q[Y']: the comonotone quantile integral
    of Y against the density dQ/dP."""
    return float(_rearranged_rows(_masses(Q), Y)[0])


def _rearranged_rows(W: np.ndarray, Y: Position) -> np.ndarray:
    """``rearranged_expectation`` for each row of W, the Q-masses of a
    measure Q on the space of Y: the quantiles of Y against those of the
    density dQ/dP, on the breakpoints of one merge for all rows."""
    probs = Y.space.probs
    D = W / probs
    qy = quantile_function(Y)
    widths, iy, atom = _merged_rows(qy, D, probs)
    return np.add.reduce(widths * (qy.values[iy] * D[np.arange(len(D))[:, None], atom]), axis=1)


def relative_entropy(Q: ScenarioMeasure) -> float:
    """Kullback-Leibler divergence H(Q|P) = E_P[(dQ/dP) ln(dQ/dP)], with 0 ln 0 = 0."""
    return float(_relative_entropy_rows(_masses(Q), Q.space.probs)[0])


def _relative_entropy_rows(W: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``relative_entropy`` for each row of W, the Q-masses of a measure Q.
    A null atom has W = 0 and contributes 0 times a finite log."""
    return np.add.reduce(W * np.log(np.maximum(W / probs, _TINY)), axis=1)


def density_norm(Q: ScenarioMeasure, q: float) -> float:
    """L^q(P) norm of the density dQ/dP; q = inf gives the max."""
    if not q >= 1:
        raise ValueError("norm order q must be >= 1")
    return float(_lp_rows(Q.density[None, :], Q.space.probs, q)[0])


def same_distribution(X: Position, Y: Position, tol: float = ATOL) -> bool:
    """True iff X and Y induce the same law under P (atoms merged, tolerance tol)."""
    return bool(_same_law_rows(quantile_function(X), Y.values[None, :], Y.space.probs, tol)[0])


def _same_law_rows(qx: QuantileSteps, rows: np.ndarray, probs: np.ndarray, tol: float) -> np.ndarray:
    """``same_distribution`` of the law with quantile function ``qx`` and each
    row of the (m, n) array ``rows``, a position on atoms of masses ``probs``:
    the quantiles agree within tol on every merged interval but slivers."""
    widths, ix, atom = _merged_rows(qx, rows, probs)
    gap = np.abs(qx.values[ix] - rows[np.arange(len(rows))[:, None], atom])
    return np.all((gap <= tol) | (widths <= _SLIVER), axis=1)
