"""Independent reference computations for the benchmark's output checks.

Everything here works on plain numpy arrays (payoff vector ``x``, atom
probabilities ``p``) and shares no code with the package, so a check never
compares the program with itself. Where the package uses one formula this
module uses another: expected shortfall by the Rockafellar-Uryasev
minimisation instead of quantile splitting, and the order-1 Wasserstein
distance as the integral of |F_X - F_Z| instead of the quantile gap.
"""

from __future__ import annotations

import math

import numpy as np


def _logsumexp(a: np.ndarray, w: np.ndarray) -> float:
    m = float(a.max())
    return m + math.log(float(np.sum(w * np.exp(a - m))))


def entropic(gamma: float):
    return lambda x, p: _logsumexp(-gamma * np.asarray(x), p) / gamma


def expected_shortfall(alpha: float):
    def es(x, p):
        # ES_a(X) = min_t { t + E[(-X - t)^+] / a }; the minimum of this convex
        # piecewise-linear function of t sits at one of the losses
        losses = -np.asarray(x, dtype=float)
        return float(min(t + np.dot(p, np.maximum(losses - t, 0.0)) / alpha for t in losses))

    return es


def neg_expectation():
    return lambda x, p: -float(np.dot(p, x))


def expectation_floor(K: float):
    return lambda x, p: max(-float(np.dot(p, x)), K)


def worst_case():
    return lambda x, p: float(np.max(-np.asarray(x)))


def sup_dist(x, z) -> float:
    return float(np.max(np.abs(np.asarray(z) - np.asarray(x))))


def lp_dist(x, z, p, order: float) -> float:
    d = np.abs(np.asarray(z, dtype=float) - np.asarray(x, dtype=float))
    return float(np.dot(p, d**order) ** (1.0 / order))


def w1_dist(x, z, p) -> float:
    """Order-1 Wasserstein distance as the integral of |F_X(t) - F_Z(t)| dt."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    pts = np.unique(np.concatenate([x, z]))
    if pts.size < 2:
        return 0.0
    left = pts[:-1]
    fx = np.array([p[x <= t].sum() for t in left])
    fz = np.array([p[z <= t].sum() for t in left])
    return float(np.dot(np.abs(fx - fz), np.diff(pts)))


def p1_vertices(x, p, eps: float) -> list:
    """X and the 2n spikes X +- eps/p_i e_i: the vertices of the weighted
    ell^1 ball of radius eps around X."""
    out = [np.asarray(x, dtype=float)]
    for i in range(len(x)):
        for s in (-1.0, 1.0):
            v = np.array(x, dtype=float)
            v[i] += s * eps / p[i]
            out.append(v)
    return out


def esscher_density(y, p, gamma: float) -> np.ndarray:
    """Closed-form dual scenario of the entropic measure at Y:
    dQ*/dP = exp(-gamma Y) / E[exp(-gamma Y)]."""
    a = -gamma * np.asarray(y, dtype=float)
    e = np.exp(a - a.max())
    return e / float(np.dot(p, e))


def relative_entropy(d, p) -> float:
    d = np.asarray(d, dtype=float)
    pos = d > 0
    return float(np.dot(p[pos] * d[pos], np.log(d[pos])))


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def same_law_pair_exists(p) -> bool:
    """True when two disjoint groups of atoms carry the same total mass, so
    (1 on group A, 0 elsewhere) and (1 on group B, 0 elsewhere) differ as
    vectors but share a law, e.g. {0.5} and {0.3, 0.2}."""
    n = len(p)
    masses = {}
    for mask in range(1, 2**n):
        m = round(float(sum(p[i] for i in range(n) if mask >> i & 1)), 12)
        masses.setdefault(m, []).append(mask)
    for group in masses.values():
        for a in group:
            if any(a & b == 0 for b in group if b != a):
                return True
    return False
