"""End-to-end gate suite.

One test per release criterion; `pytest -v` prints one pass/fail line for
each. Trial counts and tolerances are stated inline next to each check.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

import robustrisk as rr
from robustrisk import (
    Position,
    ProbSpace,
    ScenarioMeasure,
    check_property,
    expectation,
    relative_entropy,
    replay_witness,
    robust_value,
    simplex_grid,
    verify_preservation,
)

from conftest import identity_gap

SPACES = {
    2: ProbSpace([0.5, 0.5]),
    3: ProbSpace([1 / 3, 1 / 3, 1 / 3]),
    4: ProbSpace([0.25] * 4),
    8: ProbSpace([0.125] * 8),
}

MEASURES = {
    "neg_expectation": rr.neg_expectation(),
    "entropic": rr.entropic(1.0),
    "expectation_floor": rr.expectation_floor(0.5),
    "certainty_equivalent": rr.certainty_equivalent(rr.exponential_loss()),
}

FAMILIES = {
    "sup_norm_ball": rr.sup_norm_ball(0.3),
    "p_norm_ball_1": rr.p_norm_ball(1.0, 0.3),
    "wasserstein_ball_1": rr.wasserstein_ball(1.0, 0.3),
    "level_upper_set": rr.level_upper_set(rr.entropic(1.0), 0.3),
}


def _rand(space, rng, scale=2.0):
    return Position(space, rng.normal(size=space.n) * scale)


def test_criterion_1_floor_measure_closed_form():
    """Floor measure over sup balls: value is (E[-X]+eps) v K; acceptance at
    level m follows the two-case threshold. 100 positions, < 5 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    combos = [(n, K, eps) for n in (2, 4, 8) for K in (0.5, 1.0, 2.0) for eps in (0.0, 0.1, 1.0)]
    count, worst = 0, 0.0
    while count < 100:
        n, K, eps = combos[count % len(combos)]
        space = SPACES[n]
        X = _rand(space, rng)
        rho = rr.expectation_floor(K)
        fam = rr.sup_norm_ball(eps)
        rv = robust_value(rho, fam, X)
        ref = max(-expectation(X) + eps, K)
        worst = max(worst, abs(rv.value - ref))
        assert abs(rv.value - ref) <= 1e-12, (n, K, eps, X.values)
        assert rv.exact and fam.membership(X, rv.witness)
        for m in np.linspace(ref - 1.0, ref + 1.0, 20):
            acceptable = rv.value <= m + 1e-12
            two_case = (m >= K - 1e-12) and (-expectation(X) + eps <= m + 1e-12)
            assert acceptable == two_case, (m, K, eps)
        count += 1
    elapsed = time.monotonic() - t0
    print(f"closed-form worst error {worst:.2e}, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_2_sup_ball_counterexamples():
    """Sup balls: quasi-convexity and c-quasi-convexity fail with replayable
    witnesses; convexity is certified. The classic constant-shift witness
    violates the inclusion deterministically."""
    eps = 0.5
    fam = rr.sup_norm_ball(eps)
    space = SPACES[4]
    for prop in ("quasi_convex", "c_quasi_convex"):
        v = check_property(fam, prop, space, trials=50, seed=2)
        assert v.is_counterexample, prop
        assert replay_witness(fam, prop, v.witness), prop
    assert check_property(fam, "convex", space).tag == "certified_holds"
    X = Position(space, np.zeros(4))
    Y = Position(space, np.full(4, 10.0 * eps))
    Z = Position(space, np.full(4, 5.0 * eps + eps / 2.0))  # mid + eps/2 offset
    mid = 0.5 * X + 0.5 * Y
    assert fam.membership(mid, Z)
    assert not fam.membership(X, Z)
    assert not fam.membership(Y, Z)


def test_criterion_3_preservation_suite():
    """Preservation matrix: every applicable conclusion item passes 1000
    sampled triples distributed over the applicable measure x family cells.
    Runtime < 60 s."""
    t0 = time.monotonic()
    space = SPACES[2]
    items = [
        ("a", "monotone"),
        ("b", "convex"),
        ("c", "quasi_convex"),
        ("e", "continuous_from_above"),
        ("f", "law_invariant"),
    ]
    cells = [(mn, fn) for mn in MEASURES for fn in FAMILIES]
    report = []
    for label, prop in items:
        applicable = []
        for mn, fn in cells:
            probe = verify_preservation(MEASURES[mn], FAMILIES[fn], prop,
                                        trials=1, seed=30, space=space)
            if probe.tag != "unknown":
                applicable.append((mn, fn))
        assert applicable, f"item {label}: no applicable cell"
        per_cell = 1000 // len(applicable) + 1
        for mn, fn in applicable:
            v = verify_preservation(MEASURES[mn], FAMILIES[fn], prop,
                                    trials=per_cell, seed=31, space=space)
            assert not v.is_counterexample, (label, mn, fn, v.witness)
            assert v.tag != "unknown", (label, mn, fn, v.note)
        report.append(f"{label}:{len(applicable)}x{per_cell}")
    elapsed = time.monotonic() - t0
    print(f"items {' '.join(report)}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_4_entropic_duality_closed_forms():
    """Exponential-loss surface equals t - H(Q|P) within 1e-8 on 200 (t, Q);
    the entropic minimal penalty matches the refined box-lattice supremum
    (B=20, h=0.1) within 1e-6."""
    rng = np.random.default_rng(4)
    loss = rr.exponential_loss()
    for k in range(200):
        space = SPACES[2 + k % 3]
        d = rng.uniform(0.05, 2.0, size=space.n)
        d = d / float(np.dot(space.probs, d))
        Q = ScenarioMeasure(space, d)
        t = float(rng.uniform(-5, 5))
        assert abs(rr.loss_penalty(loss, t, Q) - (t - relative_entropy(Q))) <= 1e-8

    rho = rr.entropic(1.0)
    space = SPACES[2]
    axis = np.arange(-20.0, 20.0 + 0.05, 0.1)
    XX, YY = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([XX.ravel(), YY.ravel()], axis=-1)
    for _ in range(25):
        d = rng.uniform(0.05, 2.0, size=2)
        d = d / float(np.dot(space.probs, d))
        Q = ScenarioMeasure(space, d)
        w = space.probs * d

        def gain(v):
            X = Position(space, v)
            return float(-np.dot(w, v)) - rho(X)

        gains = -(pts @ w) - np.log(np.exp(-pts) @ space.probs)
        x0 = pts[int(np.argmax(gains))]
        res = minimize(lambda v: -gain(v), x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12})
        refined = -res.fun
        assert abs(rr.minimal_penalty(rho, Q) - refined) <= 1e-6
        assert abs(refined - relative_entropy(Q)) <= 1e-6


def test_criterion_5_dual_representation_gaps():
    """All four dual verifiers reach |gap| <= 1e-5 (closed-form surfaces) or
    <= 1e-3 (lattice-built surface) at n=2, simplex step 0.01; raw lattice
    gaps shrink monotonically under step halving. Runtime < 120 s."""
    t0 = time.monotonic()
    space = SPACES[2]
    grid = simplex_grid(space, step=0.01)
    X = Position(space, [0.8, -0.6])

    rho = rr.entropic(1.0)
    surface = rr.penalty_type(rho, "cash_additive")
    out = rr.verify_primal_dual(rho, X, grid, surface)
    assert abs(out["gap"]) <= 1e-5

    floor = rr.expectation_floor(0.5)
    brute = rr.penalty_type(floor, "brute_force", space=space, anchors=(X,))
    out = rr.verify_primal_dual(floor, X, grid, brute)
    assert abs(out["gap"]) <= 1e-3

    fam = rr.p_norm_ball(1.0, 0.2)
    out = rr.verify_robust_dual(rho, fam, X, grid)
    assert abs(out["gap"]) <= 1e-5

    ce = rr.certainty_equivalent(rr.exponential_loss())
    out = rr.verify_robust_dual(ce, rr.p_norm_ball(2.0, 0.2), X, grid,
                                loss=rr.exponential_loss())
    assert abs(out["gap"]) <= 1e-5

    for f in (rr.sup_norm_ball(0.2), rr.p_norm_ball(2.0, 0.2)):
        out = rr.verify_convex_cash_additive_dual(rho, f, X, grid)
        assert abs(out["gap"]) <= 1e-5, f.name

    out = rr.verify_second_approach_dual(rho, rr.p_norm_ball(2.0, 0.2), X, grid)
    assert abs(out["gap"]) <= 1e-5

    gaps = []
    for step in (0.01, 0.005, 0.0025):
        g = simplex_grid(space, step=step)
        raw = rr.verify_primal_dual(rho, X, g, surface, polish=False)
        assert raw["gap"] >= -1e-12
        gaps.append(raw["gap"])
    assert gaps[0] >= gaps[1] >= gaps[2]
    elapsed = time.monotonic() - t0
    print(f"shrinking raw gaps {gaps}, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_6_wasserstein_bound():
    """Scenario-norm bound on the robust value over distributional balls:
    lhs <= rhs + 1e-9 on 200 random instances."""
    rng = np.random.default_rng(6)
    grids = {2: simplex_grid(SPACES[2], step=0.01), 3: simplex_grid(SPACES[3], step=0.05)}
    for k in range(200):
        n = 2 if k % 2 == 0 else 3
        space = SPACES[n]
        X = _rand(space, rng, scale=1.0)
        eps = float(rng.uniform(0.0, 0.5))
        rho = rr.entropic(1.0) if k % 4 < 2 else rr.expected_shortfall(0.5)
        out = rr.wasserstein_bound_check(rho, eps, 1.0, X, grids[n], seed=k)
        assert out["lhs"] <= out["rhs"] + 1e-9, (rho.name, n, eps, X.values)
        assert out["holds"]


def test_criterion_7_non_expansivity():
    """Penalty surfaces of measures where cash helps at most one-to-one move
    by at most |t - t'| (tolerance 1e-6) on 500 sampled pairs each."""
    space = SPACES[2]
    grid = simplex_grid(space, step=0.05)
    surfaces = [
        rr.penalty_type(rr.entropic(1.0), "cash_additive"),
        rr.penalty_type(rr.expected_shortfall(0.5), "cash_additive"),
        rr.penalty_type(rr.q_entropic(0.5, 2.0), "brute_force", space=space),
    ]
    for surface in surfaces:
        v = rr.non_expansivity_check(surface, grid, samples=500, seed=7)
        assert v.holds, (surface.kind, v.note)


def test_criterion_8_car_suite():
    """Allocation rule: identity, no-undercut and sandwich on 500 random
    instances; sub-allocation inequality on 100 constructed instances meeting
    its hypotheses, Unknown on sup-ball instances."""
    space = SPACES[2]
    grid = simplex_grid(space, step=0.02)
    rng = np.random.default_rng(8)

    rule = rr.gradient_car(rr.entropic(1.0), grid)
    worst = 0.0
    for _ in range(500):
        Y = _rand(space, rng)
        worst = max(worst, identity_gap(rule, Y))
    assert worst <= 1e-9
    print(f"worst identity gap {worst:.2e}")

    fam = rr.sup_norm_ball(0.3)
    v = rr.check_no_undercut(rule, fam, samples=500, seed=81, space=space)
    assert not v.is_counterexample, v.witness
    v = rr.check_sandwich(rule, fam, samples=500, seed=82, space=space)
    assert not v.is_counterexample, v.witness

    lin = rr.gradient_car(rr.neg_expectation(), grid)
    eps = 0.5
    lev = rr.level_upper_set(rr.entropic(1.0), eps)
    for i in range(100):
        k = 2 + i % 2
        raw = np.abs(rng.normal(size=2))
        raw = raw / max(raw.max(), 1e-9) * (0.9 * k * eps)
        Y = Position(space, raw)
        parts = [(1.0 / k) * Y] * k
        v = rr.check_subadditive_allocation(lin, lev, Y, parts, seed=83 + i)
        assert v.tag == "sampled_no_counterexample", (i, v.note)
    Y = Position(space, [1.0, 0.5])
    v = rr.check_subadditive_allocation(lin, rr.sup_norm_ball(0.4), Y,
                                        [0.5 * Y, 0.5 * Y], seed=9)
    assert v.tag == "unknown" and "hypothesis" in v.note


def test_criterion_9_largest_family_properties():
    """Induced largest families: solidity, monotonicity and quasi-convexity
    verdicts carry no counterexample across the full matrix (~1000 sampled
    memberships)."""
    space = SPACES[3]
    for mn, rho in MEASURES.items():
        for fn, fam in FAMILIES.items():
            out = rr.largest_family_properties(rho, fam, trials=21, seed=90, space=space)
            for prop in ("solid", "monotone", "quasi_convex"):
                assert not out[prop].is_counterexample, (mn, fn, prop, out[prop].witness)
