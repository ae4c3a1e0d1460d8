"""Dual representations: penalties, surfaces, gap checks."""

import dataclasses
import math
import time
from itertools import permutations

import numpy as np
import pytest

import robustrisk as rr
from robustrisk import duality
from robustrisk import (
    LossFunction,
    Position,
    ProbSpace,
    ScenarioMeasure,
    dual_argmax,
    expectation_under,
    loss_penalty,
    minimal_penalty,
    non_expansivity_check,
    penalty_type,
    rearranged_expectation,
    relative_entropy,
    simplex_grid,
    support_function,
    verify_convex_cash_additive_dual,
    verify_primal_dual,
    verify_robust_dual,
    verify_second_approach_dual,
    wasserstein_bound_check,
)

from conftest import random_pos


@pytest.fixture
def pair():
    return ProbSpace([0.5, 0.5])


def exp_loss_clone() -> LossFunction:
    """Exponential loss under a different name, to exercise the numeric path
    instead of the closed-form shortcut keyed on the name."""
    base = rr.exponential_loss()
    return LossFunction("generic", base.ell, base.ell_inv, base.ell_conj)


def test_simplex_grid_validation(pair):
    with pytest.raises(ValueError):
        simplex_grid(pair, step=0.0)
    with pytest.raises(ValueError):
        simplex_grid(pair, step=1.5)
    g = simplex_grid(pair, step=0.1)
    assert len(g) >= 11
    for Q in g:
        assert abs(float(np.dot(pair.probs, Q.density)) - 1.0) < 1e-9


def test_simplex_grid_nesting(pair):
    coarse = {tuple(np.round(Q.density, 9)) for Q in simplex_grid(pair, step=0.1)}
    fine = {tuple(np.round(Q.density, 9)) for Q in simplex_grid(pair, step=0.05)}
    assert coarse <= fine


def test_simplex_grid_refuses_an_oversized_lattice(pair):
    """A step whose lattice is too large is refused before any of it is
    built: step 1e-6 on two atoms and 0.001 on three would give 1,000,001
    and 501,501 measures."""
    for space, step in ((pair, 1e-6), (ProbSpace([0.5, 0.3, 0.2]), 0.001)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 200000"):
            simplex_grid(space, step=step)
        assert time.perf_counter() - start < 1.0
    assert len(simplex_grid(ProbSpace([0.5, 0.3, 0.2]), step=0.05)) == 231


def test_simplex_grid_samples_larger_spaces():
    """On more than three atoms the grid is P, the vertices and 300 seeded
    Dirichlet draws: reproducible for a seed, different for another."""
    space = ProbSpace([0.1, 0.2, 0.3, 0.4])
    grid = simplex_grid(space, step=0.1, seed=3)
    assert len(grid) == 305
    for Q in grid:
        assert np.all(Q.density >= 0) and abs(float(np.dot(space.probs, Q.density)) - 1.0) <= 1e-12
    same, other = simplex_grid(space, step=0.1, seed=3), simplex_grid(space, step=0.1, seed=4)
    densities = [tuple(Q.density) for Q in grid]
    assert [tuple(Q.density) for Q in same] == densities
    assert [tuple(Q.density) for Q in other] != densities


def test_rearranged_expectation_uniform(uniform4, rng):
    """On a uniform space the rearranged expectation is the permutation max."""
    for _ in range(10):
        Y = random_pos(uniform4, rng)
        d = np.abs(rng.normal(size=4)) + 0.1
        d = d / float(np.dot(uniform4.probs, d))
        Q = ScenarioMeasure(uniform4, d)
        brute = max(
            expectation_under(Q, Position(uniform4, Y.values[list(p)]))
            for p in permutations(range(4))
        )
        assert rearranged_expectation(Q, Y) == pytest.approx(brute, abs=1e-10)


def test_support_function_dominates_members(uniform4, rng):
    for fam in (rr.sup_norm_ball(0.3), rr.p_norm_ball(2.0, 0.3), rr.wasserstein_ball(1.0, 0.3)):
        for _ in range(5):
            X = random_pos(uniform4, rng)
            d = np.abs(rng.normal(size=4)) + 0.1
            d = d / float(np.dot(uniform4.probs, d))
            Q = ScenarioMeasure(uniform4, d)
            phi = support_function(fam, Q, X)
            for Z in fam.discretize(X, 0.15, 24, seed=7):
                assert expectation_under(Q, -Z) <= phi + 1e-9, fam.name


def test_minimal_penalty_closed_forms(pair):
    Q = ScenarioMeasure(pair, [1.4, 0.6])
    P = ScenarioMeasure.reference(pair)
    assert minimal_penalty(rr.entropic(2.0), Q) == pytest.approx(relative_entropy(Q) / 2.0)
    assert minimal_penalty(rr.worst_case(), Q) == 0.0
    assert minimal_penalty(rr.neg_expectation(), P) == 0.0
    assert minimal_penalty(rr.neg_expectation(), Q) == math.inf
    assert minimal_penalty(rr.expected_shortfall(0.5), Q) == 0.0
    heavy = ScenarioMeasure(pair, [1.9, 0.1])
    assert minimal_penalty(rr.expected_shortfall(0.6), heavy) == math.inf


def test_minimal_penalty_lattice_path(pair):
    """No closed form for the floor measure: box-lattice value with growth
    detection."""
    P = ScenarioMeasure.reference(pair)
    assert minimal_penalty(rr.expectation_floor(1.0), P) == pytest.approx(0.0, abs=1e-9)
    Q = ScenarioMeasure(pair, [1.5, 0.5])
    assert minimal_penalty(rr.expectation_floor(1.0), Q) == math.inf


def test_loss_penalty_numeric_matches_closed_form(pair):
    clone = exp_loss_clone()
    for dens in ([1.0, 1.0], [1.3, 0.7], [0.5, 1.5]):
        Q = ScenarioMeasure(pair, dens)
        for t in (-1.0, 0.0, 0.7, 2.0):
            assert loss_penalty(clone, t, Q) == pytest.approx(
                t - relative_entropy(Q), abs=1e-6
            )


def test_primal_dual_gap_entropic(pair):
    rho = rr.entropic(1.0)
    grid = simplex_grid(pair, step=0.01)
    surface = penalty_type(rho, "cash_additive")
    X = Position(pair, [0.8, -0.6])
    out = verify_primal_dual(rho, X, grid, surface)
    assert abs(out["gap"]) <= 1e-9
    assert out["primal"] == pytest.approx(rho(X))


def test_primal_dual_gap_shrinks_with_step(pair):
    """Raw lattice gaps (no local refinement) shrink as the nested grid halves."""
    rho = rr.entropic(1.0)
    surface = penalty_type(rho, "cash_additive")
    X = Position(pair, [0.8, -0.6])
    gaps = []
    for step in (0.01, 0.005, 0.0025):
        grid = simplex_grid(pair, step=step)
        out = verify_primal_dual(rho, X, grid, surface, polish=False)
        assert out["gap"] >= -1e-12  # dual never exceeds primal
        gaps.append(out["gap"])
    assert gaps[0] >= gaps[1] >= gaps[2] >= -1e-12


def test_primal_dual_flag_gate(pair):
    grid = simplex_grid(pair, step=0.1)
    surface = penalty_type(rr.entropic(1.0), "cash_additive")
    bare = rr.RiskFunctional("bare", lambda X: 0.0, rr.AxiomFlags())
    with pytest.raises(ValueError):
        verify_primal_dual(bare, Position(pair, [0.0, 0.0]), grid, surface)


def test_robust_dual_gap(pair):
    rho = rr.entropic(1.0)
    fam = rr.p_norm_ball(1.0, 0.2)
    grid = simplex_grid(pair, step=0.01)
    X = Position(pair, [0.8, -0.6])
    out = verify_robust_dual(rho, fam, X, grid)
    assert abs(out["gap"]) <= 1e-5


def test_robust_dual_discretizes_the_support_once():
    """A family with no closed-form support is discretized once for the whole
    grid objective, not again on each of its calls, and the dual value is the
    one of an objective that discretizes on every call."""
    space = ProbSpace([0.5, 0.3, 0.2])
    rho, fam, X = rr.entropic(1.0), rr.solidify(rr.p_norm_ball(1.0, 0.2)), Position(space, [0.4, -0.2, 0.1])
    grid = simplex_grid(space, step=0.05)
    calls = []
    counted = dataclasses.replace(fam, discretize=lambda *a: calls.append(a[1:]) or fam.discretize(*a))
    rr.robust_value(rho, counted, X)
    search = len(calls)  # the robust value's own search discretizes U_X too
    calls.clear()
    out = verify_robust_dual(rho, counted, X, grid)
    assert search == 1 and calls == [(0.1, 64, 0)] * 2  # the robust value's search, then the objective's
    penalty = penalty_type(rho, "cash_additive")
    # an objective that discretizes the members again on each call
    dual = duality._grid_sup(grid, lambda W: penalty(duality._support_of(fam, X, 0)(W), W, space))
    assert out["dual"] == dual


def test_robust_dual_certainty_equivalent_form(pair):
    rho = rr.certainty_equivalent(rr.exponential_loss())
    fam = rr.p_norm_ball(2.0, 0.2)
    grid = simplex_grid(pair, step=0.01)
    X = Position(pair, [0.8, -0.6])
    out = verify_robust_dual(rho, fam, X, grid, loss=rr.exponential_loss())
    assert abs(out["gap"]) <= 1e-5


@pytest.mark.parametrize("x", [(0.8, -0.6), (1.5, 0.2), (-1.0, -2.0)])
def test_robust_dual_default_brute_force_surface(pair, x):
    """A cash-subadditive base with no loss gets the brute-force surface
    anchored at X and X - eps; its dual is a lower bound within the brute-force
    tolerance of the exact robust value."""
    rho, fam = rr.q_entropic(0.5, 2.0), rr.sup_norm_ball(0.2)
    out = verify_robust_dual(rho, fam, Position(pair, list(x)), simplex_grid(pair, step=0.02))
    assert out["guarantee"] == "exact"
    assert out["dual"] <= out["robust"] + 1e-9
    assert abs(out["gap"]) <= 1e-3


def test_robust_dual_flag_gate(pair):
    grid = simplex_grid(pair, step=0.1)
    with pytest.raises(ValueError):
        verify_robust_dual(rr.expectation_floor(0.5), rr.sup_norm_ball(0.2),
                           Position(pair, [0.0, 0.0]), grid)


def test_convex_cash_additive_dual(pair):
    rho = rr.entropic(1.0)
    grid = simplex_grid(pair, step=0.01)
    X = Position(pair, [0.8, -0.6])
    for fam in (rr.sup_norm_ball(0.2), rr.p_norm_ball(2.0, 0.2)):
        out = verify_convex_cash_additive_dual(rho, fam, X, grid)
        assert abs(out["gap"]) <= 1e-5, fam.name


def test_convex_cash_additive_dual_wasserstein(pair):
    """Over a W1 ball the support functional's penalty is finite only at the
    rearrangements of Q, and the dual meets the exact robust value."""
    out = verify_convex_cash_additive_dual(rr.neg_expectation(), rr.wasserstein_ball(1.0, 0.2),
                                           Position(pair, [0.8, -0.6]), simplex_grid(pair, step=0.05))
    assert out["guarantee"] == "exact" and out["robust"] == pytest.approx(0.1, abs=1e-12)
    assert abs(out["gap"]) <= 1e-8


def test_second_approach_dual(pair):
    rho = rr.entropic(1.0)
    grid = simplex_grid(pair, step=0.01)
    X = Position(pair, [0.8, -0.6])
    out = verify_second_approach_dual(rho, rr.p_norm_ball(2.0, 0.2), X, grid)
    assert abs(out["gap"]) <= 1e-5


def test_second_approach_dual_over_a_level_set():
    """Over a level upper set phi_Q(Y) = rho1(Y) + eps + c_rho1(Q), so the
    dual is the grid supremum of R_rho1 shifted by eps; with rho = rho1 the
    robust value is rho(X) + eps. A base that is not cash-additive has no such
    form."""
    space = ProbSpace([0.5, 0.3, 0.2])
    rho, X, grid = rr.entropic(1.0), Position(space, [0.4, -0.2, 0.1]), simplex_grid(space, step=0.05)
    out = verify_second_approach_dual(rho, rr.level_upper_set(rho, 0.3), X, grid)
    assert out["robust"] == rho(X) + 0.3 and out["guarantee"] == "exact"
    assert abs(out["gap"]) <= 1e-5
    with pytest.raises(ValueError, match="needs a cash-additive base"):
        verify_second_approach_dual(rho, rr.level_upper_set(rr.q_entropic(0.5, 2.0), 0.3), X, grid)


def test_second_approach_dual_refuses_before_the_robust_value(monkeypatch):
    """A family with neither a cash-additive level base nor a support-penalty
    closed form is refused before the robust value is searched for."""

    def searched(*args, **kwargs):
        raise RuntimeError("robust_value ran before the family was refused")

    monkeypatch.setattr(duality, "robust_value", searched)
    space = ProbSpace([0.5, 0.3, 0.2])
    rho, X, grid = rr.entropic(1.0), Position(space, [0.4, -0.2, 0.1]), simplex_grid(space, step=0.05)
    with pytest.raises(ValueError, match="no second-approach closed form"):
        verify_second_approach_dual(rho, rr.solidify(rr.p_norm_ball(2.0, 0.3)), X, grid)
    with pytest.raises(ValueError, match="needs a cash-additive base"):
        verify_second_approach_dual(rho, rr.level_upper_set(rr.q_entropic(0.5, 2.0), 0.3), X, grid)


@pytest.mark.parametrize("kw", [dict(step=0), dict(step=-0.1), dict(step=math.nan), dict(bound=0), dict(bound=math.inf)])
def test_lattice_steps_must_be_positive_and_finite(pair, kw):
    """The box bound and the lattice steps are fixed positive finite
    constants, not options: passing one, whatever its value, fails up front
    with a message naming it, also for a brute-force surface that is not
    evaluated yet."""
    name = next(iter(kw))
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        minimal_penalty(rr.expectation_floor(1.0), ScenarioMeasure.reference(pair), **kw)
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        penalty_type(rr.q_entropic(0.5, 2.0), "brute_force", space=pair, **kw)


def test_non_expansivity(pair):
    grid = simplex_grid(pair, step=0.05)
    for rho in (rr.entropic(1.0), rr.neg_expectation()):
        surface = penalty_type(rho, "cash_additive")
        v = non_expansivity_check(surface, grid, samples=200, seed=11)
        assert v.holds, rho.name


def test_non_expansivity_rejects_empty_sample_counts(pair):
    surface = penalty_type(rr.entropic(1.0), "cash_additive")
    with pytest.raises(ValueError, match="samples must be >= 1"):
        non_expansivity_check(surface, simplex_grid(pair, step=0.1), samples=0)


def test_dual_argmax_tie_break(pair):
    """Constant positions leave every scenario optimal; ties resolve to the
    smallest density norm, i.e. the reference measure."""
    grid = simplex_grid(pair, step=0.05)
    Q = dual_argmax(rr.entropic(1.0), Position(pair, [1.0, 1.0]), grid, q=2.0)
    assert np.allclose(Q.density, 1.0, atol=1e-9)
    # the worst case penalizes no scenario, so every one ties at X = (1, 1)
    Q = dual_argmax(rr.worst_case(), Position(pair, [1.0, 1.0]), grid, q=2.0)
    assert Q.density.tolist() == [1.0, 1.0]


def test_dual_argmax_recovers_entropic_tilt(pair):
    rho = rr.entropic(1.0)
    X = Position(pair, [1.0, -1.0])
    grid = simplex_grid(pair, step=0.005)
    Q = dual_argmax(rho, X, grid, q=2.0)
    # optimal density is proportional to exp(-X)
    w = np.exp(-X.values)
    w = w / float(np.dot(pair.probs, w))
    assert np.allclose(Q.density, w, atol=0.02)


def test_wasserstein_bound(pair, rng):
    grid = simplex_grid(pair, step=0.01)
    for rho in (rr.entropic(1.0), rr.expected_shortfall(0.5)):
        for _ in range(10):
            X = random_pos(pair, rng, scale=1.0)
            eps = float(rng.uniform(0.0, 0.5))
            out = wasserstein_bound_check(rho, eps, 1.0, X, grid)
            assert out["holds"], (rho.name, X.values, eps)
            assert out["lhs"] <= out["rhs"] + 1e-9


def test_box_lattice_guard_fails_fast():
    """The n = 3 lattice with the default bound and step has 64,481,201
    points; it is refused before anything is allocated."""
    space = ProbSpace([0.5, 0.3, 0.2])
    with pytest.raises(ValueError, match="box lattice"):
        minimal_penalty(rr.expectation_floor(1.0), ScenarioMeasure.reference(space))


# ---------------------------------------------------------------------------
# row forms: grids as (m, n) arrays of Q-masses

ROW_SPACES = {
    "pair": (ProbSpace([0.5, 0.5]), 0.05),
    "skewed3": (ProbSpace([0.5, 0.3, 0.2]), 0.1),
    "dirichlet5": (ProbSpace(np.random.default_rng(5).dirichlet(np.ones(5))), 0.1),
}


@pytest.fixture(params=sorted(ROW_SPACES))
def row_grid(request):
    space, step = ROW_SPACES[request.param]
    return simplex_grid(space, step=step, seed=1)


def test_grid_weights_are_the_points_as_rows(row_grid):
    """Row k of weights holds the Q-masses of the k-th measure the grid
    yields: density times P."""
    W = row_grid.weights
    assert W.shape == (len(row_grid), row_grid.space.n) and not W.flags.writeable
    measures = list(row_grid)
    assert len(measures) == len(W)
    for w, Q in zip(W, measures):
        np.testing.assert_array_equal(w / row_grid.space.probs, Q.density)


SHIPPED = [
    rr.entropic(1.0),
    rr.entropic(2.5),
    rr.expected_shortfall(0.5),
    rr.expected_shortfall(0.25),
    rr.worst_case(),
    rr.neg_expectation(),
    rr.certainty_equivalent(rr.exponential_loss()),
]


@pytest.mark.parametrize("rho", SHIPPED, ids=lambda r: r.name)
def test_penalty_rows_match_minimal_penalty(rho, row_grid):
    rows = rho._penalty_rows(row_grid.weights, row_grid.space)
    scalar = [minimal_penalty(rho, Q) for Q in row_grid]
    np.testing.assert_allclose(rows, scalar, rtol=0.0, atol=1e-14)


def test_lattice_penalty_rows_match_minimal_penalty(pair):
    """Measures without a closed form take the box lattice, scored for all
    rows at once."""
    grid = simplex_grid(pair, step=0.1)
    for rho in (rr.expectation_floor(1.0), rr.q_entropic(0.5, 2.0)):
        assert rho._penalty_rows(grid.weights, pair) is None
        rows = duality._minimal_penalty_rows(rho, grid.weights, pair)
        np.testing.assert_allclose(rows, [minimal_penalty(rho, Q) for Q in grid], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "family",
    [rr.p_norm_ball(1.0, 0.3), rr.p_norm_ball(2.0, 0.3), rr.sup_norm_ball(0.3), rr.wasserstein_ball(1.0, 0.2),
     rr.level_upper_set(rr.entropic(1.0), 0.3)],
    ids=lambda f: f.name,
)
def test_support_rows_match_support_function(family, row_grid, rng):
    X = random_pos(row_grid.space, rng)
    rows = family._support_rows(row_grid.weights, X)
    np.testing.assert_allclose(rows, [support_function(family, Q, X) for Q in row_grid], rtol=0.0, atol=1e-14)


def _surfaces(space):
    X = Position(space, np.linspace(-0.5, 0.7, space.n))
    yield penalty_type(rr.entropic(1.0), "cash_additive")
    yield penalty_type(rr.expected_shortfall(0.5), "cash_additive")
    yield penalty_type(rr.certainty_equivalent(rr.exponential_loss()), "loss", loss=rr.exponential_loss())
    yield penalty_type(rr.certainty_equivalent(rr.power_loss(2.0)), "loss", loss=rr.power_loss(2.0))
    if space.n <= 3:
        yield penalty_type(rr.expectation_floor(0.5), "brute_force", space=space, anchors=(X, X - 0.2))


def test_surface_rows_match_one_row_calls(row_grid, rng):
    space = row_grid.space
    for surface in _surfaces(space):
        t = rng.uniform(-3, 3, size=len(row_grid))
        rows = surface(t, row_grid.weights, space)
        one = [surface(float(tk), Q) for tk, Q in zip(t, row_grid)]
        np.testing.assert_allclose(rows, one, rtol=0.0, atol=1e-14, err_msg=surface.kind)


def test_chunk_size_changes_no_value(monkeypatch, rng):
    """Brute-force surfaces and lattice penalties score rows times lattice
    points in chunks; chunks of a few points give the same values."""
    space = ProbSpace([0.5, 0.3, 0.2])
    grid = simplex_grid(space, step=0.1)
    X = Position(space, [0.4, -0.2, 0.1])
    t = rng.uniform(-2, 2, size=len(grid))
    floor = rr.expectation_floor(0.5)
    pair_grid = simplex_grid(ProbSpace([0.5, 0.5]), step=0.1)
    qent = rr.q_entropic(0.5, 2.0)

    def values():
        surface = penalty_type(floor, "brute_force", space=space, anchors=(X,))
        return surface(t, grid.weights, space), duality._minimal_penalty_rows(qent, pair_grid.weights, pair_grid.space)

    wide = values()
    monkeypatch.setattr(duality, "_CHUNK", 7)
    narrow = values()
    for a, b in zip(wide, narrow):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14)


def test_non_expansivity_witness_is_pinned():
    """Samples are drawn first and scored in two surface calls; the report is
    the first violation in draw order, as when each sample was scored in
    turn. The lattice error of the brute-force q-entropic surface exceeds the
    tolerance at Q = P."""
    pair = ProbSpace([0.5, 0.5])
    surface = penalty_type(rr.q_entropic(0.5, 2.0), "brute_force", space=pair)
    v = non_expansivity_check(surface, simplex_grid(pair, 0.05), samples=500, seed=0)
    assert v.tag == "counterexample"
    w = v.witness
    assert (w["t"], w["tp"]) == (3.942608451139048, 3.598475275467088)
    assert w["Q"].density.tolist() == [1.0, 1.0]
    assert w["Rt"] == pytest.approx(1.943026146105768, abs=1e-12)
    assert w["Rtp"] == pytest.approx(1.5984755984906767, abs=1e-12)
    cash = penalty_type(rr.entropic(1.0), "cash_additive")
    v = non_expansivity_check(cash, simplex_grid(pair, 0.05), samples=200, seed=11)
    assert v.tag == "sampled_no_counterexample"


def _pairwise_convex_cash_dual(rho, family, X, grid):
    """The dual of verify_convex_cash_additive_dual by the loop over every
    pair (Q, Qt) of grid measures, before the polish, with c_{phi_Q}(Qt) from
    its definition: -eps ||dQ/dP||_{p*} where the densities of Q and Qt agree
    (norm balls) or share a law (Wasserstein balls) within 1e-9, else +inf."""
    pts = list(grid)
    c_rho = [minimal_penalty(rho, Q) for Q in pts]
    p = family.p
    q = 1.0 if math.isinf(p) else math.inf if p == 1.0 else p / (p - 1.0)

    def c_phi(Q, Qt):
        if family.name.startswith("wasserstein"):
            same = rr.same_distribution(Position(Q.space, Q.density), Position(Q.space, Qt.density), tol=1e-9)
        else:
            same = np.abs(Q.density - Qt.density).max() <= 1e-9
        return -family.eps * rr.density_norm(Q, q) if same else math.inf

    dual = -math.inf
    for Qt in pts:
        inner = min((c_phi(Q, Qt) + cr for Q, cr in zip(pts, c_rho) if not math.isinf(cr)), default=math.inf)
        if not math.isinf(inner):
            dual = max(dual, expectation_under(Qt, -X) - inner)
    return dual


@pytest.mark.parametrize(
    "space, step",
    [(ProbSpace([0.5, 0.5]), 0.05), (ProbSpace([0.5, 0.3, 0.2]), 0.1), (ProbSpace([1 / 3, 1 / 3, 1 / 3]), 0.1)],
    ids=["pair", "skewed3", "uniform3"],
)
def test_convex_cash_dual_matches_the_pairwise_loop(space, step, rng, monkeypatch):
    grid = simplex_grid(space, step=step)
    monkeypatch.setattr(duality, "_polish_simplex", lambda space, f, w0, radius: (-math.inf, w0))
    for rho in (rr.entropic(1.0), rr.expected_shortfall(0.5), rr.neg_expectation()):
        for family in (rr.sup_norm_ball(0.2), rr.p_norm_ball(2.0, 0.2), rr.wasserstein_ball(1.0, 0.2)):
            X = random_pos(space, rng)
            out = verify_convex_cash_additive_dual(rho, family, X, grid)
            assert out["dual"] == pytest.approx(_pairwise_convex_cash_dual(rho, family, X, grid), abs=1e-14)


@pytest.mark.parametrize("family", [rr.sup_norm_ball(0.2), rr.p_norm_ball(2.0, 0.2), rr.wasserstein_ball(1.0, 0.2)],
                         ids=lambda f: f.name)
def test_convex_cash_dual_calls_the_support_penalty_linearly(family, monkeypatch):
    """The inner infimum runs over each Qt's law class only, found by a sort,
    and all its pairs are scored in one call of the support-penalty rows:
    O(m) pair rows, not m^2 (53,361 on this grid). The verifier first probes
    the hook on the row of P for a closed form."""
    space = ProbSpace([1 / 3, 1 / 3, 1 / 3])
    grid = simplex_grid(space, step=0.05)
    rows = []
    kind = type(family)
    original = kind._support_penalty_rows
    monkeypatch.setattr(
        kind, "_support_penalty_rows", lambda self, W, Wt, sp: rows.append(len(W)) or original(self, W, Wt, sp)
    )
    verify_convex_cash_additive_dual(rr.entropic(1.0), family, Position(space, [0.4, -0.2, 0.1]), grid)
    # a law class holds at most the 3! rearrangements, and the sort may add
    # the few measures whose key falls in the window by chance
    assert len(rows) == 2 and rows[0] == 1
    assert len(grid) <= rows[1] <= 8 * len(grid)


@pytest.mark.parametrize("family", [rr.sup_norm_ball(0.2), rr.wasserstein_ball(1.0, 0.2)], ids=lambda f: f.name)
def test_convex_cash_dual_builds_no_measures(family, monkeypatch):
    """The verifier scores rows of Q-masses only: it builds no ScenarioMeasure."""
    space = ProbSpace([0.5, 0.3, 0.2])
    grid = simplex_grid(space, step=0.05)
    built, init = [], ScenarioMeasure.__init__
    monkeypatch.setattr(ScenarioMeasure, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    out = verify_convex_cash_additive_dual(rr.entropic(1.0), family, Position(space, [0.4, -0.2, 0.1]), grid)
    assert math.isfinite(out["dual"]) and not built


def _polish_one_move_at_a_time(space, g, w0, radius):
    """The pattern search of _polish_simplex scoring one move per call of g,
    which maps one row of Q-masses to its value."""
    w, best_row, best, r = w0, w0, g(w0), radius
    for _ in range(120):
        improved = False
        for i in range(space.n):
            for j in range(space.n):
                move = min(r, w[j])
                if i == j or move <= 0.0:
                    continue
                w2 = w.copy()
                w2[i] += move
                w2[j] -= move
                v = g(w2 / w2.sum())
                if v > best + 1e-15:
                    w, best_row, best, improved = w2, w2 / w2.sum(), v, True
        if not improved:
            r *= 0.5
            if r < 1e-13:
                break
    return best, best_row


@pytest.mark.parametrize("space", [ProbSpace([0.5, 0.5]), ProbSpace([0.5, 0.3, 0.2]),
                                   ProbSpace([0.1, 0.15, 0.2, 0.25, 0.3])], ids=["n2", "n3", "n5"])
def test_polish_keeps_the_moves_of_a_one_move_scan(space, rng):
    """Scoring moves and halved rounds ahead in one call keeps the moves a
    scan scoring one move at a time keeps, to the bit, including a search
    stopped by the 120-round cap."""
    probs = space.probs
    for trial in range(6):
        x = rng.normal(size=space.n)
        target = rng.dirichlet(np.ones(space.n))

        def g(w, x=x, target=target):
            if trial == 5:  # every round improves: the cap ends the search
                return float(w[0])
            d = w / probs
            return float(-np.dot(w, x) - np.dot(w, np.log(np.maximum(d, 1e-300))) - 3.0 * abs(w - target).max())

        def f(W):
            return np.array([g(w) for w in W])

        w0 = rng.dirichlet(np.ones(space.n))
        radius = 1e-4 if trial == 5 else 0.1
        best, row = duality._polish_simplex(space, f, w0, radius)
        ref_best, ref_row = _polish_one_move_at_a_time(space, g, w0, radius)
        assert best == ref_best
        np.testing.assert_array_equal(row, ref_row)
