"""Capital allocation rules and their robust counterparts."""

import dataclasses

import numpy as np
import pytest

import robustrisk as rr
from robustrisk import (
    Position,
    ProbSpace,
    check_no_undercut,
    check_sandwich,
    check_subadditive_allocation,
    expectation,
    gradient_car,
    robust_car,
)
from robustrisk import allocation

from conftest import identity_gap, random_pos


@pytest.fixture
def pair():
    return ProbSpace([0.5, 0.5])


@pytest.fixture
def grid(pair):
    return rr.simplex_grid(pair, step=0.02)


def test_gradient_car_requires_flags(grid):
    with pytest.raises(ValueError):
        gradient_car(rr.expectation_floor(0.5), grid)
    with pytest.raises(ValueError):
        gradient_car(rr.q_entropic(0.5, 2.0), grid)


def test_car_identity(pair, grid, rng):
    """Lambda(Y, Y) reproduces rho(Y) to solver precision."""
    rule = gradient_car(rr.entropic(1.0), grid)
    for _ in range(20):
        Y = random_pos(pair, rng)
        assert identity_gap(rule, Y) <= 1e-9


def test_neg_expectation_rule_is_linear(pair, grid, rng):
    """For the linear measure the only dual scenario is P, so the allocation
    is the plain expected loss of the component."""
    rule = gradient_car(rr.neg_expectation(), grid)
    for _ in range(10):
        X, Y = random_pos(pair, rng), random_pos(pair, rng)
        assert rule(X, Y) == pytest.approx(-expectation(X), abs=1e-12)


def test_no_undercut_base_inequality(pair, grid, rng):
    """Fenchel: the scenario price of X never exceeds its stand-alone risk."""
    rule = gradient_car(rr.entropic(1.0), grid)
    rho = rr.entropic(1.0)
    for _ in range(30):
        X, Y = random_pos(pair, rng), random_pos(pair, rng)
        assert rule(X, Y) <= rho(X) + 1e-9


def test_robust_car_sup_ball_closed_form(pair, grid, rng):
    """Linear objective over a sup ball: the robust charge is the nominal
    charge plus eps."""
    rule = gradient_car(rr.entropic(1.0), grid)
    fam = rr.sup_norm_ball(0.3)
    for _ in range(10):
        X, Y = random_pos(pair, rng), random_pos(pair, rng)
        assert robust_car(rule, fam, X, Y) == pytest.approx(rule(X, Y) + 0.3, abs=1e-9)


def test_check_no_undercut(pair, grid):
    rule = gradient_car(rr.entropic(1.0), grid)
    v = check_no_undercut(rule, rr.sup_norm_ball(0.3), samples=25, seed=3, space=pair)
    assert not v.is_counterexample


def test_check_sandwich(pair, grid):
    rule = gradient_car(rr.entropic(1.0), grid)
    v = check_sandwich(rule, rr.sup_norm_ball(0.3), samples=25, seed=3, space=pair)
    assert not v.is_counterexample


def test_checks_require_space(pair, grid):
    rule = gradient_car(rr.entropic(1.0), grid)
    with pytest.raises(TypeError):
        check_no_undercut(rule, rr.sup_norm_ball(0.3), samples=5)
    with pytest.raises(TypeError):
        check_sandwich(rule, rr.sup_norm_ball(0.3), samples=5)


@pytest.mark.parametrize("samples", [0, -1])
def test_checks_reject_empty_sample_counts(pair, grid, samples):
    """No sample is no evidence: a count <= 0 must not come back as a sampled pass."""
    rule = gradient_car(rr.entropic(1.0), grid)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_no_undercut(rule, rr.sup_norm_ball(0.3), samples=samples, space=pair)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_sandwich(rule, rr.sup_norm_ball(0.3), samples=samples, space=pair)


def _constructed_instance(pair, grid, eps=0.5, k=2):
    rule = gradient_car(rr.neg_expectation(), grid)
    fam = rr.level_upper_set(rr.entropic(1.0), eps)
    Y = Position(pair, [0.8 * k * eps, 0.4 * k * eps])  # nonnegative, capped
    parts = [ (1.0 / k) * Y for _ in range(k) ]
    return rule, fam, Y, parts


def test_subadditive_allocation_level_sets(pair, grid):
    rule, fam, Y, parts = _constructed_instance(pair, grid)
    v = check_subadditive_allocation(rule, fam, Y, parts, seed=5)
    assert v.tag == "sampled_no_counterexample", v.note


def test_subadditive_allocation_hypothesis_failures(pair, grid):
    rule = gradient_car(rr.neg_expectation(), grid)
    Y = Position(pair, [1.0, 0.5])
    # sup balls: members of U_Y at distance eps from Y leave every component set
    v = check_subadditive_allocation(rule, rr.sup_norm_ball(0.4), Y,
                                     [0.5 * Y, 0.5 * Y], seed=5)
    assert v.tag == "unknown"
    assert "hypothesis" in v.note
    # parts that do not sum to the aggregate
    fam = rr.level_upper_set(rr.entropic(1.0), 0.5)
    v = check_subadditive_allocation(rule, fam, Y, [Y, Y], seed=5)
    assert v.tag == "unknown"
    # parts that miss the aggregate by 1e-4, far beyond the absolute 1e-9,
    # fail the sum test even where a relative tolerance would pass them
    Y = Position(pair, [10.0, 20.0])
    v = check_subadditive_allocation(rule, rr.sup_norm_ball(0.4), Y, [0.5 * Y, 0.5 * Y + 1e-4], seed=5)
    assert v.tag == "unknown"
    assert "do not sum" in v.note
    with pytest.raises(ValueError):
        check_subadditive_allocation(rule, fam, Y, [], seed=5)


def test_robust_car_generic_rule(pair, rng):
    """Non-gradient rules fall back to discretized search, still a lower bound
    dominated by exhaustive membership sampling."""
    rho = rr.entropic(1.0)
    rule = rr.AllocationRule("standalone", lambda X, Y: rho(X), rho)
    fam = rr.sup_norm_ball(0.3)
    X, Y = random_pos(pair, rng), random_pos(pair, rng)
    out = robust_car(rule, fam, X, Y)
    assert out >= rho(X) - 1e-12
    assert out <= rho(X - 0.3) + 1e-9  # worst case of the standalone charge


def test_robust_car_calls_replaced_scenario_for(pair, grid, rng):
    """A gradient rule rebuilt with a wrapped ``scenario_for`` keeps its class,
    and its robust charge goes through the wrapper."""
    rule = gradient_car(rr.entropic(1.0), grid)
    seen = []

    def scenario_for(Y):
        seen.append(Y)
        return rule.params["scenario_for"](Y)

    twin = dataclasses.replace(rule, params={**rule.params, "scenario_for": scenario_for})
    assert type(twin) is type(rule)
    fam = rr.sup_norm_ball(0.3)
    X, Y = random_pos(pair, rng), random_pos(pair, rng)
    assert robust_car(twin, fam, X, Y) == robust_car(rule, fam, X, Y)
    assert seen == [Y]


# the shipped kinds gradient_car accepts, each with a closed-form dual scenario
CLOSED = [rr.entropic(0.7), rr.expected_shortfall(0.3), rr.worst_case(), rr.neg_expectation()]


def _without_closed_form(rho):
    """The same measure through a subclass that gives no dual scenario."""

    class NoClosedForm(type(rho)):
        def _dual_scenario(self, X):
            return None

    return NoClosedForm(rho.name, rho.evaluate, rho.flags, rho.params)


@pytest.mark.parametrize("rho", CLOSED, ids=lambda r: r.name)
def test_fallback_matches_closed_form(rho, pair, grid, rng):
    """Without a closed form, grid argmax plus polish finds the same scenario."""
    fast, slow = gradient_car(rho, grid), gradient_car(_without_closed_form(rho), grid)
    for _ in range(5):
        Y = random_pos(pair, rng)
        Qf, Qs = fast.params["scenario_for"](Y), slow.params["scenario_for"](Y)
        assert np.max(np.abs(Qf.density - Qs.density)) <= 1e-6
        assert abs(slow(Y, Y) - fast(Y, Y)) <= 1e-8


@pytest.mark.parametrize("rho", CLOSED, ids=lambda r: r.name)
def test_closed_form_needs_no_grid_search(rho, pair, grid, rng, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("grid search on a measure with a closed-form dual scenario")

    monkeypatch.setattr(allocation, "dual_argmax", no_search)
    monkeypatch.setattr(allocation, "_polish_simplex", no_search)
    rule = gradient_car(rho, grid)
    X, Y = random_pos(pair, rng), random_pos(pair, rng)
    assert identity_gap(rule, Y) <= 1e-12
    assert robust_car(rule, rr.sup_norm_ball(0.3), X, Y) == pytest.approx(rule(X, Y) + 0.3, abs=1e-12)
    with pytest.raises(AssertionError):
        gradient_car(_without_closed_form(rho), grid)(X, Y)
