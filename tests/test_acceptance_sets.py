"""Acceptance families, level inversion, and robust acceptance."""

import math

import numpy as np
import pytest

import robustrisk as rr
from robustrisk import (
    Position,
    acceptance_level,
    is_acceptable,
    robust_acceptance_check,
    robust_value,
)

from conftest import random_pos


def test_acceptance_sets_nested_in_level(uniform4, rng):
    """Acceptance at a lower target implies acceptance at every higher one."""
    rho = rr.entropic(1.0)
    for _ in range(20):
        X = random_pos(uniform4, rng)
        m = rho(X)
        assert is_acceptable(rho, X, m + 0.1)
        assert is_acceptable(rho, X, m)
        assert not is_acceptable(rho, X, m - 0.1)


def test_acceptance_level_inverts_rho(uniform4, rng):
    """The sets {rho <= m} recover rho exactly, for every shipped measure."""
    for rho in (rr.entropic(1.0), rr.expected_shortfall(0.5), rr.neg_expectation(),
                rr.expectation_floor(0.3), rr.q_entropic(0.5, 2.0), rr.worst_case(),
                rr.certainty_equivalent(rr.exponential_loss()), rr.certainty_equivalent(rr.identity_loss()),
                rr.certainty_equivalent(rr.power_loss(2.0))):
        for _ in range(15):
            X = random_pos(uniform4, rng)
            if rho.name.startswith("certainty_equivalent(power"):
                X = Position(uniform4, -abs(X.values))  # the power loss is defined on losses -X >= 0
            assert acceptance_level(rho, X) == rho(X), rho.name


def test_acceptance_level_of_an_unbounded_risk_is_inf():
    """inf{m : +inf <= m} = +inf: the exponential CE overflows at X = (-800, 1)."""
    rho = rr.certainty_equivalent(rr.exponential_loss())
    X = Position(rr.ProbSpace([0.5, 0.5]), [-800.0, 1.0])
    with np.errstate(over="ignore"):
        assert acceptance_level(rho, X) == math.inf


def test_acceptance_level_rejects_nan(uniform4):
    rho = rr.RiskFunctional("nan_measure", lambda X: math.nan, rr.AxiomFlags())
    with pytest.raises(ValueError, match="nan_measure is NaN"):
        acceptance_level(rho, Position(uniform4, [0.0, 1.0, 2.0, 3.0]))


def test_cash_shift_identity(uniform4, rng):
    """For cash-additive measures, adding capital m makes X just acceptable at
    level rho(X) - m."""
    rho = rr.entropic(1.0)
    for _ in range(15):
        X = random_pos(uniform4, rng)
        m = float(rng.uniform(0, 2))
        assert acceptance_level(rho, X + m) == pytest.approx(rho(X) - m, abs=1e-9)


def test_robust_acceptance_threshold(uniform4):
    rho = rr.entropic(1.0)
    fam = rr.sup_norm_ball(0.3)
    X = Position(uniform4, [0.5, -0.5, 1.0, 0.0])
    rv = robust_value(rho, fam, X)
    above = robust_acceptance_check(rho, fam, X, rv.value + 1e-6)
    below = robust_acceptance_check(rho, fam, X, rv.value - 1e-6)
    assert above["x_in_robust"] and not below["x_in_robust"]


def test_robust_level_monotone_in_eps(uniform4):
    rho = rr.entropic(1.0)
    X = Position(uniform4, [0.5, -0.5, 1.0, 0.0])
    levels = [robust_value(rho, rr.sup_norm_ball(e), X).value for e in (0.0, 0.2, 0.4)]
    assert levels[0] <= levels[1] <= levels[2]
    assert levels[0] == pytest.approx(rho(X), abs=1e-8)
