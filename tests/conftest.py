import numpy as np
import pytest

from robustrisk import Position, ProbSpace


@pytest.fixture
def uniform4():
    return ProbSpace([0.25, 0.25, 0.25, 0.25])


@pytest.fixture
def skewed3():
    return ProbSpace([0.5, 0.3, 0.2])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pos(space: ProbSpace, rng, scale: float = 2.0) -> Position:
    return Position(space, rng.normal(size=space.n) * scale)


def identity_gap(rule, Y: Position) -> float:
    """|Lambda(Y,Y) - rho(Y)|: the error of the CAR identity, rounding for a
    measure with a closed-form dual scenario, else grid attainment."""
    return abs(rule(Y, Y) - rule.base_rho(Y))
