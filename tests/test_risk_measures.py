"""Risk functionals: values, axiom flags, loss functions."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustrisk as rr
from robustrisk import Position, ProbSpace, minimal_penalty

from conftest import random_pos

ALL_MEASURES = [
    rr.neg_expectation(),
    rr.expectation_floor(1.0),
    rr.worst_case(),
    rr.entropic(1.0),
    rr.entropic(2.5),
    rr.expected_shortfall(0.5),
    rr.expected_shortfall(0.25),
    rr.certainty_equivalent(rr.exponential_loss()),
    rr.q_entropic(0.5, 2.0),
]


def test_closed_form_values(uniform4):
    X = Position(uniform4, [1.0, -1.0, 2.0, 0.0])
    assert rr.neg_expectation()(X) == pytest.approx(-0.5)
    assert rr.expectation_floor(1.0)(X) == pytest.approx(1.0)
    assert rr.worst_case()(X) == pytest.approx(1.0)
    ref = math.log(0.25 * (math.e ** -1 + math.e + math.e ** -2 + 1.0))
    assert rr.entropic(1.0)(X) == pytest.approx(ref, abs=1e-12)
    # alpha = 0.5: worst two atoms are losses 1 and 0
    assert rr.expected_shortfall(0.5)(X) == pytest.approx(0.5)


def test_expected_shortfall_atom_splitting(skewed3):
    X = Position(skewed3, [-2.0, 1.0, 0.0])
    # losses: 2 (mass .5), 0 (mass .2), -1 (mass .3); alpha=0.6 takes the full
    # heaviest atom and a 0.1 slice of the next one
    assert rr.expected_shortfall(0.6)(X) == pytest.approx((0.5 * 2.0 + 0.1 * 0.0) / 0.6)


def test_entropic_cash_additivity(uniform4, rng):
    rho = rr.entropic(1.7)
    for _ in range(30):
        X = random_pos(uniform4, rng)
        m = float(rng.uniform(-3, 3))
        assert rho(X + m) == pytest.approx(rho(X) - m, abs=1e-10)


def test_certainty_equivalent_exp_equals_entropic_one(uniform4, skewed3, rng):
    ce = rr.certainty_equivalent(rr.exponential_loss())
    ent = rr.entropic(1.0)
    for sp in (uniform4, skewed3):
        for _ in range(100):
            X = random_pos(sp, rng)
            assert ce(X) == pytest.approx(ent(X), abs=1e-9)


def test_sampled_flag_validation(uniform4, rng):
    """Declared axiom flags hold on sampled positions (directions as declared)."""
    for rho in ALL_MEASURES:
        f = rho.flags
        for _ in range(40):
            X = random_pos(uniform4, rng)
            Y = random_pos(uniform4, rng)
            lam = float(rng.uniform())
            if f.monotone:
                W = X + Position(uniform4, np.abs(rng.normal(size=4)))
                assert rho(W) <= rho(X) + 1e-9, rho.name
            if f.convex:
                mid = lam * X + (1 - lam) * Y
                assert rho(mid) <= lam * rho(X) + (1 - lam) * rho(Y) + 1e-9, rho.name
            if f.quasi_convex:
                mid = lam * X + (1 - lam) * Y
                assert rho(mid) <= max(rho(X), rho(Y)) + 1e-9, rho.name
            if f.cash_additive:
                m = float(rng.uniform(-2, 2))
                assert rho(X + m) == pytest.approx(rho(X) - m, abs=1e-9), rho.name
            if f.law_invariant:
                perm = rng.permutation(4)
                Xp = Position(uniform4, X.values[perm])
                assert rho(Xp) == pytest.approx(rho(X), abs=1e-9), rho.name


def test_cash_subadditive_direction(uniform4, rng):
    """Adding sure cash reduces risk by at most the amount added."""
    for rho in ALL_MEASURES:
        if not rho.flags.cash_subadditive:
            continue
        for _ in range(60):
            X = random_pos(uniform4, rng, scale=3.0)
            m = float(rng.uniform(0, 2))
            assert rho(X + m) >= rho(X) - m - 1e-9, rho.name


def test_q_entropic_domain_and_shape(uniform4):
    rho = rr.q_entropic(0.5, 2.0)
    assert rho(Position(uniform4, [0.0, 0.0, 0.0, 0.0])) == pytest.approx(0.0)
    assert rho(Position(uniform4, [5.0, 5.0, 5.0, 5.0])) == pytest.approx(0.0)
    deep = rho(Position(uniform4, [-4.0, -4.0, -4.0, -4.0]))
    assert deep > 0.0
    with pytest.raises(ValueError):
        rr.q_entropic(1.5, 2.0)
    with pytest.raises(ValueError):
        rr.q_entropic(0.5, -1.0)


@pytest.mark.parametrize("build, value", [
    (rr.entropic, math.nan), (rr.entropic, math.inf), (rr.expectation_floor, math.nan),
    (rr.expectation_floor, math.inf), (rr.expected_shortfall, math.nan), (rr.power_loss, math.nan),
    (rr.power_loss, math.inf), (lambda v: rr.q_entropic(v, 2.0), math.nan), (lambda v: rr.q_entropic(0.5, v), math.nan),
    (lambda v: rr.q_entropic(0.5, v), math.inf),
])
def test_non_finite_parameters_rejected(build, value):
    with pytest.raises(ValueError):
        build(value)


def test_loss_conjugates():
    exp_loss = rr.exponential_loss()
    for y in (0.5, 1.0, 2.0, 5.0):
        assert exp_loss.ell_conj(y) == pytest.approx(y * math.log(y) - y, abs=1e-12)
    assert exp_loss.ell_conj(0.0) == 0.0
    assert exp_loss.ell_conj(-1.0) == math.inf
    ident = rr.identity_loss()
    assert ident.ell_conj(1.0) == 0.0
    assert ident.ell_conj(2.0) == math.inf
    pw = rr.power_loss(2.0)
    assert pw.ell(2.0) == pytest.approx(4.0)
    assert pw.ell_inv(pw.ell(0.7)) == pytest.approx(0.7, abs=1e-9)
    with pytest.raises(ValueError):
        rr.power_loss(1.0)


@given(vals=st.lists(st.floats(-10, 10), min_size=4, max_size=4), m=st.floats(0, 3))
@settings(max_examples=150, deadline=None)
def test_worst_case_dominates_all(vals, m):
    sp = ProbSpace([0.25] * 4)
    X = Position(sp, vals)
    wc = rr.worst_case()(X)
    for rho in (rr.neg_expectation(), rr.entropic(1.0), rr.expected_shortfall(0.5)):
        assert rho(X) <= wc + 1e-9


@given(vals=st.lists(st.floats(-10, 10), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_entropic_between_mean_and_max(vals):
    sp = ProbSpace([0.5, 0.3, 0.2])
    X = Position(sp, vals)
    assert rr.neg_expectation()(X) - 1e-9 <= rr.entropic(1.0)(X) <= rr.worst_case()(X) + 1e-9


def test_entropic_gamma_monotone(uniform4, rng):
    X = random_pos(uniform4, rng)
    vals = [rr.entropic(g)(X) for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


# every shipped kind, CE by the losses with their own paths
SHIPPED = ALL_MEASURES + [rr.certainty_equivalent(rr.identity_loss())]


@pytest.mark.parametrize("rho", SHIPPED, ids=lambda r: r.name)
def test_replaced_measure_keeps_its_closed_forms(rho, rng):
    """A copy with a wrapped ``evaluate`` keeps its class and closed forms,
    and calls the wrapper, as a tracing harness that rebuilds measures needs."""
    space = ProbSpace([0.5, 0.5])
    calls = []

    def wrapped(X):
        calls.append(X)
        return rho.evaluate(X)

    twin = dataclasses.replace(rho, evaluate=wrapped)
    assert type(twin) is type(rho) and twin._same(rho) and rho._same(twin)
    X = random_pos(space, rng)
    assert twin(X) == rho(X) and calls == [X]
    pts = rng.normal(size=(20, 2)) * 2
    np.testing.assert_array_equal(twin._batch(pts, space), rho._batch(pts, space))
    W = space.probs * np.array([[1.0, 1.0], [1.4, 0.6]])  # Q-masses of two measures
    a, b = twin._penalty_rows(W, space), rho._penalty_rows(W, space)
    assert (a is None and b is None) or np.array_equal(a, b)
    Qs, Qt = rho._dual_scenario(X), twin._dual_scenario(X)
    assert (Qs is None and Qt is None) or np.array_equal(Qs.density, Qt.density)


def test_measure_identity():
    ce_exp, ent = rr.certainty_equivalent(rr.exponential_loss()), rr.entropic(1)
    assert not ce_exp._same(rr.certainty_equivalent(rr.identity_loss()))
    assert ce_exp._same(rr.certainty_equivalent(rr.exponential_loss()))
    assert ent._same(rr.entropic(1.0)) and not ent._same(rr.entropic(2.0))
    assert not ent._same(ce_exp) and not ce_exp._same(ent)
    bare = rr.RiskFunctional("bare", ALL_MEASURES[0].evaluate, ALL_MEASURES[0].flags)
    assert bare._same(bare)
    for other in SHIPPED:
        assert not bare._same(other) and not other._same(bare)


@pytest.mark.parametrize(
    "rho, sign",
    [(m, 1.0) for m in SHIPPED] + [(rr.certainty_equivalent(rr.power_loss(2.0)), -1.0)],
    ids=lambda v: v.name if isinstance(v, rr.RiskFunctional) else "",
)
def test_batch_rows_match_scalar(rho, sign, skewed3, rng):
    """``_batch`` agrees with the scalar on every row; CE(power) on X <= 0."""
    pts = rng.normal(size=(40, 3)) * 2
    if sign < 0:
        pts = -np.abs(pts)
    rows = rho._batch(pts, skewed3)
    scalar = [rho(Position(skewed3, row)) for row in pts]
    np.testing.assert_allclose(rows, scalar, rtol=1e-12, atol=1e-15)


# the convex cash-additive kinds, which give their dual scenario in closed form
DUAL_CLOSED = [rr.entropic(0.7), rr.expected_shortfall(0.3), rr.expected_shortfall(1.0), rr.worst_case(),
               rr.neg_expectation()]


@pytest.mark.parametrize("rho", DUAL_CLOSED, ids=lambda r: r.name)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_dual_scenario_attains_rho(rho, n, rng):
    """Q* = rho._dual_scenario(Y) attains rho(Y) = E_Q*[-Y] - c_rho(Q*)."""
    for _ in range(20):
        space = ProbSpace(rng.dirichlet(np.ones(n)))
        Y = random_pos(space, rng)
        Q = rho._dual_scenario(Y)
        assert abs(rr.expectation_under(Q, -Y) - minimal_penalty(rho, Q) - rho(Y)) <= 1e-12


def test_dual_scenario_absent_without_closed_form():
    bare = rr.RiskFunctional("bare", rr.entropic(1.0).evaluate, rr.entropic(1.0).flags)
    X = Position(ProbSpace([0.5, 0.5]), [1.0, -1.0])
    for rho in (bare, rr.expectation_floor(1.0), rr.certainty_equivalent(rr.exponential_loss()),
                rr.q_entropic(0.5, 2.0)):
        assert rho._dual_scenario(X) is None


@pytest.mark.parametrize("rho, probs, values, density", [
    # the two worst atoms tie: P conditioned on them
    (rr.worst_case(), [0.5, 0.3, 0.2], [1.0, -1.0, -1.0], [0.0, 2.0, 2.0]),
    # the tied worst pair (mass .5) holds more than alpha = .25: both at density 2
    (rr.expected_shortfall(0.25), [0.2, 0.3, 0.5], [-1.0, -1.0, 2.0], [2.0, 2.0, 0.0]),
    # the tied pair (mass .2) fits in alpha = .35; the next atom takes the rest
    (rr.expected_shortfall(0.35), [0.1, 0.1, 0.3, 0.5], [0.0, 0.0, 1.0, 2.0], [1 / 0.35, 1 / 0.35, 0.5 / 0.35, 0.0]),
], ids=["worst-case", "es-boundary-tie", "es-inner-tie"])
def test_dual_scenario_ties(rho, probs, values, density):
    """Ties share mass in proportion to P, whatever the order of the atoms."""
    for perm in (np.arange(len(probs)), np.arange(len(probs))[::-1]):
        space = ProbSpace(np.array(probs)[perm])
        Q = rho._dual_scenario(Position(space, np.array(values)[perm]))
        np.testing.assert_allclose(Q.density, np.array(density)[perm], rtol=0, atol=1e-12)


DUAL_VERTEX_MEASURES = [rr.expected_shortfall(0.5), rr.expected_shortfall(0.25), rr.worst_case(), rr.neg_expectation()]
VERTEX_SPACES = [[0.5, 0.3, 0.2], [0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.05, 0.15, 0.3, 0.2, 0.3], [0.6, 0.4]]


@pytest.mark.parametrize("rho", DUAL_VERTEX_MEASURES, ids=lambda r: r.name)
@pytest.mark.parametrize("probs", VERTEX_SPACES, ids=lambda p: f"n{len(p)}")
def test_dual_vertices_are_measures_of_zero_penalty(rho, probs):
    space = ProbSpace(probs)
    V = rho._dual_vertices(space)
    assert V.ndim == 2 and V.shape[1] == space.n and len(V) >= 1
    assert (V >= 0.0).all()
    assert np.abs(V.sum(axis=1) - 1.0).max() <= 1e-12
    assert (rho._penalty_rows(V, space) == 0.0).all()


def _brute_force_vertices(probs, alpha):
    """The vertices of {w : 0 <= w_i <= p_i/alpha, sum(w) = 1}: every basic
    feasible point, n - 1 of the 2n bounds active with the total mass, solved
    as a linear system and kept when it is feasible."""
    n, cap = len(probs), np.asarray(probs) / alpha
    bounds = [(i, 0.0) for i in range(n)] + [(i, c) for i, c in enumerate(cap)]
    found = set()
    for active in itertools.combinations(bounds, n - 1):
        A, b = [np.ones(n)], [1.0]
        for i, v in active:
            A.append(np.eye(n)[i])
            b.append(v)
        A = np.array(A)
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        w = np.linalg.solve(A, np.array(b))
        if (w >= -1e-12).all() and (w <= cap + 1e-12).all():
            found.add(tuple(np.round(w, 9) + 0.0))
    return found


@pytest.mark.parametrize("alpha", [0.5, 0.25])
@pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], [0.25] * 4], ids=["skewed3", "uniform4"])
def test_es_dual_vertices_match_a_brute_force_enumeration(alpha, probs):
    V = rr.expected_shortfall(alpha)._dual_vertices(ProbSpace(probs))
    rows = [tuple(np.round(v, 9) + 0.0) for v in V]
    assert len(rows) == len(set(rows))  # each vertex once
    assert set(rows) == _brute_force_vertices(probs, alpha)


def test_dual_vertices_of_the_worst_case_and_the_mean():
    for probs in VERTEX_SPACES:
        space = ProbSpace(probs)
        np.testing.assert_array_equal(rr.worst_case()._dual_vertices(space), np.eye(space.n))
        np.testing.assert_array_equal(rr.neg_expectation()._dual_vertices(space), [space.probs])


def test_dual_vertices_absent_or_guarded():
    space = ProbSpace([0.5, 0.5])
    for rho in (rr.entropic(1.0), rr.expectation_floor(1.0), rr.certainty_equivalent(rr.exponential_loss()),
                rr.q_entropic(0.5, 2.0)):
        assert rho._dual_vertices(space) is None
    assert rr.expected_shortfall(0.5)._dual_vertices(ProbSpace([1 / 12] * 12)) is not None
    assert rr.expected_shortfall(0.5)._dual_vertices(ProbSpace([1 / 13] * 13)) is None
