"""Worst-case risk over uncertainty sets: solvers, guarantees, preservation."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import robustrisk as rr
from robustrisk import Position, robust_value, robustify, verify_preservation

from conftest import random_pos


def test_sup_ball_closed_form(uniform4, rng):
    """Monotone measures over sup-norm balls: worst case is the uniform shift."""
    fam = rr.sup_norm_ball(0.3)
    for rho in (rr.neg_expectation(), rr.entropic(1.0), rr.expected_shortfall(0.5),
                rr.worst_case(), rr.expectation_floor(0.5)):
        for _ in range(10):
            X = random_pos(uniform4, rng)
            rv = robust_value(rho, fam, X)
            assert rv.exact
            assert rv.value == pytest.approx(rho(X - 0.3), abs=1e-12)
            assert fam.membership(X, rv.witness)


def test_sup_ball_vertex_enum(uniform4, rng):
    """The corners of the sup ball hold the analytic worst case X - eps."""
    fam = rr.sup_norm_ball(0.3)
    for rho in (rr.entropic(1.0), rr.expected_shortfall(0.5), rr.worst_case(), rr.neg_expectation()):
        X = random_pos(uniform4, rng)
        rv = robust_value(rho, fam, X, solver="vertex_enum")
        assert (rv.solver, rv.guarantee) == ("vertex_enum", "exact")
        assert rv.value == robust_value(rho, fam, X, solver="analytic").value, rho.name
    many = rr.ProbSpace([1.0 / 21] * 21)
    with pytest.raises(ValueError, match="vertex enumeration guarded at n <= 20, got n = 21"):
        robust_value(rr.entropic(1.0), fam, Position(many, np.zeros(21)), solver="vertex_enum")


def test_p_ball_vertex_enum(uniform4):
    """Convex measures over the L1 ball: maximum sits at a spike vertex."""
    fam = rr.p_norm_ball(1.0, 0.2)
    rho = rr.entropic(1.0)
    X = Position(uniform4, [0.5, -0.5, 1.0, 0.0])
    rv = robust_value(rho, fam, X)
    assert rv.solver == "vertex_enum" and rv.exact
    # dominates the grid search lower bound
    grid = robust_value(rho, fam, X, solver="grid", restarts=0)
    assert rv.value >= grid.value - 1e-9
    assert fam.membership(X, rv.witness)
    assert rho(rv.witness) == pytest.approx(rv.value, abs=1e-9)


def _reference_vertex_scan(rho, fam, X):
    """The vertex solve as a scan over validated Positions, one scalar rho
    each: the p = 1 spikes X, X -/+ eps/p_i e_i, or the sup-ball corners in
    itertools.product order; ties within 1e-12 go to the lexicographically
    smaller vertex, and the first +inf ends the scan. Returns the best value,
    the best vertex and the number of vertices tied with it."""
    space, eps = X.space, fam.eps
    if fam.params["p"] == 1.0:
        verts = [X]
        for i in range(space.n):
            for s in (-1.0, 1.0):
                vals = np.array(X.values)
                vals[i] += s * eps / space.probs[i]
                verts.append(Position(space, vals))
    else:
        verts = [Position(space, X.values + eps * np.array(signs))
                 for signs in itertools.product((-1.0, 1.0), repeat=space.n)]
    best_v, best_z, values = -math.inf, None, []
    for Z in verts:
        v = rho(Z)
        values.append(v)
        if v == math.inf:
            return v, Z, 1
        if v > best_v + 1e-12 or (abs(v - best_v) <= 1e-12 and (best_z is None or tuple(Z.values) < tuple(best_z.values))):
            best_v, best_z = v, Z
    return best_v, best_z, sum(abs(v - best_v) <= 1e-12 for v in values)


def _spaces(n):
    return [rr.ProbSpace(np.full(n, 1.0 / n)), rr.ProbSpace(np.arange(1, n + 1) / (n * (n + 1) / 2))]


def _convex_non_monotone():
    """rho(X) = E[X^2]: convex, not monotone, evaluated row by row."""
    return rr.RiskFunctional(name="second_moment", evaluate=lambda X: float(np.dot(X.space.probs, X.values**2)),
                             flags=rr.AxiomFlags(convex=True, quasi_convex=True))


@pytest.mark.parametrize("n", [2, 3, 16])
def test_vertex_enum_matches_a_position_scan(n):
    """One batched evaluation of the vertex rows picks the vertex that the
    scan over Positions picks, and reports the same value and witness bytes
    (the solves name the vertex solver, since the mean-shift closed form of
    E[-X] answers first under "auto"): over the L1 ball, where the -spikes of E[-X] and of the worst case tie,
    on random and integer-valued X, and over the sup ball for a convex rho
    that is not monotone, so that no closed form answers first."""
    rng = np.random.default_rng(n)
    cases = [(rho, rr.p_norm_ball(1.0, 0.2)) for rho in
             (rr.neg_expectation(), rr.worst_case(), rr.expected_shortfall(0.5), rr.expected_shortfall(0.25),
              rr.entropic(1.0))]
    if n < 16:
        cases.append((_convex_non_monotone(), rr.sup_norm_ball(0.3)))
    ties = 0
    for space in _spaces(n):
        for x in (rng.normal(0.0, 2.0, size=n), rng.integers(-3, 4, size=n).astype(float), np.zeros(n)):
            X = Position(space, x)
            for rho, fam in cases:
                rv = robust_value(rho, fam, X, solver="vertex_enum")
                value, witness, tied = _reference_vertex_scan(rho, fam, X)
                assert (rv.solver, rv.guarantee) == ("vertex_enum", "exact")
                assert rv.value == value, (rho.name, fam.name, x)
                assert rv.witness.values.tobytes() == witness.values.tobytes(), (rho.name, fam.name, x)
                ties += tied > 1
    assert ties > 0


def test_sup_ball_vertex_enum_at_sixteen_atoms():
    """The 2^16 corners in one array, evaluated row by row for a hand-built
    measure, give the scan's value and witness."""
    space = rr.ProbSpace(np.full(16, 1.0 / 16))
    X = Position(space, np.random.default_rng(5).normal(0.0, 2.0, size=16))
    rho, fam = _convex_non_monotone(), rr.sup_norm_ball(0.3)
    rv = robust_value(rho, fam, X)
    value, witness, _ = _reference_vertex_scan(rho, fam, X)
    assert rv.solver == "vertex_enum"
    assert (rv.value, rv.witness.values.tobytes()) == (value, witness.values.tobytes())


def test_vertex_enum_evaluates_the_witness_only(skewed3):
    """A measure with a vectorized batch form scores the vertices in one
    array call: its scalar evaluate runs once, at the returned vertex."""
    calls = []
    es = rr.expected_shortfall(0.5)
    rho = dataclasses.replace(es, evaluate=lambda X: calls.append(X) or es.evaluate(X))
    X = Position(skewed3, [0.4, -0.2, 0.1])
    rv = robust_value(rho, rr.p_norm_ball(1.0, 0.2), X)
    assert rv.solver == "vertex_enum"
    assert len(calls) == 1 and calls[0] is rv.witness
    assert rv.value == pytest.approx(0.48, abs=1e-12)


def test_robust_dominates_base(uniform4, rng):
    """The robustified value never falls below the nominal risk."""
    fams = [rr.sup_norm_ball(0.25), rr.p_norm_ball(2.0, 0.25),
            rr.wasserstein_ball(1.0, 0.25), rr.level_upper_set(rr.entropic(1.0), 0.25)]
    rhos = [rr.neg_expectation(), rr.entropic(1.0), rr.expected_shortfall(0.5)]
    for fam in fams:
        for rho in rhos:
            for _ in range(5):
                X = random_pos(uniform4, rng)
                rv = robust_value(rho, fam, X, restarts=2, budget=24)
                assert rv.value >= rho(X) - 1e-9, (fam.name, rho.name)


def test_witness_invariants(uniform4, rng):
    fams = [rr.sup_norm_ball(0.25), rr.p_norm_ball(2.0, 0.25),
            rr.wasserstein_ball(1.0, 0.25)]
    for fam in fams:
        for rho in (rr.entropic(1.0), rr.expected_shortfall(0.5)):
            X = random_pos(uniform4, rng)
            rv = robust_value(rho, fam, X, restarts=2, budget=24)
            assert fam.membership(X, rv.witness)
            if rv.exact:
                assert rho(rv.witness) == pytest.approx(rv.value, abs=1e-9)
            else:
                assert rho(rv.witness) <= rv.value + 1e-9


def test_eps_zero_degenerates_to_base(uniform4, rng):
    for fam in (rr.sup_norm_ball(0.0), rr.p_norm_ball(2.0, 0.0), rr.wasserstein_ball(1.0, 0.0)):
        for rho in (rr.entropic(1.0), rr.neg_expectation()):
            X = random_pos(uniform4, rng)
            rv = robust_value(rho, fam, X)
            assert rv.value == pytest.approx(rho(X), abs=1e-12)


def test_level_set_self_robustification(uniform4, rng):
    """Robustifying rho over its own upper level set adds exactly eps."""
    rho = rr.entropic(1.0)
    fam = rr.level_upper_set(rho, 0.35)
    for _ in range(10):
        X = random_pos(uniform4, rng)
        rv = robust_value(rho, fam, X)
        assert rv.value == pytest.approx(rho(X) + 0.35, abs=1e-8)


def test_wasserstein_lower_bound_route(uniform4):
    rho = rr.entropic(1.0)
    fam = rr.wasserstein_ball(1.0, 0.3)
    X = Position(uniform4, [0.6, -0.4, 0.1, 0.0])
    rv = robust_value(rho, fam, X)
    assert rv.guarantee == "lower_bound"
    assert rv.value >= rho(X - 0.3) - 1e-12
    assert fam.membership(X, rv.witness)


def test_solver_selection_errors(uniform4, skewed3):
    # on unequal atom masses a W1 ball has no closed form for CE
    with pytest.raises(ValueError, match="no analytic solver"):
        robust_value(rr.certainty_equivalent(rr.identity_loss()), rr.wasserstein_ball(1.0, 0.2),
                     Position(skewed3, [0.1, 0.2, -0.1]), solver="analytic")
    X = Position(uniform4, [0.1, 0.2, -0.1, 0.0])
    with pytest.raises(ValueError):
        robust_value(rr.neg_expectation(), rr.level_band(rr.entropic(1.0), 0.2), X, solver="vertex_enum")
    with pytest.raises(ValueError, match="unknown solver"):
        robust_value(rr.entropic(1.0), rr.sup_norm_ball(0.2), X, solver="bogus")


@pytest.mark.parametrize("resolution", [0.0, -0.1, math.nan, math.inf])
def test_resolution_must_be_positive_and_finite(uniform4, resolution):
    X = Position(uniform4, [0.1, 0.2, -0.1, 0.0])
    with pytest.raises(ValueError, match="resolution must be positive and finite"):
        robust_value(rr.entropic(1.0), rr.sup_norm_ball(0.3), X, solver="grid", resolution=resolution)


def test_extra_candidates_anchor(uniform4):
    rho = rr.entropic(1.0)
    fam = rr.wasserstein_ball(1.0, 0.3)
    X = Position(uniform4, [0.6, -0.4, 0.1, 0.0])
    base = robust_value(rho, fam, X, restarts=0, budget=4)
    good = robust_value(rho, fam, X, restarts=0, budget=4,
                        extra_candidates=[X - 0.3])
    assert good.value >= base.value - 1e-12
    assert good.value >= rho(X - 0.3) - 1e-12
    # non-members are filtered out, never inflate the value
    cheat = robust_value(rho, fam, X, restarts=0, budget=4,
                         extra_candidates=[X - 100.0])
    assert cheat.value <= base.value + 1e-12 or fam.membership(X, X - 100.0) is False


def test_exact_label_cannot_be_beaten(skewed3):
    """A member that beats a value labelled exact by more than the tolerance
    disproves the label: robust_value raises instead of keeping it."""

    class Overclaiming(rr.uncertainty._NormBall):
        def _worst_case(self, rho, X):
            return rho(X), X, "exact"

    fam = Overclaiming(name="overclaiming_ball", params={"p": 2.0, "eps": 0.3})
    rho = rr.entropic(1.0)
    X = Position(skewed3, [0.4, -0.2, 0.1])
    beaten = r"analytic .* entropic\(gamma=1.0\) over overclaiming_ball is beaten by a member by 0\."
    with pytest.raises(RuntimeError, match=beaten):
        robust_value(rho, fam, X, extra_candidates=[X - 0.3])
    # within the tolerance the better member is kept under the same label
    rv = robust_value(rho, fam, X, extra_candidates=[X - 1e-10])
    assert rv.exact and rv.value == rho(X - 1e-10)


def test_preservation_monotone_sup_ball(uniform4):
    v = verify_preservation(rr.entropic(1.0), rr.sup_norm_ball(0.3), "monotone",
                            trials=25, seed=2, space=uniform4)
    assert not v.is_counterexample


def test_preservation_convex(uniform4):
    v = verify_preservation(rr.entropic(1.0), rr.p_norm_ball(2.0, 0.3), "convex",
                            trials=15, seed=2, space=uniform4)
    assert not v.is_counterexample


def test_preservation_law_invariant(uniform4):
    v = verify_preservation(rr.expected_shortfall(0.5), rr.wasserstein_ball(1.0, 0.3),
                            "law_invariant", trials=15, seed=2, space=uniform4)
    assert not v.is_counterexample


def test_preservation_hypothesis_failure_reports_unknown(uniform4):
    # sup balls are not law invariant, so the conclusion is not checkable
    v = verify_preservation(rr.entropic(1.0), rr.sup_norm_ball(0.3),
                            "law_invariant", trials=10, seed=2, space=uniform4)
    assert v.tag == "unknown"
    assert "hypothesis" in v.note
    # convexity item needs a convex base measure
    v = verify_preservation(rr.expectation_floor(0.5), rr.p_norm_ball(2.0, 0.3),
                            "convex", trials=10, seed=2, space=uniform4)
    assert v.tag == "unknown"


def test_preservation_requires_space(uniform4):
    with pytest.raises(TypeError):
        verify_preservation(rr.entropic(1.0), rr.sup_norm_ball(0.3), "monotone")


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_checks_reject_empty_trial_counts(trials):
    """No trial is no evidence: a count <= 0 must not come back as a sampled pass."""
    space = rr.ProbSpace([0.5, 0.5])
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify_preservation(rr.entropic(1.0), rr.sup_norm_ball(0.2), "monotone", trials=trials, space=space)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        rr.largest_family_properties(rr.entropic(1.0), rr.sup_norm_ball(0.2), trials=trials, space=space)


def test_largest_family(uniform4):
    rho = rr.entropic(1.0)
    fam = rr.sup_norm_ball(0.3)
    X = Position(uniform4, [0.5, -0.5, 1.0, 0.0])
    rv = robust_value(rho, fam, X)
    # every member of U_X joins the induced largest family at X
    for Z in fam.discretize(X, 0.15, 32, seed=4):
        assert rr.largest_family_member(rho, rv.value, Z)
    assert not rr.largest_family_member(rho, rv.value, X - 10.0)
    verdicts = rr.largest_family_properties(rho, fam, trials=10, seed=3, space=uniform4)
    assert verdicts["solid"].holds
    assert verdicts["monotone"].holds
    assert verdicts["quasi_convex"].holds


def test_largest_family_counts_only_tested_trials(uniform4, monkeypatch):
    """A trial whose witness is not in the largest family tests nothing, so
    with no such member the solidity verdict is unknown, not a sampled pass."""
    monkeypatch.setattr(robustify, "largest_family_member", lambda rho, value, Z: False)
    verdicts = rr.largest_family_properties(rr.entropic(1.0), rr.sup_norm_ball(0.3), trials=3, seed=3, space=uniform4)
    assert verdicts["solid"].tag == "unknown"


def test_largest_family_notes_undecided_solidity_trials(uniform4, monkeypatch):
    """A solidity trial whose witness is not in the largest family is counted
    as undecided, as in the sampled checks: the first of three is skipped."""
    member, calls = robustify.largest_family_member, []

    def first_skipped(rho, value, Z):
        calls.append(Z)
        return len(calls) > 1 and member(rho, value, Z)

    monkeypatch.setattr(robustify, "largest_family_member", first_skipped)
    v = rr.largest_family_properties(rr.entropic(1.0), rr.sup_norm_ball(0.3), trials=3, seed=3, space=uniform4)["solid"]
    assert (v.tag, v.trials, v.note) == ("sampled_no_counterexample", 2, "1 undecided trials")


def test_monotone_trial_places_its_witness_below_it():
    """CE(exp) over a W1 ball on three atoms: a member of U_Y carried into
    U_X by a quantile shift fell outside U_X, and the ascent's shortfall at X
    came back as a counterexample. Its dominated member lands in U_X."""
    v = verify_preservation(rr.certainty_equivalent(rr.exponential_loss()), rr.wasserstein_ball(1, 0.3), "monotone",
                            trials=2, seed=965345527, space=rr.ProbSpace([0.5, 0.3, 0.2]))
    assert (v.tag, v.trials, v.note) == ("sampled_no_counterexample", 2, "")


def test_monotone_trial_without_a_placed_witness_is_undecided(monkeypatch):
    """The cell above with no member of U_X below Y's witnesses: its second
    trial's lower bound at X falls below the value at Y, a search's
    shortfall that decides nothing, not a counterexample."""
    monkeypatch.setattr(robustify, "cone_witness", lambda family, X, Z: None)
    v = verify_preservation(rr.certainty_equivalent(rr.exponential_loss()), rr.wasserstein_ball(1, 0.3), "monotone",
                            trials=2, seed=965345527, space=rr.ProbSpace([0.5, 0.3, 0.2]))
    assert (v.tag, v.trials, v.note) == ("sampled_no_counterexample", 1, "1 undecided trials")


@pytest.mark.parametrize("rho", [rr.neg_expectation(), rr.expectation_floor(0.5)], ids=lambda r: r.name)
@pytest.mark.parametrize("make", [lambda e: rr.p_norm_ball(1.0, e), lambda e: rr.p_norm_ball(2.0, e),
                                  lambda e: rr.wasserstein_ball(1.0, e)], ids=["L1", "L2", "W1"])
def test_mean_only_worst_case_over_a_ball_is_rho_at_its_witness(rho, make):
    """E[-X] and the floor over L1, L2 and W1 balls on Dirichlet spaces: the
    exact value is rho at the witness X - eps to the bit, not the mean-shift
    formula, which rounds differently."""
    rng = np.random.default_rng(2801)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        space = rr.ProbSpace(rng.dirichlet(np.ones(n)))
        X, fam = Position(space, rng.normal(0.0, 1.5, n)), make(float(rng.uniform(0.05, 0.5)))
        rv = robust_value(rho, fam, X)
        assert rv.exact and np.array_equal(rv.witness.values, (X - fam.eps).values)
        assert rv.value == rho(rv.witness), (fam.name, X.values)


DUAL_VERTEX_MEASURES = (rr.expected_shortfall(0.5), rr.expected_shortfall(0.25), rr.worst_case(), rr.neg_expectation())


def test_norm_ball_worst_case_from_dual_vertices_is_exact():
    """ES, the worst case and E[-X] over L^p balls, 1 < p < inf, on a seeded
    probe: the value is rho at a member, labelled exact, and PA(32) never
    beats it."""
    rng = np.random.default_rng(2701)
    for k in range(216):
        n = int(rng.integers(2, 9))
        space = rr.ProbSpace(rng.dirichlet(np.full(n, 4.0)) if k % 2 else np.full(n, 1.0 / n))
        X = Position(space, rng.normal(0.0, 1.5, n))
        rho = DUAL_VERTEX_MEASURES[k % 4]
        fam = rr.p_norm_ball((1.5, 2.0, 3.0)[k % 3], float(rng.uniform(0.1, 0.5)))
        rv = robust_value(rho, fam, X)
        assert (rv.solver, rv.guarantee) == ("analytic", "exact"), (k, rho.name, fam.name)
        assert fam.membership(X, rv.witness) and rv.value == rho(rv.witness)
        pa = robust_value(rho, fam, X, solver="projected_ascent", seed=k)
        assert pa.value <= rv.value + 1e-9, (k, rho.name, fam.name, pa.value - rv.value)


def test_es_over_an_l2_ball_on_three_atoms(skewed3):
    """Density 2 on the atoms of mass .3 and .2: 0.08 + 0.2 ||2 1_{2,3}||_{L^2(P)}."""
    X = Position(skewed3, [0.4, -0.2, 0.1])
    rv = robust_value(rr.expected_shortfall(0.5), rr.p_norm_ball(2.0, 0.2), X)
    assert (rv.solver, rv.guarantee) == ("analytic", "exact")
    assert abs(rv.value - (0.08 + 0.2 * math.sqrt(2.0))) <= 1e-12


def test_norm_ball_cells_without_dual_vertices_stay_on_the_search(skewed3):
    """Past the ES guard (n > 12), and for measures with no dual vertices, the
    cell keeps the search and its label."""
    many = rr.ProbSpace(np.full(13, 1.0 / 13))
    X13 = Position(many, np.linspace(-1.0, 1.0, 13))
    X = Position(skewed3, [0.4, -0.2, 0.1])
    cells = [(rr.expected_shortfall(0.5), X13), (rr.entropic(1.0), X),
             (rr.certainty_equivalent(rr.exponential_loss()), X)]
    for rho, at in cells:
        assert rho._dual_vertices(at.space) is None
        rv = robust_value(rho, rr.p_norm_ball(2.0, 0.2), at)
        assert (rv.solver, rv.guarantee) == ("projected_ascent(8)", "lower_bound"), rho.name


CE_LOSSES = (rr.certainty_equivalent(rr.exponential_loss()), rr.certainty_equivalent(rr.identity_loss()))


def _l1_spikes(X, eps):
    """X -/+ eps/p_i e_i: the vertices of the L1 ball, W1 members on every space."""
    steps = np.diag(eps / X.space.probs)
    return [Position(X.space, X.values + s * d) for d in steps for s in (-1.0, 1.0)]


def test_quasi_convex_measures_over_w1_balls_on_uniform_spaces_are_exact():
    """CE over a W1 ball on equal atom masses is valued at the L1 ball's
    vertices (Birkhoff-von Neumann): on a seeded probe the value is rho at a
    member, labelled exact, and neither PA(32) nor an L1 spike beats it."""
    rng = np.random.default_rng(3201)
    for k in range(28):
        n = 2 + k % 7
        space = rr.ProbSpace(np.full(n, 1.0 / n))
        X, rho = Position(space, rng.normal(0.0, 1.5, n)), CE_LOSSES[k // 7 % 2]
        fam = rr.wasserstein_ball(1.0, float(rng.uniform(0.1, 0.5)))
        rv = robust_value(rho, fam, X)
        assert (rv.solver, rv.guarantee) == ("analytic", "exact"), (k, rho.name)
        assert fam.membership(X, rv.witness) and rv.value == rho(rv.witness)
        pa = robust_value(rho, fam, X, solver="projected_ascent", budget=16, seed=k)
        best = max(pa.value, *map(rho, _l1_spikes(X, fam.eps)))
        assert best <= rv.value + 1e-9, (k, rho.name, best - rv.value)


def test_quasi_convex_measures_over_w1_balls_elsewhere_keep_the_search(monkeypatch):
    """On Dirichlet spaces the vertex scan never runs, so CE over a W1 ball
    keeps the search's value and label; entropic and ES over a W1 ball on a
    uniform space keep the comonotone lower bound at X - eps."""
    monkeypatch.setattr(rr.uncertainty, "_best_row", lambda *a: pytest.fail("the vertex scan ran"))
    rng = np.random.default_rng(3202)
    for n in range(2, 9):
        space = rr.ProbSpace(rng.dirichlet(np.ones(n)))
        X = Position(space, rng.normal(0.0, 1.5, n))
        for rho in CE_LOSSES:
            rv = robust_value(rho, rr.wasserstein_ball(1.0, 0.3), X, budget=16, restarts=1)
            assert (rv.solver, rv.guarantee) == ("projected_ascent(1)", "lower_bound"), (n, rho.name)
        uniform = Position(rr.ProbSpace(np.full(n, 1.0 / n)), X.values)
        for rho in (rr.entropic(1.0), rr.expected_shortfall(0.5)):
            rv = robust_value(rho, rr.wasserstein_ball(1.0, 0.3), uniform)
            assert (rv.solver, rv.guarantee) == ("analytic", "lower_bound"), (n, rho.name)
            assert np.array_equal(rv.witness.values, (uniform - 0.3).values)


def test_quasi_convex_measures_over_l1_balls_take_the_vertices():
    """CE over an L1 ball on uniform and Dirichlet spaces: "auto" values the
    vertices, and gets the value and witness of the scan over Positions."""
    rng = np.random.default_rng(3203)
    for n in range(2, 9):
        for space in (rr.ProbSpace(np.full(n, 1.0 / n)), rr.ProbSpace(rng.dirichlet(np.ones(n)))):
            X, fam = Position(space, rng.normal(0.0, 1.5, n)), rr.p_norm_ball(1.0, float(rng.uniform(0.1, 0.5)))
            for rho in CE_LOSSES:
                rv = robust_value(rho, fam, X)
                value, witness, _ = _reference_vertex_scan(rho, fam, X)
                assert (rv.solver, rv.guarantee) == ("vertex_enum", "exact"), (n, rho.name)
                assert rv.value == value and rv.witness.values.tobytes() == witness.values.tobytes()


def test_power_loss_ce_over_an_l1_ball_refuses_a_positive_vertex(skewed3):
    """The power loss is defined on losses -Z >= 0 only: a vertex with a
    positive payoff raises, as the search did, and no -inf value is labelled
    exact; with every vertex in the domain the vertices give the value."""
    rho, fam = rr.certainty_equivalent(rr.power_loss(2.0)), rr.p_norm_ball(1.0, 0.2)
    X = Position(skewed3, [-0.1, -0.5, -0.3])  # the spike X + .2/.5 e_1 is positive
    for solver in ("auto", "vertex_enum"):
        with pytest.raises(ValueError, match="power loss defined on x >= 0"):
            robust_value(rho, fam, X, solver=solver)
    rv = robust_value(rho, fam, X - 1.0)
    assert (rv.solver, rv.guarantee) == ("vertex_enum", "exact") and math.isfinite(rv.value)
    assert rv.value == rho(rv.witness)


@pytest.mark.parametrize("make", [rr.level_upper_set, rr.level_band], ids=["upper-set", "band"])
@pytest.mark.parametrize("rho1", [rr.entropic(1.0), rr.expected_shortfall(0.5)], ids=lambda r: r.name)
def test_mean_only_measures_over_level_sets_are_exact(make, rho1, skewed3, rng):
    """E[-Z] <= rho1(Z) <= rho1(X) + eps on the set, and the constant at
    that level attains it, within the level without membership slack."""
    fam = make(rho1, 0.3)
    for k in range(6):
        X = random_pos(skewed3, rng)
        for rho, floor in ((rr.expectation_floor(0.5), 0.5), (rr.neg_expectation(), -math.inf)):
            rv = robust_value(rho, fam, X)
            assert (rv.solver, rv.guarantee) == ("analytic", "exact")
            w = rv.witness.values
            assert (w == w[0]).all()
            assert fam._within(rho1(rv.witness), rho1(X), 0.0)
            assert rv.value == rho(rv.witness)
            assert abs(rv.value - max(rho1(X) + 0.3, floor)) <= 1e-12
            if k == 0:
                pa = robust_value(rho, fam, X, solver="projected_ascent", seed=k)
                assert pa.value <= rv.value + 1e-9


def test_level_closed_form_needs_a_convex_cash_additive_base(skewed3):
    """A q_entropic base is not cash additive and a CE base not flagged
    convex: their cells stay on the search. The level constructors refuse a
    CE base, which has no cash flag, so that family is built from its kind."""
    X = Position(skewed3, [0.4, -0.2, 0.1])
    q = rr.q_entropic(0.5, 2.0)
    ce = rr.certainty_equivalent(rr.exponential_loss())
    fams = [rr.level_upper_set(q, 0.3), rr.level_band(q, 0.3),
            rr.uncertainty._LevelUpperSet(name="level_upper_set(ce)", params={"eps": 0.3, "rho1": ce})]
    for fam in fams:
        for rho in (rr.expectation_floor(0.5), rr.neg_expectation()):
            rv = robust_value(rho, fam, X, budget=16, restarts=1)
            assert (rv.solver, rv.guarantee) == ("projected_ascent(1)", "lower_bound"), fam.name


@pytest.mark.parametrize("make", [rr.level_upper_set, rr.level_band], ids=["upper-set", "band"])
def test_level_self_robustification_keeps_its_bits(make, skewed3, rng):
    """rho over its own level set: X shifted down by eps, the value rho(X) + eps."""
    for rho in (rr.entropic(1.0), rr.expected_shortfall(0.5), rr.neg_expectation(), rr.worst_case()):
        X = random_pos(skewed3, rng)
        rv = robust_value(rho, make(rho, 0.3), X)
        target = rho(X) + 0.3
        assert (rv.solver, rv.guarantee, rv.value) == ("analytic", "exact", target)
        np.testing.assert_array_equal(rv.witness.values, (X - (target - rho(X))).values)
