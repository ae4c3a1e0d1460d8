"""Uncertainty families: membership, structural properties, witnesses."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import robustrisk as rr
from robustrisk import (
    FAMILY_PROPERTIES,
    Position,
    UncertaintyFamily,
    check_property,
    cone_witness,
    minkowski_split,
    replay_witness,
    robust_value,
    solidify,
)
from robustrisk import prob_core, robustify, uncertainty
from robustrisk.prob_core import _bisect, _lp_rows
from robustrisk.robustify import _project
from robustrisk.uncertainty import MEMBER_TOL, _boundary_step

from conftest import random_pos


def test_family_property_names():
    assert len(FAMILY_PROPERTIES) == 9
    assert "continuous_from_above" in FAMILY_PROPERTIES
    assert "c_quasi_convex" in FAMILY_PROPERTIES


def test_sup_ball_membership(uniform4):
    fam = rr.sup_norm_ball(0.5)
    X = Position(uniform4, [0.0, 0.0, 0.0, 0.0])
    assert fam.membership(X, Position(uniform4, [0.5, -0.5, 0.1, 0.0]))
    assert not fam.membership(X, Position(uniform4, [0.51, 0.0, 0.0, 0.0]))


def test_p_ball_membership(skewed3):
    fam = rr.p_norm_ball(2.0, 0.3)
    X = Position(skewed3, [1.0, 1.0, 1.0])
    # L2(P)-norm of the perturbation decides membership
    d = np.array([0.2, -0.3, 0.1])
    nrm = float(np.sqrt(np.sum(skewed3.probs * d**2)))
    Z = Position(skewed3, X.values + d)
    assert fam.membership(X, Z) == (nrm <= 0.3)


def test_wasserstein_ball_is_distributional(uniform4):
    fam = rr.wasserstein_ball(1.0, 0.25)
    X = Position(uniform4, [1.0, 2.0, 3.0, 4.0])
    Xp = Position(uniform4, [4.0, 3.0, 2.0, 1.0])
    assert fam.membership(X, Xp)  # same law, distance zero
    assert fam.membership(X, X - 0.25)
    assert not fam.membership(X, X - 0.26)


def test_level_upper_set_membership(uniform4):
    rho1 = rr.entropic(1.0)
    fam = rr.level_upper_set(rho1, 0.4)
    X = Position(uniform4, [1.0, -1.0, 0.5, 0.0])
    Z = Position(uniform4, [2.0, 0.0, 1.0, 0.5])
    assert fam.membership(X, Z) == (rho1(Z) <= rho1(X) + 0.4 + 1e-12)
    assert fam.membership(X, X)


def test_level_band_membership(uniform4):
    rho1 = rr.entropic(1.0)
    fam = rr.level_band(rho1, 0.4)
    X = Position(uniform4, [1.0, -1.0, 0.5, 0.0])
    assert fam.membership(X, X)
    # far below the band: risk too small
    assert not fam.membership(X, X + 10.0)
    assert not fam.membership(X, X - 10.0)


def test_level_families_require_flags(uniform4):
    with pytest.raises(ValueError):
        rr.level_upper_set(rr.expectation_floor(0.0), 0.1)


@pytest.mark.parametrize("build", [
    rr.sup_norm_ball, lambda v: rr.p_norm_ball(2.0, v), lambda v: rr.wasserstein_ball(1.0, v),
    lambda v: rr.level_band(rr.entropic(1.0), v), lambda v: rr.level_upper_set(rr.entropic(1.0), v),
])
def test_non_finite_radius_rejected(build):
    for v in (math.nan, math.inf):
        with pytest.raises(ValueError):
            build(v)


@pytest.mark.parametrize("build", [rr.p_norm_ball, rr.wasserstein_ball])
def test_order_may_be_infinite_not_nan(build):
    with pytest.raises(ValueError):
        build(math.nan, 0.1)
    assert build(math.inf, 0.1).params["p"] == math.inf


def test_quasi_convex_counterexample_sup_ball(uniform4):
    """Midpoint sets contain points outside both endpoint sets for norm balls."""
    eps = 0.5
    fam = rr.sup_norm_ball(eps)
    v = check_property(fam, "quasi_convex", uniform4, trials=10, seed=1)
    assert v.is_counterexample
    assert replay_witness(fam, "quasi_convex", v.witness)
    # the classic constant-shift witness violates it directly
    X = Position(uniform4, np.zeros(4))
    Y = Position(uniform4, np.full(4, 10.0 * eps))
    Z = Position(uniform4, np.full(4, 5.5 * eps))
    mid = 0.5 * X + 0.5 * Y
    assert fam.membership(mid, Z)
    assert not fam.membership(X, Z) and not fam.membership(Y, Z)


def test_c_quasi_convex_counterexample_sup_ball(uniform4):
    fam = rr.sup_norm_ball(0.5)
    v = check_property(fam, "c_quasi_convex", uniform4, trials=10, seed=1)
    assert v.is_counterexample
    assert replay_witness(fam, "c_quasi_convex", v.witness)


def test_certified_verdicts(uniform4):
    ball = rr.p_norm_ball(2.0, 0.3)
    assert check_property(ball, "convex", uniform4).tag == "certified_holds"
    assert check_property(ball, "cash_invariant", uniform4).tag == "certified_holds"
    assert check_property(ball, "order_preserving", uniform4).tag == "certified_holds"
    assert check_property(ball, "solid", uniform4).is_counterexample
    assert check_property(ball, "monotone", uniform4).is_counterexample

    wb = rr.wasserstein_ball(1.0, 0.3)
    for prop in ("convex", "law_invariant", "cash_invariant", "order_preserving"):
        assert check_property(wb, prop, uniform4).tag == "certified_holds", prop

    lev = rr.level_upper_set(rr.entropic(1.0), 0.3)
    for prop in ("solid", "monotone", "quasi_convex", "c_quasi_convex",
                 "order_preserving", "law_invariant", "cash_invariant"):
        assert check_property(lev, prop, uniform4).tag == "certified_holds", prop


def test_ball_law_invariance_counterexample(uniform4, skewed3):
    ball = rr.sup_norm_ball(0.4)
    v = check_property(ball, "law_invariant", uniform4, trials=20, seed=3)
    assert v.is_counterexample
    assert replay_witness(ball, "law_invariant", v.witness)


def test_no_counterexample_verdicts(uniform4):
    ball = rr.sup_norm_ball(0.4)
    for prop in ("continuous_from_above",):
        v = check_property(ball, prop, uniform4, trials=30, seed=5)
        assert not v.is_counterexample, (prop, v.note)
    lev = rr.level_upper_set(rr.entropic(1.0), 0.3)
    v = check_property(lev, "continuous_from_above", uniform4, trials=30, seed=5)
    assert not v.is_counterexample, v.note
    v = check_property(lev, "convex", uniform4, trials=30, seed=5)
    assert not v.is_counterexample


def test_check_property_rejects_bad_input(uniform4):
    fam = rr.sup_norm_ball(0.4)
    with pytest.raises(ValueError):
        check_property(fam, "definitely_not_a_property", uniform4)
    with pytest.raises(ValueError):
        check_property(fam, "convex", uniform4, trials=0)


def test_check_property_deterministic(uniform4):
    fam = rr.sup_norm_ball(0.4)
    a = check_property(fam, "quasi_convex", uniform4, trials=15, seed=9)
    b = check_property(fam, "quasi_convex", uniform4, trials=15, seed=9)
    assert a.tag == b.tag
    if a.is_counterexample:
        assert np.allclose(a.witness["Z"].values, b.witness["Z"].values)


def test_cone_witness(uniform4, rng):
    for fam in (rr.sup_norm_ball(0.5), rr.p_norm_ball(2.0, 0.5),
                rr.level_upper_set(rr.entropic(1.0), 0.5)):
        for _ in range(15):
            X = random_pos(uniform4, rng)
            Z = X + Position(uniform4, np.abs(rng.normal(size=4)))
            W = cone_witness(fam, X, Z)
            if W is not None:
                assert fam.membership(X, W)
                assert np.all(W.values <= Z.values + 1e-9)
    for fam in (rr.p_norm_ball(1.0, 0.5), rr.p_norm_ball(2.0, 0.5)):
        _check_member_below(fam, fam.p, uniform4, rng)


def _check_member_below(fam, p, space, rng):
    """X <= Y and Z in U_Y: Z lies in U_X + L^p_+, so ``cone_witness`` always
    finds a member of U_X below Z, as a monotonicity trial needs. Z is drawn
    from the L^p ball about Y, the last of every four at the radius."""
    for k in range(40):
        X = random_pos(space, rng)
        Y = X + Position(space, np.abs(rng.normal(size=4)))
        D = rng.normal(size=4)
        r = 0.5 if k % 4 == 0 else float(rng.uniform(0.0, 0.5))
        Z = Y + Position(space, D * (r / _lp_rows(np.abs(D), space.probs, p)))
        assert fam.membership(Y, Z), fam.name
        W = cone_witness(fam, X, Z)
        assert W is not None and fam.membership(X, W), fam.name
        assert np.all(W.values <= Z.values), fam.name


def test_transport_member_sup_ball(uniform4, rng):
    _check_member_below(rr.sup_norm_ball(0.5), math.inf, uniform4, rng)


def test_transport_member_wasserstein(uniform4, rng):
    # the W1 ball holds the L1 ball of the same radius, so L1 draws are members
    _check_member_below(rr.wasserstein_ball(1.0, 0.5), 1.0, uniform4, rng)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_norm_ball_dominated_member_is_the_minimum(p, skewed3, rng):
    """A norm ball's dominated member is min(X, Z), found by no search: its
    distance to X is ||(X - Z)^+||, the number ``_plus_cone`` bounds."""
    fam = rr.p_norm_ball(p, 0.5)
    for _ in range(20):
        X, Z = random_pos(skewed3, rng), random_pos(skewed3, rng)
        assert np.array_equal(fam._dominated(X, Z).values, np.minimum(X.values, Z.values))


def _counting(monkeypatch, cls, name):
    """Count the calls of the method ``name`` of ``cls``."""
    calls, method = [], getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *a: calls.append(1) or method(self, *a))
    return calls


def test_band_cone_paths(skewed3, monkeypatch):
    """The upward closure of a level band: the order-preservation check and
    preservation over a band decide through it, and its witnesses."""
    for base in (rr.entropic(1.0), rr.expected_shortfall(0.5), rr.q_entropic(0.5, 2.0)):
        v = check_property(rr.level_band(base, 0.3), "order_preserving", skewed3, trials=20, seed=3)
        assert (v.tag, v.trials, v.note) == ("sampled_no_counterexample", 20, ""), base.name
    band = rr.level_band(rr.entropic(1.0), 0.3)
    plus_cone = _counting(monkeypatch, type(band), "_plus_cone")
    dominated = _counting(monkeypatch, type(band), "_dominated")
    for prop in ("monotone", "quasi_convex"):
        v = rr.verify_preservation(rr.entropic(1.0), band, prop, trials=4, seed=5, space=skewed3)
        assert (v.tag, v.trials) == ("sampled_no_counterexample", 4), prop
    # the trials placed their witnesses by cone_witness, which asks the
    # band's dominated member for each of the 7 placements outside the band
    assert plus_cone and len(dominated) == 7


def test_band_cone_witness(skewed3):
    """Above the band's top, cone_witness lowers Z onto its bottom edge."""
    band = rr.level_band(rr.entropic(1.0), 0.3)
    X = Position(skewed3, [0.4, -0.2, 1.0])
    Z = X + Position(skewed3, [0.9, 1.3, 0.7])
    assert not band.membership(X, Z) and band._plus_cone(X, Z)
    W = cone_witness(band, X, Z)
    assert band.membership(X, W) and np.all(W.values <= Z.values)
    assert W.values == pytest.approx([0.5551747457530339, 0.355174745753034, 0.9551747457530338], abs=1e-12)
    assert band.rho1(W) - band.rho1(X) == pytest.approx(-0.3, abs=1e-12)


def test_solidified_band_membership(skewed3):
    """Z is in the upward closure of a band iff rho1(Z) is at most its top."""
    band = rr.level_band(rr.entropic(1.0), 0.3)
    solid = solidify(band)
    X = Position(skewed3, [0.4, -0.2, 1.0])
    cases = {(5.0, 5.0, 5.0): True, (0.4, -0.2, 1.0): True, (2.0, 0.1, -1.0): True,
             (-3.0, -3.0, -3.0): False, (0.0, -0.6, 1.0): False}
    for values, inside in cases.items():
        Z = Position(skewed3, values)
        assert solid.membership(X, Z) is inside, values
    assert not band.membership(X, Position(skewed3, [5.0, 5.0, 5.0]))


def test_minkowski_split(uniform4, rng):
    fam = rr.p_norm_ball(2.0, 0.5)
    for _ in range(15):
        X, Y = random_pos(uniform4, rng), random_pos(uniform4, rng)
        lam = float(rng.uniform(0.1, 0.9))
        mid = lam * X + (1 - lam) * Y
        Z = mid + Position(uniform4, rng.uniform(-0.2, 0.2, size=4))
        if not fam.membership(mid, Z):
            continue
        out = minkowski_split(fam, X, Y, lam, Z)
        assert out is not None
        Z1, Z2 = out
        assert fam.membership(X, Z1) and fam.membership(Y, Z2)
        assert np.allclose(lam * Z1.values + (1 - lam) * Z2.values, Z.values)


def test_solidify(uniform4):
    fam = rr.sup_norm_ball(0.5)
    sol = solidify(fam)
    X = Position(uniform4, np.zeros(4))
    high = Position(uniform4, np.full(4, 3.0))
    assert not fam.membership(X, high)
    assert sol.membership(X, high)
    # still bounded below
    assert not sol.membership(X, Position(uniform4, [-1.0, 0.0, 0.0, 0.0]))
    v = check_property(sol, "solid", uniform4, trials=10, seed=2)
    assert not v.is_counterexample
    # a solid family is its own solidification: upper level sets, and the
    # solidified families themselves
    lev = rr.level_upper_set(rr.entropic(1.0), 0.3)
    assert solidify(lev) is lev
    assert solidify(sol) is sol


def test_eps_zero_degenerate(uniform4):
    fam = rr.sup_norm_ball(0.0)
    X = Position(uniform4, [1.0, 2.0, 3.0, 4.0])
    assert fam.membership(X, X)
    assert not fam.membership(X, X + 1e-6)


def test_sup_ball_is_p_norm_ball_inf(uniform4, rng):
    """sup_norm_ball(eps) and p_norm_ball(inf, eps) are one family."""
    sup, pinf = rr.sup_norm_ball(0.3), rr.p_norm_ball(np.inf, 0.3)
    Q = rr.ScenarioMeasure(uniform4, [1.6, 0.8, 0.4, 1.2])
    for _ in range(5):
        X, Z = random_pos(uniform4, rng), random_pos(uniform4, rng)
        for rho in (rr.entropic(1.0), rr.expected_shortfall(0.5), rr.expectation_floor(0.5)):
            a, b = rr.robust_value(rho, sup, X), rr.robust_value(rho, pinf, X)
            assert (a.value, a.solver, a.guarantee) == (b.value, b.solver, b.guarantee)
            assert np.array_equal(a.witness.values, b.witness.values)
        assert rr.support_function(sup, Q, X) == rr.support_function(pinf, Q, X)
        W, Wp = cone_witness(sup, X, X + 1.0), cone_witness(pinf, X, X + 1.0)
        assert np.array_equal(W.values, Wp.values)
        assert sup.membership(X, Z) == pinf.membership(X, Z)
        assert sup._plus_cone(X, Z) == pinf._plus_cone(X, Z)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_norm_rows_bits_do_not_depend_on_the_row_count(p):
    """k blocks of rows stacked into one array get the bits of k separate
    calls of the one L^p(P) norm, so a candidate decided alone and among
    others gets one answer; and each row's ``density_norm`` of order p > 1
    (the dual norm of a ball's penalty term) is its row of the stacked call."""
    rng = np.random.default_rng(7)
    for _ in range(75):
        n, m, k = (int(v) for v in rng.integers((2, 1, 2), (9, 20, 6)))
        space = rr.ProbSpace(rng.dirichlet(np.ones(n)))
        probs = space.probs
        blocks = [np.abs(rng.normal(size=(m, n))) for _ in range(k)]
        separate = np.concatenate([_lp_rows(B, probs, p) for B in blocks])
        assert np.array_equal(_lp_rows(np.concatenate(blocks), probs, p), separate)
        if p > 1.0:
            D = rng.dirichlet(np.ones(n), size=m * k) / probs
            scalar = [rr.density_norm(rr.ScenarioMeasure(space, d), p) for d in D]
            assert np.array(scalar).tobytes() == _lp_rows(D, probs, p).tobytes()


def test_wasserstein_cone_aligns_quantiles():
    """Z is a member of the W1 ball, so it is in the ball plus the cone; the
    breakpoints re-derived by a cumulative sum used to land one ulp past a
    breakpoint and compare the wrong quantile steps."""
    space = rr.ProbSpace([0.723, 0.081, 0.1, 0.096])
    X = Position(space, [0.6711929061650919, -0.30901040240300215, 2.110235832078213, 2.472649140898998])
    Z = Position(space, [-0.22517651482444404, -0.432986202422363, -0.42193083420891836, -0.027680474249239154])
    fam = rr.wasserstein_ball(1.0, 1.5)
    assert rr.wasserstein_distance(X, Z, 1.0) == pytest.approx(1.1514, abs=1e-4)
    assert fam.membership(X, Z)
    assert fam._plus_cone(X, Z)
    assert solidify(fam).membership(X, Z)


@pytest.mark.parametrize("ball", [rr.sup_norm_ball(0.3), rr.p_norm_ball(1.0, 0.3), rr.p_norm_ball(2.0, 0.3)],
                         ids=["sup", "p1", "p2"])
def test_ball_law_invariance_from_equal_mass_groups(ball, skewed3):
    """{0} and {1, 2} have equal mass on (.5, .3, .2): c*1_A and c*1_B share a
    law although no two atoms share a probability."""
    v = check_property(ball, "law_invariant", skewed3, trials=200, seed=0)
    assert v.is_counterexample
    assert rr.same_distribution(v.witness["X"], v.witness["Xp"])
    assert replay_witness(ball, "law_invariant", v.witness)


def test_law_invariance_without_shared_laws():
    """No two atom groups share a mass, so no two distinct positions share a
    law: balls are certified, and sampling has no trial to run."""
    space = rr.ProbSpace([0.15, 0.25, 0.6])
    assert check_property(rr.sup_norm_ball(0.3), "law_invariant", space).tag == "certified_holds"
    v = check_property(solidify(rr.sup_norm_ball(0.3)), "law_invariant", space, trials=20, seed=1)
    assert v.tag == "unknown"


def test_undecided_trials_are_not_counted(uniform4, rng):
    """No kind decides membership in lam*U_X + (1-lam)*U_Y, so convexity of a
    level set has no decision procedure: the verdict is unknown, not a
    sampled pass, no candidate is asked for, and no convexity witness
    replays."""
    lev = rr.level_upper_set(rr.entropic(1.0), 0.3)
    v = check_property(lev, "convex", rr.ProbSpace([0.5, 0.5]), trials=20, seed=4)
    assert v.tag == "unknown" and v.trials == 0
    calls = []
    counted = dataclasses.replace(lev, discretize=lambda *a: calls.append(1) or lev.discretize(*a))
    v = check_property(counted, "convex", uniform4, trials=40, seed=3)
    assert v == check_property(lev, "convex", uniform4, trials=40, seed=3)
    assert (v.tag, v.trials, v.note) == ("unknown", 0, "no trial could have found a violation")
    assert calls == []
    X, Y = random_pos(uniform4, rng), random_pos(uniform4, rng)
    w = {"X": X, "Y": Y, "lam": 0.5, "Z": 0.5 * X + 0.5 * Y + 10.0}
    for kind in KINDS:
        assert not replay_witness(KINDS[kind](), "convex", w), kind


def test_forged_witnesses_do_not_replay():
    """A witness that breaks the property's hypothesis is no counterexample,
    although the memberships alone would flag it."""
    space = rr.ProbSpace([0.5, 0.5])
    lev, ball = rr.level_upper_set(rr.entropic(1.0), 0.3), rr.sup_norm_ball(0.3)
    zero, one, low = (Position(space, [v, v]) for v in (0.0, 1.0, -5.0))
    cases = [
        (lev, "monotone", {"X": one, "Y": zero, "Z": Position(space, [-0.3, -0.3])}),  # X > Y
        (lev, "solid", {"X": zero, "Z": zero, "Zbar": low}),  # Zbar < Z
        (ball, "order_preserving", {"X": zero, "Y": one, "Yp": low}),  # Yp not in U_Y
    ]
    for fam, prop, w in cases:
        assert check_property(fam, prop, space).tag == "certified_holds", prop
        assert not replay_witness(fam, prop, w), prop


@pytest.mark.parametrize("probs", [[0.5, 0.5], [0.5, 0.3, 0.2]], ids=["n2", "n3"])
def test_counterexamples_replay(probs):
    """Rules and sampling share one violation predicate with the replay."""
    space = rr.ProbSpace(probs)
    families = [rr.sup_norm_ball(0.3), rr.p_norm_ball(1.0, 0.3), rr.p_norm_ball(2.0, 0.3),
                rr.wasserstein_ball(1.0, 0.3), rr.level_upper_set(rr.entropic(1.0), 0.3)]
    found = 0
    for fam in families:
        for prop in FAMILY_PROPERTIES:
            v = check_property(fam, prop, space, trials=20, seed=11)
            if v.is_counterexample:
                found += 1
                assert replay_witness(fam, prop, v.witness), (fam.name, prop)
    assert found >= 10


# ---------------------------------------------------------------------------
# the family interface: traced copies and families built by hand


def _tracer():
    """A Tracer from bench/tracing.py, which copies a family with
    dataclasses.replace and wrapped membership and discretize callables."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _key(o):
    """A comparable form of solver outputs: positions by their values."""
    if isinstance(o, Position):
        return ("Position", tuple(o.values.tolist()))
    if dataclasses.is_dataclass(o):
        return tuple(_key(getattr(o, f.name)) for f in dataclasses.fields(o))
    if isinstance(o, dict):
        return tuple(sorted((k, _key(v)) for k, v in o.items()))
    if isinstance(o, (list, tuple)):
        return tuple(_key(v) for v in o)
    return o


_ENT = rr.entropic(1.0)
KINDS = {
    "sup": lambda: rr.sup_norm_ball(0.3),
    "p1": lambda: rr.p_norm_ball(1.0, 0.3),
    "p2": lambda: rr.p_norm_ball(2.0, 0.3),
    "w1": lambda: rr.wasserstein_ball(1.0, 0.3),
    "level_upper_set": lambda: rr.level_upper_set(_ENT, 0.3),
    "level_band": lambda: rr.level_band(_ENT, 0.3),
    "solidified": lambda: solidify(rr.p_norm_ball(2.0, 0.3)),
}


@pytest.mark.parametrize("kind", KINDS)
def test_traced_copy_keeps_its_kind(kind, skewed3):
    """A copy with wrapped callables keeps its class, so its closed forms, and
    answers as the family does while the wrappers count its calls."""
    fam = KINDS[kind]()
    tracer = _tracer()
    copy = tracer.family(fam)
    X = Position(skewed3, [0.4, -0.2, 0.1])
    rho = rr.certainty_equivalent(rr.exponential_loss())

    def solve(f):
        return (
            robust_value(rho, f, X, budget=12, restarts=1, seed=3),
            check_property(f, "continuous_from_above", skewed3, trials=3, seed=1),
            check_property(f, "solid", skewed3, trials=3, seed=1),
            f.discretize(X, 0.25, 12, 5),
        )

    traced = tracer.op("solve", lambda: solve(copy))
    assert type(copy) is type(fam)
    assert _key(traced) == _key(solve(fam))
    assert tracer.calls["discretize"] >= 4  # one per sampled trial, one direct
    assert tracer.counts["discretize_candidates"] >= len(traced[-1]) > 0
    assert tracer.calls["membership"] > 0


def _hand_built_l1_ball(eps: float) -> UncertaintyFamily:
    """The L^1(P) ball written as closures, with no closed forms."""

    def membership(X, Z):
        return float(np.dot(X.space.probs, np.abs(Z.values - X.values))) <= eps + 1e-12

    def discretize(X, resolution, budget, seed=0):
        rng = np.random.default_rng(seed)
        n, probs = X.space.n, X.space.probs
        pts = [X + Position(X.space, s * eps / probs[i] * np.eye(n)[i]) for i in range(n) for s in (-1.0, 1.0)]
        while len(pts) < budget:
            d = rng.normal(size=n)
            pts.append(X + Position(X.space, d * (eps * rng.uniform() / np.dot(probs, np.abs(d)))))
        return [Z for Z in pts if membership(X, Z)]

    return UncertaintyFamily(f"hand_l1(eps={eps})", {"eps": eps}, membership, discretize)


def test_hand_built_family(skewed3):
    """A family built by hand from two callables takes the generic paths:
    search and sampled property checks."""
    fam = _hand_built_l1_ball(0.3)
    X = Position(skewed3, [0.4, -0.2, 0.1])
    # search over the candidates, which hold the vertices: a lower bound that
    # meets the exact vertex maximum of the shipped p = 1 ball
    rv = robust_value(_ENT, fam, X, budget=16, restarts=1, seed=3)
    exact = robust_value(_ENT, rr.p_norm_ball(1.0, 0.3), X)
    assert rv.guarantee == "lower_bound" and exact.guarantee == "exact"
    assert fam.membership(X, rv.witness)
    assert rv.value == pytest.approx(exact.value, abs=1e-9)
    # sampled falsification: a counterexample that replays, and a clean run
    v = check_property(fam, "monotone", skewed3, trials=20, seed=4)
    assert v.is_counterexample and replay_witness(fam, "monotone", v.witness)
    v = check_property(fam, "cash_invariant", skewed3, trials=20, seed=4)
    assert v.tag == "sampled_no_counterexample" and v.trials == 20


def test_solidify_needs_a_cone_test():
    """The upward closure is decided by the kind's _plus_cone. A family built
    by hand has none, and no scan of shifts can decide a non-membership, so
    solidify refuses it instead of answering from a subset of the closure."""
    with pytest.raises(ValueError, match=r"solidify needs a family kind that decides U_X \+ L\^p_\+; hand_l1"):
        solidify(_hand_built_l1_ball(0.3))


def test_hand_built_family_needs_both_callables():
    """A family built by hand has no kind methods to fall back on: a missing
    callable fails at construction and is named."""
    with pytest.raises(TypeError, match="needs a discretize callable"):
        UncertaintyFamily("h", {}, membership=lambda X, Z: True)
    with pytest.raises(TypeError, match="needs a membership callable"):
        UncertaintyFamily("h", {})


def test_copy_with_new_params_answers_with_them():
    """dataclasses.replace passes the original's bound _member and
    _discretize; the copy rebinds them, so it answers with its own params."""
    pair = rr.ProbSpace([0.5, 0.5])
    copy = dataclasses.replace(rr.p_norm_ball(2.0, 0.5), params={"p": 2.0, "eps": 0.1})
    X = Position(pair, [0.0, 0.0])
    assert not copy.membership(X, Position(pair, [0.3, 0.3]))
    assert _key(copy.discretize(X, 0.25, 16, 3)) == _key(rr.p_norm_ball(2.0, 0.1).discretize(X, 0.25, 16, 3))


def test_hand_built_support_function_meets_the_closed_form(skewed3, rng):
    """With no closed form, support_function takes the maximum of E_Q[-Z]
    over the discretized members. The hand-built candidates hold the spike
    vertices X -+ eps/p_i e_i, so the maximum is the L^1 ball's closed form
    E_Q[-X] + eps max_i q_i."""
    fam, ball = _hand_built_l1_ball(0.3), rr.p_norm_ball(1.0, 0.3)
    for _ in range(10):
        X = random_pos(skewed3, rng)
        d = np.abs(rng.normal(size=3)) + 0.1
        Q = rr.ScenarioMeasure(skewed3, d / float(np.dot(skewed3.probs, d)))
        assert fam._support_rows(prob_core._masses(Q), X) is None
        assert rr.support_function(fam, Q, X) == pytest.approx(rr.support_function(ball, Q, X), abs=1e-12)


def _entropic_clone() -> rr.RiskFunctional:
    """entropic(1) built by hand: the same flags, no closed forms, so its
    rows are evaluated one by one."""

    def evaluate(X):
        z = -X.values
        return float(z.max() + math.log(np.dot(X.space.probs, np.exp(z - z.max()))))

    return rr.RiskFunctional("entropic_clone", evaluate, rr.entropic(1.0).flags)


def _bracket_and_bisect(rho1, Z, target):
    """The level boundary step by bracket growth and bisection only."""
    if rho1(Z) >= target:
        return 0.0
    hi = 1.0
    while rho1(Z - hi) < target:
        hi *= 2.0
    return _bisect(lambda k: rho1(Z - k) < target, 0.0, hi, 200)[1]


def _q_entropic_clone() -> rr.RiskFunctional:
    """q_entropic(.5, 2) built by hand: its evaluate and flags, no _batch."""
    q = rr.q_entropic(0.5, 2.0)
    return rr.RiskFunctional("q_entropic_clone", q.evaluate, q.flags)


@pytest.mark.parametrize("rho1", [rr.entropic(1.0), rr.expected_shortfall(0.3), rr.worst_case(),
                                  rr.neg_expectation(), rr.q_entropic(0.5, 2.0), _q_entropic_clone()],
                         ids=lambda r: r.name)
def test_boundary_step_matches_bisection(rho1, skewed3, rng):
    """A cash-additive base steps to the level in closed form, where
    bisection lands; q_entropic is not cash additive, and an exit search on
    its margin lands there too, also through the row loop of a hand-built
    copy."""
    for _ in range(20):
        Z = random_pos(skewed3, rng)
        target = rho1(Z) + float(rng.uniform(-1.0, 3.0))
        k = _boundary_step(rho1, Z, target)
        assert k == pytest.approx(_bracket_and_bisect(rho1, Z, target), abs=1e-12)
        assert k == 0.0 if rho1(Z) >= target else rho1(Z - k) == pytest.approx(target, abs=1e-12)


def test_projected_ascent_over_a_row_loop_base(skewed3, monkeypatch):
    """A level set over a base evaluated row by row searches each pull-back
    on its margin through the row loop, without membership slack; the ascent
    ends on a member, at or above the grid value and, with no slack, at most
    the supremum rho(X) + eps."""
    pullbacks = []
    pullback = uncertainty._LevelFamily._pullback

    def spy(self, X, Z):
        pullbacks.append(pullback(self, X, Z))
        return pullbacks[-1]

    monkeypatch.setattr(uncertainty._LevelFamily, "_pullback", spy)
    fam = rr.level_upper_set(_entropic_clone(), 0.3)
    X = Position(skewed3, [0.4, -0.2, 0.1])
    rv = robust_value(_ENT, fam, X, solver="projected_ascent", budget=16, seed=3)
    grid = robust_value(_ENT, fam, X, solver="grid", budget=16, seed=3)
    assert pullbacks and all(t is not None for t in pullbacks)
    assert fam.membership(X, rv.witness)
    assert rv.guarantee == "lower_bound"
    assert grid.value <= rv.value <= _ENT(X) + 0.3


LEVEL_BASES = {"entropic": rr.entropic(1.0), "es": rr.expected_shortfall(0.3),
               "q_entropic": rr.q_entropic(0.5, 2.0), "entropic_clone": _entropic_clone()}


@pytest.mark.parametrize("kind", ["level_upper_set", "level_band"])
@pytest.mark.parametrize("base", LEVEL_BASES)
def test_level_candidates_are_members(base, kind):
    """Every candidate is a member, and as many candidates are members as
    when each ray was bisected (the counts below), whether the base
    evaluates its rows in one array call or one by one."""
    make = getattr(rr, kind)
    for space, x in ((rr.ProbSpace([0.5, 0.3, 0.2]), [0.4, -0.2, 0.1]),
                     (rr.ProbSpace([0.25] * 4), [1.0, -1.0, 0.5, 0.0])):
        X = Position(space, x)
        for eps in (0.25, 1.0):
            fam = make(LEVEL_BASES[base], eps)
            # the band drops the two highest upward shifts of X unless rho1
            # stays flat there
            expected = 22 if kind == "level_band" and eps == 0.25 and base != "q_entropic" else 24
            for seed in range(3):
                members = fam.discretize(X, 0.25, 24, seed)
                assert all(fam.membership(X, Z) for Z in members)
                assert len(members) == expected


def test_level_families_never_bisect(skewed3, monkeypatch):
    """Rays, boundary steps and pull-backs of a level family are exit
    searches on its margin, over a hand-built base and over q_entropic,
    which is not cash additive: no scalar bisection runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("scalar bisection")

    monkeypatch.setattr(uncertainty, "_bisect", refuse, raising=False)
    monkeypatch.setattr(robustify, "_bisect", refuse)
    X = Position(skewed3, [0.4, -0.2, 0.1])
    for base in (_entropic_clone(), rr.q_entropic(0.5, 2.0)):
        for fam in (rr.level_upper_set(base, 0.3), rr.level_band(base, 0.3)):
            for seed in range(3):
                assert len(fam.discretize(X, 0.25, 24, seed))
            rv = robust_value(_ENT, fam, X, solver="projected_ascent", budget=16, seed=3)
            assert fam.membership(X, rv.witness)


def test_solidified_family_is_certified_solid(skewed3):
    """An upward closure is solid by definition, whatever test its predicate
    runs."""
    v = check_property(solidify(rr.p_norm_ball(1.0, 0.3)), "solid", skewed3, trials=20, seed=4)
    assert v.tag == "certified_holds"


# ---------------------------------------------------------------------------
# projected ascent: pulling a point back into U_X along the segment from X

PROJECTION_KINDS = {
    **{k: KINDS[k] for k in ("sup", "p1", "p2", "w1", "level_upper_set", "level_band")},
    "w1.5": lambda: rr.wasserstein_ball(1.5, 0.3),
    "w2": lambda: rr.wasserstein_ball(2.0, 0.3),
    "winf": lambda: rr.wasserstein_ball(math.inf, 0.3),
}
W_KINDS = ("w1", "w1.5", "w2", "winf")


def _segments(rng):
    """(X, Z) pairs on a uniform and a Dirichlet space, every third pair with
    tied values in X and Z."""
    for space in (rr.ProbSpace([0.25] * 4), rr.ProbSpace([0.35, 0.3, 0.2, 0.15])):
        for k in range(12):
            X = random_pos(space, rng)
            Z = X + Position(space, rng.normal(size=space.n))
            if k % 3 == 0:
                X, Z = Position(space, np.round(X.values)), Position(space, np.round(Z.values))
            yield X, Z


def _assert_first_exit(fam, X, Z, t):
    """t is where the segment X + t (Z - X) first leaves U_X: every point of a
    200-point grid on [0, t] is a member, and t is on the boundary."""
    assert all(fam.membership(X, X + s * (Z - X)) for s in np.linspace(0.0, t, 200))
    assert fam._margin(X, X + t * (Z - X)) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("kind", PROJECTION_KINDS)
def test_projection_lands_on_the_bisection_boundary(kind, rng):
    """Each kind pulls Z back by a closed form or an array search: the point
    is a member, and a traced copy of the family projects to the same point.
    Where the segment leaves U_X once, its t agrees with the scalar bisection
    on membership; a level band's segment can leave and re-enter the band,
    and there t is the first exit."""
    fam = PROJECTION_KINDS[kind]()
    copy = _tracer().family(fam)
    outside = 0
    for X, Z in _segments(rng):
        W = _project(fam, X, Z, True)
        assert fam.membership(X, W)
        assert np.array_equal(_project(copy, X, Z, True).values, W.values)
        if fam.membership(X, Z):
            assert W is Z
            continue
        outside += 1
        if kind == "level_band":
            _assert_first_exit(fam, X, Z, fam._pullback(X, Z))
            continue
        lo, _ = _bisect(lambda t: fam.membership(X, X + t * (Z - X)), 0.0, 1.0, 60)
        assert fam._pullback(X, Z) == pytest.approx(lo, abs=1e-9)
    assert outside >= 8


def _wide_segments(rng):
    """(X, Z) pairs on 40 atoms with Z near a rearrangement of X, so that many
    of the 780 crossing times come before the segment leaves a W ball."""
    wide = rr.ProbSpace(rng.dirichlet(np.full(40, 4.0)))
    for _ in range(6):
        X = random_pos(wide, rng)
        yield X, Position(wide, X.values[rng.permutation(40)] + rng.normal(size=40))


@pytest.mark.parametrize("kind", W_KINDS)
def test_wasserstein_pullback_stays_inside_up_to_its_exit(kind, rng):
    """The pull-back of a Wasserstein ball is the first exit of the segment:
    every point of the segment before it is a member, and the distance there
    is eps."""
    fam = PROJECTION_KINDS[kind]()
    for X, Z in [*_segments(rng), *_wide_segments(rng)]:
        if fam.membership(X, Z):
            continue
        t = fam._pullback(X, Z)
        assert fam._dist(X, X + t * (Z - X)) == pytest.approx(fam.eps, abs=1e-9)
        assert all(fam._dist(X, X + s * (Z - X)) <= fam.eps + MEMBER_TOL for s in np.linspace(0.0, t, 200))


def test_w1_pullback_takes_its_exit_in_closed_form(rng, monkeypatch):
    """On a piece of the segment W1 is piecewise linear in t, so the
    pull-back interpolates the exit from one scoring of the piece's ends and
    kinks: no fan search runs, and the exit lies on the sphere."""
    monkeypatch.setattr(uncertainty, "_exit_search", lambda *a: pytest.fail("the fan search ran"))
    fam = PROJECTION_KINDS["w1"]()
    outside = 0
    for X, Z in [*_segments(rng), *_wide_segments(rng)]:
        if not fam.membership(X, Z):
            outside += 1
            t = fam._pullback(X, Z)
            assert fam._dist(X, X + t * (Z - X)) == pytest.approx(fam.eps, abs=1e-12)
    assert outside >= 8


@pytest.mark.parametrize("kind", ["level_upper_set", "level_band"])
def test_level_pullback_stays_inside_up_to_its_exit(kind, rng):
    """The pull-back of a level upper set or band is the first exit of the
    segment: every point of the segment before it is a member, and rho1 there
    is at the level."""
    fam = PROJECTION_KINDS[kind]()
    outside = 0
    for X, Z in [*_segments(rng), *_wide_segments(rng)]:
        if not fam.membership(X, Z):
            outside += 1
            _assert_first_exit(fam, X, Z, fam._pullback(X, Z))
    assert outside >= 8


def test_exit_search_takes_few_calls(rng, monkeypatch):
    """The secant fans find each exit of a W_p piece (p = 1.5, 2, inf; a W1
    piece takes its exit in closed form) and of an entropic level ray in at
    most 6 margin calls, where 60 halvings in fans of 63 points took 10."""
    calls = []

    def counted(margin, lo, hi):
        calls.append(0)

        def margin_counted(s):
            calls[-1] += 1
            return margin(s)

        return prob_core._exit_search(margin_counted, lo, hi)

    monkeypatch.setattr(uncertainty, "_exit_search", counted)
    for kind in ("w1.5", "w2", "winf"):
        fam = PROJECTION_KINDS[kind]()
        for X, Z in [*_segments(rng), *_segments(rng), *_wide_segments(rng)]:
            if not fam.membership(X, Z):
                fam._pullback(X, Z)
    pieces = len(calls)
    for space in (rr.ProbSpace([0.5, 0.3, 0.2]), rr.ProbSpace(rng.dirichlet(np.full(6, 4.0)))):
        for seed in range(3):
            rr.level_upper_set(_ENT, 0.3).discretize(random_pos(space, rng), 0.25, 24, seed)
    assert pieces >= 100 and len(calls) - pieces >= 30
    assert max(calls) <= 6


def test_band_pullback_takes_the_first_exit():
    """On [.5, .5], entropic(1) of t (3, -1) is log(e^-3t + e^t) - log 2:
    convex, lowest at t = ln(3)/4, where it is -.1308. The segment from
    X = (0, 0) to Z = (3, -1) leaves the band of radius .1 below that dip,
    re-enters above it and leaves again near t = .74. The pull-back stops at
    the first exit, before the dip."""
    space = rr.ProbSpace([0.5, 0.5])
    X, Z = Position(space, [0.0, 0.0]), Position(space, [3.0, -1.0])
    fam = rr.level_band(_ENT, 0.1)
    t = fam._pullback(X, Z)
    assert t < math.log(3.0) / 4.0
    _assert_first_exit(fam, X, Z, t)
    assert np.array_equal(_project(fam, X, Z, True).values, (X + t * (Z - X)).values)


@pytest.mark.parametrize("kind", W_KINDS)
def test_wasserstein_pullback_skips_only_crossings_inside(kind, rng, monkeypatch):
    """The crossing times that the Lipschitz bound keeps inside the ball go
    unscored, and scoring every one of them gives the same bits. The bound is
    the one 1-D norm call of the pull-back; an infinite one skips nothing."""
    fam = PROJECTION_KINDS[kind]()
    segments = [(X, Z) for X, Z in [*_segments(rng), *_wide_segments(rng)] if not fam.membership(X, Z)]
    skipping = [fam._pullback(X, Z) for X, Z in segments]
    norm = uncertainty._lp_rows
    monkeypatch.setattr(uncertainty, "_lp_rows", lambda V, probs, p: math.inf if V.ndim == 1 else norm(V, probs, p))
    assert [fam._pullback(X, Z) for X, Z in segments] == skipping


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_wasserstein_pullback_takes_the_first_exit(p):
    """X + t (Z - X) = (2t, 1 - 2t) leaves the W_p ball of radius .1 at
    t = .05, is back at t = .5, where it has the law of X, and leaves again
    at t = .55: the pull-back stops at the first exit."""
    space = rr.ProbSpace([0.5, 0.5])
    X, Z = Position(space, [0.0, 1.0]), Position(space, [2.0, -1.0])
    fam = rr.wasserstein_ball(p, 0.1)
    assert fam._pullback(X, Z) == pytest.approx(0.05, abs=1e-12)
    assert np.allclose(_project(fam, X, Z, True).values, [0.1, 0.9], rtol=0.0, atol=1e-12)


def test_projection_confirms_the_kind_point(skewed3, rng):
    """A predicate replaced by a stricter one rejects the kind's point, and
    the scalar bisection on the replaced predicate decides instead."""
    fam = rr.p_norm_ball(2.0, 0.3)
    strict = dataclasses.replace(fam, membership=lambda X, Z: fam._dist(X, Z) <= 0.15)
    for _ in range(10):
        X = random_pos(skewed3, rng)
        Z = X + Position(skewed3, rng.normal(size=3))
        W = _project(strict, X, Z, True)
        assert strict.membership(X, W) and fam._dist(X, W) == pytest.approx(min(0.15, fam._dist(X, Z)), abs=1e-9)


def test_hand_built_family_projects_by_scalar_bisection(skewed3, rng):
    """A family built by hand has no kind search: the bisection on its
    predicate gives the point, bit for bit."""
    fam = _hand_built_l1_ball(0.3)
    for _ in range(10):
        X = random_pos(skewed3, rng)
        Z = X + Position(skewed3, 2.0 * rng.normal(size=3))
        assert fam._pullback(X, Z) is None
        lo, _ = _bisect(lambda t: fam.membership(X, X + t * (Z - X)), 0.0, 1.0, 60)
        assert np.array_equal(_project(fam, X, Z, True).values, (X + lo * (Z - X)).values)
        assert _project(fam, X, Z, False) is None


# ---------------------------------------------------------------------------
# Wasserstein-ball closed forms


def _cone_cases(space, fam, rng, tries=120):
    """Pairs (X, Z) with Z in U_X + L^p_+ but not in U_X."""
    for _ in range(tries):
        X = random_pos(space, rng)
        Z = X + Position(space, rng.normal(size=space.n))
        if not fam.membership(X, Z) and fam._plus_cone(X, Z):
            yield X, Z


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["W1", "W2", "Winf"])
def test_wasserstein_dominated_member(p, skewed3, rng):
    """Above the ball, cone_witness lowers Z to the dominated quantile
    envelope: always a member on uniform spaces, a verified candidate on
    others."""
    fam = rr.wasserstein_ball(p, 0.5)
    for n in (3, 4):
        cases = list(_cone_cases(rr.ProbSpace([1.0 / n] * n), fam, rng))
        assert cases
        for X, Z in cases:
            W = cone_witness(fam, X, Z)
            assert W is not None and fam.membership(X, W) and np.all(W.values <= Z.values), (n, X.values, Z.values)
    cases = list(_cone_cases(skewed3, fam, rng))
    returned = [(X, Z, W) for X, Z in cases if (W := cone_witness(fam, X, Z)) is not None]
    assert len(returned) >= len(cases) // 2
    for X, Z, W in returned:
        assert fam.membership(X, W) and np.all(W.values <= Z.values)


def test_wasserstein_cone_witness_takes_two_merges(rng, monkeypatch):
    """A W1 placement outside U_X merges quantiles twice: membership of Z
    and of its dominated member. Whether Z lies in U_X + L^p_+ is not asked
    apart, since only there can the dominated member be a member."""
    fam = rr.wasserstein_ball(1.0, 0.5)
    X, Z = next(_cone_cases(rr.ProbSpace([1 / 3] * 3), fam, rng))
    calls, merge = [], prob_core._merged_rows
    for module in (prob_core, uncertainty):
        monkeypatch.setattr(module, "_merged_rows", lambda *a: calls.append(1) or merge(*a))
    W = cone_witness(fam, X, Z)
    assert len(calls) == 2
    assert W is not None and fam.membership(X, W) and np.all(W.values <= Z.values)


def test_winf_ball_worst_case_is_the_downward_shift(skewed3, uniform4, rng):
    """Over a W_inf ball a monotone law-invariant measure peaks at X - eps,
    and a search finds nothing higher (run for the two nonlinear measures on
    three atoms, where it costs least)."""
    fam = rr.wasserstein_ball(math.inf, 0.3)
    for k, rho in enumerate((rr.entropic(1.0), rr.expected_shortfall(0.5), rr.worst_case(), rr.neg_expectation())):
        for space in (skewed3, uniform4):
            X = random_pos(space, rng)
            rv = robust_value(rho, fam, X)
            assert (rv.solver, rv.guarantee) == ("analytic", "exact")
            assert rv.value == rho(X - 0.3)
            if space is skewed3 and k < 2:
                searched = robust_value(rho, fam, X, solver="projected_ascent", seed=2)
                assert searched.value <= rv.value + 1e-12, rho.name


def test_wasserstein_support_penalty(uniform4):
    """The support functional's penalty is -eps ||dQ/dP||_q* at the
    rearrangements of Q and +inf at every other measure; over a norm ball
    it is finite at Q alone. Rows of Q-masses are scored in aligned pairs,
    the first three of which share their Qt."""
    densities = ([1.6, 0.4, 1.2, 0.8], [0.4, 1.2, 0.8, 1.6], [1.5, 0.5, 1.2, 0.8])
    Q, shuffled, other = (0.25 * np.array(d) for d in densities)
    W, Wt = np.array([Q, shuffled, other, Q]), np.array([Q, Q, Q, shuffled])
    pen = rr.wasserstein_ball(1.0, 0.2)._support_penalty_rows(W, Wt, uniform4)
    assert pen[[0, 1, 3]] == pytest.approx([-0.2 * 1.6] * 3, abs=1e-15) and pen[2] == math.inf
    l2 = -0.2 * math.sqrt(np.mean(np.array(densities[0]) ** 2))
    pen = rr.wasserstein_ball(2.0, 0.2)._support_penalty_rows(W, Wt, uniform4)
    assert pen[[0, 1, 3]] == pytest.approx([l2] * 3, abs=1e-15) and pen[2] == math.inf
    pen = rr.p_norm_ball(2.0, 0.2)._support_penalty_rows(W, Wt, uniform4)
    assert pen[0] == pytest.approx(l2, abs=1e-15) and pen[1:].tolist() == [math.inf] * 3
    assert rr.level_band(rr.entropic(1.0), 0.2)._support_penalty_rows(W, Wt, uniform4) is None


# ---------------------------------------------------------------------------
# candidate rows and their membership in one call


def _entropic_row_loop():
    """entropic(1) built by hand: its batch form is the generic row loop."""
    return rr.RiskFunctional(name="entropic_row_loop", evaluate=_ENT.evaluate, flags=_ENT.flags)


ROW_KINDS = {
    "sup": lambda eps: rr.sup_norm_ball(eps),
    "p1": lambda eps: rr.p_norm_ball(1.0, eps),
    "p2": lambda eps: rr.p_norm_ball(2.0, eps),
    "p3": lambda eps: rr.p_norm_ball(3.0, eps),
    "w1": lambda eps: rr.wasserstein_ball(1.0, eps),
    "w2": lambda eps: rr.wasserstein_ball(2.0, eps),
    "winf": lambda eps: rr.wasserstein_ball(math.inf, eps),
    "upper_entropic": lambda eps: rr.level_upper_set(_ENT, eps),
    "upper_es": lambda eps: rr.level_upper_set(rr.expected_shortfall(0.3), eps),
    "upper_q_entropic": lambda eps: rr.level_upper_set(rr.q_entropic(0.5, 2.0), eps),
    "upper_row_loop": lambda eps: rr.level_upper_set(_entropic_row_loop(), eps),
    "band_entropic": lambda eps: rr.level_band(_ENT, eps),
    "band_es": lambda eps: rr.level_band(rr.expected_shortfall(0.3), eps),
    "band_row_loop": lambda eps: rr.level_band(_entropic_row_loop(), eps),
}


@pytest.mark.parametrize("kind", ROW_KINDS)
def test_member_rows_match_membership(kind):
    """On the kind's own candidates, with the boundary rows X - eps and
    X + eps among them, the one-call ``_member_rows`` answers as
    ``membership`` does row by row, and ``discretize`` keeps exactly the rows
    it accepts, in order."""
    for probs in ([0.5, 0.5], [0.5, 0.3, 0.2], [0.25] * 4):
        space = rr.ProbSpace(probs)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = Position(space, rng.normal(0.0, 2.0, size=space.n))
            for eps in (0.0, 0.3, 1.0):
                fam = ROW_KINDS[kind](eps)
                rows = fam._candidates(X, 0.25, 24, np.random.default_rng(seed))
                assert rows.shape[1] == space.n
                rows = np.vstack((rows, X.values - eps, X.values + eps))
                got = fam._member_rows(X, rows)
                want = [fam.membership(X, Position(space, row)) for row in rows]
                assert got.dtype == bool and got.tolist() == want, (kind, probs, eps)
                kept = [Z.values.tobytes() for Z in fam.discretize(X, 0.25, 24, seed)]
                assert kept == [row.tobytes() for row in rows[:-2][got[:-2]]]


BALLS = {
    "W1": lambda: rr.wasserstein_ball(1.0, 0.3),
    "W2": lambda: rr.wasserstein_ball(2.0, 0.3),
    "Winf": lambda: rr.wasserstein_ball(math.inf, 0.3),
    "L1": lambda: rr.p_norm_ball(1.0, 0.3),
    "L1.5": lambda: rr.p_norm_ball(1.5, 0.3),
    "L2": lambda: rr.p_norm_ball(2.0, 0.3),
    "Linf": lambda: rr.sup_norm_ball(0.3),
}


@pytest.mark.parametrize("kind", BALLS)
def test_wasserstein_membership_is_the_one_row_call(kind, rng):
    """Scalar distance and membership of a W_p or L^p(P) ball are the
    one-row call of its row form: the same bits, also on tied rows and on
    the boundary rows that ``_pullback`` places at distance eps, where a
    last-bit difference would flip the answer. X's quantiles are computed
    once and kept."""
    fam = BALLS[kind]()
    for probs in ([0.25] * 4, [0.5, 0.3, 0.2], rng.dirichlet(np.full(6, 4.0))):
        space = rr.ProbSpace(probs / np.sum(probs))
        for k in range(12):
            X = random_pos(space, rng)
            rows = X.values + rng.normal(size=(8, space.n))
            if k % 3 == 0:
                X, rows = Position(space, np.round(X.values)), np.round(rows)
            outside = [row for row in rows if not fam.membership(X, Position(space, row))]
            ts = [fam._pullback(X, Position(space, row)) for row in outside]
            rows = np.vstack([rows, *(X.values + t * (row - X.values) for t, row in zip(ts, outside))])
            scalar = [fam._dist(X, Position(space, row)) for row in rows]
            assert np.array(scalar).tobytes() == fam._dist_rows(X, rows).tobytes()
            assert fam._member_rows(X, rows).tolist() == [fam.membership(X, Position(space, row)) for row in rows]
            assert rr.quantile_function(X) is rr.quantile_function(X)


def test_replaced_membership_filters_row_by_row(skewed3):
    """A copy whose membership is not its kind's own predicate keeps the
    kind's candidates but tests them through that membership, one call per
    row; a family built by hand has only the row loop."""
    fam = rr.p_norm_ball(2.0, 0.5)
    X = Position(skewed3, [0.4, -0.2, 0.1])
    calls = []

    def lower_half(X, Z):
        calls.append(Z)
        return fam.membership(X, Z) and Z.values[0] <= X.values[0]

    copy = dataclasses.replace(fam, membership=lower_half)
    members = copy.discretize(X, 0.25, 16, 3)
    rows = fam._candidates(X, 0.25, 16, np.random.default_rng(3))
    assert len(calls) == len(rows)
    assert _key(members) == _key([Z for Z in fam.discretize(X, 0.25, 16, 3) if Z.values[0] <= X.values[0]])
    assert members and len(members) < len(fam.discretize(X, 0.25, 16, 3))

    hand = _hand_built_l1_ball(0.3)
    calls.clear()
    counted = dataclasses.replace(hand, membership=lambda X, Z: calls.append(Z) or hand.membership(X, Z))
    got = counted._member_rows(X, rows)
    assert len(calls) == len(rows)
    assert got.tolist() == [hand.membership(X, Position(skewed3, row)) for row in rows]


def test_candidates_must_be_finite(skewed3):
    """A non-finite candidate row fails fast, as a non-finite Position does."""
    fam = rr.p_norm_ball(2.0, 1e308)
    X = Position(skewed3, [1e308, -0.2, 0.1])  # X + eps overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="position values must be finite"):
        fam.discretize(X, 0.25, 16, 0)


@pytest.mark.parametrize("probs", [[0.5, 0.5], [0.5, 0.3, 0.2]], ids=["n2", "n3"])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["W1", "W2", "Winf"])
@pytest.mark.parametrize("eps", [0.0, 0.3, 5.0])
def test_wasserstein_c_quasi_convexity_rule(probs, p, eps):
    """The two-sided spread witness refutes c-quasi-convexity of every W_p
    ball, and the refutation replays. At eps = 5 the sampled check it
    replaces found none in 40 trials at seed 0 for W2 on [.5, .5] and for W1
    on [.5, .3, .2]."""
    space = rr.ProbSpace(probs)
    fam = rr.wasserstein_ball(p, eps)
    v = check_property(fam, "c_quasi_convex", space)
    assert v.is_counterexample and v.note == "two-sided spread witness"
    assert replay_witness(fam, "c_quasi_convex", v.witness)
    assert _key(v) == _key(fam._rule("c_quasi_convex", space))


# ---------------------------------------------------------------------------
# continuity from above, decided on rows


_ES = rr.expected_shortfall(0.5)
ABOVE_KINDS = {
    "p1": lambda: rr.p_norm_ball(1.0, 0.3),
    "p2": lambda: rr.p_norm_ball(2.0, 0.3),
    "sup": lambda: rr.sup_norm_ball(0.3),
    "w1": lambda: rr.wasserstein_ball(1.0, 0.3),
    "w2": lambda: rr.wasserstein_ball(2.0, 0.3),
    "upper_entropic": lambda: rr.level_upper_set(_ENT, 0.3),
    "band_entropic": lambda: rr.level_band(_ENT, 0.3),
    "upper_es": lambda: rr.level_upper_set(_ES, 0.3),
    "band_es": lambda: rr.level_band(_ES, 0.3),
}


@pytest.mark.parametrize("kind", ABOVE_KINDS)
def test_continuity_rows_agree_with_the_scalar_path(kind):
    """A kind decides a trial's candidates by one membership array per chain
    point; a copy whose membership wraps the kind's predicate tests them one
    at a time. Both give the same verdict, trial count, note and witness."""
    fam = ABOVE_KINDS[kind]()
    scalar = dataclasses.replace(fam, membership=lambda X, Z: fam._member(X, Z))
    assert uncertainty._own_rows(fam) and not uncertainty._own_rows(scalar)
    for probs in ([0.5, 0.5], [0.5, 0.3, 0.2], [0.25] * 4):
        space = rr.ProbSpace(probs)
        for seed in range(12):
            got = check_property(fam, "continuous_from_above", space, trials=20, seed=seed)
            want = check_property(scalar, "continuous_from_above", space, trials=20, seed=seed)
            assert _key(got) == _key(want), (kind, probs, seed)


@pytest.mark.parametrize("kind", ABOVE_KINDS)
def test_continuity_row_decisions_match_one_candidate_at_a_time(kind):
    """Candidate by candidate, the row decisions are those of the scalar path,
    and the membership grid is the scalar predicate at each chain point. The
    candidates are members of U_X and of sets along the chain, so some enter
    the chain late, some early and some never; X - 3 lies in none."""
    fam = ABOVE_KINDS[kind]()
    scalar = dataclasses.replace(fam, membership=lambda X, Z: fam._member(X, Z))
    for probs in ([0.5, 0.5], [0.5, 0.3, 0.2], [0.25] * 4):
        space = rr.ProbSpace(probs)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            X = random_pos(space, rng)
            Delta = Position(space, np.abs(rng.normal(size=space.n)))
            chain = [X + 0.5**k * Delta for k in range(11, 0, -1)]
            Zs = [Z for C in (X, chain[-1], chain[-2], chain[-4]) for Z in fam.discretize(C, 0.25, 12, seed)]
            Zs.append(X - 3.0)
            got = list(uncertainty._above(fam, X, Delta, Zs))
            assert got == list(uncertainty._above(scalar, X, Delta, Zs)), (kind, probs, seed)
            assert False in got and None in got, got
            inside = fam._member_grid([*chain, X], np.array([Z.values for Z in Zs]))
            assert inside.tolist() == [[fam._member(C, Z) for Z in Zs] for C in [*chain, X]]


@pytest.mark.parametrize("build, pinned", [
    (lambda: solidify(rr.p_norm_ball(2.0, 0.3)), 1480),
    (lambda: _hand_built_l1_ball(0.3), 1395),
], ids=["solidified", "hand_built"])
def test_continuity_scalar_path_keeps_its_call_count(build, pinned, skewed3, monkeypatch):
    """A family without its own array membership tests each candidate from
    the end of the chain and stops at the first set it enters: the counts of
    membership calls are those of the candidate-at-a-time check."""
    fam, calls = build(), []
    if isinstance(fam, uncertainty._Solidified):
        # the solidified family's own membership is its base's cone test
        cone = uncertainty._NormBall._plus_cone
        monkeypatch.setattr(uncertainty._NormBall, "_plus_cone", lambda *a: calls.append(1) or cone(*a))
    else:
        member = fam.membership
        fam = dataclasses.replace(fam, membership=lambda X, Z: calls.append(1) or member(X, Z))
    assert not uncertainty._own_rows(fam)
    v = check_property(fam, "continuous_from_above", skewed3, trials=20, seed=0)
    assert (v.tag, v.trials, v.note) == ("sampled_no_counterexample", 20, "")
    assert len(calls) == pinned


class _JumpBall(uncertainty._NormBall):
    """A sup ball whose set at X = 0 holds every position: U_X jumps at 0, so
    a decreasing chain down to 0 never lets a far member in."""

    def _member(self, X, Z):
        return not X.values.any() or super()._member(X, Z)

    def _member_rows(self, X, rows):
        return super()._member_rows(X, rows) | (not X.values.any())

    _member_grid = UncertaintyFamily._member_grid


def test_continuity_witness_built_by_hand_replays(skewed3):
    """replay_witness re-derives a violation built by hand through the same
    decision as sampling, on rows and on the scalar path alike; a witness
    whose member enters the chain, or whose Delta is not nonnegative, is
    none."""
    jump = _JumpBall(name="jump", params={"p": math.inf, "eps": 0.3})
    scalar = dataclasses.replace(jump, membership=lambda X, Z: jump._member(X, Z))
    assert uncertainty._own_rows(jump) and not uncertainty._own_rows(scalar)
    zero = Position(skewed3, np.zeros(3))
    w = {"X": zero, "Delta": Position(skewed3, [1.0, 0.5, 2.0]), "Z": Position(skewed3, [-1.0, -1.0, -1.0])}
    near = dict(w, Z=Position(skewed3, [0.1, -0.2, 0.0]))
    late = dict(w, Z=0.5 * w["Delta"])  # enters the chain's first set only
    down = dict(w, Delta=Position(skewed3, [1.0, -0.5, 2.0]))
    for fam in (jump, scalar):
        assert replay_witness(fam, "continuous_from_above", w)
        assert not replay_witness(fam, "continuous_from_above", near)
        assert not replay_witness(fam, "continuous_from_above", late)
        assert not replay_witness(fam, "continuous_from_above", down)
    # a member on the boundary of a ball never enters the chain either, but
    # its margin halves along the chain: not a violation
    edge = dict(w, Z=Position(skewed3, [-0.3, -0.3, -0.3]))
    assert not replay_witness(rr.sup_norm_ball(0.3), "continuous_from_above", edge)
