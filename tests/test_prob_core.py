"""Finite probability spaces, positions, scenario measures, quantiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustrisk import (
    Position,
    ProbSpace,
    ScenarioMeasure,
    density_norm,
    expectation,
    expectation_under,
    quantile_function,
    relative_entropy,
    same_distribution,
    wasserstein_distance,
)
from robustrisk.prob_core import _SLIVER, _bisect, _exit_search, _merged_rows, _same_law_rows, _wasserstein_rows

from conftest import random_pos


def test_space_validation():
    with pytest.raises(ValueError):
        ProbSpace([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbSpace([1.0, 0.0])  # null atoms rejected
    with pytest.raises(ValueError):
        ProbSpace([])
    for bad in ([math.nan, 0.5], [math.inf, 0.5]):
        with pytest.raises(ValueError):
            ProbSpace(bad)


def test_position_arithmetic(uniform4):
    X = Position(uniform4, [1.0, 2.0, 3.0, 4.0])
    Y = Position(uniform4, [0.5, 0.5, 0.5, 0.5])
    assert np.allclose((X + Y).values, [1.5, 2.5, 3.5, 4.5])
    assert np.allclose((X - 1.0).values, [0.0, 1.0, 2.0, 3.0])
    assert np.allclose((2.0 * X).values, (X * 2.0).values)
    assert np.allclose((-X).values, -X.values)


def test_objects_own_their_values():
    """A Position, a ProbSpace and a ScenarioMeasure keep copies of the
    arrays they are given: a later write to the caller's array does not
    reach them, and the caller's array stays writeable."""
    b = np.arange(4.0)
    space = ProbSpace(np.full(3, 1.0 / 3.0))
    P = Position(space, b[:3])
    b[0] = 9.0
    assert P.values.tolist() == [0.0, 1.0, 2.0] and not P.values.flags.writeable
    probs, density = np.array([0.5, 0.5]), np.array([1.5, 0.5])
    S = ProbSpace(probs)
    Q = ScenarioMeasure(S, density)
    key = hash(S)
    probs[0], density[0] = 0.25, 0.5
    assert S.probs.tolist() == [0.5, 0.5] and hash(S) == key
    assert Q.density.tolist() == [1.5, 0.5]


def test_operands_on_different_spaces_rejected():
    """Spaces whose masses differ by 4e-6 are different spaces: the mass
    comparison has an absolute tolerance only, no relative one."""
    X = Position(ProbSpace([0.5, 0.5]), [1.0, 2.0])
    Y = Position(ProbSpace([0.500004, 0.499996]), [1.0, 2.0])
    assert (X + Position(ProbSpace([0.5, 0.5]), [1.0, 1.0])).values.tolist() == [2.0, 3.0]
    for mix in (lambda: X + Y, lambda: X - Y, lambda: expectation_under(ScenarioMeasure.reference(Y.space), X)):
        with pytest.raises(ValueError, match="different probability spaces"):
            mix()


def test_scenario_measure_normalization(skewed3):
    Q = ScenarioMeasure(skewed3, [1.0, 1.0, 1.0])
    assert expectation_under(Q, Position(skewed3, [1.0, 1.0, 1.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ScenarioMeasure(skewed3, [2.0, 1.0, 1.0])  # does not integrate to one
    with pytest.raises(ValueError):
        ScenarioMeasure(skewed3, [-0.1, 1.3, 1.3])
    for bad in ([math.nan, 1.0, 1.0], [math.inf, 1.0, 1.0]):
        with pytest.raises(ValueError):
            ScenarioMeasure(skewed3, bad)


def test_expectation_matches_weighted_sum(skewed3):
    X = Position(skewed3, [1.0, -2.0, 4.0])
    assert expectation(X) == pytest.approx(0.5 - 0.6 + 0.8)


def test_reference_measure(uniform4):
    P = ScenarioMeasure.reference(uniform4)
    assert np.allclose(P.density, 1.0)
    assert relative_entropy(P) == pytest.approx(0.0, abs=1e-15)


def test_quantile_function_steps(skewed3):
    X = Position(skewed3, [3.0, 1.0, 2.0])
    q = quantile_function(X)
    # sorted values 1 (mass .3), 2 (mass .2), 3 (mass .5)
    assert q.values.tolist() == [1.0, 2.0, 3.0]
    assert q.cum == pytest.approx([0.3, 0.5, 1.0], abs=1e-15)
    assert q.cum[-1] == 1.0


def test_wasserstein_shift_identity(uniform4, rng):
    for _ in range(20):
        X = random_pos(uniform4, rng)
        c = float(rng.uniform(0.1, 2.0))
        for p in (1.0, 2.0, math.inf):
            assert wasserstein_distance(X, X - c, p) == pytest.approx(c, abs=1e-12)
            assert wasserstein_distance(X, X, p) == pytest.approx(0.0, abs=1e-12)


def test_wasserstein_is_distributional(uniform4):
    X = Position(uniform4, [1.0, 2.0, 3.0, 4.0])
    Xp = Position(uniform4, [4.0, 3.0, 2.0, 1.0])  # same law
    assert wasserstein_distance(X, Xp, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert same_distribution(X, Xp)


def test_wasserstein_one_explicit(uniform4):
    X = Position(uniform4, [0.0, 0.0, 0.0, 0.0])
    Y = Position(uniform4, [0.0, 0.0, 0.0, 2.0])
    # one atom of mass 1/4 moved by 2
    assert wasserstein_distance(X, Y, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert wasserstein_distance(X, Y, math.inf) == pytest.approx(2.0, abs=1e-12)


def test_relative_entropy_closed_form(skewed3):
    d = np.array([1.2, 0.9, 0.65])
    w = skewed3.probs * d
    d = d / w.sum()
    Q = ScenarioMeasure(skewed3, d)
    expected = float(np.sum(skewed3.probs * d * np.log(d)))
    assert relative_entropy(Q) == pytest.approx(expected, abs=1e-12)
    assert relative_entropy(Q) >= 0.0


def test_density_norms(skewed3):
    Q = ScenarioMeasure(skewed3, [1.4, 0.8, 0.3])
    assert density_norm(Q, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert density_norm(Q, math.inf) == pytest.approx(1.4, abs=1e-12)
    two = (0.5 * 1.4**2 + 0.3 * 0.8**2 + 0.2 * 0.3**2) ** 0.5
    assert density_norm(Q, 2.0) == pytest.approx(two, abs=1e-12)


@given(vals=st.lists(st.floats(-50, 50), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_wasserstein_triangle(vals):
    sp = ProbSpace([0.5, 0.3, 0.2])
    X = Position(sp, vals)
    Y = Position(sp, [0.0, 1.0, -1.0])
    Z = Position(sp, [2.0, -2.0, 0.5])
    dxz = wasserstein_distance(X, Z, 1.0)
    assert dxz <= wasserstein_distance(X, Y, 1.0) + wasserstein_distance(Y, Z, 1.0) + 1e-9


@given(
    vals=st.lists(st.floats(-20, 20), min_size=4, max_size=4),
    p=st.sampled_from([1.0, 2.0, 3.0]),
)
@settings(max_examples=100, deadline=None)
def test_wasserstein_order_monotone(vals, p):
    """Quantile-integral distances grow with the order p (probability space)."""
    sp = ProbSpace([0.25] * 4)
    X = Position(sp, vals)
    Y = Position(sp, [0.0, 0.0, 1.0, -1.0])
    assert wasserstein_distance(X, Y, p) <= wasserstein_distance(X, Y, math.inf) + 1e-9


def test_same_distribution_tolerance(uniform4):
    X = Position(uniform4, [1.0, 2.0, 3.0, 4.0])
    Y = Position(uniform4, [1.0 + 1e-14, 4.0, 3.0, 2.0])
    assert same_distribution(X, Y, tol=1e-9)
    assert not same_distribution(X, X + 0.5)


def test_same_law_rows_match_same_distribution():
    """The law test of many rows gives, row for row, the one-row call that
    ``same_distribution`` makes and the masked comparison on one merge. The
    rows rearrange X, whose values tie, move atoms by about tol, and sit on
    masses whose cumulative sums differ by summation order."""
    rng = np.random.default_rng(17)
    for probs in ([0.1, 0.2, 0.3, 0.4], [0.25] * 4, [0.1, 0.2, 0.4, 0.2, 0.1]):
        sp = ProbSpace(probs)
        X = Position(sp, rng.choice([-1.0, 0.0, 2.0], size=sp.n))
        qx = quantile_function(X)
        rows = np.array([X.values[rng.permutation(sp.n)] for _ in range(60)])
        rows[::3] += rng.choice([0.0, 5e-10, 2e-9], size=(20, sp.n))
        rows[1::7] = rng.choice([-1.0, 0.0, 2.0], size=(9, sp.n))
        for tol in (1e-12, 1e-9):
            batch = _same_law_rows(qx, rows, sp.probs, tol)
            for row, got in zip(rows, batch):
                Y = Position(sp, row)
                widths, ix, atom = _merged_rows(qx, row[None, :], sp.probs)
                masked = np.all(np.abs(qx.values[ix] - row[atom])[widths > _SLIVER] <= tol)
                one = _same_law_rows(qx, row[None, :], sp.probs, tol)[0]
                assert got == same_distribution(X, Y, tol) == masked == one
            assert batch.any() and not batch.all()


def test_tie_slivers_do_not_separate_laws():
    """Cumulative masses summed in two orders (0.7 against
    0.7000000000000001) leave a merged interval of width ~1e-16. The sup at
    p = inf and the law comparison skip it; an atom of mass 1e-9 still counts."""
    sp = ProbSpace([0.1, 0.2, 0.3, 0.4])
    X, Y = Position(sp, [1.0, 1.0, 0.0, 0.0]), Position(sp, [0.0, 0.0, 1.0, 0.0])
    assert same_distribution(X, Y)
    assert wasserstein_distance(X, Y, math.inf) == 0.0
    assert wasserstein_distance(X, Y, 1.0) < 1e-15
    X, Y = Position(sp, [0.0, 0.0, 0.0, 1.0]), Position(sp, [0.0, 1.0, 1.0, 2.0])
    assert wasserstein_distance(X, Y, math.inf) == 1.0
    assert _wasserstein_rows(quantile_function(X), Y.values[None, :], sp.probs, math.inf)[0] == 1.0
    tiny = ProbSpace([1e-9, 1.0 - 1e-9])
    X, Y = Position(tiny, [5.0, 0.0]), Position(tiny, [0.0, 0.0])
    assert not same_distribution(X, Y)
    assert wasserstein_distance(X, Y, math.inf) == 5.0


def _counted(margin):
    """``margin`` and a list that counts its calls."""
    calls = []

    def counted(s):
        calls.append(s.size)
        return margin(s)

    return counted, calls


def _search(margin, lo, hi):
    """``_exit_search`` on ``margin``, checked against its contract and its
    bound of 20 margin calls: lo holds or is the given lo, hi fails or is the
    given hi."""
    counted, calls = _counted(margin)
    a, b = _exit_search(counted, lo, hi)
    assert lo <= a < b <= hi
    assert a == lo or margin(np.array([a]))[0] <= 0.0
    assert b == hi or not margin(np.array([b]))[0] <= 0.0
    assert len(calls) <= 20 and calls[0] == 65 and max(calls[1:], default=0) <= 63
    return a, b


def _monotone_margins(t):
    """Margins that change sign once, at t: a step, and smooth convex ones."""
    return {
        "step": lambda s: s - t,
        "square": lambda s: s * s - t * t,
        "exp": lambda s: np.expm1(3.0 * s) - np.expm1(3.0 * t),
    }


def test_exit_search_brackets_the_scalar_boundary(rng):
    """On margins that change sign once the search ends where bisection on
    the same decisions does, within 2 ulps."""
    for hi in (1.0, 0.3, 8.0):
        for t in [0.0, 0.5 * hi, hi, *rng.uniform(0.0, hi, 20)]:
            for margin in _monotone_margins(t).values():
                lo_s, _ = _bisect(lambda s: margin(np.array([s]))[0] <= 0.0, 0.0, hi, 60)
                lo, _ = _search(margin, 0.0, hi)
                assert abs(lo - lo_s) <= 2 * np.spacing(t)


@pytest.mark.parametrize("k", [2, 3, 16, 64])
def test_array_bisection_brackets_the_scalar_boundary(k, rng):
    """The array search ``_exit_search`` on the margin s**k - t**k, flat
    below t and steep above it the more so as k grows, so its secant points
    land ever further from the exit: it still ends where bisection on the
    same decisions does, within 2 ulps, and lo holds."""
    for hi in (1.0, 0.3, 8.0):
        for t in [0.5 * hi, hi, *rng.uniform(0.1 * hi, hi, 20)]:
            def margin(s):
                return s**k - t**k

            lo_s, _ = _bisect(lambda s: margin(np.array([s]))[0] <= 0.0, 0.0, hi, 60)
            lo, hi_a = _search(margin, 0.0, hi)
            assert abs(lo - lo_s) <= 2 * np.spacing(t)
            assert lo <= t * (1 + 1e-15) and hi_a >= t * (1 - 1e-15)


@pytest.mark.parametrize("gaps", [2, 4, 64])
def test_array_bisection_takes_the_scalar_halvings(gaps):
    """Where the predicate holds on [0, .7) but for ``gaps`` gaps of width
    1e-9 below .5 that no point of the first fan and no halving hits, the
    array search ``_exit_search`` ends where the scalar halvings do, at .7."""
    centres = (np.arange(gaps) + 1.0 / 3.0) * 0.5 / gaps

    def margin(s):
        in_gap = (np.abs(s[:, None] - centres) < 5e-10).any(axis=1)
        return np.where((s < 0.7) & ~in_gap, -1.0, 1.0)

    lo_s, hi_s = _bisect(lambda s: margin(np.array([s]))[0] <= 0.0, 0.0, 1.0, 60)
    lo, hi = _search(margin, 0.0, 1.0)
    assert lo_s == pytest.approx(0.7, abs=1e-15)
    assert lo_s <= lo < hi <= hi_s
    assert (lo, hi) == (np.nextafter(0.7, 0.0), 0.7)


def test_exit_search_decides_nan_and_infinities():
    """A NaN or +inf margin fails and a -inf one holds."""
    holds = lambda s: s <= 0.4  # noqa: E731
    for inside, outside in ((-1.0, np.nan), (-1.0, np.inf), (-np.inf, 1.0), (-np.inf, np.nan)):
        lo, hi = _search(lambda s: np.where(holds(s), inside, outside), 0.0, 1.0)
        assert lo == 0.4 and hi == np.nextafter(0.4, 1.0)


def test_exit_search_keeps_the_given_ends():
    """Nothing holds: the given lo comes back. Everything holds: the given
    hi comes back."""
    lo, hi = _search(lambda s: np.ones(s.size), 0.25, 1.0)
    assert lo == 0.25 and hi == np.nextafter(0.25, 1.0)
    lo, hi = _search(lambda s: -np.ones(s.size), 0.25, 1.0)
    assert hi == 1.0 and lo == np.nextafter(1.0, 0.0)


def test_exit_search_takes_the_first_exit_its_fans_see():
    """Where the predicate holds on [0, .2) and (.45, .7), the search exits
    just below .2, where the first fan sees it fail; bisection on the same
    decisions goes past the gap and ends at .7."""
    def margin(s):
        return np.where((s < 0.2) | ((s > 0.45) & (s < 0.7)), -1.0, 1.0)

    lo, hi = _search(margin, 0.0, 1.0)
    assert (lo, hi) == (np.nextafter(0.2, 0.0), 0.2)
    assert _bisect(lambda s: margin(np.array([s]))[0] <= 0.0, 0.0, 1.0, 60)[0] == pytest.approx(0.7, abs=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_wasserstein_rows_match_the_scalar_distance(p, rng):
    """The batched W_p distance agrees row by row with wasserstein_distance,
    on uniform and Dirichlet spaces, with tied values among the rows and X."""
    for probs in ([0.25] * 4, [0.5, 0.3, 0.2], rng.dirichlet(np.full(6, 4.0))):
        space = ProbSpace(probs / np.sum(probs))
        for tied in (False, True):
            for _ in range(5):
                X = random_pos(space, rng)
                rows = X.values + rng.normal(size=(16, space.n))
                if tied:
                    X, rows = Position(space, np.round(X.values)), np.round(rows)
                batch = _wasserstein_rows(quantile_function(X), rows, space.probs, p)
                scalar = [wasserstein_distance(X, Position(space, row), p) for row in rows]
                assert np.allclose(batch, scalar, rtol=0.0, atol=1e-12)


def _merged_rows_reference(qx, rows, probs):
    """The merge of ``_merged_rows`` written with take_along_axis, diff and
    concatenate: a reference that shares none of the kernel's indexing."""
    (m, n), k = rows.shape, qx.cum.size
    order = np.argsort(rows, axis=1, kind="stable")
    cum = np.cumsum(probs[order], axis=1)
    cum[:, -1] = 1.0
    both = np.concatenate((np.broadcast_to(qx.cum, (m, k)), cum), axis=1)
    pos = np.argsort(both, axis=1, kind="stable")
    merged = np.take_along_axis(both, pos, axis=1)
    from_row = pos >= k
    seen = np.cumsum(from_row, axis=1)
    iy = np.minimum(seen - from_row, n - 1)
    ix = np.minimum(np.arange(k + n) - seen + from_row, k - 1)
    widths = np.diff(merged, axis=1, prepend=0.0)
    return widths, ix, np.take_along_axis(order, iy, axis=1)


@pytest.mark.parametrize("m", [1, 63])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_row_kernels_keep_their_bits(m, p, rng):
    """``_merged_rows`` and ``_wasserstein_rows`` give the bits of the
    reference formula, on rows with and without tied values."""
    for probs in ([0.25] * 4, [0.5, 0.3, 0.2], rng.dirichlet(np.full(6, 4.0))):
        space = ProbSpace(probs / np.sum(probs))
        for tied in (False, True):
            X = random_pos(space, rng)
            rows = X.values + rng.normal(size=(m, space.n))
            if tied:
                X, rows = Position(space, np.round(X.values)), np.round(rows)
            qx = quantile_function(X)
            want = _merged_rows_reference(qx, rows, space.probs)
            got = _merged_rows(qx, rows, space.probs)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            widths, ix, atom = want
            gap = np.abs(qx.values[ix] - np.take_along_axis(rows, atom, axis=1))
            if math.isinf(p):
                norm = np.where(widths > 1e-12, gap, 0.0).max(axis=-1)
            else:
                norm = (widths * gap**p).sum(axis=-1) ** (1.0 / p)
            assert _wasserstein_rows(qx, rows, space.probs, p).tobytes() == norm.tobytes()
