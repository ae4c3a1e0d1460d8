"""The four benchmark workloads.

A workload object is built once per set-up, then yields rounds of
operations. Every round has the same operations in the same order; only the
inputs drawn from the round's generator change. An operation is a closure
that calls into the package and a check that compares its output with an
independent computation (``reference``) or a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import namedtuple

import numpy as np

import reference as ref
import robustrisk as rr
from robustrisk import Position, ProbSpace, cli

TOL = 1e-9
# first word of the generator seed for warm-up inputs; timed inputs use --seed
WARMUP_KEY = 0x5EED


class Op:
    """One timed call. ``check(out)`` returns None when the output is right,
    else the reason it is wrong. ``known_fault`` names a fault in the program
    that makes this operation fail on every run; ``aggregate`` is the
    allocation aggregate the operation prices, when it has one."""

    __slots__ = ("kind", "fn", "check", "known_fault", "aggregate")

    def __init__(self, kind, fn, check, known_fault=None, aggregate=None):
        self.kind = kind
        self.fn = fn
        self.check = check
        self.known_fault = known_fault
        self.aggregate = aggregate


# a measure under test: the package's object, its reference formula, and
# whether it is convex (p = 1 vertex enumeration applies) and cash-additive
# (it serves as its own level-set base)
Measure = namedtuple("Measure", "label rho f convex cash_additive")


def _space(n: int, uniform: bool, seed: int) -> ProbSpace:
    if uniform:
        return ProbSpace(np.full(n, 1.0 / n))
    p = np.random.default_rng(seed).dirichlet(np.full(n, 4.0))
    p = np.round(p, 6)
    p[-1] = 1.0 - p[:-1].sum()
    return ProbSpace(p)


def _position(space, rng, scale=1.5) -> Position:
    return Position(space, rng.normal(size=space.n) * scale)


# ---------------------------------------------------------------------------
# exact-book


class ExactBook:
    """Closed-form and vertex-enumeration valuations of a book of positions on
    n in {2, 4, 8, 16}, plus acceptance levels and the in-process CLI."""

    SIZES = (2, 4, 8, 16)
    BOOK = 3  # positions per book

    def __init__(self, tr, workdir, seed):
        self.tr = tr
        self.spaces = [_space(n, u, 100 + n) for n in self.SIZES for u in (True, False)]
        specs = [
            ("entropic(0.5)", rr.entropic(0.5), ref.entropic(0.5), True, True),
            ("entropic(2)", rr.entropic(2.0), ref.entropic(2.0), True, True),
            ("ES(0.25)", rr.expected_shortfall(0.25), ref.expected_shortfall(0.25), True, True),
            ("worst_case", rr.worst_case(), ref.worst_case(), True, True),
            ("neg_expectation", rr.neg_expectation(), ref.neg_expectation(), True, True),
            ("floor(0.5)", rr.expectation_floor(0.5), ref.expectation_floor(0.5), False, False),
        ]
        self.measures = [Measure(lab, tr.rho(m), f, cvx, ca) for lab, m, f, cvx, ca in specs]
        # CLI inputs: one scenario file per space, with positions from the seed
        os.makedirs(workdir, exist_ok=True)
        self.robustify_out = os.path.join(workdir, "robustify-report.json")
        self.acceptance_out = os.path.join(workdir, "acceptance-report.json")
        self.configs = []
        for name, rho, fam in (
            ("ent-sup", {"kind": "entropic", "params": {"gamma": 1.0}}, {"kind": "sup_norm_ball", "params": {"eps": 0.2}}),
            ("es-p1", {"kind": "expected_shortfall", "params": {"alpha": 0.5}}, {"kind": "p_norm_ball", "params": {"p": 1.0, "eps": 0.2}}),
        ):
            path = os.path.join(workdir, f"config-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"rho": rho, "family": fam, "seed": 7}, fh)
            self.configs.append(path)
        self.cli_refs = [
            (ref.entropic(1.0), lambda x, p: ref.entropic(1.0)(np.asarray(x) - 0.2, p)),
            (
                ref.expected_shortfall(0.5),
                lambda x, p: max(ref.expected_shortfall(0.5)(v, p) for v in ref.p1_vertices(x, p, 0.2)),
            ),
        ]
        self.scenarios = self._write_scenarios(workdir, "scenario", np.random.default_rng([seed, 2]))
        self.warm_scenarios = self._write_scenarios(workdir, "warm", np.random.default_rng([WARMUP_KEY, 2]))

    def _write_scenarios(self, workdir, stem, rng):
        files = []
        for i, space in enumerate(self.spaces):
            vals = {f"X{j}": [float(v) for v in rng.normal(size=space.n) * 1.5] for j in range(self.BOOK)}
            path = os.path.join(workdir, f"{stem}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"space": {"probs": [float(q) for q in space.probs]}, "positions": vals}, fh)
            files.append((path, space, {k: np.array(v) for k, v in vals.items()}))
        return files

    # -- operations ------------------------------------------------------

    def _book_op(self, kind, books, measures, expected, member):
        """Value every book (one per space) under ``measures``; ``books`` holds
        (space, positions, families by measure index, eps)."""
        tr = self.tr

        def run():
            return [
                tr.api("robust_value", rr.robust_value, m.rho, fams[i], X)
                for _space, book, fams, _eps in books
                for X in book
                for i, m in measures
            ]

        def check(out):
            k = 0
            for space, book, _fams, eps in books:
                p = space.probs
                for X in book:
                    for _i, m in measures:
                        rv = out[k]
                        k += 1
                        x, w = X.values, rv.witness.values
                        exp_v = expected(m.f, x, p, eps)
                        if rv.guarantee != "exact":
                            return f"{kind} {m.label} n={space.n}: guarantee {rv.guarantee}"
                        if not ref.close(rv.value, exp_v, TOL):
                            return f"{kind} {m.label} n={space.n}: value {rv.value!r} != {exp_v!r}"
                        if not member(m.f, x, w, p, eps):
                            return f"{kind} {m.label} n={space.n}: witness is not a member"
            return None

        return Op(kind, run, check)

    def _accept_op(self, books):
        """Acceptance levels and robust acceptance over the sup ball, for every
        book; ``books`` holds (space, positions, sup family, eps, levels)."""
        tr = self.tr
        measures = self.measures

        def run():
            out = []
            for _space, book, fam, _eps, levels in books:
                for X, level in zip(book, levels):
                    for m in measures:
                        out.append(tr.api("acceptance_level", rr.acceptance_level, m.rho, X))
                        out.append(tr.api("robust_acceptance_check", rr.robust_acceptance_check, m.rho, fam, X, level))
            return out

        def check(out):
            k = 0
            for space, book, _fam, eps, levels in books:
                p = space.probs
                for X, level in zip(book, levels):
                    x = X.values
                    for m in measures:
                        lvl, rac = out[k], out[k + 1]
                        k += 2
                        if abs(lvl - m.f(x, p)) > 1e-9:
                            return f"acceptance_level {m.label}: {lvl!r} vs rho(X) {m.f(x, p)!r}"
                        rv = m.f(x - eps, p)
                        if not ref.close(rac["robust_value"], rv, TOL):
                            return f"robust_acceptance_check {m.label}: {rac['robust_value']!r} != {rv!r}"
                        if rac["x_in_robust"] != (rv <= level + 1e-9):
                            return f"robust_acceptance_check {m.label}: wrong verdict at level {level}"
            return None

        return Op("acceptance", run, check)

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _cli_op(self, idx, level, files):
        """``robustrisk robustify`` on one scenario file, then ``robustrisk
        acceptance`` on one of its positions."""
        path, space, vals = files[idx % len(files)]
        c = idx % len(self.configs)
        cfg, (base, robust) = self.configs[c], self.cli_refs[c]
        name = f"X{idx % self.BOOK}"
        robustify = ["robustify", "--scenario", path, "--config", cfg, "--out", self.robustify_out]
        acceptance = ["acceptance", "--scenario", path, "--config", cfg, "--position", name,
                      "--level", repr(level), "--out", self.acceptance_out]

        def run():
            return (self.tr.api("cli.main", self._cli, robustify), self.tr.api("cli.main", self._cli, acceptance))

        def check(codes):
            if codes != (0, 0):
                return f"cli exit codes {codes}"
            p = space.probs
            report = self._read_report(self.robustify_out)
            for key, x in vals.items():
                got = report["values"][key]
                exp_v = robust(x, p)
                if got["guarantee"] != "exact" or not ref.close(got["value"], exp_v, TOL):
                    return f"cli robustify {key}: {got['value']!r} ({got['guarantee']}) vs {exp_v!r}"
            report = self._read_report(self.acceptance_out)
            x = vals[name]
            if abs(report["acceptance_level"] - base(x, p)) > 1e-9:
                return f"cli acceptance_level {report['acceptance_level']!r} vs {base(x, p)!r}"
            if report["acceptable"] != (base(x, p) <= level):
                return "cli acceptable flag is wrong"
            rv = robust(x, p)
            if not ref.close(report["robust"]["robust_value"], rv, TOL):
                return f"cli robust value {report['robust']['robust_value']!r} vs {rv!r}"
            if not ref.close(report["robust_level_by_sets"], rv, 1e-9):
                return f"cli robust_level_by_sets {report['robust_level_by_sets']!r} vs {rv!r}"
            return None

        return Op("cli", run, check)

    def _read_report(self, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        self.tr.count("cli_report_bytes", len(raw))
        return json.loads(raw)

    def round(self, rng, r, warm=False):
        tr = self.tr
        n = len(self.measures)
        allm = list(enumerate(self.measures))
        convex = [(i, m) for i, m in allm if m.convex]
        levels = [(i, m) for i, m in allm if m.cash_additive]
        sup_b, pinf_b, p1_b, lev_b, acc_b = [], [], [], [], []
        for space in self.spaces:
            book = [_position(space, rng) for _ in range(self.BOOK)]
            eps = float(rng.uniform(0.05, 0.5))
            sup = tr.family(rr.sup_norm_ball(eps))
            sup_b.append((space, book, [sup] * n, eps))
            pinf_b.append((space, book, [tr.family(rr.p_norm_ball(math.inf, eps))] * n, eps))
            p1_b.append((space, book, [tr.family(rr.p_norm_ball(1.0, eps))] * n, eps))
            # the level path, the costliest, runs at two radii: the rarer and
            # heavier the costliest class, the deeper inside it the tail
            # percentile falls, away from its noisy upper edge
            for radius in (eps, 2.0 * eps):
                lev = {i: tr.family(rr.level_upper_set(m.rho, radius)) for i, m in levels}
                lev_b.append((space, book, [lev.get(i) for i in range(n)], radius))
            acc_b.append((space, book, sup, eps, [float(rng.normal()) for _ in book]))
        files = self.warm_scenarios if warm else self.scenarios
        # one operation per path, each over the books of all spaces, in a
        # fixed order that alternates cheap and costly paths
        return [
            self._book_op("ball-analytic", sup_b + pinf_b, allm, _shifted, _in_sup),
            self._book_op("level-analytic", lev_b, levels, _level_value, _in_level),
            self._cli_op(r, float(rng.normal()), files),
            self._accept_op(acc_b),
            self._book_op("p1-vertex", p1_b, convex, _vertex_max, _in_p1),
        ]


# expected values and membership tests of the exact paths, f being the
# reference measure and eps the radius
def _shifted(f, x, p, eps):
    return f(x - eps, p)


def _vertex_max(f, x, p, eps):
    return max(f(v, p) for v in ref.p1_vertices(x, p, eps))


def _level_value(f, x, p, eps):
    return f(x, p) + eps


def _in_sup(f, x, w, p, eps):
    return ref.sup_dist(x, w) <= eps + 1e-9


def _in_p1(f, x, w, p, eps):
    return ref.lp_dist(x, w, p, 1.0) <= eps + 1e-9


def _in_level(f, x, w, p, eps):
    return f(w, p) <= f(x, p) + eps + 1e-8


# ---------------------------------------------------------------------------
# search-book


class SearchBook:
    """robust_value(solver="auto") on cells with no closed form, so the value
    comes from grid candidates plus projected ascent."""

    SIZES = (2, 3, 4, 6, 8)
    BOOK_SPACE = 5  # the Dirichlet space with n = 4
    BUDGET = 16
    RESTARTS = 1

    def __init__(self, tr, workdir, seed):
        self.tr = tr
        self.spaces = [_space(n, u, 200 + n) for n in self.SIZES for u in (True, False)]
        ent = tr.rho(rr.entropic(1.0))
        ent_ref = ref.entropic(1.0)
        self.K = 0.5
        self.cells = [
            ("ce-w1", tr.rho(rr.certainty_equivalent(rr.exponential_loss())), ent_ref,
             lambda eps: tr.family(rr.wasserstein_ball(1.0, eps))),
            ("es-l2", tr.rho(rr.expected_shortfall(0.5)), ref.expected_shortfall(0.5),
             lambda eps: tr.family(rr.p_norm_ball(2.0, eps))),
            ("floor-level", tr.rho(rr.expectation_floor(self.K)), ref.expectation_floor(self.K),
             lambda eps: tr.family(rr.level_upper_set(ent, eps))),
        ]

    def _member_and_bound(self, cell, x, w, p, eps):
        """(witness is a member, upper bound on the supremum)."""
        if cell == "ce-w1":
            # 1-Lipschitz law-invariant convex measure over a W1 ball: its dual
            # densities are at most 1/p_min, so rho(Z) <= rho(X) + eps/p_min
            return ref.w1_dist(x, w, p) <= eps + 1e-9, ref.entropic(1.0)(x, p) + eps / p.min()
        if cell == "es-l2":
            # ES dual densities are at most 1/alpha, so their L2 norm is at
            # most 1/sqrt(alpha): rho(Z) <= ES(X) + eps/sqrt(alpha)
            return ref.lp_dist(x, w, p, 2.0) <= eps + 1e-9, ref.expected_shortfall(0.5)(x, p) + eps / math.sqrt(0.5)
        # E[-Z] <= entropic(Z) <= entropic(X) + eps on the level set
        ent = ref.entropic(1.0)
        return ent(w, p) <= ent(x, p) + eps + 1e-9, max(ent(x, p) + eps, self.K)

    def _cell(self, spec, space, rng):
        cell, rho, f, fam_of = spec
        eps = float(rng.uniform(0.1, 0.5))
        return cell, rho, f, fam_of(eps), _position(space, rng), eps, int(rng.integers(2**31))

    def round(self, rng, r, warm=False):
        # ten single-cell quotes, one per space, and one book run that values
        # every cell twice on one space: op_p50_ms is the median of the many
        # quotes, op_tail_ms falls inside the fewer, heavier book runs
        quotes = [
            self._op("quote", space, [self._cell(self.cells[i % len(self.cells)], space, rng)])
            for i, space in enumerate(self.spaces)
        ]
        space = self.spaces[self.BOOK_SPACE]
        book = self._op("book", space, [self._cell(spec, space, rng) for spec in self.cells for _ in range(2)])
        return quotes[:5] + [book] + quotes[5:]

    def _op(self, kind, space, cells):
        """Value the given cells on one space, each at its own position."""
        tr = self.tr

        def run():
            return [
                tr.api("robust_value", rr.robust_value, rho, fam, X, solver="auto",
                       budget=self.BUDGET, restarts=self.RESTARTS, seed=seed)
                for _cell, rho, _f, fam, X, _eps, seed in cells
            ]

        def check(out):
            p = space.probs
            for rv, (cell, _rho, f, _fam, X, eps, _seed) in zip(out, cells):
                x = X.values
                if rv.witness is None:
                    return f"{cell} n={space.n}: no witness"
                w = rv.witness.values
                member, upper = self._member_and_bound(cell, x, w, p, eps)
                if not member:
                    return f"{cell} n={space.n}: witness is not a member"
                if not ref.close(f(w, p), rv.value, TOL):
                    return f"{cell} n={space.n}: rho(witness) {f(w, p)!r} != value {rv.value!r}"
                if rv.value < f(x, p) - TOL:
                    return f"{cell} n={space.n}: value {rv.value!r} below rho(X) {f(x, p)!r}"
                if rv.value > upper + TOL:
                    return f"{cell} n={space.n}: value {rv.value!r} above the upper bound {upper!r}"
            return None

        return Op(kind, run, check)


# ---------------------------------------------------------------------------
# verify-sweep


MEASURE_SPECS = {
    "neg_expectation": lambda: rr.neg_expectation(),
    "entropic": lambda: rr.entropic(1.0),
    "expectation_floor": lambda: rr.expectation_floor(0.5),
    "certainty_equivalent": lambda: rr.certainty_equivalent(rr.exponential_loss()),
}

# The gate's criterion 3 matrix, fixed here so the list of operations does not
# change when a verdict changes. ``covered`` marks the cells a preservation
# theorem covers; the two convex cells over the level family are not covered
# (a level set of a convex measure is not a convex family).
_ALL_M = tuple(MEASURE_SPECS)
_BALLS = ("sup_norm_ball", "p_norm_ball_1", "wasserstein_ball_1")
PRESERVATION_CELLS = (
    [("monotone", m, f, True) for m in _ALL_M for f in _BALLS + ("level_upper_set",)]
    + [("convex", m, f, f != "level_upper_set") for m in ("neg_expectation", "entropic")
       for f in _BALLS + ("level_upper_set",)]
    + [("quasi_convex", m, f, True) for m in _ALL_M for f in _BALLS + ("level_upper_set",)]
    + [("continuous_from_above", m, "level_upper_set", True) for m in _ALL_M]
    + [("law_invariant", m, f, True) for m in _ALL_M for f in ("wasserstein_ball_1", "level_upper_set")]
)


class VerifySweep:
    """Property verdicts with a fixed trial count per call."""

    PRES_TRIALS = 2
    CHECK_TRIALS = 20
    LARGEST_TRIALS = 2

    def __init__(self, tr, workdir, seed):
        self.tr = tr
        self.spaces = [ProbSpace([0.5, 0.5]), ProbSpace([0.5, 0.3, 0.2])]
        self.measures = {k: tr.rho(v()) for k, v in MEASURE_SPECS.items()}
        ent = tr.rho(rr.entropic(1.0))
        self.families = {
            "sup_norm_ball": tr.family(rr.sup_norm_ball(0.3)),
            "p_norm_ball_1": tr.family(rr.p_norm_ball(1.0, 0.3)),
            "p_norm_ball_2": tr.family(rr.p_norm_ball(2.0, 0.3)),
            "wasserstein_ball_1": tr.family(rr.wasserstein_ball(1.0, 0.3)),
            "level_upper_set": tr.family(rr.level_upper_set(ent, 0.3)),
        }
        ent_ref = ref.entropic(1.0)
        self.members = {
            "sup_norm_ball": lambda x, z, p: ref.sup_dist(x, z) <= 0.3 + 1e-12,
            "p_norm_ball_1": lambda x, z, p: ref.lp_dist(x, z, p, 1.0) <= 0.3 + 1e-12,
            "p_norm_ball_2": lambda x, z, p: ref.lp_dist(x, z, p, 2.0) <= 0.3 + 1e-12,
            "wasserstein_ball_1": lambda x, z, p: ref.w1_dist(x, z, p) <= 0.3 + 1e-12,
            "level_upper_set": lambda x, z, p: ent_ref(z, p) <= ent_ref(x, p) + 0.3 + 1e-12,
        }
        self.same_law = {sp.n: ref.same_law_pair_exists(sp.probs) for sp in self.spaces}

    def round(self, rng, r, warm=False):
        pres, props, largest = [], [], []
        for space in self.spaces:
            for prop, mn, fn, covered in PRESERVATION_CELLS:
                pres.append(self._preservation_op(space, prop, mn, fn, covered, int(rng.integers(2**31))))
            for fn in self.families:
                for prop in rr.FAMILY_PROPERTIES:
                    props.append(self._check_property_op(space, fn, prop, int(rng.integers(2**31))))
            for mn in self.measures:
                for fn in ("sup_norm_ball", "p_norm_ball_1", "wasserstein_ball_1", "level_upper_set"):
                    largest.append(self._largest_op(space, mn, fn, int(rng.integers(2**31))))
        # interleave the three kinds in a fixed order
        lists = [pres, props, largest]
        ops = []
        for i in range(max(map(len, lists))):
            ops.extend(lst[i] for lst in lists if i < len(lst))
        return ops

    def _preservation_op(self, space, prop, mn, fn, covered, seed):
        rho, fam, tr = self.measures[mn], self.families[fn], self.tr

        def run():
            return tr.api("verify_preservation", rr.verify_preservation, rho, fam, prop,
                          trials=self.PRES_TRIALS, seed=seed, space=space)

        def check(v):
            if covered and v.tag in ("counterexample", "unknown"):
                return f"preservation {prop} {mn} x {fn} on n={space.n}: {v.tag} ({v.note})"
            return None

        return Op(f"preservation-{prop}", run, check)

    def _ball_law_fault(self, fn, prop, space):
        if prop == "law_invariant" and fn in ("sup_norm_ball", "p_norm_ball_1", "p_norm_ball_2"):
            if self.same_law[space.n] and len(set(np.round(space.probs, 12))) == space.n:
                return "uncertainty.py:751-758 counts skipped law-invariance trials"
        return None

    def _check_property_op(self, space, fn, prop, seed):
        fam, tr = self.families[fn], self.tr
        known = self._ball_law_fault(fn, prop, space)
        # the known-fault calls use the library defaults, independent of --seed
        trials, seed = (200, 0) if known else (self.CHECK_TRIALS, seed)

        def run():
            return tr.api("check_property", rr.check_property, fam, prop, space, trials=trials, seed=seed)

        def check(v):
            if v.is_counterexample and not self._replays(fam, fn, prop, v.witness, space):
                return f"check_property {fn} {prop} n={space.n}: counterexample does not replay"
            if prop == "law_invariant" and fn.startswith(("sup_", "p_norm")) and self.same_law[space.n] and v.holds:
                return f"check_property {fn} law_invariant n={space.n}: reported {v.tag} (trials={v.trials})"
            return None

        return Op("check_property", run, check, known_fault=known)

    def _replays(self, fam, fn, prop, w, space):
        member = self.members[fn]
        p = space.probs

        def m(a, b):
            return member(a.values, b.values, p)

        if prop == "solid":
            return m(w["X"], w["Z"]) and not m(w["X"], w["Zbar"])
        if prop == "monotone":
            return m(w["Y"], w["Z"]) and not m(w["X"], w["Z"])
        if prop == "quasi_convex":
            mid = w["lam"] * w["X"].values + (1 - w["lam"]) * w["Y"].values
            return member(mid, w["Z"].values, p) and not m(w["X"], w["Z"]) and not m(w["Y"], w["Z"])
        if prop == "law_invariant":
            same = ref.w1_dist(w["X"].values, w["Xp"].values, p) <= 1e-12
            return same and m(w["X"], w["Z"]) != m(w["Xp"], w["Z"])
        if prop == "cash_invariant":
            c = w["c"]
            return member(w["X"].values + c, w["Z"].values + c, p) != m(w["X"], w["Z"])
        # no independent decider for the remaining properties: replay with
        # the package's own replay, which re-derives the violation from scratch
        return rr.replay_witness(fam, prop, w)

    def _largest_op(self, space, mn, fn, seed):
        rho, fam, tr = self.measures[mn], self.families[fn], self.tr

        def run():
            return tr.api("largest_family_properties", rr.largest_family_properties, rho, fam,
                          trials=self.LARGEST_TRIALS, seed=seed, space=space)

        def check(out):
            bad = [k for k, v in out.items() if v.is_counterexample]
            return f"largest family {mn} x {fn} n={space.n}: counterexample for {bad}" if bad else None

        return Op("largest_family", run, check)


# ---------------------------------------------------------------------------
# dual-alloc


class DualAlloc:
    """Dual verifiers on prebuilt simplex grids, and gradient capital
    allocation on fresh and repeated aggregates."""

    NONEXP_SAMPLES = 10
    ALLOC_SAMPLES = 2
    PARTS = 4

    def __init__(self, tr, workdir, seed):
        self.tr = tr
        api = tr.api
        self.S2 = ProbSpace([0.5, 0.5])
        self.S3 = ProbSpace([1 / 3, 1 / 3, 1 / 3])
        self.g2_01 = api("simplex_grid", rr.simplex_grid, self.S2, 0.01)
        self.g2_02 = api("simplex_grid", rr.simplex_grid, self.S2, 0.02)
        self.g2_05 = api("simplex_grid", rr.simplex_grid, self.S2, 0.05)
        self.g3_05 = api("simplex_grid", rr.simplex_grid, self.S3, 0.05)
        tr.count("grid_points", sum(len(g) for g in (self.g2_01, self.g2_02, self.g2_05, self.g3_05)))
        self.ent = tr.rho(rr.entropic(1.0))
        self.es = tr.rho(rr.expected_shortfall(0.5))
        self.floor = tr.rho(rr.expectation_floor(0.5))
        self.ce = tr.rho(rr.certainty_equivalent(rr.exponential_loss()))
        self.loss = rr.exponential_loss()
        self.cash_ent = tr.surface(rr.penalty_type(self.ent, "cash_additive"))
        self.surfaces = [
            ("cash-entropic", self.cash_ent),
            ("cash-ES", tr.surface(rr.penalty_type(self.es, "cash_additive"))),
        ]
        self.rule = tr.rule(rr.gradient_car(self.ent, self.g2_02))
        self.rule_lin = tr.rule(rr.gradient_car(tr.rho(rr.neg_expectation()), self.g2_02))
        self.sup03 = tr.family(rr.sup_norm_ball(0.3))
        self.lev05 = tr.family(rr.level_upper_set(self.ent, 0.5))
        self.ent_ref = ref.entropic(1.0)

    # -- checks shared by the dual verifiers ------------------------------

    @staticmethod
    def _gap_check(name, out, primal_key, exact_value, gap_tol):
        primal = out[primal_key]
        if exact_value is not None and not ref.close(primal, exact_value, TOL):
            return f"{name}: primal {primal!r} != {exact_value!r}"
        if out.get("guarantee", "exact") == "exact" and out["dual"] > primal + TOL:
            return f"{name}: weak duality fails, dual {out['dual']!r} > primal {primal!r}"
        if abs(out["gap"]) > gap_tol:
            return f"{name}: gap {out['gap']!r} above {gap_tol}"
        return None

    def round(self, rng, r, warm=False):
        tr, api = self.tr, self.tr.api
        S2, p2 = self.S2, self.S2.probs
        X = _position(S2, rng)
        x = X.values
        eps = float(rng.uniform(0.05, 0.4))
        sup = tr.family(rr.sup_norm_ball(eps))
        p1 = tr.family(rr.p_norm_ball(1.0, eps))
        lev = tr.family(rr.level_upper_set(self.ent, eps))
        brute = tr.surface(rr.penalty_type(self.floor, "brute_force", space=S2, anchors=(X,)))
        ent_f, es_f = self.ent_ref, ref.expected_shortfall(0.5)
        seed = int(rng.integers(2**31))
        ops = []

        def add(kind, fn, check, aggregate=None):
            ops.append(Op(kind, fn, check, aggregate=aggregate))

        add("primal-dual-cash", lambda: api("verify_primal_dual", rr.verify_primal_dual, self.ent, X, self.g2_01, self.cash_ent),
            lambda o: self._gap_check("primal-dual entropic", o, "primal", ent_f(x, p2), 1e-5))
        add("primal-dual-brute", lambda: api("verify_primal_dual", rr.verify_primal_dual, self.floor, X, self.g2_01, brute),
            lambda o: self._gap_check("primal-dual floor", o, "primal", max(-float(np.dot(p2, x)), 0.5), 1e-3))
        vmax = max(ent_f(v, p2) for v in ref.p1_vertices(x, p2, eps))
        add("robust-dual", lambda: api("verify_robust_dual", rr.verify_robust_dual, self.ent, p1, X, self.g2_01),
            lambda o: self._gap_check("robust dual entropic/p1", o, "robust", vmax, 1e-5))
        shifted = ent_f(x - eps, p2)
        add("robust-dual-loss", lambda: api("verify_robust_dual", rr.verify_robust_dual, self.ce, sup, X, self.g2_01, loss=self.loss),
            lambda o: self._gap_check("robust dual CE/sup", o, "robust", shifted, 1e-5))
        add("convex-cash-dual", lambda: api("verify_convex_cash_additive_dual", rr.verify_convex_cash_additive_dual, self.ent, sup, X, self.g2_05),
            lambda o: self._gap_check("convex cash-additive dual", o, "robust", shifted, 1e-5))
        add("second-approach-sup", lambda: api("verify_second_approach_dual", rr.verify_second_approach_dual, self.ent, sup, X, self.g2_01, seed=seed),
            lambda o: self._gap_check("second approach sup", o, "robust", shifted, 1e-5))
        add("second-approach-level", lambda: api("verify_second_approach_dual", rr.verify_second_approach_dual, self.ent, lev, X, self.g2_01, seed=seed),
            lambda o: self._gap_check("second approach level", o, "robust", ent_f(x, p2) + eps, 1e-5))
        add("wasserstein-bound", lambda: api("wasserstein_bound_check", rr.wasserstein_bound_check, self.ent, eps, 1.0, X, self.g2_01, seed=seed),
            lambda o: self._wbound_check(o, ent_f, x, p2, eps, eps / p2.min()))
        X3 = _position(self.S3, rng, scale=1.0)
        add("wasserstein-bound", lambda: api("wasserstein_bound_check", rr.wasserstein_bound_check, self.es, eps, 1.0, X3, self.g3_05, seed=seed),
            # Pflug-Pichler-Wozabal: ES over a W1 ball is at most ES(X) + eps/alpha
            lambda o: self._wbound_check(o, es_f, X3.values, self.S3.probs, eps, eps / 0.5))
        for name, surface in self.surfaces:
            k = int(rng.integers(2**31))
            add("non-expansivity", lambda s=surface, k=k: api("non_expansivity_check", rr.non_expansivity_check, s, self.g2_05,
                                                            samples=self.NONEXP_SAMPLES, seed=k),
                lambda v, name=name: f"non-expansivity {name}: counterexample {v.witness}" if v.is_counterexample else None)

        # allocation on a fresh aggregate, then the same aggregate again
        Y1 = _position(S2, rng)
        key1 = Y1.values.tobytes()
        dens = ref.esscher_density(Y1.values, p2, 1.0)
        sf = self.rule.params["scenario_for"]
        add("scenario-for", lambda: api("scenario_for", sf, Y1),
            lambda Q: None if np.max(np.abs(Q.density - dens)) <= 1e-6 else f"scenario_for off the Esscher density by {np.max(np.abs(Q.density - dens)):.2e}",
            aggregate=key1)
        rho_y1 = ent_f(Y1.values, p2)
        add("identity", lambda: api("allocation_rule", self.rule, Y1, Y1),
            lambda v: None if abs(v - rho_y1) <= 1e-9 else f"Lambda(Y,Y) - rho(Y) = {v - rho_y1:.2e}",
            aggregate=key1)
        k1, k2 = int(rng.integers(2**31)), int(rng.integers(2**31))
        add("no-undercut", lambda: api("check_no_undercut", rr.check_no_undercut, self.rule, self.sup03,
                                       samples=self.ALLOC_SAMPLES, seed=k1, space=S2),
            lambda v: f"no-undercut counterexample {v.note}" if v.is_counterexample else None)
        add("sandwich", lambda: api("check_sandwich", rr.check_sandwich, self.rule, self.sup03,
                                    samples=self.ALLOC_SAMPLES, seed=k2, space=S2),
            lambda v: f"sandwich counterexample {v.note}" if v.is_counterexample else None)

        # many parts charged against one aggregate
        parts = [_position(S2, rng, scale=0.8) for _ in range(self.PARTS)]
        Y2 = Position(S2, np.sum([P.values for P in parts], axis=0))
        key2 = Y2.values.tobytes()
        q2 = ref.esscher_density(Y2.values, p2, 1.0)
        pen = ref.relative_entropy(q2, p2)
        for P in parts + [Y2]:
            # gradient rule over a sup ball: E_Q*[-Z] + eps - H(Q*|P), Q* the Esscher scenario of Y2
            exp_v = float(np.dot(p2 * q2, -P.values)) + eps - pen
            hi = ent_f(P.values - eps, p2)
            add("robust-car", lambda P=P: api("robust_car", rr.robust_car, self.rule, sup, P, Y2),
                lambda v, exp_v=exp_v, hi=hi: None if abs(v - exp_v) <= 1e-6 and v <= hi + 1e-6
                else f"robust_car {v!r} vs closed form {exp_v!r} (robust rho {hi!r})",
                aggregate=key2)

        # sub-allocation on an instance built to meet its hypotheses
        k = 2 + r % 2
        raw = np.abs(rng.normal(size=2))
        raw = raw / max(raw.max(), 1e-9) * (0.9 * k * 0.5)
        Y3 = Position(S2, raw)
        sub_parts = [(1.0 / k) * Y3] * k
        k3 = int(rng.integers(2**31))
        add("sub-allocation", lambda: api("check_subadditive_allocation", rr.check_subadditive_allocation,
                                          self.rule_lin, self.lev05, Y3, sub_parts, seed=k3),
            lambda v: None if v.tag == "sampled_no_counterexample" else f"sub-allocation {v.tag}: {v.note}",
            aggregate=Y3.values.tobytes())
        return ops

    def _wbound_check(self, out, f, x, p, eps, lipschitz):
        if not out["holds"] or out["lhs"] > out["rhs"] + TOL:
            return f"wasserstein bound fails: lhs {out['lhs']!r} > rhs {out['rhs']!r}"
        rhs = f(x, p) + eps * float(np.max(out["Qstar"].density))
        if not ref.close(out["rhs"], rhs, TOL):
            return f"wasserstein bound rhs {out['rhs']!r} != rho(X) + eps*||dQ*/dP||_inf = {rhs!r}"
        if out["lhs"] > f(x, p) + lipschitz + TOL:
            return f"wasserstein lhs {out['lhs']!r} above rho(X) + {lipschitz!r}"
        if out["lhs"] < f(x, p) - TOL:
            return f"wasserstein lhs {out['lhs']!r} below rho(X)"
        return None


WORKLOADS = {
    "exact-book": ExactBook,
    "search-book": SearchBook,
    "verify-sweep": VerifySweep,
    "dual-alloc": DualAlloc,
}
