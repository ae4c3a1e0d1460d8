#!/usr/bin/env python3
"""Run one robustrisk benchmark workload and print its metrics.

    python3 bench/run.py --workload exact-book --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy, and the run fails when that
source is missing. One process, one calling thread, closed loop: each
operation starts when the previous one has returned and been checked.

The run sets the workload up ``SETUP_REPS`` times (building inputs plus one
warm-up operation of every kind, on inputs from a generator the timed phase
never uses) and then times whole rounds of operations until ``--seconds``
have passed. Round ``r`` draws its inputs from ``default_rng([seed, 0, r])``.
Times are scaled to a reference machine speed measured by ``calibrate``
(see bench/README.md).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same timed phase runs untraced and
is followed by a traced set-up and ``TRACE_ROUNDS`` traced rounds, and the
JSON holds the per-layer metrics. Spans of the traced part are written to
``bench/results/trace-<workload>-seed<seed>.json``.
"""

import os

# pin BLAS/OpenMP pools before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPS = 5
IMPORT_PROBES = 5
# Reference speed: times are reported as they would be on a machine where
# calibrate() takes this long, about the fastest it ran on the 2-core machine
# the bounds were set on.
CAL_REF_S = 0.5e-3
SPEED_WINDOW = 3  # operations on either side whose calibrations give one's speed
TRACE_ROUNDS = {"exact-book": 20, "search-book": 4, "verify-sweep": 1, "dual-alloc": 10}
TRACE_ROUND_BASE = 1_000_000  # traced rounds use inputs the timed phase never drew
VERIFIERS = (
    "verify_primal_dual",
    "verify_robust_dual",
    "verify_convex_cash_additive_dual",
    "verify_second_approach_dual",
    "wasserstein_bound_check",
    "non_expansivity_check",
)

_CAL_X = np.linspace(-1.0, 1.0, 8)
_CAL_Z = _CAL_X[::-1] * 0.9
_CAL_P = np.full(8, 0.125)
_CAL_ENT = reference.entropic(1.0)
_CAL_ES = reference.expected_shortfall(0.5)


def calibrate():
    """Seconds taken by a fixed kernel that does not use the package: the
    benchmark's own reference formulas on fixed inputs plus some object
    churn, a mix like the package's own work. The machine's speed drifts in
    phases of a few seconds, and the kernel slows down with it."""
    t0 = time.perf_counter()
    for i in range(4):
        _CAL_ENT(_CAL_X + i, _CAL_P)
        _CAL_ES(_CAL_X, _CAL_P)
        reference.w1_dist(_CAL_X, _CAL_Z, _CAL_P)
        reference.lp_dist(_CAL_X, _CAL_Z, _CAL_P, 2.0)
        {j: (j, [j]) for j in range(50)}
    return time.perf_counter() - t0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(TRACE_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    init = SRC / "robustrisk" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source {init} not found; run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import robustrisk

    if Path(robustrisk.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported robustrisk from {robustrisk.__file__}, expected {init}")


def import_seconds():
    """Seconds a fresh interpreter takes to import numpy and the package (BLAS
    pinned as here), scaled by calibrations just before and after each child:
    the median over ``IMPORT_PROBES`` children, each waited for. Returns
    (scaled, unscaled)."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            "import numpy, robustrisk; print(time.perf_counter() - t)")
    raw, scaled = [], []
    for _ in range(IMPORT_PROBES):
        before = calibrate()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(out.stdout))
        scaled.append(raw[-1] * CAL_REF_S / (0.5 * (before + calibrate())))
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Outcomes of one phase of closed-loop operations. Every operation is
    bracketed by two calibrations, outside its timing."""

    def __init__(self):
        self.latencies = []
        self.calib = []  # (before, after) per operation
        self.round_ends = []
        self.failed = 0
        self.unexpected = []
        self.known = {}
        self.with_aggregate = 0
        self.repeated_aggregate = 0
        self._seen = set()

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def rounds(self):
        return len(self.round_ends)

    def execute(self, op, tracer):
        before = calibrate()
        t0 = time.perf_counter()
        try:
            out, err = tracer.op(op.kind, op.fn), None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        self.calib.append((before, calibrate()))
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            self.failed += 1
            if op.known_fault:
                self.known[op.known_fault] = self.known.get(op.known_fault, 0) + 1
            else:
                self.unexpected.append(f"{op.kind}: {err}")
        if op.aggregate is not None:
            self.with_aggregate += 1
            self.repeated_aggregate += op.aggregate in self._seen
            self._seen.add(op.aggregate)

    def end_round(self):
        self.round_ends.append(len(self.latencies))

    def scaled(self):
        """Latencies scaled to the reference speed, grouped by round. An
        operation's speed is the median of the calibrations of the
        ``SPEED_WINDOW`` operations on either side of it and its own, which
        follows the machine's phases but not the jitter of one calibration."""
        cal = self.calib
        speed = [
            statistics.median(c for pair in cal[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1] for c in pair)
            for i in range(len(cal))
        ]
        rounds, start = [], 0
        for end in self.round_ends:
            rounds.append([self.latencies[i] * CAL_REF_S / speed[i] for i in range(start, end)])
            start = end
        return rounds


def ops_per_s(rounds):
    """Median over rounds of the round's operations per second of operation time."""
    return statistics.median(len(r) / sum(r) for r in rounds)


def tail_ms(latencies):
    """The highest percentile with at least ten operations beyond it (the
    eleventh-largest latency) in ms, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return 1e3 * ordered[max(0, n - 11)], 100.0 * max(0, n - 10) / n


def first_of_each_kind(ops):
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def set_up(cls, tracer, workdir, seed, rep, warm_run):
    from workloads import WARMUP_KEY

    wl = cls(tracer, workdir, seed)
    warm = wl.round(np.random.default_rng([WARMUP_KEY, 1, rep]), rep, warm=True)
    for op in first_of_each_kind(warm):
        warm_run.execute(op, tracer)
    return wl


def timed_phase(wl, seed, tracer, seconds=None, rounds=None, first_round=0):
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds``."""
    run = Run()
    gc.collect()
    start = time.perf_counter()
    r = first_round
    while True:
        for op in wl.round(np.random.default_rng([seed, 0, r]), r):
            run.execute(op, tracer)
        run.end_round()
        r += 1
        if run.rounds == rounds or (rounds is None and time.perf_counter() - start >= seconds):
            return run


def layer_metrics(tr, untraced_ops_per_s, traced_ops_per_s):
    c = tr.counts
    mem = tr.n("membership")
    return {
        "prob_core.positions_built": (c["built:Position"], "count"),
        "prob_core.measures_built": (c["built:ScenarioMeasure"], "count"),
        "risk_measures.rho_calls": (tr.n("rho"), "count"),
        "risk_measures.rho_ms": (tr.ms("rho"), "ms"),
        "uncertainty.membership_calls": (mem, "count"),
        "uncertainty.membership_ms": (tr.ms("membership"), "ms"),
        "uncertainty.membership_hit_ratio": (c["membership_hits"] / mem if mem else 0.0, "share"),
        "uncertainty.discretize_calls": (tr.n("discretize"), "count"),
        "uncertainty.discretize_candidates": (c["discretize_candidates"], "count"),
        "uncertainty.discretize_ms": (tr.ms("discretize"), "ms"),
        "uncertainty.check_property_ms": (tr.ms("api:check_property"), "ms"),
        "robustify.solves_analytic": (c["solves:analytic"], "count"),
        "robustify.solves_vertex_enum": (c["solves:vertex_enum"], "count"),
        "robustify.solves_search": (c["solves:grid"] + c["solves:projected_ascent"], "count"),
        "robustify.robust_value_self_ms": (tr.ms("api:robust_value", self_time=True), "ms"),
        "robustify.verify_self_ms": (
            tr.ms("api:verify_preservation", "api:largest_family_properties", self_time=True), "ms"),
        "duality.simplex_grid_ms": (tr.ms("api:simplex_grid"), "ms"),
        "duality.grid_points": (c["grid_points"], "count"),
        "duality.penalty_calls": (tr.n("penalty"), "count"),
        "duality.verifier_self_ms": (tr.ms(*("api:" + v for v in VERIFIERS), self_time=True), "ms"),
        "allocation.scenario_for_calls": (tr.n("scenario_for"), "count"),
        "allocation.scenario_for_ms": (tr.ms("scenario_for"), "ms"),
        "acceptance.op_ms": (tr.ms("api:acceptance_level", "api:robust_acceptance_check"), "ms"),
        "cli.op_ms": (tr.ms("api:cli.main"), "ms"),
        "cli.report_bytes": (c["cli_report_bytes"], "bytes"),
        "trace.overhead": (untraced_ops_per_s / traced_ops_per_s - 1.0, "share"),
    }


def traced_layers(cls, workdir, seed, workload, untraced_ops_per_s):
    from robustrisk import Position, ScenarioMeasure

    tr = Tracer()
    tr.count_constructors(Position, ScenarioMeasure)
    try:
        wl = tr.api("set-up", cls, tr, workdir, seed)
        traced = timed_phase(wl, seed, tr, rounds=TRACE_ROUNDS[workload], first_round=TRACE_ROUND_BASE)
    finally:
        tr.restore()
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"trace-{workload}-seed{seed}.json"
    tr.write(path)
    traced_ops_per_s = ops_per_s(traced.scaled())
    print(f"traced: {traced.rounds} rounds, {traced.attempted} operations, {traced_ops_per_s:.3f} ops/s "
          f"against {untraced_ops_per_s:.3f} untraced; spans in {path}")
    return layer_metrics(tr, untraced_ops_per_s, traced_ops_per_s), traced


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = str(BENCH / ".work" / str(os.getpid()))
    null = NullTracer()
    try:
        warm_run = Run()
        reps = []  # (seconds, calibration before, calibration after)
        for rep in range(SETUP_REPS):
            before = calibrate()
            t0 = time.perf_counter()
            wl = set_up(cls, null, workdir, args.seed, rep, warm_run)
            reps.append((time.perf_counter() - t0, before, calibrate()))

        run = timed_phase(wl, args.seed, null, seconds=args.seconds)
        rounds = run.scaled()
        timed = [t for r in rounds for t in r]
        tail, tail_pct = tail_ms(timed)
        cals = [c for pair in run.calib for c in pair]
        print(f"workload {args.workload}, seed {args.seed}: {run.rounds} rounds, {run.attempted} operations "
              f"({run.failed} failed), {sum(run.latencies):.3f} s of operation time")
        print(f"calibration {1e3 * min(cals):.4f} ms fastest, {1e3 * statistics.median(cals):.4f} ms median; "
              f"unscaled p50 {1e3 * statistics.median(run.latencies):.6f} ms, "
              f"tail {tail_ms(run.latencies)[0]:.6f} ms; tail is p{tail_pct:.2f}")
        if run.with_aggregate:
            print(f"operations pricing an aggregate: {run.with_aggregate}, of which seen earlier in the run: "
                  f"{run.repeated_aggregate} ({run.repeated_aggregate / run.attempted:.1%} of all operations)")

        if args.trace:
            metrics, traced = traced_layers(cls, workdir, args.seed, args.workload, ops_per_s(rounds))
            unexpected = warm_run.unexpected + run.unexpected + traced.unexpected
        else:
            import_s, import_raw = import_seconds()
            setup_raw = statistics.median(t for t, _, _ in reps)
            setup_s = import_s + statistics.median(t * CAL_REF_S / (0.5 * (b + a)) for t, b, a in reps)
            print(f"set-up: import {import_s:.4f} s + median of {SETUP_REPS} set-ups; "
                  f"unscaled import {import_raw:.4f} s + set-up {setup_raw:.4f} s")
            metrics = {
                "ops_per_s": (ops_per_s(rounds), "ops/s"),
                "op_p50_ms": (1e3 * statistics.median(timed), "ms"),
                "op_tail_ms": (tail, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            unexpected = warm_run.unexpected + run.unexpected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for fault, k in sorted(run.known.items()):
        print(f"known failing operations: {k} x {fault}")
    for line in unexpected[:20]:
        print(f"UNEXPECTED FAILURE: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
