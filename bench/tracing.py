"""Tracing from outside the package.

The benchmark hands the program wrapped callables (a measure's ``evaluate``,
a family's ``membership`` and ``discretize``, a penalty surface's evaluator,
the gradient rule's ``scenario_for``) and routes its own calls into public
functions through ``Tracer.api``. Operations and direct API calls become
spans (name, start, end, parent); the fine-grained wrappers only keep summed
counts, inclusive time and self time. Self time is a frame's duration minus
the time covered by its wrapped children. Wrappers and constructor counts
record only calls made inside an operation, not the benchmark's own checks.

``NullTracer`` is what untraced runs use: its ``api`` is a plain call and it
wraps nothing.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class NullTracer:
    def api(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, name, fn):
        return fn()

    def rho(self, rho):
        return rho

    def family(self, fam):
        return fam

    def surface(self, surface):
        return surface

    def rule(self, rule):
        return rule

    def count(self, name, k=1):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.t0 = _clock()
        self.stack = []  # frames: [name, start, child_time, span_id]
        self.spans = []
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.counts = defaultdict(int)
        self._next_id = 0
        self._patched = []

    # -- frames ---------------------------------------------------------

    def _run(self, name, fn, args, kwargs, span):
        sid = None
        if span:
            sid = self._next_id
            self._next_id += 1
        frame = [name, _clock(), 0.0, sid]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self.stack.pop()
            dur = end - frame[1]
            self.calls[name] += 1
            self.incl[name] += dur
            self.self_[name] += dur - frame[2]
            if self.stack:
                self.stack[-1][2] += dur
            if span:
                parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
                self.spans.append((sid, name, frame[1] - self.t0, end - self.t0, parent))

    def api(self, name, fn, *args, **kwargs):
        out = self._run("api:" + name, fn, args, kwargs, span=True)
        solver = getattr(out, "solver", None)
        if isinstance(solver, str):  # a RobustValue: record which path decided it
            self.counts["solves:" + solver.split("(")[0]] += 1
        return out

    def op(self, name, fn):
        return self._run("op:" + name, fn, (), {}, span=True)

    def _wrap(self, name, fn, on_result=None):
        def wrapped(*args, **kwargs):
            if not self.stack:  # a call from the benchmark's own checks
                return fn(*args, **kwargs)
            out = self._run(name, fn, args, kwargs, span=False)
            if on_result is not None:
                on_result(out)
            return out

        return wrapped

    def count(self, name, k=1):
        self.counts[name] += k

    # -- wrapped callables handed to the program ------------------------

    def rho(self, rho):
        return dataclasses.replace(rho, evaluate=self._wrap("rho", rho.evaluate))

    def family(self, fam):
        def hit(out):
            if out:
                self.counts["membership_hits"] += 1

        def candidates(out):
            self.counts["discretize_candidates"] += len(out)

        return dataclasses.replace(
            fam,
            membership=self._wrap("membership", fam.membership, hit),
            discretize=self._wrap("discretize", fam.discretize, candidates),
        )

    def surface(self, surface):
        return dataclasses.replace(surface, evaluator=self._wrap("penalty", surface.evaluator))

    def rule(self, rule):
        # the rule's own closure calls scenario_for once per Lambda(X, Y)
        # without going through params, so Lambda is counted as one call too
        sf = self._wrap("scenario_for", rule.params["scenario_for"])
        return dataclasses.replace(
            rule,
            lam=self._wrap("scenario_for", rule.lam),
            params={**rule.params, "scenario_for": sf},
        )

    # -- constructor counts ---------------------------------------------

    def count_constructors(self, *classes):
        """Count constructions made inside traced frames (not the benchmark's
        own input building, which happens between operations)."""
        for cls in classes:
            orig = cls.__init__
            key = "built:" + cls.__name__

            def init(obj, *args, _orig=orig, _key=key, **kwargs):
                if self.stack:
                    self.counts[_key] += 1
                _orig(obj, *args, **kwargs)

            cls.__init__ = init
            self._patched.append((cls, orig))

    def restore(self):
        for cls, orig in reversed(self._patched):
            cls.__init__ = orig
        self._patched.clear()

    # -- output ---------------------------------------------------------

    def ms(self, *names, self_time=False):
        table = self.self_ if self_time else self.incl
        return 1e3 * sum(table.get(n, 0.0) for n in names)

    def n(self, *names):
        return sum(self.calls.get(n, 0) for n in names)

    def write(self, path):
        spans = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in sorted(self.spans, key=lambda s: s[2])
        ]
        summary = {
            name: {"calls": self.calls[name], "ms": 1e3 * self.incl[name], "self_ms": 1e3 * self.self_[name]}
            for name in sorted(self.calls)
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "counts": dict(self.counts), "spans": spans}, fh)
