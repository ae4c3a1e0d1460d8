#!/usr/bin/env python3
"""Run workloads repeatedly with different seeds and report the spread of
every end-to-end metric.

    python3 bench/steady.py --runs 10 --seconds 25 [--workloads exact-book,dual-alloc]

For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json. It also checks that the share of failed operations is the
same in every run. Runs are sequential; results go to
``bench/results/steady-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: correct=false\n{proc.stderr}", file=sys.stderr)
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (BENCH / "results").mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(workload, seed, args.seconds))
            m = results[-1]["metrics"]
            print(f"  {workload} seed {seed}: " + ", ".join(f"{n}={v['value']:.4g}" for n, v in m.items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, failed share {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  <-- NOT CONSTANT'}, "
              f"correct {all(r['correct'] for r in results)}")
        summary = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            summary[name] = {"values": vals, "q1": q1, "median": med, "q3": q3, "spread": spread}
            print(f"  {name:12s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}  bound {bounds[name]:.0%}")
        (BENCH / "results" / f"steady-{workload}.json").write_text(
            json.dumps({"seconds": args.seconds, "runs": results, "summary": summary}, indent=1))
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
