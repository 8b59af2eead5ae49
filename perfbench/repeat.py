"""Repeat benchmark runs and judge their stability.

    python3 perfbench/repeat.py --workload suites --runs 10
        Runs seeds 1..10 untraced and prints, for each end-to-end metric,
        the median and the quartile spread (Q3 - Q1) / median next to the
        metric's bound in BENCHMARK.json.  A spread must stay below a
        third of its bound (setup_s is exempt: only its median is bounded).

    python3 perfbench/repeat.py --workload cli --runs 2 --trace 1 --same-seed
        Self-test: traced runs on one seed must give identical counts
        (.calls, .cells, .nnz and every other count metric).

Runs are sequential, one child process at a time.  Exits 1 when a run is
incorrect, a spread is too wide or a count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    diag = json.loads(lines[-2])["diagnostics"]
    return json.loads(lines[-1]), diag


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args()

    results = []
    for k in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else k)
        result, diag = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        shown = {m: round(v["value"], 4) for m, v in result["metrics"].items()
                 if not args.trace or m.startswith("trace.")}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"passes={diag['passes']} drift={diag['calib_drift']:+.3f} {shown}",
              flush=True)
    ok = all(r["correct"] for r in results)

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        differing = [name for name, unit in units.items() if unit == "count"
                     and len({r["metrics"][name]["value"] for r in results}) != 1]
        print(f"count metrics differing between runs: {differing or 'none'}")
        return 0 if ok and not differing else 1

    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        steady = name == "setup_s" or spread < bound / 3
        ok = ok and steady
        print(f"{name:12s} median={med:.6g} spread={spread:.4f} "
              f"bound={bound} {'ok' if steady else 'TOO WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
