"""Run one bstar benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 60 --trace 0

The run imports bstar from ``src/`` of the checkout it sits in and runs
identical passes in a closed loop, one at a time in this process, until
the next pass would end after ``--seconds``.  Every operation's output is
checked against ``expected.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Before
each pass the workload is set up afresh several times (import bstar, build
the inputs), and the pass runs on the last set-up, so set-up samples are
spread over the whole run like the passes.
``--trace 1`` sets up once, alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see ``tracer.py``), plus
the tracing overhead.  A fixed pure-Python loop is timed before and after
the passes to show a slow host window; it never rescales a metric.

Times are means over the whole run, not medians: the host this was
written on switches between a fast and a slow state (about 1.4x apart) for
seconds to minutes at a time.  A median jumps from one state's value to
the other's when the slow share of a run crosses one half; a mean moves in
proportion to that share.

The last line of standard output is the result object; the line before
it holds diagnostics.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS_PER_PASS = 5


def import_bstar():
    """A fresh import of bstar (and its CLI module) from this checkout."""
    for name in [n for n in sys.modules if n == "bstar" or n.startswith("bstar.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    bstar = importlib.import_module("bstar")
    importlib.import_module("bstar.cli")
    if not os.path.abspath(bstar.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bstar imported from {bstar.__file__}, not {SRC}")
    return bstar


def calibrate(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop (host speed diagnostic)."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times)


def percentile(values, q):
    """Percentile with linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def set_up(name, seed, workdir):
    """Import bstar afresh and build the workload's inputs in an empty
    ``workdir``; returns (bstar, workload, seconds taken)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.mkdir(workdir)
    gc.collect()    # drop the previous import, as a fresh process would
    start = perf_counter()
    bstar = import_bstar()
    workload = workloads.WORKLOADS[name]()
    workload.setup(bstar, seed, workdir)
    return bstar, workload, perf_counter() - start


class Runner:
    def __init__(self):
        self.attempted = 0
        self.problems = []

    def run_pass(self, wl, bstar):
        """One pass of workload ``wl``: returns (wall seconds, [(op, seconds)])."""
        ops = wl.ops()
        wl.begin_pass()
        timings, outputs = [], []
        start = perf_counter()
        for op in ops:
            if op.cold:
                bstar.clear_caches()
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception:       # a failed operation is counted, not fatal
                out = traceback.format_exc()
                outputs.append((op, None, out))
            else:
                outputs.append((op, out, None))
            timings.append((op, perf_counter() - t0))
        wall = perf_counter() - start
        wl.end_pass()
        for op, out, error in outputs:
            self.attempted += 1
            problem = f"{op.label} raised:\n{error}" if error else op.check(out)
            if problem:
                self.problems.append(problem)
        return wall, timings


def timed_round(runner, args, workdir):
    """Set the workload up SETUPS_PER_PASS times, then run one pass on the
    last set-up.  Returns (set-up seconds, pass seconds, [(command, field,
    seconds)]).  Nothing of bstar outlives the call, so each round starts
    from a clean heap, as a fresh process would."""
    setups = []
    for _ in range(SETUPS_PER_PASS):
        bstar = workload = None     # let set_up's collection free the last one
        bstar, workload, took = set_up(args.workload, args.seed, workdir)
        setups.append(took)
    wall, timings = runner.run_pass(workload, bstar)
    # A command is one call a user would make: each operation, except
    # that a whole suites pass is the single command `bstar verify all`.
    if workload.ONE_COMMAND:
        return setups, wall, [("verify all", None, wall)]
    return setups, wall, [(op.label, op.field, t) for op, t in timings]


def end_to_end(runner, args, workdir):
    # An untimed set-up first writes the bytecode and warms the file cache.
    set_up(args.workload, args.seed, workdir)
    setup_times, walls, by_command, by_field = [], [], {}, {}
    start = perf_counter()
    while True:
        began = perf_counter()
        setups, wall, commands = timed_round(runner, args, workdir)
        setup_times.extend(setups)
        walls.append(wall)
        fields = {}
        for label, field, t in commands:
            by_command.setdefault((label, field), []).append(t)
            if field:
                fields[field] = fields.get(field, 0.0) + t
        for field, t in fields.items():
            by_field.setdefault(field, []).append(t)
        if perf_counter() - start + (perf_counter() - began) > args.seconds:
            break
    # Each command's latency is its mean over the passes; the percentiles
    # are taken over the distinct commands of a pass.
    latencies = [statistics.fmean(times) for times in by_command.values()]
    metrics = {
        "setup_s": (statistics.fmean(setup_times), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "cmd_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "cmd_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    diag = {"passes": len(walls), "pass_walls_s": walls, "commands": len(latencies),
            "setups": len(setup_times), "setup_times_s": setup_times}
    for field, times in by_field.items():
        diag[f"wall_{field.lower()}_s"] = statistics.fmean(times)
    return metrics, diag


def per_layer(runner, args, workdir):
    bstar, workload, _ = set_up(args.workload, args.seed, workdir)
    tr = tracer.Tracer(bstar)
    plain, traced, snapshots = [], [], []
    start = perf_counter()
    while True:
        wall, _ = runner.run_pass(workload, bstar)
        plain.append(wall)
        tr.install()
        try:
            wall_t, _ = runner.run_pass(workload, bstar)
        finally:
            tr.uninstall()
        traced.append(wall_t)
        unknown = tr.unknown_keys()
        if unknown:
            raise tracer.IncompleteTraceError(f"untracked layer keys: {unknown}")
        snapshots.append(tr.snapshot())
        if perf_counter() - start + wall + wall_t > args.seconds:
            break
    # Traced passes run identical inputs, so every count must repeat.
    metrics = {}
    unsteady = []
    for key, unit in tracer.metric_units().items():
        values = [s[key] for s in snapshots]
        if unit == "count" and len(set(values)) != 1:
            unsteady.append(f"{key} {values}")
        metrics[key] = (values[0] if unit == "count" else statistics.fmean(values), unit)
    if len(snapshots) > 1:
        runner.attempted += 1
        if unsteady:
            runner.problems.append("counts differ between traced passes: "
                                   + "; ".join(unsteady))
    metrics["trace.wall_s"] = (statistics.fmean(traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.fmean(plain), "s")
    metrics["trace.overhead_s"] = (statistics.fmean(traced) - statistics.fmean(plain), "s")
    return metrics, {"passes": len(traced), "traced_walls_s": traced,
                     "untraced_walls_s": plain}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "bstar")):
        print(f"perfbench: no bstar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Set-up imports bstar as an installed package does: from bytecode,
    # whatever PYTHONDONTWRITEBYTECODE says (the first import writes it).
    sys.dont_write_bytecode = False
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    runner = Runner()
    try:
        calib_before = calibrate()
        if args.trace:
            metrics, diag = per_layer(runner, args, workdir)
        else:
            metrics, diag = end_to_end(runner, args, workdir)
        calib_after = calibrate()
    except (ImportError, tracer.IncompleteTraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    diag.update(workload=args.workload, seed=args.seed, trace=args.trace,
                calib_before_s=calib_before,
                calib_after_s=calib_after,
                calib_drift=calib_after / calib_before - 1)
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
