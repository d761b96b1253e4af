"""Benchmark of thmc: one workload per process, a closed loop with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 36 --trace 0

Set-up (a fresh import of thmc, fixture load, seeded input generation)
is repeated SETUP_REPEATS times and its median reported as ``setup_s``.
Then whole passes over the workload's steps run back to back within
``--seconds``: at least one pass, and another only while it is expected
to end in time. A pass with any failed check stops the run.

``--trace 0`` reports the end-to-end metrics: medians over the passes,
and the peak resident memory of the process. ``--trace 1`` spends half
the time on untraced passes and half on passes in which the public
functions of each layer are wrapped from outside (see tracer.py), and
reports the per-layer metrics of one pass, with the tracing overhead as
the traced minus the untraced median wall time.

Human-readable lines come first; the last line of standard output is
one JSON object. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 25
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Outcome:
    """The checks of a run, and the loop that runs its passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run_passes(self, workload: workloads.Workload, seconds: float, after_step=None, after_pass=None) -> list[tuple[float, float]]:
        """(wall, cpu) of each pass, until a check fails or the next pass would end after ``seconds``.

        At least one pass runs; a pass is expected to take the median of those before it.
        """
        times = []
        start = perf_counter()
        while True:
            checks = workloads.Checks()
            wall, cpu = perf_counter(), process_time()
            for step in workload.steps:
                step.run(checks)
                if after_step is not None:
                    after_step(step.label)
            times.append((perf_counter() - wall, process_time() - cpu))
            self.attempted += checks.attempted
            self.failures += checks.failures
            if after_pass is not None:
                after_pass()
            elapsed = perf_counter() - start
            if self.failures or elapsed + statistics.median(w for w, _ in times) > seconds:
                return times


def timed_setup(name: str, seed: int, plan: workloads.Plan) -> tuple[workloads.Workload, float]:
    """The last of SETUP_REPEATS set-ups and their median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # free the modules of the previous set-up, so they do not count in peak_rss_mb
        start = perf_counter()
        workload = workloads.setup(name, seed, plan)
        times.append(perf_counter() - start)
    return workload, statistics.median(times)


def traced_metrics(workload: workloads.Workload, seconds: float, outcome: Outcome, untraced_wall: float) -> dict:
    """Per-layer metrics of one pass: counts must repeat exactly, times are medians over passes."""
    per_pass: list[dict] = []
    with tracer.Tracer(workload.modules) as tr:
        previous: dict = {}

        def after_step(label: str) -> None:
            # per-step counts of the first traced pass
            nonlocal previous
            if per_pass:
                return
            now = {k: v for k, v in tr.layer_metrics().items() if tracer.PER_LAYER_UNITS[k] == "count"}
            now["hilbert.unimodular"] = tr.counters["hilbert.unimodular"]
            moved = {k: v - previous.get(k, 0) for k, v in now.items()}
            print(f"  step {label}: " + ", ".join(f"{k}={v}" for k, v in moved.items() if v))
            previous = now

        def after_pass() -> None:
            per_pass.append(tr.layer_metrics())
            tr.reset()

        times = outcome.run_passes(workload, seconds, after_step, after_pass)
    counts = [{k: v for k, v in p.items() if tracer.PER_LAYER_UNITS[k] == "count"} for p in per_pass]
    if any(c != counts[0] for c in counts):
        outcome.failures.append("per-layer counts differ between traced passes of identical inputs")
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(counts[0])
    traced_wall = statistics.median(w for w, _ in times)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"{len(times)} traced passes: median wall {traced_wall:.4f} s traced, {untraced_wall:.4f} s untraced")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, plan: workloads.Plan = workloads.FULL) -> dict:
    """Run one workload and return the result object the benchmark prints last."""
    workload, setup_s = timed_setup(name, seed, plan)
    outcome = Outcome()
    # a traced run splits its time between untraced and traced passes
    times = outcome.run_passes(workload, seconds / 2 if trace else seconds)
    wall_s = statistics.median(w for w, _ in times)
    print(f"workload {name}, seed {seed}, {len(times)} untraced passes")
    if trace and not outcome.failures:
        metrics = traced_metrics(workload, seconds / 2, outcome, wall_s)
        units = tracer.PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(c for _, c in times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    error_rate = len(outcome.failures) / outcome.attempted
    for key, value in metrics.items():
        print(f"{key:32s} {value:16.6f} {units[key]}")
    print(f"{'error_rate':32s} {error_rate:16.6f} ratio ({len(outcome.failures)} failed of {outcome.attempted} checks)")
    for failure in outcome.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = not outcome.failures
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        # a failed check voids every timing of the run
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()} if correct else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    try:
        import thmc
    except ImportError as exc:
        print(f"cannot import thmc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(thmc.__file__).resolve().parent.parent != SRC:
        print(f"thmc was imported from {thmc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
