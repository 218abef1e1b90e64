"""semlab benchmark: census, exhaust and witness workloads.

    python3 perfbench/run.py --workload exhaust --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported and run from its
src/ directory. Each workload is a closed loop with one operation in flight
and the solver at its default thread count (all cores). With --trace 0 the
run measures whole passes over the workload's operations for --seconds and
reports the end-to-end metrics; with --trace 1 it runs the traced layer
analysis in layers.py and reports the per-layer metrics. The last line of
standard output is a JSON object; the lines before it repeat every number
by name and unit, together with the seed and the machine facts. Exits 0
with "correct": false when an output was wrong, and non-zero without a
result when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict

import harness
import layers
import workloads

# a run must end within 180 s; every time limit is cut to this deadline
HARD_LIMIT_S = 165.0
SETUP_REPEATS = 5
# below this many operations a pass has no tail, and p90 would only repeat
# the slowest operations
P90_MIN_OPS = 100


def measure(ops, seconds, deadline, setup_times):
    """End-to-end metrics from whole untraced passes filling ``seconds``."""
    tr = harness.NullTracer()
    walls, by_op, peak_rss = [], defaultdict(list), 0.0
    attempted = failed = 0
    cpu0, start = harness.cpu_seconds(), time.perf_counter()
    while True:
        wall, results = workloads.run_pass(ops, tr, f"p{len(walls)}", None, deadline)
        walls.append(wall)
        for res in results:
            by_op[res.op].append(res.wall)
            peak_rss = max(peak_rss, res.peak_rss_mb)
            attempted += 1
            failed += res.error is not None
            if res.error:
                print(f"FAILED {res.op}: {res.error}")
        now = time.perf_counter()
        if (now + statistics.median(walls) > start + seconds
                or len(results) < len(ops)):
            break
    cpu = harness.cpu_seconds() - cpu0
    # one latency per operation, the median over passes, so the number of
    # passes a run fits does not move the percentiles
    latencies = [statistics.median(v) * 1000.0 for v in by_op.values()]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "latency_p50_ms": (harness.percentile(latencies, 50), "ms"),
    }
    if len(latencies) >= P90_MIN_OPS:
        metrics["latency_p90_ms"] = (harness.percentile(latencies, 90), "ms")
    metrics |= {
        "cpu_s": (cpu / len(walls), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    info = {"passes": len(walls), "operations_per_pass": len(ops)}
    return metrics, attempted, failed, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    prog = workloads.Program(harness.import_program())
    facts = harness.machine_facts()

    if args.trace:
        metrics, attempted, failed, info = layers.traced_run(
            prog, args.workload, args.seed, deadline, facts)
    else:
        setup_times, ops = [], None
        for _ in range(SETUP_REPEATS):
            built, seconds = workloads.setup(prog, args.workload,
                                             harness.NullTracer(), args.seed)
            ops = ops or built
            setup_times.append(seconds)
        metrics, attempted, failed, info = measure(
            ops, args.seconds, deadline, setup_times)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in sorted({**facts, **info}.items()):
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {failed / attempted:.6g} ratio "
          f"(the result's failed / attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
