"""The traced run: per-layer metrics from spans the benchmark records around
its own calls into each layer (cli, graphs, obstructions, solver, labeling,
oracle). Nothing inside the program is instrumented.

The run sets the workload up with tracing on, then makes one untraced pass
and one traced pass at the default thread count, one traced pass at one
thread, and the layer probes. The tracing overhead is the traced pass's
span count times the measured cost of one span: the two passes' wall
difference is printed too, but it is mostly pass-to-pass noise. Each metric
is measured on the workload's own calls. Where a workload makes no call of
the kind a metric needs, the run borrows one operation from another
workload (STAND_INS) and says so in its output. METRIC_MAP names
the end-to-end metric and workload each per-layer metric should move; the
workload in parentheses is census, which is run by hand (see README.md).
"""

from __future__ import annotations

import re
import statistics
import time

import harness
import workloads
from harness import NullTracer, TimeLimit, Tracer, time_limit
from workloads import ALL_KINDS, LIBRARY_TIMEOUT_S, SEARCH_KINDS, run_pass

METRIC_MAP = {
    "cli.startup_ms": "witness latency_p50_ms",
    "cli.import_numpy_ms": "witness latency_p50_ms",
    "graphs.build_us": "witness setup_s (census setup_s)",
    "obstructions.check_us": "witness wall_s, small (census wall_s)",
    "obstructions.hit_frac": "witness wall_s, small (census wall_s)",
    "solver.plan_us": "witness wall_s, small (census wall_s)",
    "solver.pool_overhead_ms": "witness wall_s (census wall_s, latency_p50_ms)",
    "solver.kernel_nodes_per_s": "exhaust wall_s",
    "solver.nodes": "exhaust wall_s",
    "solver.labelings": "exhaust wall_s",
    "solver.parallel_speedup": "exhaust wall_s",
    "solver.early_exit_speedup": "witness wall_s",
    "solver.budget_overrun": "witness wall_s and cpu_s",
    "solver.sem_set_ms": "exhaust wall_s (census wall_s)",
    "labeling.extend_us": "witness wall_s, small",
    "labeling.verify_us": "witness wall_s, small",
    "oracle.ms": "witness setup_s (census setup_s)",
    "oracle.perms_per_s": "witness setup_s (census setup_s)",
    "trace.overhead_ms": "none: spans in the traced pass x cost of a span",
}

EXHAUSTIVE = ("exhaustive", "sem_set")
PROBE_REPEATS = 5
PROBE_TIMEOUT_S = 30.0
# a search this short at one thread is mostly pool start-up at two
SMALL_SEARCH_S = 0.1
# searches that end on their own; a budget cut's overrun is budget_overrun's
DECIDED = ("early_exit", "exhaustive")
SPAN_COST_REPEATS, SPAN_COST_SPANS = 5, 10_000


def _small(pair) -> bool:
    r2, r1 = pair
    return (r2.order >= 6 and r2.has(DECIDED)
            and r1.solver_seconds(ALL_KINDS) < SMALL_SEARCH_S)


def _span_cost_s() -> float:
    """Median cost of one empty span on a fresh tracer."""
    costs = []
    for _ in range(SPAN_COST_REPEATS):
        tr = Tracer()
        start = time.perf_counter()
        for _ in range(SPAN_COST_SPANS):
            with tr.span("empty", "probe"):
                pass
        costs.append((time.perf_counter() - start) / SPAN_COST_SPANS)
    return statistics.median(costs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _speedup(pairs, kinds) -> float:
    """Solver time at one thread over solver time at the default count."""
    return _ratio(sum(r1.solver_seconds(kinds) for _, r1 in pairs),
                  sum(r2.solver_seconds(kinds) for r2, _ in pairs))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class _Run:
    def __init__(self, prog, deadline):
        self.prog, self.deadline = prog, deadline
        self.tr = Tracer()
        self.attempted = self.failed = 0
        self.borrowed: dict[str, list] = {}

    def count(self, results):
        for res in results:
            self.attempted += 1
            if res.error:
                self.fail(res.op, res.error)
        return results

    def limit(self, seconds: float) -> float:
        """A time limit cut to the run's deadline."""
        return min(seconds, self.deadline - time.perf_counter())

    def fail(self, what, why):
        self.failed += 1
        print(f"FAILED {what}: {why}")

    def pass_(self, ops, tag, threads, tracer=None):
        wall, results = run_pass(ops, tracer or self.tr, tag, threads,
                                 self.deadline)
        return wall, self.count(results)

    def pairs(self, ops, tag):
        """Each op at the default thread count and at one thread."""
        _, at_default = self.pass_(ops, tag, None)
        _, at_one = self.pass_(ops, tag + "-1t", 1)
        return list(zip(at_default, at_one))

    def borrow(self, name):
        """Pairs of a stand-in operation, run once per traced run."""
        if name not in self.borrowed:
            op = STAND_INS[name](self.prog, NullTracer())
            self.borrowed[name] = self.pairs([op], "standin-" + name)
        return self.borrowed[name]

    def select(self, own, pred, name):
        chosen = [p for p in own if pred(p)]
        return chosen or [p for p in self.borrow(name) if pred(p)]


STAND_INS = {
    "exhaustive": lambda prog, tr: workloads.library_sem_sets(
        [workloads.valences_c48(prog, tr)])[0],
    "early_exit": lambda prog, tr: workloads.solve_sem_two_cycle(prog, tr, 3, 9),
    "budget": workloads.budget_c313,
    "small": lambda prog, tr: workloads.solve_sem_two_cycle(prog, tr, 3, 5),
}


def _cli_probes(run) -> dict:
    startup, numpy_ms = [], []
    for _ in range(PROBE_REPEATS):
        run.attempted += 2
        try:
            with run.tr.span("cli.help", "probe"):
                helped = harness.run_cli(["--help"], run.limit(PROBE_TIMEOUT_S))
            timed = harness.run_python(
                ["-X", "importtime", "-m", "semlab.cli", "--help"],
                run.limit(PROBE_TIMEOUT_S))
        except TimeLimit as exc:
            run.fail("semlab --help", exc)
            continue
        for proc in (helped, timed):
            if proc.code != 0:
                run.fail("semlab --help", f"exit code {proc.code}")
        startup.append(helped.seconds * 1000.0)
        # "import time: self [us] | cumulative | imported package"
        cumulative = [int(m.group(1)) for m in re.finditer(
            r"^import time:\s+\d+ \|\s+(\d+) \| +numpy$", timed.stderr, re.M)]
        numpy_ms.append(sum(cumulative) / 1000.0)
    return {"cli.startup_ms": (_median(startup), "ms"),
            "cli.import_numpy_ms": (_median(numpy_ms), "ms")}


def _graph_probes(run, graphs) -> dict:
    sl, tr = run.prog.sl, run.tr
    decided = 0
    for g in graphs:
        run.attempted += 1
        try:
            with time_limit(run.limit(LIBRARY_TIMEOUT_S)):
                with tr.span("obstructions.check_all", "probe"):
                    decided += sl.check_all(g) is not None
                # a one-node budget returns right after plan and task split
                with tr.span("solver.plan", "probe"):
                    sl.search_sem(g, sl.SearchConfig(use_obstructions=False,
                                                     budget=1, threads=1))
        except TimeLimit as exc:
            run.fail(f"probe on a graph of order {g.order}", exc)
    us = [s.seconds * 1e6 for s in tr.named("obstructions.check_all")]
    plan = [s.seconds * 1e6 for s in tr.named("solver.plan")]
    return {"obstructions.check_us": (_median(us), "us"),
            "obstructions.hit_frac": (_ratio(decided, len(graphs)), "ratio"),
            "solver.plan_us": (_median(plan), "us")}


def traced_run(prog, workload, seed, deadline, facts):
    run = _Run(prog, deadline)
    tr = run.tr
    ops, _ = workloads.setup(prog, workload, tr, seed)
    wall_off, _ = run.pass_(ops, "untraced", None, NullTracer())
    before = len(tr.spans)
    wall_on, traced = run.pass_(ops, "traced", None)
    traced_spans = len(tr.spans) - before
    _, serial = run.pass_(ops, "traced-1t", 1)
    own = list(zip(traced, serial))
    # the CLI's valences traversals, timed without interpreter start-up
    own += run.pairs(workloads.library_sem_sets(ops), "sem_set")

    exhaustive = run.select(own, lambda p: p[0].has(EXHAUSTIVE), "exhaustive")
    early = run.select(own, lambda p: p[0].has(("early_exit",)), "early_exit")
    budget = run.select(own, lambda p: p[0].has(("budget",)), "budget")
    sem_sets = run.select(own, lambda p: p[0].has(("sem_set",)), "exhaustive")
    small = run.select(own, _small, "small")
    searched = [r1 for _, r1 in own if r1.has(SEARCH_KINDS) and r1.nodes]
    if not tr.named("labeling.verify"):
        run.borrow("early_exit")
    if not tr.named("oracle.search"):
        run.attempted += 1
        try:
            with time_limit(run.limit(LIBRARY_TIMEOUT_S)):
                prog.oracle(tr, "standin-oracle", prog.sl.make_two_cycle(5, 5))
        except TimeLimit as exc:
            run.fail("oracle stand-in", exc)

    def span_median(name, scale):
        return _median(s.seconds * scale for s in tr.named(name))

    oracle = tr.named("oracle.search")
    metrics = {
        **_cli_probes(run),
        "graphs.build_us": (span_median("graphs.build", 1e6), "us"),
        **_graph_probes(run, [op.graph for op in ops]),
        "solver.pool_overhead_ms": (_median(
            (r2.solver_seconds(ALL_KINDS) - r1.solver_seconds(ALL_KINDS))
            * 1000.0 for r2, r1 in small), "ms"),
        "solver.kernel_nodes_per_s": (_ratio(
            sum(r.nodes for r in searched),
            sum(r.solver_seconds(SEARCH_KINDS) for r in searched)), "1/s"),
        "solver.nodes": (sum(r.nodes for r in traced), "count"),
        "solver.labelings": (sum(r.labelings for r in traced), "count"),
        "solver.parallel_speedup": (_speedup(exhaustive, EXHAUSTIVE), "ratio"),
        "solver.early_exit_speedup": (_speedup(early, ("early_exit",)),
                                      "ratio"),
        "solver.budget_overrun": (_ratio(1.0, _speedup(budget, ("budget",))),
                                  "ratio"),
        "solver.sem_set_ms": (_median(r2.solver_seconds(("sem_set",)) * 1000.0
                                      for r2, _ in sem_sets), "ms"),
        "labeling.extend_us": (span_median("labeling.extend", 1e6), "us"),
        "labeling.verify_us": (span_median("labeling.verify", 1e6), "us"),
        "oracle.ms": (span_median("oracle.search", 1000.0), "ms"),
        "oracle.perms_per_s": (_ratio(
            sum(s.attrs["perms"] for s in oracle),
            sum(s.seconds for s in oracle)), "1/s"),
        "trace.overhead_ms": (traced_spans * _span_cost_s() * 1000.0, "ms"),
    }
    metrics = {name: metrics[name] for name in METRIC_MAP}

    info = {
        "stand_ins": ", ".join(sorted(run.borrowed)) or "none",
        "untraced_pass_s": wall_off,
        "traced_pass_s": wall_on,
        "traced_minus_untraced_ms": (wall_on - wall_off) * 1000.0,
        "traced_pass_spans": traced_spans,
    }
    for r2, r1 in own:
        info[f"op[{r2.op}]"] = (
            f"nodes {r2.nodes}, wall s {r2.wall:.4f}, solver s "
            f"{r2.solver_seconds(ALL_KINDS):.4f} at default threads; wall s "
            f"{r1.wall:.4f}, solver s {r1.solver_seconds(ALL_KINDS):.4f} at 1")
    path = harness.OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tr.write(path, {"workload": workload, "seed": seed, "machine": facts,
                    "metrics": {k: {"value": v, "unit": u}
                                for k, (v, u) in metrics.items()},
                    "metric_moves": METRIC_MAP, "info": info})
    info["trace_file"] = str(path.relative_to(harness.ROOT))
    return metrics, run.attempted, run.failed, info
