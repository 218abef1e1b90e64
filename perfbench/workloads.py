"""The three workloads: their inputs, their operations and the checks that
every operation's output is correct.

An operation is one graph decided (``census``, library calls) or one CLI
invocation (``exhaust``, ``witness``). Each returns a ``Result`` holding its
latency, the solver time of each solver call by kind, node counts and, when
the output was wrong, the reason. Operations run one at a time.

Kinds of solver call, used by the per-layer ratios:
  early_exit  search_sem stopped at its first witness (status SEM)
  exhaustive  search_sem covered the whole space (NOT_SEM_EXHAUSTED)
  budget      search_sem stopped at its node budget
  sem_set     a full valence-set traversal
  obstructed  an obstruction decided the graph, no search ran
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import TimeLimit, own_peak_rss_mb, run_cli, run_python, time_limit

HERE = Path(__file__).resolve().parent
LIBRARY_TIMEOUT_S = 30.0
CLI_TIMEOUT_S = 90.0
SETUP_TIMEOUT_S = 60.0

SEARCH_KINDS = ("early_exit", "exhaustive", "budget")
ALL_KINDS = SEARCH_KINDS + ("sem_set",)


@dataclass
class Result:
    op: str
    order: int
    wall: float = 0.0
    parts: list[tuple[str, float]] = field(default_factory=list)
    nodes: int = 0
    labelings: int = 0
    peak_rss_mb: float = 0.0  # of the process that ran the operation
    error: str | None = None

    def solver_seconds(self, kinds) -> float:
        return sum(t for k, t in self.parts if k in kinds)

    def has(self, kinds) -> bool:
        return any(k in kinds for k, _ in self.parts)


class Program:
    """The semlab names the benchmark calls, imported from the checkout."""

    def __init__(self, semlab):
        self.sl = semlab
        self.kind_of_status = {
            semlab.STATUS_SEM: "early_exit",
            semlab.STATUS_NOT_SEM_EXHAUSTED: "exhaustive",
            semlab.STATUS_UNKNOWN_BUDGET_EXCEEDED: "budget",
            semlab.STATUS_NOT_SEM_OBSTRUCTION: "obstructed",
        }

    def check_witness(self, tr, op_id, g, cert) -> str | None:
        """Verify a certificate and re-derive it from its vertex labels."""
        sl = self.sl
        try:
            with tr.span("labeling.extend", op_id):
                again = sl.extend_to_sem(g, cert.vertex_labels)
        # extend_to_sem also checks its own result with assert and raise
        except (sl.LabelingError, AssertionError) as exc:
            return f"witness vertex labels do not extend: {exc!r}"
        with tr.span("labeling.verify", op_id):
            verdict = sl.verify_sem(g, cert)
        if not verdict:
            return f"invalid certificate: {verdict.reason}"
        if again != cert:
            return "certificate differs from extend_to_sem of its labels"
        return None

    def oracle(self, tr, name, g):
        """The brute-force reference verdict for a graph."""
        with tr.span("oracle.search", name) as attrs:
            ref = self.sl.oracle_search(g)
            attrs["perms"] = ref.stats.nodes
        return ref


# --- census: library calls on a seeded atlas sample -------------------------

class CensusOp:
    """search_sem, then sem_set when SEM: what one sweep row computes."""

    def __init__(self, prog, name, graph, oracle_out):
        self.prog, self.name, self.graph = prog, name, graph
        self.ref_sem = oracle_out.status == prog.sl.STATUS_SEM
        self.ref_values = oracle_out.valence_set.values

    def run(self, tr, op_id, threads, deadline) -> Result:
        sl, g = self.prog.sl, self.graph
        res = Result(self.name, g.order)
        out = vs = None
        start = time.perf_counter()
        try:
            with time_limit(min(LIBRARY_TIMEOUT_S, deadline - start)):
                with tr.span("solver.search_sem", op_id):
                    out = sl.search_sem(g, sl.SearchConfig(threads=threads))
                t_search = time.perf_counter() - start
                if out.status == sl.STATUS_SEM:
                    with tr.span("solver.sem_set", op_id):
                        vs = sl.sem_set(g, threads=threads)
        except TimeLimit as exc:
            res.error = str(exc)
        except Exception as exc:  # a crash is a failed operation
            res.error = f"crash: {exc!r}"
        res.wall = time.perf_counter() - start
        res.peak_rss_mb = own_peak_rss_mb()
        if res.error:
            return res
        res.nodes, res.labelings = out.stats.nodes, out.stats.labelings
        res.parts.append((self.prog.kind_of_status.get(out.status, "?"),
                          t_search))
        if vs is not None:
            res.parts.append(("sem_set", res.wall - t_search))
        res.error = self._check(tr, op_id, out, vs)
        return res

    def _check(self, tr, op_id, out, vs) -> str | None:
        sl = self.prog.sl
        if not self.ref_sem:
            if out.status in (sl.STATUS_NOT_SEM_EXHAUSTED,
                              sl.STATUS_NOT_SEM_OBSTRUCTION):
                return None
            return f"status {out.status}, oracle says not SEM"
        if out.status != sl.STATUS_SEM:
            return f"status {out.status}, oracle says SEM"
        if not vs.complete or vs.values != self.ref_values:
            return f"valence set {vs.values}, oracle says {self.ref_values}"
        return self.prog.check_witness(tr, op_id, self.graph, out.witness)


def census_ops(prog, tr, seed: int) -> list[CensusOp]:
    """The seeded atlas sample, parsed by semlab, with oracle references."""
    sl = prog.sl
    proc = run_python([str(HERE / "atlas_sample.py"), "--seed", str(seed)],
                      SETUP_TIMEOUT_S)
    if proc.code != 0:
        raise SystemExit(f"perfbench: atlas sample failed: {proc.stderr}")
    ops = []
    for index, order, edges, g6 in json.loads(proc.stdout):
        name = f"atlas#{index}"
        with tr.span("graphs.build", name):
            g = sl.Graph(order, tuple(map(tuple, edges)))
            parsed = sl.parse_graph(g6, "graph6")
        if parsed != g:
            raise SystemExit(f"perfbench: graph6 parse of {name} differs")
        ops.append(CensusOp(prog, name, g, prog.oracle(tr, name, g)))
    return ops


# --- CLI workloads ----------------------------------------------------------

class CliOp:
    """One ``semlab`` invocation with --json output, checked against its
    expected status or valence set and exit code."""

    def __init__(self, prog, name, graph, args, *, status=None, code,
                 valences=None):
        self.prog, self.name, self.graph, self.args = prog, name, graph, args
        self.status, self.code, self.valences = status, code, valences

    def run(self, tr, op_id, threads, deadline) -> Result:
        res = Result(self.name, self.graph.order)
        args = self.args + ["--json"]
        if threads is not None:
            args += ["--threads", str(threads)]
        command = args[0]
        start = time.perf_counter()
        try:
            with tr.span("cli." + command, op_id):
                proc = run_cli(args, min(CLI_TIMEOUT_S, deadline - start))
        except TimeLimit as exc:
            res.wall, res.error = time.perf_counter() - start, str(exc)
            return res
        res.wall, res.peak_rss_mb = proc.seconds, proc.peak_rss_mb
        try:
            data = json.loads(proc.stdout)
            if command == "solve":
                res.error = self._check_solve(tr, op_id, data, res)
            else:
                # valences reports no solver time; the traced run times
                # its traversal as a library call (SemSetOp)
                if (data["valence_set"] != list(self.valences)
                        or not data["complete"]):
                    res.error = (f"valence set {data['valence_set']}, "
                                 f"expected {list(self.valences)}")
        except (ValueError, KeyError, TypeError) as exc:  # JSON, shape
            res.error = (f"exit {proc.code}, malformed output ({exc!r}): "
                         f"{proc.stderr.strip()[-200:]}")
            return res
        if res.error is None and proc.code != self.code:
            res.error = f"exit code {proc.code}, expected {self.code}"
        return res

    def _check_solve(self, tr, op_id, data, res) -> str | None:
        sl = self.prog.sl
        stats = data["stats"]
        res.nodes, res.labelings = stats["nodes"], stats["labelings"]
        res.parts.append((self.prog.kind_of_status.get(data["status"], "?"),
                          stats["millis"] / 1000.0))
        if sl.Graph.from_json_dict(data["graph"]) != self.graph:
            return "CLI built a different graph"
        if data["status"] not in self.status:
            return f"status {data['status']}, expected {'/'.join(self.status)}"
        if data["status"] == sl.STATUS_SEM:
            cert = sl.SemLabeling.from_json_dict(data["witness"])
            return self.prog.check_witness(tr, op_id, self.graph, cert)
        return None


class SemSetOp:
    """``sem_set`` as a library call, checked against known valences. The
    traced run times the CLI's ``valences`` traversals this way, so that
    interpreter start-up does not count as solver time."""

    def __init__(self, prog, name, graph, valences):
        self.prog, self.name, self.graph = prog, name, graph
        self.valences = valences

    def run(self, tr, op_id, threads, deadline) -> Result:
        res = Result(self.name, self.graph.order)
        start = time.perf_counter()
        try:
            with time_limit(min(LIBRARY_TIMEOUT_S, deadline - start)):
                with tr.span("solver.sem_set", op_id):
                    vs = self.prog.sl.sem_set(self.graph, threads=threads)
        except TimeLimit as exc:
            res.error = str(exc)
        except Exception as exc:  # a crash is a failed operation
            res.error = f"crash: {exc!r}"
        res.wall = time.perf_counter() - start
        res.peak_rss_mb = own_peak_rss_mb()
        if res.error:
            return res
        res.parts.append(("sem_set", res.wall))
        if not vs.complete or vs.values != self.valences:
            res.error = f"valence set {vs.values}, expected {self.valences}"
        return res


def library_sem_sets(ops) -> list[SemSetOp]:
    """The valences traversals of a workload's CLI operations."""
    return [SemSetOp(op.prog, op.name, op.graph, op.valences)
            for op in ops if isinstance(op, CliOp) and op.valences]


def _two_cycle(prog, tr, m, n):
    with tr.span("graphs.build", f"C({m},{n})"):
        return prog.sl.make_two_cycle(m, n)


def solve_two_cycle(prog, tr, m, n, status, code, extra=()):
    g = _two_cycle(prog, tr, m, n)
    return CliOp(prog, " ".join((f"solve C({m},{n})", *extra)), g,
                 ["solve", "--gen", "two-cycle", str(m), str(n), *extra],
                 status=status, code=code)


def solve_sem_two_cycle(prog, tr, m, n):
    return solve_two_cycle(prog, tr, m, n, (prog.sl.STATUS_SEM,), 0)


# C6 + C(3,4): even order 12 with degree sequence (4, 2, ..., 2), so an
# obstruction proves it is not SEM and the search without obstructions must
# traverse its whole space (6,465,584 nodes).
EXHAUST_G6 = "KhEG?CB?_?_P"
# established by full traversal; C(4,8) is perfect, so it equals the interval
C48_VALENCES = (29, 30)


def exhaust_ops(prog, tr, seed: int) -> list[CliOp]:
    sl = prog.sl
    with tr.span("graphs.build", "C6+C(3,4)"):
        g = sl.parse_graph(EXHAUST_G6, "graph6")
        built = sl.disjoint_union(sl.make_cycle(6), sl.make_two_cycle(3, 4))
    if g != built:
        raise SystemExit("perfbench: exhaust graph6 does not encode C6 + C(3,4)")
    if sl.check_all(g) is None:
        raise SystemExit("perfbench: exhaust graph lost its obstruction")
    ops = [CliOp(prog, "solve C6+C(3,4)", g,
                 ["solve", "--g6", EXHAUST_G6, "--no-obstructions"],
                 status=(sl.STATUS_NOT_SEM_EXHAUSTED,), code=1),
           valences_c48(prog, tr)]
    random.Random(seed).shuffle(ops)
    return ops


def valences_c48(prog, tr) -> CliOp:
    g = _two_cycle(prog, tr, 4, 8)
    if tuple(prog.sl.sem_interval(g).values()) != C48_VALENCES:
        raise SystemExit("perfbench: C(4,8) interval no longer [29, 30]")
    return CliOp(prog, "valences C(4,8)", g,
                 ["valences", "--gen", "two-cycle", "4", "8"],
                 code=0, valences=C48_VALENCES)


# SEM two-cycles of order 11 found by search; each stops at its first witness
WITNESS_SEM = ((3, 9), (5, 7), (4, 8), (6, 6), (7, 5))
# small enough for the oracle (at most 10 free vertices) to be the reference
WITNESS_ORACLE = ((3, 5), (4, 4), (5, 5))


def witness_ops(prog, tr, seed: int) -> list[CliOp]:
    sl = prog.sl
    sem = (sl.STATUS_SEM,)
    not_sem = (sl.STATUS_NOT_SEM_EXHAUSTED, sl.STATUS_NOT_SEM_OBSTRUCTION)
    ops = [solve_sem_two_cycle(prog, tr, m, n) for m, n in WITNESS_SEM]
    for m, n in WITNESS_ORACLE:
        ref = prog.oracle(tr, f"C({m},{n})", _two_cycle(prog, tr, m, n))
        is_sem = ref.status == sl.STATUS_SEM
        ops.append(solve_two_cycle(prog, tr, m, n, sem if is_sem else not_sem,
                                   0 if is_sem else 1))
    ops.append(budget_c313(prog, tr))
    random.Random(seed).shuffle(ops)
    return ops


def budget_c313(prog, tr) -> CliOp:
    return solve_two_cycle(prog, tr, 3, 13,
                           (prog.sl.STATUS_UNKNOWN_BUDGET_EXCEEDED,), 2,
                           extra=("--budget", "20000"))


WORKLOADS = {
    "census": census_ops,
    "exhaust": exhaust_ops,
    "witness": witness_ops,
}


def run_pass(ops, tr, tag, threads, deadline):
    """One closed-loop pass, one operation in flight; returns (wall
    seconds, results)."""
    start = time.perf_counter()
    results = []
    for i, op in enumerate(ops):
        op_id = f"{tag}-{i}"
        with tr.span("op", op_id, label=op.name, threads=threads) as attrs:
            res = op.run(tr, op_id, threads, deadline)
            attrs.update(nodes=res.nodes, error=res.error)
        results.append(res)
        if res.error and time.perf_counter() >= deadline:
            break
    return time.perf_counter() - start, results


def setup(prog, workload, tr, seed) -> tuple[list, float]:
    """Build the workload's inputs and reference verdicts; returns the ops
    and the set-up time, a fresh interpreter's imports included. A set-up
    that fails or runs past its limit ends the run without a result."""
    start = time.perf_counter()
    proc = run_python(["-c", "import semlab"], SETUP_TIMEOUT_S)
    if proc.code != 0:
        raise SystemExit(f"perfbench: import semlab failed: {proc.stderr}")
    with time_limit(SETUP_TIMEOUT_S):
        ops = WORKLOADS[workload](prog, tr, seed)
    return ops, time.perf_counter() - start
