"""Exhaustive decision procedure for super edge-magicness.

The search assigns labels 1..p to vertices in a fixed static order
(descending degree, ties by index). After each assignment every fully
labeled edge contributes an endpoint sum; a branch dies as soon as a sum
repeats, the sums stop fitting in any window of q consecutive integers, or
too few achievable sums remain inside every legal window. Any complete
bijection that survives is automatically extendable (q distinct sums inside
a width-(q-1) window must be consecutive), so reaching depth p is a witness.

Work splits deterministically on the top two label assignments; each
subtree is a task. One executor streams the tasks to a worker pool (a pool
of one, in this process, when single-threaded) and replays their results in
prefix order as if they ran strictly sequentially, so statuses, valence sets,
node counts and witnesses do not depend on the worker count. The witness is
the lexicographically least in assignment order over the space covered. The
node budget bounds the work done, not only the count reported.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import os
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph
from .labeling import SemLabeling, dual_valence, extend_to_sem, verify_sem
from .obstructions import ObstructionVerdict, check_all

STATUS_SEM = "SEM"
STATUS_NOT_SEM_EXHAUSTED = "NOT_SEM_EXHAUSTED"
STATUS_NOT_SEM_OBSTRUCTION = "NOT_SEM_OBSTRUCTION"
STATUS_UNKNOWN_BUDGET_EXCEEDED = "UNKNOWN_BUDGET_EXCEEDED"
STATUS_TRIVIAL_EDGELESS = "TRIVIAL_EDGELESS"

DEFAULT_BUDGET = 10**9

# below this order a worker pool costs more than the whole search
_PARALLEL_MIN_ORDER = 6


@dataclass(frozen=True)
class ValenceInterval:
    """Integer interval [ceil(min), floor(max)] of would-be valences."""

    lo: int
    hi: int
    min_s: Fraction
    max_s: Fraction

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def values(self) -> list[int]:
        return [] if self.empty else list(range(self.lo, self.hi + 1))

    def to_json(self) -> list[int]:
        return [] if self.empty else [self.lo, self.hi]


@dataclass(frozen=True)
class ValenceSet:
    """Valences realized by actual labelings; ``complete`` is False when a
    budget cut means further valences may exist."""

    values: tuple[int, ...]
    complete: bool = True

    def to_json(self) -> list[int]:
        return list(self.values)


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    labelings: int
    millis: float


@dataclass(frozen=True)
class SearchConfig:
    use_obstructions: bool = True
    symmetry_reduction: bool = True
    budget: int = DEFAULT_BUDGET
    threads: int | None = None  # None = all available cores

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be a positive node count")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1")

    def resolved_threads(self) -> int:
        return self.threads if self.threads is not None else (os.cpu_count() or 1)


@dataclass(frozen=True)
class SearchOutcome:
    graph: Graph
    status: str
    witness: SemLabeling | None
    obstruction: ObstructionVerdict | None
    interval: ValenceInterval | None
    valence_set: ValenceSet | None
    stats: SearchStats
    config: SearchConfig
    prefix: tuple[tuple[int, int], ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "status": self.status,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "obstruction": self.obstruction.to_json_dict() if self.obstruction else None,
            "interval": self.interval.to_json() if self.interval else None,
            "valence_set": self.valence_set.to_json() if self.valence_set else None,
            "stats": {"nodes": self.stats.nodes, "labelings": self.stats.labelings,
                      "millis": self.stats.millis},
            "config": {
                "use_obstructions": self.config.use_obstructions,
                "symmetry_reduction": self.config.symmetry_reduction,
                "budget": self.config.budget,
                "threads": self.config.resolved_threads(),
                "prefix": [list(t) for t in self.prefix] if self.prefix else None,
            },
        }


def rearrangement_extremes(degrees: Sequence[int]) -> tuple[int, int]:
    """Exact (min, max) of sum(deg(v) * g(v)) over all label bijections g.

    Pairing the sorted degrees against opposite-sorted labels minimizes the
    weighted sum; same-sorted maximizes it.
    """
    if not degrees:
        raise ValueError("need at least one degree")
    labels = range(1, len(degrees) + 1)
    lo = sum(d * i for d, i in zip(sorted(degrees, reverse=True), labels))
    hi = sum(d * i for d, i in zip(sorted(degrees), labels))
    return lo, hi


def sem_interval(g: Graph) -> ValenceInterval:
    """Endpoints of the integer valence window for g (exact rationals kept)."""
    p, q = g.order, g.size
    if q == 0:
        raise ValueError("valence interval undefined for an edgeless graph")
    lo_num, hi_num = rearrangement_extremes(g.degrees())
    edge_label_total = q * p + q * (q + 1) // 2
    min_s = Fraction(lo_num + edge_label_total, q)
    max_s = Fraction(hi_num + edge_label_total, q)
    return ValenceInterval(math.ceil(min_s), math.floor(max_s), min_s, max_s)


def assignment_order(g: Graph) -> list[int]:
    """Static search order: vertices by descending degree, ties by index."""
    deg = g.degrees()
    return sorted(range(g.order), key=lambda v: (-deg[v], v))


# --- search plan: static per-graph data shared by all tasks ---------------

@dataclass(frozen=True)
class _Plan:
    p: int
    q: int
    # position of each vertex in assignment order
    pos: tuple[int, ...]
    # positions of earlier-assigned neighbors, per position
    earlier: tuple[tuple[int, ...], ...]
    # edges fully labeled once depth d is assigned
    placed_cum: tuple[int, ...]
    # edges with both endpoints still unassigned once depth d is assigned
    uu_after: tuple[int, ...]
    # assigned positions that still have an unassigned neighbor at depth d
    frontier: tuple[tuple[int, ...], ...]
    # largest label tried at depth 0: (p+1)//2 under complement symmetry
    anchor_cap: int


def _make_plan(g: Graph, symmetry: bool) -> _Plan:
    p = g.order
    order = assignment_order(g)
    pos = {v: i for i, v in enumerate(order)}
    edge_pos = [(min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in g.edges]
    earlier = [[] for _ in range(p)]
    nbr_pos = [[] for _ in range(p)]
    for lo, hi in edge_pos:
        earlier[hi].append(lo)
        nbr_pos[lo].append(hi)
        nbr_pos[hi].append(lo)
    return _Plan(
        p=p, q=g.size, pos=tuple(pos[v] for v in range(p)),
        earlier=tuple(tuple(sorted(e)) for e in earlier),
        placed_cum=tuple(itertools.accumulate(len(e) for e in earlier)),
        uu_after=tuple(sum(1 for lo, _ in edge_pos if lo > d) for d in range(p)),
        frontier=tuple(
            tuple(j for j in range(d + 1) if nbr_pos[j] and max(nbr_pos[j]) > d)
            for d in range(p)),
        anchor_cap=(p + 1) // 2 if symmetry else p)


@dataclass(frozen=True)
class _TaskResult:
    """One subtree's search. A task that stops at its first witness (vertex
    labels by vertex) or at its cap has not ``exhausted`` its subtree."""

    nodes: int
    labelings: int = 0
    exhausted: bool = True
    witness: tuple[int, ...] | None = None
    valences: tuple[int, ...] = ()


class _Stop(Exception):
    """A task reached its node cap or was told to abort."""


_WORKER_ABORT = None  # set by the pool initializer in worker processes


def _pool_init(abort_value):
    global _WORKER_ABORT
    _WORKER_ABORT = abort_value


def _run_task(plan: _Plan, collect: bool, idx: int,
              prefix_labels: tuple[int, ...], cap: int) -> _TaskResult:
    """Search the subtree under ``prefix_labels`` in at most ``cap`` nodes.
    ``collect`` gathers every valence over a full traversal; otherwise the
    task stops at its first witness. ``idx`` is its place in prefix order."""
    p, q, earlier, placed_cum = plan.p, plan.q, plan.earlier, plan.placed_cum
    uu_after, frontier, anchor_cap = plan.uu_after, plan.frontier, plan.anchor_cap
    q1 = q - 1
    cap_l = 2 * p - q

    used_label = bytearray(p + 2)
    used_sum = bytearray(2 * p + 2)
    labels_at = [0] * p
    # one pending-sums buffer per depth: child frames must not clobber the
    # parent's entries before it unwinds
    added_rows = [[0] * (p + 1) for _ in range(p + 1)]

    abort_box = _WORKER_ABORT
    ctr = [0, 0]  # nodes, labelings
    witness_box: list = [None]  # witness labels by vertex
    valences: set[int] = set()

    cur_min, cur_max = 2 * p + 1, 0
    for d, lab in enumerate(prefix_labels):
        ok, cur_min, cur_max = _apply_assignment(
            d, lab, labels_at, used_label, used_sum, earlier,
            cur_min, cur_max, q1, cap_l)
        if not ok:
            # the prefix itself is infeasible: an empty, fully covered subtree
            return _TaskResult(0)
    start = len(prefix_labels)
    pos = plan.pos

    def finish(labels_full, k, covered=1) -> bool:
        # ``covered`` completions share this node (the ascending fill stands
        # in for every permutation of an unconstrained tail); a witness
        # search stops at the single witness it reports
        if collect:
            ctr[1] += covered
            valences.add(k)
            return False
        ctr[1] += 1
        witness_box[0] = tuple(labels_full[pos[v]] for v in range(p))
        if abort_box is not None:
            with abort_box.get_lock():
                if idx < abort_box.value:
                    abort_box.value = idx
        return True

    def rec(d, cmin, cmax,
            earlier=earlier, placed_cum=placed_cum, used_label=used_label,
            used_sum=used_sum, labels_at=labels_at, added_rows=added_rows,
            p=p, q=q, q1=q1, cap_l=cap_l, cap=cap,
            abort_box=abort_box, ctr=ctr) -> bool:
        nodes = ctr[0]
        lab_hi = anchor_cap if d == 0 else p
        earlier_d = earlier[d]
        now_placed = placed_cum[d]
        check_window = 0 < now_placed < q
        added = added_rows[d]
        for lab in range(1, lab_hi + 1):
            if used_label[lab]:
                continue
            nodes += 1
            if nodes > cap:
                ctr[0] = nodes - 1
                raise _Stop
            if abort_box is not None and nodes % 4096 == 1:
                if abort_box.value < idx:
                    ctr[0] = nodes
                    raise _Stop
            new_min, new_max = cmin, cmax
            n_added = 0
            ok = True
            for j in earlier_d:
                s = lab + labels_at[j]
                if used_sum[s]:
                    ok = False
                    break
                used_sum[s] = 1
                added[n_added] = s
                n_added += 1
                if s < new_min:
                    new_min = s
                if s > new_max:
                    new_max = s
            if ok and n_added:
                if new_max - new_min > q1:
                    ok = False
                else:
                    lo_l = new_max - q1
                    if lo_l < 3:
                        lo_l = 3
                    hi_l = new_min if new_min < cap_l else cap_l
                    if lo_l > hi_l:
                        ok = False
            if ok and check_window:
                ok = _window_feasible(
                    d, lab, labels_at, used_label, used_sum,
                    new_min, new_max, now_placed, q, q1, cap_l, p,
                    uu_after, frontier)
            if ok:
                used_label[lab] = 1
                labels_at[d] = lab
                ctr[0] = nodes
                if d + 1 == p:
                    if finish(labels_at, p + q + new_min):
                        return True
                elif now_placed == q:
                    # no edges left: any fill works; ascending is the least
                    fill = [x for x in range(1, p + 1) if not used_label[x]]
                    full = list(labels_at)
                    full[d + 1:] = fill
                    if finish(full, p + q + new_min, math.factorial(len(fill))):
                        return True
                elif rec(d + 1, new_min, new_max):
                    return True
                nodes = ctr[0]
                used_label[lab] = 0
            for t in range(n_added):
                used_sum[added[t]] = 0
        ctr[0] = nodes
        return False

    try:
        if start == p:
            finish(labels_at, (p + q + cur_min) if q else 0)
        else:
            rec(start, cur_min, cur_max)
        exhausted = witness_box[0] is None
    except _Stop:
        exhausted = False
    return _TaskResult(ctr[0], ctr[1], exhausted, witness_box[0],
                       tuple(sorted(valences)))


def _apply_assignment(d, lab, labels_at, used_label, used_sum, earlier,
                      cur_min, cur_max, q1, cap_l):
    """Prefix version of the in-loop assignment checks (no node counting)."""
    if used_label[lab]:
        return False, cur_min, cur_max
    added = []
    for j in earlier[d]:
        s = lab + labels_at[j]
        if used_sum[s]:
            for t in added:
                used_sum[t] = 0
            return False, cur_min, cur_max
        used_sum[s] = 1
        added.append(s)
        if s < cur_min:
            cur_min = s
        if s > cur_max:
            cur_max = s
    if added:
        lo_l = max(cur_max - q1, 3)
        hi_l = min(cur_min, cap_l)
        if cur_max - cur_min > q1 or lo_l > hi_l:
            for t in added:
                used_sum[t] = 0
            return False, cur_min, cur_max
    used_label[lab] = 1
    labels_at[d] = lab
    return True, cur_min, cur_max


def _window_feasible(d, lab, labels_at, used_label, used_sum,
                     cmin, cmax, placed, q, q1, cap_l, p,
                     uu_after, frontier) -> bool:
    """Conservative check that enough achievable sums remain in some legal
    q-window. Never rejects a feasible node; may pass infeasible ones.

    The candidate label is not yet marked used at this point, so it is
    excluded from the unused-label scan explicitly.
    """
    r = q - placed
    uu = uu_after[d]
    lo_l = cmax - q1
    if lo_l < 3:
        lo_l = 3
    hi_l = cmin if cmin < cap_l else cap_l
    u_lo1 = u_lo2 = 0
    for x in range(1, p + 1):
        if not used_label[x] and x != lab:
            if not u_lo1:
                u_lo1 = x
            else:
                u_lo2 = x
                break
    u_hi1 = u_hi2 = 0
    for x in range(p, 0, -1):
        if not used_label[x] and x != lab:
            if not u_hi1:
                u_hi1 = x
            else:
                u_hi2 = x
                break
    min_f = 1 << 30
    max_f = 0
    if uu and u_lo2:
        min_f = u_lo1 + u_lo2
        max_f = u_hi1 + u_hi2
    if r > uu and frontier[d]:
        fm = fM = lab if frontier[d][0] == d else labels_at[frontier[d][0]]
        for j in frontier[d]:
            x = lab if j == d else labels_at[j]
            if x < fm:
                fm = x
            if x > fM:
                fM = x
        if fm + u_lo1 < min_f:
            min_f = fm + u_lo1
        if fM + u_hi1 > max_f:
            max_f = fM + u_hi1
    if max_f == 0:
        return True
    lo = lo_l if lo_l > min_f else min_f
    hi = hi_l + q1
    if max_f < hi:
        hi = max_f
    avail = 0
    for s in range(lo, hi + 1):
        if not used_sum[s]:
            avail += 1
            if avail >= r:
                return True
    return False


# --- task construction and the in-order streaming executor ----------------

def _build_tasks(plan: _Plan) -> tuple[list[tuple[int, ...]], int]:
    """Enumerate feasible (first, second) label prefixes in lexicographic
    order; returns (prefixes, prefix_nodes_counted)."""
    p, q = plan.p, plan.q
    if p <= 2:
        return [()], 0
    prefixes = []
    nodes = 0
    q1 = q - 1
    cap_l = 2 * p - q
    adjacent = 0 in plan.earlier[1]
    for l0 in range(1, plan.anchor_cap + 1):
        nodes += 1
        for l1 in range(1, p + 1):
            if l1 == l0:
                continue
            nodes += 1
            if adjacent:
                s = l0 + l1
                if max(s - q1, 3) > min(s, cap_l):
                    continue
            prefixes.append((l0, l1))
    return prefixes, nodes


@dataclass
class _EngineResult:
    nodes: int
    labelings: int = 0
    witness: tuple[int, ...] | None = None
    valences: set[int] = field(default_factory=set)
    exceeded: bool = False
    visited: int = 0  # nodes of every task that ran, discarded ones too


# tasks submitted ahead of the replay per worker; bounds the work discarded
_WINDOW_PER_WORKER = 2


class _InlinePool(Executor):
    """A pool of one worker: runs each task in this process when submitted."""

    def submit(self, fn, /, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _execute(plan: _Plan, tasks, prefix_nodes: int, budget: int, threads: int,
             collect: bool) -> _EngineResult:
    """Run the tasks, at most a window ahead of an in-order replay that
    applies sequential budget rules. A task's cap is the budget less the
    prefix nodes and the nodes of every finished, exhausted task before it:
    never below its sequential allowance, so a task that hits its cap proves
    a sequential run would run out of budget too. Once the replay stops, at
    the first witness or at the budget cut, tasks past the cut quit."""
    out = _EngineResult(nodes=prefix_nodes)
    if prefix_nodes > budget:
        out.nodes, out.exceeded = budget, True
        return out
    n = len(tasks)
    if threads > 1 and n > 1 and plan.p >= _PARALLEL_MIN_ORDER:
        window = _WINDOW_PER_WORKER * min(threads, n)
        abort = mp.Value("q", n)  # tasks with a larger index quit
        pool = ProcessPoolExecutor(max_workers=min(threads, n),
                                   initializer=_pool_init, initargs=(abort,))
    else:
        window, abort, pool = 1, None, _InlinePool()
    running: dict[int, Future] = {}  # submitted, not yet replayed
    i = nxt = 0
    with pool:
        try:
            while i < n:
                if nxt < n and len(running) < window and (
                        nxt == i or not running[i].done()):
                    cap = budget - out.nodes - sum(
                        f.result().nodes for f in running.values()
                        if f.done() and f.result().exhausted)
                    running[nxt] = pool.submit(_run_task, plan, collect, nxt,
                                               tasks[nxt], cap)
                    nxt += 1
                    continue
                res = running.pop(i).result()
                out.visited += res.nodes
                allowed = budget - out.nodes
                found = res.witness is not None and res.nodes <= allowed
                if not found and (not res.exhausted or res.nodes > allowed):
                    # a strictly sequential run would have exhausted the
                    # budget inside this task before covering it
                    out.nodes, out.exceeded = budget, True
                    break
                out.nodes += res.nodes
                out.labelings += res.labelings
                out.valences.update(res.valences)
                out.witness = res.witness
                if found:
                    break
                i += 1
        finally:
            # no task left unreplayed is needed: those still running quit
            if abort is not None:
                with abort.get_lock():
                    abort.value = i - 1
            for f in running.values():
                f.cancel()
    out.visited += sum(f.result().nodes for f in running.values()
                       if not f.cancelled())
    return out


def _normalize_prefix(g: Graph, prefix) -> tuple[tuple[int, int], ...]:
    order = assignment_order(g)
    pairs = tuple((int(v), int(lab)) for v, lab in prefix)
    if [v for v, _ in pairs] != order[:len(pairs)]:
        raise ValueError(
            f"prefix must pin the first vertices in assignment order {order}")
    labs = [lab for _, lab in pairs]
    if len(set(labs)) != len(labs) or any(not 1 <= x <= g.order for x in labs):
        raise ValueError("prefix labels must be distinct values in 1..p")
    return pairs


def search_sem(g: Graph, config: SearchConfig | None = None, *,
               prefix: Iterable[tuple[int, int]] | None = None) -> SearchOutcome:
    """Decide super edge-magicness of g.

    With ``use_obstructions`` an analytic verdict short-circuits the search.
    ``prefix`` pins the labels of the first vertices in assignment order and
    restricts the search to that subspace (symmetry reduction does not apply
    then); it exists for restricted cross-checks against the oracle.
    """
    cfg = config or SearchConfig()
    start = time.perf_counter()
    p, q = g.order, g.size

    def outcome(status, witness=None, obstruction=None, engine=None,
                norm_prefix=None):
        millis = round((time.perf_counter() - start) * 1000.0, 3)
        nodes = engine.nodes if engine else 0
        labelings = engine.labelings if engine else 0
        interval = sem_interval(g) if q else None
        return SearchOutcome(g, status, witness, obstruction, interval, None,
                             SearchStats(nodes, labelings, millis), cfg,
                             norm_prefix)

    if q == 0:
        return outcome(STATUS_TRIVIAL_EDGELESS)
    if cfg.use_obstructions:
        verdict = check_all(g)
        if verdict is not None:
            return outcome(STATUS_NOT_SEM_OBSTRUCTION, obstruction=verdict)

    norm = None if prefix is None else _normalize_prefix(g, prefix)
    plan = _make_plan(g, cfg.symmetry_reduction and norm is None)
    if norm is None:
        tasks, prefix_nodes = _build_tasks(plan)
    else:
        tasks, prefix_nodes = [tuple(lab for _, lab in norm)], 0
    engine = _execute(plan, tasks, prefix_nodes, cfg.budget,
                      cfg.resolved_threads(), False)

    if engine.witness is not None:
        cert = extend_to_sem(g, engine.witness)
        check = verify_sem(g, cert)
        if not check:
            raise AssertionError(f"witness fails verification: {check.reason}")
        return outcome(STATUS_SEM, witness=cert, engine=engine, norm_prefix=norm)
    if engine.exceeded:
        return outcome(STATUS_UNKNOWN_BUDGET_EXCEEDED, engine=engine,
                       norm_prefix=norm)
    return outcome(STATUS_NOT_SEM_EXHAUSTED, engine=engine, norm_prefix=norm)


def sem_set(g: Graph, budget: int = DEFAULT_BUDGET,
            threads: int | None = None) -> ValenceSet:
    """All valences realized by some labeling of g (full traversal).

    Searches the half-space with the anchor label restricted and closes the
    result under complement duality, which covers the full bijection space
    exactly. An empty valence interval short-circuits to the empty set.
    """
    p, q = g.order, g.size
    if q == 0:
        raise ValueError("valence set undefined for an edgeless graph")
    interval = sem_interval(g)
    if interval.empty:
        return ValenceSet((), True)
    plan = _make_plan(g, symmetry=True)
    tasks, prefix_nodes = _build_tasks(plan)
    threads = threads if threads is not None else (os.cpu_count() or 1)
    engine = _execute(plan, tasks, prefix_nodes, budget, max(1, threads), True)
    values = set(engine.valences)
    values.update(dual_valence(p, q, k) for k in engine.valences)
    if not values <= set(interval.values()):
        raise AssertionError(f"valences {sorted(values)} outside the interval "
                             f"[{interval.lo}, {interval.hi}]")
    return ValenceSet(tuple(sorted(values)), complete=not engine.exceeded)


PERFECT = "perfect"
NOT_PERFECT = "not-perfect"
VACUOUS_NOT_SEM = "vacuous-not-sem"
UNKNOWN = "unknown"


def is_perfect_sem(g: Graph, budget: int = DEFAULT_BUDGET,
                   threads: int | None = None) -> str:
    """Compare the valence interval with the realized valence set."""
    if g.size == 0:
        raise ValueError("perfect super edge-magicness undefined without edges")
    interval = sem_interval(g)
    if interval.empty:
        return VACUOUS_NOT_SEM
    realized = sem_set(g, budget, threads)
    if not realized.complete:
        return UNKNOWN
    if set(realized.values) == set(interval.values()):
        return PERFECT
    return NOT_PERFECT


# --- independent brute-force oracle ----------------------------------------

_ORACLE_MAX_FREE = 10


def oracle_search(g: Graph, *, prefix: Iterable[tuple[int, int]] | None = None,
                  chunk_size: int = 100_000) -> SearchOutcome:
    """Plain enumeration of every bijection, no pruning, no symmetry.

    Kept deliberately independent of the backtracking engine: labels are
    assigned by vertex index and every bijection's edge sums are tested
    directly (vectorized). ``prefix`` fixes some vertices' labels; at most
    10 vertices may remain free.
    """
    start = time.perf_counter()
    p, q = g.order, g.size
    pairs = list(prefix or ())
    fixed = {int(v): int(lab) for v, lab in pairs}
    if len(fixed) != len(pairs):
        raise ValueError("prefix vertices must be distinct")
    for v, lab in fixed.items():
        if not (0 <= v < p and 1 <= lab <= p):
            raise ValueError(f"prefix pair ({v}, {lab}) out of range")
    if len(set(fixed.values())) != len(fixed):
        raise ValueError("prefix labels must be distinct")
    free_vertices = [v for v in range(p) if v not in fixed]
    if len(free_vertices) > _ORACLE_MAX_FREE:
        raise ValueError(
            f"oracle enumeration limited to {_ORACLE_MAX_FREE} free vertices, "
            f"got {len(free_vertices)}")
    norm_prefix = tuple(sorted(fixed.items())) if fixed else None
    cfg = SearchConfig(use_obstructions=False, symmetry_reduction=False,
                       threads=1)

    def outcome(status, witness=None, valence_set=None, tested=0):
        millis = round((time.perf_counter() - start) * 1000.0, 3)
        interval = sem_interval(g) if q else None
        return SearchOutcome(g, status, witness, None, interval, valence_set,
                             SearchStats(tested, tested, millis), cfg,
                             norm_prefix)

    if q == 0:
        return outcome(STATUS_TRIVIAL_EDGELESS)

    free_labels = sorted(set(range(1, p + 1)) - set(fixed.values()))
    base = np.zeros(p, dtype=np.int16)
    for v, lab in fixed.items():
        base[v] = lab
    us = np.array([u for u, _ in g.edges], dtype=np.intp)
    vs = np.array([v for _, v in g.edges], dtype=np.intp)

    tested = 0
    first_witness = None
    valences: set[int] = set()
    perm_iter = itertools.permutations(free_labels)
    while True:
        block = list(itertools.islice(perm_iter, chunk_size))
        if not block:
            break
        rows = np.tile(base, (len(block), 1))
        if free_vertices:
            rows[:, free_vertices] = np.asarray(block, dtype=np.int16)
        sums = rows[:, us] + rows[:, vs]
        if q == 1:
            mask = np.ones(len(block), dtype=bool)
        else:
            ordered = np.sort(sums, axis=1)
            mask = (np.diff(ordered, axis=1) == 1).all(axis=1)
        if mask.any():
            kvals = p + q + sums[mask].min(axis=1)
            valences.update(int(k) for k in np.unique(kvals))
            if first_witness is None:
                row = rows[int(np.flatnonzero(mask)[0])]
                first_witness = tuple(int(x) for x in row)
        tested += len(block)

    vset = ValenceSet(tuple(sorted(valences)), complete=True)
    if first_witness is not None:
        cert = extend_to_sem(g, first_witness)
        return outcome(STATUS_SEM, witness=cert, valence_set=vset, tested=tested)
    return outcome(STATUS_NOT_SEM_EXHAUSTED, valence_set=vset, tested=tested)
