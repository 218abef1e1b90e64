"""Exhaustive decision procedure for super edge-magicness.

The search assigns labels 1..p to vertices in a fixed static order
(descending degree, ties by index). After each assignment every fully
labeled edge contributes an endpoint sum; a branch dies as soon as a sum
repeats or the sums stop fitting in a window of q consecutive integers.
A label's new sums are tested against the placed sums and the window
before any is marked, so a branch that dies leaves nothing to undo. A
graph with more than 2p-3 edges has no labeling at all (Enomoto, Lladó,
Nakamigawa & Ringel 1998), so there the window has width -1 and every edge
placed kills its branch. Any bijection that survives is extendable (q
distinct sums inside a width-(q-1) window must be consecutive). Past the
last vertex with an edge every fill of the unused labels survives, so
reaching the leaf depth, the last one with an edge (or the first free one
below a pinned prefix), is a witness: its ascending fill is the least of the
labelings that node stands for.

A seam is the depth just past the last position of a component (any but
the one that ends last). Below any depth the search reads only the labels
and edge sums in use and the labels of the live positions, the earlier ones
with a neighbor further down; at a seam the finished component adds no
live position, so many labelings of it meet in one such key. Equal keys
mean equal subtrees, so each task keeps a bounded memo of the subtrees it
searched whole below its seams and credits their nodes and labelings on a
repeat instead of searching them again. Node counts stay exact, the budget
still bounds the nodes searched, and a connected graph has no seam.

Work splits deterministically on the top two label assignments; each
subtree is a task, whose two labels follow from its index. One executor
streams the tasks to a worker pool (a pool of one, in this process, when
single-threaded) and replays their results in prefix order as if they ran
strictly sequentially, so statuses, valence sets, node counts and witnesses
do not depend on the worker count. The witness is the lexicographically
least in assignment order over the space covered. The node budget bounds
the work done, not only the count reported.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import os
import sys
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter

from .graphs import Graph
from .labeling import (SemLabeling, ValenceInterval, dual_valence,
                       extend_to_sem, sem_interval, verify_sem)
from .obstructions import ObstructionVerdict, check_all

STATUS_SEM = "SEM"
STATUS_NOT_SEM_EXHAUSTED = "NOT_SEM_EXHAUSTED"
STATUS_NOT_SEM_OBSTRUCTION = "NOT_SEM_OBSTRUCTION"
STATUS_UNKNOWN_BUDGET_EXCEEDED = "UNKNOWN_BUDGET_EXCEEDED"
STATUS_TRIVIAL_EDGELESS = "TRIVIAL_EDGELESS"

DEFAULT_BUDGET = 10**9

# below this order a worker pool costs more than the whole search. Medians
# of 5 runs, 1 thread against 2, on a 2-vCPU VM: order-7 solves of C(3,5)
# and C(4,4) take 2.1-2.3 and 1.5-1.6 ms against 19-23 and 17-18 ms;
# order-8 sem_set traversals take 14-16 ms against 27-39 ms, about the
# pool's start-up cost; order-9 traversals break even (56-68 ms against
# 51-98 ms), and order-10 ones gain (222-240 ms against 128-155 ms).
_PARALLEL_MIN_ORDER = 9

# frames left to the kernel's callers on top of its one per depth: the
# interpreter's default recursion limit
_CALLER_FRAMES = 1000


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
                "budget": self.config.budget,
                "threads": self.config.resolved_threads(),
                "prefix": [list(t) for t in self.prefix] if self.prefix else None,
            },
        }


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
    # one past the last position with an edge: every later vertex is isolated
    last: int
    # (depth, live positions) at each seam below last - 1, by depth: a seam
    # is the depth just past a component's last position, and its live
    # positions are the earlier ones with a neighbor at the seam or later
    seams: tuple[tuple[int, tuple[int, ...]], ...]


def _make_plan(g: Graph) -> _Plan:
    p = g.order
    order = assignment_order(g)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[] for _ in range(p)]
    reach = list(range(p))  # each position's last neighbor position, or itself
    for u, v in g.edges:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        earlier[b].append(a)
        if b > reach[a]:
            reach[a] = b
    last = max((d + 1 for d in range(p) if earlier[d]), default=0)
    # union-find over the positions up to x, joined along their edges: the
    # component of x ends at x when none of its members reaches past x (an
    # edge out of it would lead further down). Each position joins the live
    # list once and leaves it once
    root, top = list(range(p)), reach[:]  # top: a root's members' last reach
    seams, live = [], []
    for x in range(last - 2):
        r = x
        for s in earlier[x]:
            while root[s] != s:  # path halving
                root[s] = root[root[s]]
                s = root[s]
            if s != r:
                root[r] = s
                top[s] = max(top[s], top[r])
                r = s
        live.append(x)
        if top[r] == x:
            live = [j for j in live if reach[j] > x]
            seams.append((x + 1, tuple(live)))
    return _Plan(
        p=p, q=g.size, pos=tuple(pos[v] for v in range(p)),
        earlier=tuple(tuple(sorted(e)) for e in earlier),
        last=last, seams=tuple(seams))


@dataclass(frozen=True)
class _TaskResult:
    """One subtree's search. A task that stops at its first witness (vertex
    labels by vertex) or at its cap has not ``exhausted`` its subtree."""

    nodes: int
    labelings: int
    exhausted: bool
    witness: tuple[int, ...] | None
    valences: tuple[int, ...]
    credited: int  # of the nodes, those taken from the seam memo unsearched


class _Stop(Exception):
    """A task stops before covering its subtree: at its first witness, at
    its node cap or when told to abort. Carries the nodes counted."""

    def __init__(self, nodes: int, witness: tuple[int, ...] | None = None):
        self.nodes, self.witness = nodes, witness


_WORKER_ABORT = None  # set by the pool initializer in worker processes

# entries a task's seam memo holds at most; past it the memo only answers.
# An entry takes ~190 bytes at order 12 and ~340 at order 20 (tracemalloc),
# so a full memo takes 6-11 MB per task. The most measured is 4,442 entries,
# in a task of C6 + C(3,4); order-13 unions of a two-cycle and cycles peak at
# 1,306
_MEMO_MAX_ENTRIES = 1 << 15


def _pool_init(abort_value):
    global _WORKER_ABORT
    _WORKER_ABORT = abort_value


def _run_task(plan: _Plan, collect: bool, idx: int,
              prefix_labels: tuple[int, ...], cap: int) -> _TaskResult:
    """Search the subtree under ``prefix_labels`` in at most ``cap`` nodes.
    ``collect`` gathers every valence over a full traversal; otherwise the
    task stops at its first witness. ``idx`` is its place in prefix order.

    The search recurses once per depth, so the task raises the recursion
    limit, which is process-wide, to fit p frames above its callers'. It
    never lowers it."""
    p, q, earlier, pos = plan.p, plan.q, plan.earlier, plan.pos
    sys.setrecursionlimit(max(sys.getrecursionlimit(), p + _CALLER_FRAMES))
    # the edge sums must fit a window of width q-1. A graph with more than
    # 2p-3 edges has no labeling (Enomoto et al. 1998): width -1, so every
    # edge placed ends its branch
    q1 = q - 1 if q <= 2 * p - 3 else -1

    used_label = bytearray(p + 2)
    used_sum = bytearray(2 * p + 2)
    labels_at = [0] * p

    abort_box = _WORKER_ABORT
    # one test per node serves the cap and, in a pool worker, the abort poll
    # at every 4096th node: poll[0] is whichever of the two comes first
    poll = [cap if abort_box is None else min(cap, 0)]
    # pinned depths try only their label. Like the prefix enumeration that
    # made them, they count no nodes: the count starts below zero by the
    # prefix length
    start = len(prefix_labels)
    choices = [(lab,) for lab in prefix_labels] + [range(1, p + 1)] * (p - start)
    # past the last edge any fill of the unused labels works, so the leaf is
    # the last depth with an edge, or the first free one below the pins. Its
    # ascending fill is the least of the (p-1-leaf)! completions it stands for
    leaf = min(p - 1, max(plan.last - 1, start))
    covered = math.factorial(p - 1 - leaf)
    labelings = [0]
    valences: set[int] = set()
    # the search below each depth: rec, or at a seam the memo in front of it
    descend = []

    def stop_test(nodes):
        # past poll[0]: stop at the cap, or in a pool worker once the abort
        # value is below this task's index; else move the poll on
        if nodes > cap:
            raise _Stop(cap)
        if abort_box.value < idx:
            raise _Stop(nodes)
        poll[0] = min(cap, nodes + 4095)

    def rec(d, cmin, cmax, nodes,
            earlier=earlier, used_label=used_label, used_sum=used_sum,
            labels_at=labels_at, q1=q1, leaf=leaf, poll=poll,
            descend=descend) -> int:
        earlier_d = earlier[d]
        for lab in choices[d]:
            if used_label[lab]:
                continue
            nodes += 1
            if nodes > poll[0]:
                stop_test(nodes)
            # the new sums differ as the earlier labels do, which stay put
            # while this depth is live: test them all, then mark them
            new_min, new_max = cmin, cmax
            for j in earlier_d:
                s = lab + labels_at[j]
                if used_sum[s]:
                    break
                if s < new_min:
                    new_min = s
                if s > new_max:
                    new_max = s
            else:
                # a node that places no edge keeps a window that passed:
                # its parent's, or the empty one, 0 - (2p+1)
                if new_max - new_min <= q1:
                    for j in earlier_d:
                        used_sum[lab + labels_at[j]] = 1
                    used_label[lab] = 1
                    labels_at[d] = lab
                    if d < leaf:
                        nodes = descend[d + 1](d + 1, new_min, new_max, nodes)
                    elif collect:
                        labelings[0] += covered
                        valences.add(p + q + new_min)
                    else:
                        full = labels_at[:d + 1] + [
                            x for x in range(1, p + 1) if not used_label[x]]
                        if abort_box is not None:
                            with abort_box.get_lock():
                                abort_box.value = min(abort_box.value, idx)
                        labelings[0] = 1
                        raise _Stop(nodes, tuple(full[pos[v]] for v in range(p)))
                    used_label[lab] = 0
                    for j in earlier_d:
                        used_sum[lab + labels_at[j]] = 0
        return nodes

    # the seam memo (module docstring): cmin and cmax are the least and
    # greatest sums in use, so the key holds all the subtree reads. A hit's
    # valences are in the set already. Keys at different seams differ in
    # the number of labels in use
    live_labels = {d: itemgetter(*live) if live else (lambda labels: None)
                   for d, live in plan.seams}
    memo: dict[tuple, tuple[int, int]] = {}
    credited = [0]

    def seam(d, cmin, cmax, nodes) -> int:
        # fixed lengths p+2 and 2p+2: the concatenation is exact
        key = bytes(used_label + used_sum), live_labels[d](labels_at)
        hit = memo.get(key)
        if hit is None:
            before = labelings[0]
            # a witness or a stop raises past the store
            after = rec(d, cmin, cmax, nodes)
            if len(memo) < _MEMO_MAX_ENTRIES:
                memo[key] = (after - nodes, labelings[0] - before)
            return after
        sub_nodes, sub_labelings = hit
        nodes += sub_nodes
        if nodes > poll[0]:
            stop_test(nodes)
        labelings[0] += sub_labelings
        credited[0] += sub_nodes
        return nodes

    descend += [rec] * (leaf + 1)
    for d in live_labels:
        if start <= d < leaf:
            descend[d] = seam
    try:
        nodes, witness, exhausted = rec(0, 2 * p + 1, 0, -start), None, True
    except _Stop as stop:
        nodes, witness, exhausted = stop.nodes, stop.witness, False
    finally:
        # rec and descend refer to each other, so only the cycle collector
        # would free the memo: free it now
        memo.clear()
    # a pinned prefix that fails stops before any counted node
    return _TaskResult(max(nodes, 0), labelings[0], exhausted, witness,
                       tuple(sorted(valences)), credited[0])


# --- task construction and the in-order streaming executor ----------------

class _TaskPrefixes(Sequence):
    """The (first, second) label prefixes of the task split, in lexicographic
    order, made on demand: task i is ``divmod(i, p - 1)``, its second label
    skipping the first."""

    def __init__(self, p: int):
        # complement symmetry: f and p+1-f give consecutive edge sums
        # together, so first labels up to (p+1)//2 meet every labeling or its
        # complement. sem_set's duality closure relies on this cap to recover
        # the rest
        self.p, self.first_max = p, (p + 1) // 2
        # the prefix nodes counted: one per first label and one per pair. The
        # tasks' pinned depths reject an infeasible pair without counting one
        self.nodes = self.first_max * p

    def __len__(self) -> int:
        return self.first_max * (self.p - 1)

    def __getitem__(self, i: int) -> tuple[int, int]:
        if not 0 <= i < len(self):
            raise IndexError(i)
        first, second = divmod(i, self.p - 1)
        return first + 1, second + 1 + (second >= first)


@dataclass
class _EngineResult:
    nodes: int
    labelings: int = 0
    witness: tuple[int, ...] | None = None
    valences: set[int] = field(default_factory=set)
    exceeded: bool = False
    visited: int = 0  # nodes of every task that ran, discarded ones too
    credited: int = 0  # of the nodes, those taken from seam memos unsearched


# tasks submitted ahead of the replay per worker; bounds the work discarded
_WINDOW_PER_WORKER = 2


class _InlinePool(Executor):
    """A pool of one worker: runs each task in this process when submitted."""

    def submit(self, fn, /, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _execute(g: Graph, budget: int, threads: int, collect: bool,
             prefix: tuple[int, ...] | None = None) -> _EngineResult:
    """Run the tasks of ``_TaskPrefixes``, or the one task that ``prefix``
    (labels in assignment order) pins, at most a window ahead of an in-order
    replay that applies sequential budget rules. A task's cap is what the
    budget leaves after the nodes replayed when it is submitted: never below
    its sequential allowance, so a task that hits its cap proves a sequential
    run would run out of budget too. Once the replay stops, at the first
    witness or at the budget cut, the abort value makes the tasks past the
    cut quit, the queued ones at their first node."""
    plan = _make_plan(g)
    tasks = _TaskPrefixes(plan.p) if prefix is None else [prefix]
    out = _EngineResult(nodes=tasks.nodes if prefix is None else 0)
    if out.nodes > budget:
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
                    running[nxt] = pool.submit(_run_task, plan, collect, nxt,
                                               tasks[nxt], budget - out.nodes)
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
                out.credited += res.credited
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
    out.visited += sum(f.result().nodes for f in running.values())
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
    searches that subspace whole, as one task without the split's symmetry
    cap (so ``prefix=()`` searches every bijection); it exists for restricted
    cross-checks against the oracle.
    """
    cfg = config or SearchConfig()
    start = time.perf_counter()
    q = g.size

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
    engine = _execute(g, cfg.budget, cfg.resolved_threads(), False,
                      None if norm is None else tuple(lab for _, lab in norm))

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

    Searches the tasks of ``_TaskPrefixes``, whose first label is at most
    (p+1)//2, and closes the result under complement duality, which covers
    the full bijection space exactly. An empty interval short-circuits.
    """
    # SearchConfig rejects a budget or thread count below 1
    threads = SearchConfig(budget=budget, threads=threads).resolved_threads()
    p, q = g.order, g.size
    if q == 0:
        raise ValueError("valence set undefined for an edgeless graph")
    interval = sem_interval(g)
    if interval.empty:
        return ValenceSet((), True)
    engine = _execute(g, budget, threads, True)
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


def perfect_classification(interval: ValenceInterval,
                           realized: ValenceSet) -> str:
    """Compare the valence interval with the realized valence set."""
    if interval.empty:
        return VACUOUS_NOT_SEM
    if not realized.complete:
        return UNKNOWN
    if set(realized.values) == set(interval.values()):
        return PERFECT
    return NOT_PERFECT


def is_perfect_sem(g: Graph, budget: int = DEFAULT_BUDGET,
                   threads: int | None = None) -> str:
    """Classify g by its valence interval and its realized valence set."""
    if g.size == 0:
        raise ValueError("perfect super edge-magicness undefined without edges")
    return perfect_classification(sem_interval(g), sem_set(g, budget, threads))


# --- independent brute-force oracle ----------------------------------------

_ORACLE_MAX_FREE = 10
_ORACLE_CHUNK = 100_000  # bijections tested per vectorized block


def oracle_search(g: Graph, *,
                  prefix: Iterable[tuple[int, int]] | None = None) -> SearchOutcome:
    """Plain enumeration of every bijection, no pruning, no symmetry.

    Kept deliberately independent of the backtracking engine: labels are
    assigned by vertex index and every bijection's edge sums are tested
    directly (vectorized). ``prefix`` fixes some vertices' labels; at most
    10 vertices may remain free.
    """
    import numpy as np  # only the oracle needs numpy; keep it off CLI start-up

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
    cfg = SearchConfig(use_obstructions=False, threads=1)

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
        block = list(itertools.islice(perm_iter, _ORACLE_CHUNK))
        if not block:
            break
        rows = np.tile(base, (len(block), 1))
        if free_vertices:
            rows[:, free_vertices] = np.asarray(block, dtype=np.int16)
        sums = rows[:, us] + rows[:, vs]
        # one edge: diff has no columns and all() is True, as it should be
        mask = (np.diff(np.sort(sums, axis=1), axis=1) == 1).all(axis=1)
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
