"""Exhaustive decision procedure for super edge-magicness.

The search assigns labels 1..p to vertices in a fixed static order, one
component after another (descending degree, ties by index, within each).
After each assignment every fully labeled edge contributes an endpoint sum;
a branch dies as soon as a sum repeats or the sums stop fitting in a window
of q consecutive integers. A label's new sums are tested against the placed
sums and the window before any is marked, so a branch that dies leaves
nothing to undo. A graph with more than 2p-3 edges has no labeling at all
(Enomoto, Lladó, Nakamigawa & Ringel 1998), so there the window has width
-1 and every edge placed kills its branch. Any bijection that survives is
extendable (q distinct sums inside a width-(q-1) window must be
consecutive). Past the last vertex with an edge every fill of the unused
labels survives, so reaching the leaf depth, the last one with an edge (or
the last pinned one, if deeper), is a witness: its ascending fill is the
least of the labelings that node stands for.

An automorphism of a component keeps every edge sum, so the search takes
one labeling per orbit, its lex-leader (Crawford, Ginsberg, Luks & Roy, KR
1996), by Puget's rule for all-different problems (IJCAI 2005): a position
takes only labels above its lead's, the latest b whose orbit under the
automorphisms fixing every position before b holds it (the orbits nest,
so the chains of leads imply the rest), and a base with f followers, the
positions whose chain reaches it, only labels with f free labels above
them. A twin's lead is its previous twin (twins: vertices with an edge
and one open or closed neighbourhood), found without a search; the other
automorphisms come from colour refinement and a search of bounded work,
and one out of reach only weakens the rule.
The least witness is a leader, and a leader's first label is the least
over the orbit of position 0, so a leader or its complement's is within
the split's cap below: statuses, witnesses and valence sets stay those of
the full space, and a collect run's labelings count leaders. Swaps of
isomorphic components are left out: leads come only from automorphisms
that map each component to itself. A user prefix may pin a follower below
its lead, so under one the rule is off.

Work splits deterministically on the first label: each live one is a
task. One executor runs the tasks in this process until the nodes visited
pass a threshold, then on a worker pool too, and replays their results in
prefix order as if they ran strictly sequentially, so statuses, valence
sets, node counts and witnesses depend neither on the worker count nor on
where the pool starts. The witness is the
lexicographically least in assignment order over the space covered. Each
node visited counts once, pinned ones too, as in one sequential depth-first
search of the tree, so a budget cut falls where that search would have
visited more than the budget.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

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

# nodes visited in this process before a search starts a worker pool:
# 0.2-0.3 s of one core, more than most of the paper's searches take,
# while a pool costs ~15 ms to start and ~18 ms of imports (2-vCPU VM)
_INLINE_NODES = 1 << 19

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
                "prefix": (None if self.prefix is None
                           else [list(t) for t in self.prefix]),
            },
        }


def _components(g: Graph) -> list[list[int]]:
    """The components of g, each in (-degree, index) order, in the order
    their first vertices take in that order over the whole graph."""
    deg, adj = g.degrees(), g.adjacency()
    key = lambda v: (-deg[v], v)
    blocks, seen = [], set()
    for v in sorted(range(g.order), key=key):
        if v not in seen:
            seen.add(v)
            block = [v]
            for u in block:  # grows as it goes: a breadth-first search
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        block.append(w)
            blocks.append(sorted(block, key=key))
    return blocks


def assignment_order(g: Graph) -> list[int]:
    """Static search order, one component after another: within each,
    vertices by descending degree, ties by index; components in the order
    their first vertices take in that order over the whole graph. A
    connected graph is in (-degree, index) order, and position 0 is always
    a vertex of maximum degree. A lead (module docstring) lies in its
    follower's component, so the lead rule never reads across a block."""
    return [v for block in _components(g) for v in block]


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
    # each position's lead, whose label it must exceed, or p where it has none
    lead: tuple[int, ...]
    # the positions whose chain of leads reaches each position
    follow: tuple[int, ...]


# colour-refinement work one plan may spend on automorphisms, in vertices
# coloured; past it the plan keeps the twins and the leads found so far
_AUT_WORK = 1 << 15


class _GiveUp(Exception):
    """The automorphism search ran out of work."""


def _refine(nb: list[tuple[int, ...]], colour: list[int],
            work: list[int]) -> list[int]:
    """Colour refinement: the coarsest equitable colouring of the graph with
    neighbour lists ``nb`` that refines ``colour``, canonically numbered."""
    while True:
        work[0] -= len(nb)
        if work[0] < 0:
            raise _GiveUp
        sig = [(colour[v], tuple(sorted([colour[w] for w in ws])))
               for v, ws in enumerate(nb)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(ids) == len(set(colour)):
            return [ids[s] for s in sig]
        colour = [ids[s] for s in sig]


def _leads(nb: list[tuple[int, ...]], block: list[int]) -> list[int]:
    """The lead of each position, given its neighbours and its component's
    block by position, or n for none (module docstring)."""
    n, work = len(nb), [_AUT_WORK]
    # a twin's lead is its previous twin: their swap fixes all else
    lead, kind, seen = [n] * n, list(range(n)), {}
    for y, ws in enumerate(nb):
        keys = ("open", ws), ("closed", tuple(sorted(ws + (y,))))
        for key in keys if ws else ():
            if key in seen:
                lead[y], kind[y] = seen[key], kind[seen[key]]
            seen[key] = y
    two = nb + [tuple(w + n for w in ws) for ws in nb]

    def maps(col):
        # an automorphism that keeps the colouring of two copies of the
        # graph, the second at n.., or None: individualize and refine
        col = _refine(two, col, work)
        count = Counter(col[:n])
        if count != Counter(col[n:]):
            return None
        v = next((v for v in range(n) if count[col[v]] > 1), None)
        if v is None:  # discrete: each colour on one vertex of each copy
            at = {c: u - n for u, c in enumerate(col)}
            return [at[c] for c in col[:n]]
        for u in range(n, 2 * n):
            if col[u] == col[v] and (found := maps(
                    [2 * n if w in (v, u) else c for w, c in enumerate(col)])):
                return found
        return None

    try:
        # stage b, up the stabiliser chain, tests each image of b that keeps
        # the colouring (blocks first) with the positions before b fixed,
        # but only where b's colour holds more than one twin class, and
        # until it is discrete. Running out of work only leaves leads out,
        # which is sound
        col = _refine(nb, block, work)
        classes = Counter(c for c, _ in set(zip(col, kind)))
        fixed, mixed = 0, [classes[c] > 1 for c in col]
        for b in range(n):
            if mixed[b]:
                col = _refine(nb, [n + x if fixed <= x < b else c
                                   for x, c in enumerate(col)], work)
                if len(set(col)) == n:
                    break
                fixed, orbit, gens = b, [b], []
                for y in range(b + 1, n):
                    if (col[y] == col[b] and kind[y] != kind[b]
                            and y not in orbit):
                        gens += filter(None, [maps([
                            2 * n if x in (b, n + y) else col[x % n]
                            for x in range(2 * n)])])
                        for x in orbit:  # b's orbit under those found
                            orbit += {g[x] for g in gens} - set(orbit)
                for x in orbit[1:]:
                    lead[x] = b if lead[x] == n else max(lead[x], b)
    except _GiveUp:
        pass
    return lead


def _make_plan(g: Graph) -> _Plan:
    p = g.order
    blocks = _components(g)
    order = [v for block in blocks for v in block]
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[] for _ in range(p)]
    for u, v in g.edges:
        a, b = sorted((pos[u], pos[v]))
        earlier[b].append(a)
    last = max((d + 1 for d in range(p) if earlier[d]), default=0)
    adj = g.adjacency()
    lead = _leads([tuple(sorted(pos[w] for w in adj[v])) for v in order],
                  [i for i, block in enumerate(blocks) for _ in block])
    follow = [0] * p
    for y in reversed(range(p)):
        if lead[y] < p:
            follow[lead[y]] += follow[y] + 1
    return _Plan(
        p=p, q=g.size, pos=tuple(pos[v] for v in range(p)),
        earlier=tuple(tuple(sorted(e)) for e in earlier), last=last,
        lead=tuple(lead), follow=tuple(follow))


@dataclass(frozen=True)
class _TaskResult:
    """One subtree's search. A task that stops at its first witness (vertex
    labels by vertex), a full interval or its cap has not ``exhausted`` it."""

    nodes: int
    labelings: int
    exhausted: bool
    witness: tuple[int, ...] | None
    # valence -> (nodes, labelings) where first reached
    valences: dict[int, tuple[int, int]]


class _Stop(Exception):
    """A task stops before covering its subtree: at its first witness, at
    its node cap or when told to abort. Carries the nodes searched."""

    def __init__(self, nodes: int, witness: tuple[int, ...] | None = None):
        self.nodes, self.witness = nodes, witness


_WORKER_ABORT = None  # set by the pool initializer in worker processes


def _pool_init(abort_value):
    global _WORKER_ABORT
    _WORKER_ABORT = abort_value


def _run_task(plan: _Plan, collect: bool, idx: int,
              prefix_labels: tuple[int, ...], cap: int, full: int | None = None,
              handoff: tuple[int, Callable] | None = None) -> _TaskResult:
    """Search the subtree under ``prefix_labels`` in at most ``cap`` nodes.
    Every node visited counts, pinned ones too.
    ``collect`` gathers every valence, and stops once they and their duals
    are ``full`` many (the interval's size; None never stops); otherwise the
    task stops at its first witness. ``idx`` is its place in prefix order.
    ``handoff``, (at, call) in this process, calls ``call()`` once past node
    ``at`` to start the worker pool, and the task goes on.

    The search recurses once per depth, so the task raises the recursion
    limit, which is process-wide, to fit p frames above its callers', and p
    more: a worker forked at the hand-off starts as deep as this process
    was. It never lowers it."""
    p, q, earlier, pos = plan.p, plan.q, plan.earlier, plan.pos
    lead, follow = plan.lead, plan.follow
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * p + _CALLER_FRAMES))
    # the edge sums must fit a window of width q-1. A graph with more than
    # 2p-3 edges has no labeling (Enomoto et al. 1998): width -1, so every
    # edge placed ends its branch
    q1 = q - 1 if q <= 2 * p - 3 else -1

    used_label = bytearray(p + 2)
    used_sum = bytearray(2 * p + 2)
    labels_at = [0] * (p + 1)  # labels_at[p], "no lead", stays 0

    abort_box = _WORKER_ABORT
    at, fan_out = handoff or (cap, None)
    # one test per node serves the cap and either a pool worker's abort poll
    # at every 4096th node or the hand-off here: poll[0] is the first due
    poll = [min(cap, 0 if abort_box is not None else at)]
    # pinned depths try only their label, the others one shared tuple (a
    # range makes a new int for each label above 256 that it yields)
    start = len(prefix_labels)
    choices = [(lab,) for lab in prefix_labels] + [tuple(range(1, p + 1))] * (p - start)
    # past the last edge any fill of the unused labels works, so the leaf is
    # the last depth with an edge, or the last pinned one if deeper. Its
    # ascending fill is the least of the (p-1-leaf)! completions it stands for
    leaf = max(plan.last, start) - 1
    covered = math.factorial(p - 1 - leaf)
    labelings = [0]
    valences: dict[int, tuple[int, int]] = {}
    closed: set[int] = set()  # the valences reached and their duals

    def stop(nodes, witness=None) -> _Stop:
        # a witness, or valences that fill the interval, end the replay at
        # this task or before it: tell the tasks past it to quit
        if abort_box is not None:
            with abort_box.get_lock():
                abort_box.value = min(abort_box.value, idx)
        return _Stop(nodes, witness)

    def rec(d, cmin, cmax, nodes,
            earlier=earlier, used_label=used_label, used_sum=used_sum,
            labels_at=labels_at, q1=q1, leaf=leaf, poll=poll,
            lead=lead, follow=follow,
            islice=itertools.islice) -> int:
        earlier_d = earlier[d]
        # the lead rule: only labels above the lead's, and at a base with f
        # followers only those with f free labels above them, uncounted
        # outside (islice, as the shared tuple must not be copied per call).
        # The cap falls by the used labels above it until it stands still
        above, f = labels_at[lead[d]], follow[d]
        top = p - f if f else None
        while f and (lower := p - f - used_label.count(1, top + 1)) < top:
            top = lower
        for lab in (islice(choices[d], above, top) if above or f
                    else choices[d]):
            if used_label[lab]:
                continue
            nodes += 1
            if nodes > poll[0]:
                # stop past the cap, or in a pool worker once the abort
                # value is below this task's index; else move the poll on
                if nodes > cap:
                    raise _Stop(cap)
                if abort_box is None:  # the hand-off: start the pool
                    fan_out()
                    poll[0] = cap
                elif abort_box.value < idx:
                    raise _Stop(nodes)
                else:
                    poll[0] = min(cap, nodes + 4095)
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
                        nodes = rec(d + 1, new_min, new_max, nodes)
                    elif collect:
                        labelings[0] += covered
                        k = p + q + new_min
                        if k not in valences:
                            valences[k] = nodes, labelings[0]
                            closed.update((k, dual_valence(p, q, k)))
                            if len(closed) == full:
                                raise stop(nodes)
                    else:
                        labeling = labels_at[:d + 1] + [
                            x for x in range(1, p + 1) if not used_label[x]]
                        labelings[0] = 1
                        raise stop(nodes, tuple(labeling[pos[v]] for v in range(p)))
                    used_label[lab] = 0
                    for j in earlier_d:
                        used_sum[lab + labels_at[j]] = 0
        return nodes

    try:
        nodes, witness, exhausted = rec(0, 2 * p + 1, 0, 0), None, True
    except _Stop as stop:
        nodes, witness, exhausted = stop.nodes, stop.witness, False
    return _TaskResult(nodes, labelings[0], exhausted, witness, valences)


# --- task construction and the in-order streaming executor ----------------

@dataclass
class _EngineResult:
    nodes: int = 0  # at a cut, the budget
    labelings: int = 0
    witness: tuple[int, ...] | None = None
    valences: set[int] = field(default_factory=set)
    exceeded: bool = False
    visited: int = 0  # nodes visited by every task that ran, discarded too


# tasks submitted ahead of the replay per worker; bounds the work discarded
_WINDOW_PER_WORKER = 2


class _Here:
    """A task run in this process, as a future: done once it returns."""

    res: _TaskResult | None = None

    def done(self) -> bool:
        return self.res is not None

    def result(self) -> _TaskResult:
        return self.res


def _execute(g: Graph, budget: int, threads: int, collect: bool,
             prefix: tuple[int, ...] | None = None,
             interval: ValenceInterval | None = None) -> _EngineResult:
    """Run one task per live first label, or the one task that ``prefix``
    (labels in assignment order) pins, ahead of an in-order replay that applies
    sequential budget rules: in this process, one at a time, until the nodes
    visited pass _INLINE_NODES. There, given threads and tasks left, the
    running task starts a pool, which takes the later tasks at most a window
    ahead, and finishes here. A task's cap is what the budget leaves after the
    tasks replayed when it is submitted: never below its sequential allowance,
    so a task that hits its cap proves a sequential run would run out of budget
    too. A cut reports the budget, and keeps the valences the cut task reached
    within its allowance. Given the ``interval``, a collect run stops at the
    labeling where the valences, closed under duality, fill it (None enumerates
    in full). Once the replay stops, the abort value makes the tasks past it
    quit, the queued ones at their first node."""
    plan = _make_plan(g)
    if prefix is not None:
        # a prefix may pin a lead's followers below it, and () promises
        # every bijection: the lead rule is off
        plan = replace(plan, lead=(plan.p,) * plan.p, follow=(0,) * plan.p)
    full = None if interval is None else len(interval.values())
    closed: set[int] = set()  # the valences replayed and their duals
    # complement symmetry: f and p+1-f give consecutive edge sums together,
    # so first labels up to (p+1)//2 meet every labeling or its complement.
    # sem_set's duality closure relies on this cap to recover the rest. The
    # lead rule leaves none live above p less position 0's followers
    live = min((plan.p + 1) // 2, plan.p - plan.follow[0])
    tasks = ([(first,) for first in range(1, live + 1)]
             if prefix is None else [prefix])
    out = _EngineResult()
    n = len(tasks)
    window, abort, pool = 1, None, None
    running: dict = {}  # submitted, not yet replayed: futures and _Here
    i = nxt = 0

    def fill():
        # submit while the window has room and the replay waits for task i
        nonlocal nxt
        while nxt < n and len(running) < window and (
                nxt == i or not running[i].done()):
            k, nxt = nxt, nxt + 1
            args = plan, collect, k, tasks[k], budget - out.nodes, full
            if pool is not None:
                running[k] = pool.submit(_run_task, *args)
            else:
                running[k] = here = _Here()
                here.res = _run_task(*args, (_INLINE_NODES - out.visited, fan_out)
                                     if threads > 1 and nxt < n else None)

    def fan_out():
        # task i, running here, passed the threshold: start the pool. Till
        # task i returns, this process is busy too: one task per thread
        nonlocal window, abort, pool
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        workers = min(threads, n - nxt)
        abort = mp.Value("q", n)  # tasks with a larger index quit
        pool = ProcessPoolExecutor(workers, initializer=_pool_init,
                                   initargs=(abort,))
        window = threads
        fill()
        window = _WINDOW_PER_WORKER * workers

    try:
        while i < n:
            fill()
            res = running.pop(i).result()
            left = budget - out.nodes
            out.visited += res.nodes
            found = res.witness is not None and res.nodes <= left
            for k, (at, labelings) in res.valences.items():
                if at > left:
                    break
                out.valences.add(k)
                closed.update((k, dual_valence(plan.p, plan.q, k)))
                if len(closed) == full:
                    # S = I: a sequential search stops at this labeling
                    res = replace(res, nodes=at, labelings=labelings)
                    found = True
                    break
            if not found and (not res.exhausted or res.nodes > left):
                # a strictly sequential run would have exhausted the
                # budget inside this task before covering it
                out.nodes, out.exceeded = budget, True
                break
            out.nodes += res.nodes
            out.labelings += res.labelings
            out.witness = res.witness
            if found:
                break
            i += 1
    finally:
        # no task left unreplayed is needed: those still running quit
        if pool is not None:
            with abort.get_lock():
                abort.value = i - 1
            pool.shutdown()
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
    norm = None if prefix is None else _normalize_prefix(g, prefix)

    def outcome(status, witness=None, obstruction=None, engine=None):
        millis = round((time.perf_counter() - start) * 1000.0, 3)
        engine = engine or _EngineResult()
        interval = sem_interval(g) if q else None
        stats = SearchStats(engine.nodes, engine.labelings, millis)
        return SearchOutcome(g, status, witness, obstruction, interval, None,
                             stats, cfg, norm)

    if q == 0:
        return outcome(STATUS_TRIVIAL_EDGELESS)
    if cfg.use_obstructions:
        verdict = check_all(g)
        if verdict is not None:
            return outcome(STATUS_NOT_SEM_OBSTRUCTION, obstruction=verdict)

    engine = _execute(g, cfg.budget, cfg.resolved_threads(), False,
                      None if norm is None else tuple(lab for _, lab in norm))

    if engine.witness is not None:
        cert = extend_to_sem(g, engine.witness)
        check = verify_sem(g, cert)
        if not check:
            raise AssertionError(f"witness fails verification: {check.reason}")
        return outcome(STATUS_SEM, witness=cert, engine=engine)
    if engine.exceeded:
        return outcome(STATUS_UNKNOWN_BUDGET_EXCEEDED, engine=engine)
    return outcome(STATUS_NOT_SEM_EXHAUSTED, engine=engine)


def sem_set(g: Graph, budget: int = DEFAULT_BUDGET,
            threads: int | None = None) -> ValenceSet:
    """All valences realized by some labeling of g.

    Searches the labelings whose first label is at most (p+1)//2 and closes
    the result under complement duality, which covers the full bijection
    space exactly. It stops once the closed set is as large as the
    interval, which holds it: then the two are equal. An empty interval
    short-circuits.
    """
    # SearchConfig rejects a budget or thread count below 1
    threads = SearchConfig(budget=budget, threads=threads).resolved_threads()
    p, q = g.order, g.size
    if q == 0:
        raise ValueError("valence set undefined for an edgeless graph")
    interval = sem_interval(g)
    if interval.empty:
        return ValenceSet((), True)
    engine = _execute(g, budget, threads, True, interval=interval)
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
