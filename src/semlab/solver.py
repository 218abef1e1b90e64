"""Exhaustive decision procedure for super edge-magicness.

The search assigns labels 1..p to vertices in a fixed static order, one
component after another (descending degree, ties by index, within each).
After each assignment every fully labeled edge contributes an endpoint sum;
a branch dies as soon as a sum repeats or the sums stop fitting in a window
of q consecutive integers. Free labels and used sums are bit masks, so one
mask operation per earlier neighbour finds every label of a depth that
survives, the dead ones are counted in bulk, and backing up restores a
saved state, rebuilt below depth 64. A graph with more than 2p-3 edges has no
labeling at all (Enomoto, Lladó, Nakamigawa & Ringel 1998), so there the
window has width -1 and every edge placed kills its branch. Any bijection
that survives is extendable (q distinct sums inside a width-(q-1) window
must be consecutive). Past the last vertex with an edge every fill of the
unused labels survives, so reaching the leaf depth, the last one with an
edge (or the last pinned one, if deeper), is a witness: its ascending fill
is the least of the labelings that node stands for.

Every labeling's valence, (sum of deg(v) f(v) + sum of p+1..p+q) / q, is
an integer: the paper's (4,2,...,2) argument, per labeling. Once the last
vertex above the least degree has its label (the pin depth, 0 on a regular
graph) the numerator is fixed, so that depth keeps only the labels that
make q divide it, and the rest die where they stand. Like the span test it
is a sound prune: it holds under a user prefix and without obstructions.

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
the full space, and an enumeration's labelings count leaders. Swaps of
isomorphic components are left out: leads come only from automorphisms
that map each component to itself. A user prefix may pin a follower below
its lead, so under one the rule is off.

Work splits deterministically on the first label: each live one is a
task. One executor runs the tasks in this process until the nodes visited
pass a threshold, then on a worker pool too, and replays their results in
prefix order as if they ran strictly sequentially, so statuses, valence
sets, node counts and witnesses depend neither on the worker count nor on
where the pool starts. A search stops at the first labeling where the
valences found, closed under duality, are enough: one for a witness, the
interval's size for the valence set. The witness is the lexicographically
least in assignment order over the space covered. Each node visited counts
once, pinned ones too, as in one sequential depth-first search of the
tree, so a budget cut falls where that search would have visited more
than the budget.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import Counter
from collections.abc import Callable, Iterable
from typing import NamedTuple

from .graphs import Graph, Record, as_int
from .labeling import (SemLabeling, ValenceInterval, dual_valence,
                       edge_label_total, extend_to_sem, sem_interval,
                       verify_sem)
from .obstructions import ObstructionVerdict, check_all

STATUS_SEM = "SEM"
STATUS_NOT_SEM_EXHAUSTED = "NOT_SEM_EXHAUSTED"
STATUS_NOT_SEM_OBSTRUCTION = "NOT_SEM_OBSTRUCTION"
STATUS_UNKNOWN_BUDGET_EXCEEDED = "UNKNOWN_BUDGET_EXCEEDED"
STATUS_TRIVIAL_EDGELESS = "TRIVIAL_EDGELESS"

DEFAULT_BUDGET = 10**9

# nodes visited in this process before a search starts a worker pool:
# 0.07-0.15 s of one core, more than most of the paper's searches take,
# while a pool costs ~15 ms to start and ~18 ms of imports (2-vCPU VM)
_INLINE_NODES = 1 << 19

# depths whose state the kernel saves for backing up; deeper ones are
# rebuilt, so the saved masks hold O(p) bits in all, not O(p) per depth
_SAVED_DEPTHS = 64


class ValenceSet(NamedTuple):
    """Valences realized by actual labelings; ``complete`` is False when a
    budget cut means further valences may exist."""

    values: tuple[int, ...]
    complete: bool = True

    def to_json(self) -> list[int]:
        return list(self.values)


class SearchStats(NamedTuple):
    nodes: int
    labelings: int
    millis: float


class SearchConfig(Record):
    __slots__ = ("use_obstructions", "budget", "threads")

    def __init__(self, use_obstructions: bool = True, budget: int = DEFAULT_BUDGET,
                 threads: int | None = None):  # None: every CPU it may run on
        if not isinstance(use_obstructions, bool):
            raise ValueError("use_obstructions must be True or False")
        budget = as_int(budget)
        if budget < 1:
            raise ValueError("budget must be a positive node count")
        if threads is not None:
            threads = as_int(threads)
            if threads < 1:
                raise ValueError("threads must be >= 1")
        self._init(use_obstructions, budget, threads)

    def resolved_threads(self) -> int:
        # os.cpu_count() counts CPUs that an affinity mask may bar
        affinity = getattr(os, "sched_getaffinity", None)
        return self.threads or (len(affinity(0)) if affinity else os.cpu_count() or 1)


class SearchOutcome(NamedTuple):
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
            "stats": self.stats._asdict(),
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

class _Plan(NamedTuple):
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
    # integrality: each position's degree less the least, the last position
    # weighted (0 if none), and the valence numerator less sum(wt * label)
    wt: tuple[int, ...]
    pin: int
    base: int


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
    deg = g.degrees()
    low = min(deg, default=0)
    wt = tuple(deg[v] - low for v in order)
    return _Plan(
        p=p, q=g.size, pos=tuple(pos[v] for v in range(p)),
        earlier=tuple(tuple(sorted(e)) for e in earlier), last=last,
        lead=tuple(lead), follow=tuple(follow), wt=wt,
        pin=max((d for d in range(p) if wt[d]), default=0),
        base=low * p * (p + 1) // 2 + edge_label_total(p, g.size))


class _TaskResult(NamedTuple):
    """One subtree's search. A task that stops once its valences suffice, or
    at its cap, has not ``exhausted`` it."""

    nodes: int
    labelings: int
    exhausted: bool
    # valence -> (nodes, labelings, vertex labels by vertex) where first reached
    valences: dict[int, tuple[int, int, tuple[int, ...]]]


_WORKER_ABORT = None  # set by the pool initializer in worker processes


def _pool_init(abort_value):
    global _WORKER_ABORT
    _WORKER_ABORT = abort_value


def _pool_task(plan: _Plan, full: float, idx: int,
               prefix_labels: tuple[int, ...], cap: int) -> _TaskResult:
    """Task ``idx`` in prefix order, run in a pool worker: it quits once the
    abort value falls below ``idx``. Stopping short of its subtree, it lowers
    the value to ``idx``, for the replay stops at this task or before it."""
    abort = _WORKER_ABORT
    res = _run_task(plan, full, prefix_labels, cap,
                    lambda nodes: abort.value < idx)
    if not res.exhausted:
        with abort.get_lock():
            abort.value = min(abort.value, idx)
    return res


def _run_task(plan: _Plan, full: float, prefix_labels: tuple[int, ...],
              cap: int, poll: Callable[[int], bool] | None = None) -> _TaskResult:
    """Search the subtree under ``prefix_labels`` in at most ``cap`` nodes.
    Every node visited counts, pinned ones too. The task records where it
    first reaches each valence, with that leaf's labeling, and stops at the
    leaf where its valences and their duals number ``full``: 1 stops at the
    first witness, math.inf never. ``poll(nodes)``, called at the first node
    and at every 4096th after it, stops the task when it returns True.

    Label and sum sets are int masks, bit l for l. One mask operation per
    earlier neighbour finds all of a depth's survivors, the candidates whose
    new sums are unused and keep the window, visited in ascending order. The
    dead candidates are counted in bulk, those below a survivor as it is
    visited and the rest as the depth ends: they change nothing, so a cap or
    a poll that falls among them falls on its exact node. The search keeps
    its own stack, so no depth costs a Python frame; it saves the states of
    the first _SAVED_DEPTHS depths and rebuilds deeper ones on the way up."""
    p, q, pos, leads = plan.p, plan.q, plan.pos, plan.lead
    # per depth: followers, first earlier neighbour (or -1), the rest
    steps = tuple((f, es[0] if es else -1, es[1:])
                  for f, es in zip(plan.follow, plan.earlier))
    # the edge sums must fit a window of width q-1. A graph with more than
    # 2p-3 edges has no labeling (Enomoto et al. 1998): width -1, so every
    # edge placed ends its branch
    q1 = q - 1 if q <= 2 * p - 3 else -1
    fresh = -1 if q1 >= 0 else 0  # the sums the first edge placed may take
    labels_at = [0] * (p + 1)  # labels_at[p], "no lead", stays 0
    # at depth pin q must divide base + sum(wt * label): the labels left are
    # one class mod m, or none, the comb (bits 0, m, 2m...) shifted to it
    pin, wt = plan.pin, plan.wt
    g = math.gcd(wt[pin], q)
    m = q // g
    inv = pow(wt[pin] // g, -1, m)
    comb = ((1 << (p // m + 1) * m) - 1) // ((1 << m) - 1)
    start = len(prefix_labels)
    pins = [1 << lab for lab in prefix_labels]
    # one test per count serves the cap and the poll: due is the sooner
    due = cap if poll is None else 0
    # past the last edge any fill of the unused labels works, so the leaf is
    # the last depth with an edge, or the last pinned one if deeper. Its
    # ascending fill is the least of the (p-1-leaf)! completions it stands for
    leaf = max(plan.last, start) - 1
    covered = math.factorial(p - 1 - leaf)
    nodes = labelings = 0
    valences: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    closed: set[int] = set()  # the valences reached and their duals

    # depth d's state: candidates and survivors not yet visited, free labels
    # and used sums before its label, earlier neighbours' labels; -1 is the
    # root. Depth x is built from free labels fr, used sums su and floor lo
    saved, kept = _SAVED_DEPTHS, [None] * (_SAVED_DEPTHS + 1)
    d, cand, alive, free, sums, nb = -1, 0, 0, 0, 0, 0
    x, fr, su, lo = 0, (2 << p) - 2, 0, 0
    while True:
        # depth x's candidates: free labels above lo; at a base with f
        # followers, those with f free labels above them (the cap falls by
        # the ones it lacks until it stands still); at a pinned depth, its pin
        f, first, rest = steps[x]
        c = fr & -(2 << lo)
        if f:
            top = fr.bit_length() - 1 - f
            while (short := f - (fr >> top + 1).bit_count()) > 0:
                top -= short
            c &= (2 << top) - 1
        if x < start:
            c &= pins[x]
        # its survivors: each new sum lab + b, for b an earlier neighbour's
        # label, is in ok, the unused sums within q1 of every placed one (so
        # lab is in ok >> b), and the new sums are within q1 of each other
        a, nb_x = c, 0
        if first >= 0:
            if su:
                low = su.bit_length() - 1 - q1
                ok = ~su & (1 << (su & -su).bit_length() + q1) - (
                    1 << low if low > 0 else 1)
            else:
                ok = fresh
            b = labels_at[first]
            nb_x = 1 << b
            a &= ok >> b
            if rest:  # a lone neighbour's new sum spans nothing
                for j in rest:
                    b = labels_at[j]
                    nb_x |= 1 << b
                    a &= ok >> b
                if a and nb_x.bit_length() - (nb_x & -nb_x).bit_length() > q1:
                    a = 0
        if x == pin and a:
            t = plan.base
            for j in range(x):
                t += wt[j] * labels_at[j]
            a = 0 if t % g else a & comb << (-(t // g) * inv - 1) % m + 1
        if a:
            if d < saved:  # going down from d (the root's is kept[-1])
                kept[d] = cand, alive, free, sums, nb
            d, cand, alive, free, sums, nb = x, c, a, fr, su, nb_x
        else:
            nodes += c.bit_count()  # tested at the next count, before any visit
        while True:
            # depth d's next survivor, or its end
            if alive:
                bit = alive & -alive
                alive ^= bit
                upto = cand & (bit << 1) - 1  # the dead below it, and it
                cand ^= upto
                nodes += upto.bit_count()
            else:
                bit = 0
                nodes += cand.bit_count()
            while nodes > due:
                # those counted past due are dead or the survivor: test due + 1
                if due >= cap:
                    return _TaskResult(cap, labelings, False, valences)
                if poll(due + 1):
                    return _TaskResult(due + 1, labelings, False, valences)
                due = min(cap, due + 4096)
            if not bit:
                if d <= start:  # the depths above hold nothing but their pins
                    return _TaskResult(nodes, labelings, True, valences)
                d -= 1
                if d < saved:
                    cand, alive, free, sums, nb = kept[d]
                    continue
                # rebuild depth d: take its label and sums back; floor lo
                x, lo, nb_x, cand = d, labels_at[d], 0, 0
                for j in plan.earlier[d]:
                    nb_x |= 1 << labels_at[j]
                fr = free = free | 1 << lo
                su = sums = sums ^ nb_x << lo
                break
            lab = bit.bit_length() - 1
            labels_at[d] = lab
            if d < leaf:
                x = d + 1
                fr, su, lo = free ^ bit, sums | nb << lab, labels_at[leads[x]]
                break
            labelings += covered
            placed = sums | nb << lab
            k = p + q - 1 + (placed & -placed).bit_length()
            if k not in valences:
                labeling = labels_at[:d + 1]
                labeling += sorted(set(range(1, p + 1)).difference(labeling))
                valences[k] = nodes, labelings, tuple(
                    labeling[pos[v]] for v in range(p))
                closed.update((k, dual_valence(p, q, k)))
                if len(closed) >= full:
                    return _TaskResult(nodes, labelings, False, valences)


# --- task construction and the in-order streaming executor ----------------

class _EngineResult:
    def __init__(self):
        self.nodes = 0  # at a cut, the budget
        self.labelings = 0
        self.witness: tuple[int, ...] | None = None
        self.valences: set[int] = set()
        self.exceeded = False
        self.visited = 0  # nodes visited by every task that ran, discarded too


# tasks submitted ahead of the replay per worker; bounds the work discarded
_WINDOW_PER_WORKER = 2


def _execute(g: Graph, budget: int, threads: int, full: float,
             prefix: tuple[int, ...] | None = None) -> _EngineResult:
    """Run one task per live first label, or the one task that ``prefix``
    (labels in assignment order) pins, ahead of an in-order replay that
    applies sequential budget rules: in this process, one at a time, until the
    nodes visited pass _INLINE_NODES. Past them, given threads and tasks left,
    the running task's next poll starts a pool, which takes the later tasks at
    most a window ahead, and the task finishes here. A task's cap is what the
    budget leaves after the tasks replayed when it starts: never below its
    sequential allowance, so a task that hits its cap proves a sequential run
    would run out of budget too. A cut reports the budget, and keeps the
    valences the cut task reached within its allowance. The replay stops at
    the labeling where the valences, closed under duality, number ``full``,
    and reports it as the witness: 1 stops at the first witness, the
    interval's size once the valences fill it, math.inf never. Once the replay
    stops, the abort value makes the tasks past it quit, the queued ones at
    their first node; a pool task that stops short of its subtree lowers the
    value to its own index."""
    plan = _make_plan(g)
    if prefix is not None:
        # a prefix may pin a lead's followers below it, and () promises
        # every bijection: the lead rule is off
        plan = plan._replace(lead=(plan.p,) * plan.p, follow=(0,) * plan.p)
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
    window, abort, pool = 0, None, None
    running: dict = {}  # submitted to the pool, not yet replayed
    i = nxt = 0

    def fill():
        # submit while the window has room and the replay waits for task i
        nonlocal nxt
        while nxt < n and len(running) < window and (
                i not in running or not running[i].done()):
            running[nxt] = pool.submit(_pool_task, plan, full, nxt, tasks[nxt],
                                       budget - out.nodes)
            nxt += 1

    def fan_out(nodes):
        # the poll of task i, running here: once the nodes visited pass the
        # threshold, start the pool. Till task i returns, this process is
        # busy too: one task per thread. The task never stops for it
        nonlocal window, abort, pool
        if pool is None and out.visited + nodes > _INLINE_NODES:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor
            workers = min(threads, n - nxt)
            abort = mp.Value("q", n)  # tasks with a larger index quit
            pool = ProcessPoolExecutor(workers, initializer=_pool_init,
                                       initargs=(abort,))
            window = threads - 1
            fill()
            window = _WINDOW_PER_WORKER * workers
        return False

    try:
        while i < n:
            if pool is None:
                nxt = i + 1
                res = _run_task(plan, full, tasks[i], budget - out.nodes,
                                fan_out if threads > 1 and nxt < n else None)
            else:
                fill()
                res = running.pop(i).result()
            left = budget - out.nodes
            out.visited += res.nodes
            found = False
            for k, (at, labelings, witness) in res.valences.items():
                if at > left:
                    break
                out.valences.add(k)
                closed.update((k, dual_valence(plan.p, plan.q, k)))
                if len(closed) >= full:
                    # a sequential search stops at this labeling
                    res = res._replace(nodes=at, labelings=labelings)
                    out.witness, found = witness, True
                    break
            if not found and (not res.exhausted or res.nodes > left):
                # a strictly sequential run would have exhausted the
                # budget inside this task before covering it
                out.nodes, out.exceeded = budget, True
                break
            out.nodes += res.nodes
            out.labelings += res.labelings
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


def _pins(g: Graph, prefix) -> tuple[tuple[int, int], ...]:
    """``prefix`` as (vertex, label) pairs of ints, with distinct vertices
    in 0..p-1 and distinct labels in 1..p."""
    pairs = tuple((as_int(v), as_int(lab)) for v, lab in prefix)
    vertices, labels = {v for v, _ in pairs}, {lab for _, lab in pairs}
    if len(vertices) != len(pairs) or any(not 0 <= v < g.order for v in vertices):
        raise ValueError("prefix vertices must be distinct values in 0..p-1")
    if len(labels) != len(pairs) or any(not 1 <= x <= g.order for x in labels):
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
    norm = None if prefix is None else _pins(g, prefix)
    if norm:
        order = assignment_order(g)
        if [v for v, _ in norm] != order[:len(norm)]:
            raise ValueError(
                f"prefix must pin the first vertices in assignment order {order}")

    def outcome(status, witness=None, obstruction=None, nodes=0):
        millis = round((time.perf_counter() - start) * 1000.0, 3)
        interval = sem_interval(g) if q else None
        # a witness counts as one labeling, not as the fills of its leaf
        stats = SearchStats(nodes, int(witness is not None), millis)
        return SearchOutcome(g, status, witness, obstruction, interval, None,
                             stats, cfg, norm)

    if q == 0:
        return outcome(STATUS_TRIVIAL_EDGELESS)
    if cfg.use_obstructions:
        verdict = check_all(g)
        if verdict is not None:
            return outcome(STATUS_NOT_SEM_OBSTRUCTION, obstruction=verdict)

    engine = _execute(g, cfg.budget, cfg.resolved_threads(), 1,
                      None if norm is None else tuple(lab for _, lab in norm))

    if engine.witness is not None:
        cert = extend_to_sem(g, engine.witness)
        check = verify_sem(g, cert)
        if not check:
            raise AssertionError(f"witness fails verification: {check.reason}")
        return outcome(STATUS_SEM, witness=cert, nodes=engine.nodes)
    if engine.exceeded:
        return outcome(STATUS_UNKNOWN_BUDGET_EXCEEDED, nodes=engine.nodes)
    return outcome(STATUS_NOT_SEM_EXHAUSTED, nodes=engine.nodes)


def sem_set(g: Graph, budget: int = DEFAULT_BUDGET,
            threads: int | None = None) -> ValenceSet:
    """All valences realized by some labeling of g.

    Searches the labelings whose first label is at most (p+1)//2 and closes
    the result under complement duality, which covers the full bijection
    space exactly. It stops once the closed set is as large as the
    interval, which holds it: then the two are equal. An obstruction
    verdict proves the set empty without a search.
    """
    # SearchConfig rejects a budget or thread count below 1
    threads = SearchConfig(budget=budget, threads=threads).resolved_threads()
    p, q = g.order, g.size
    if check_all(g) is not None:
        return ValenceSet((), True)
    interval = sem_interval(g)
    engine = _execute(g, budget, threads, len(interval.values()))
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
    return perfect_classification(sem_interval(g), sem_set(g, budget, threads))


# --- independent brute-force oracle ----------------------------------------

_ORACLE_MAX_FREE = 10
_ORACLE_TAIL = 8  # free vertices filled from the table, 8! rows per block


def _lex_perms(k: int):
    """Every order of range(k), as the rows of an int8 array in
    lexicographic order. Step n puts each first value f before the orders
    of range(n-1) shifted past f, which keeps their order."""
    import numpy as np

    rows = np.zeros((1, 0), dtype=np.int8)
    for n in range(1, k + 1):
        rest = np.tile(rows, (n, 1))
        first = np.repeat(np.arange(n, dtype=np.int8), len(rows))[:, None]
        rows = np.hstack((first, rest + (rest >= first)))
    return rows


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
    pins = _pins(g, prefix or ())
    fixed = dict(pins)
    free_vertices = [v for v in range(p) if v not in fixed]
    if len(free_vertices) > _ORACLE_MAX_FREE:
        raise ValueError(
            f"oracle enumeration limited to {_ORACLE_MAX_FREE} free vertices, "
            f"got {len(free_vertices)}")
    norm_prefix = None if prefix is None else tuple(sorted(pins))
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
    # int16 is the faster where it holds the valences, up to p + q + 2p - 1
    dtype = np.int16 if 3 * p + q < 2**15 else np.int64
    base = np.zeros(p, dtype=dtype)
    for v, lab in fixed.items():
        base[v] = lab
    us = np.array([u for u, _ in g.edges], dtype=np.intp)
    vs = np.array([v for _, v in g.edges], dtype=np.intp)

    # each block fixes the leading free vertices' labels, in the order
    # itertools.permutations gives, and fills the rest from the table: the
    # blocks run through every bijection in lexicographic order
    head = max(0, len(free_vertices) - _ORACLE_TAIL)
    head_vertices, tail_vertices = free_vertices[:head], free_vertices[head:]
    table = _lex_perms(len(tail_vertices))
    rows = np.tile(base, (len(table), 1))
    tested = 0
    first_witness = None
    valences: set[int] = set()
    for lead in itertools.permutations(free_labels, head):
        rest = np.array([lab for lab in free_labels if lab not in lead], dtype=dtype)
        rows[:, head_vertices] = lead
        rows[:, tail_vertices] = rest[table]
        sums = rows[:, us] + rows[:, vs]
        # q sums are consecutive iff they span q - 1 and are distinct: test
        # the span, then sort only the rows that pass it. One edge: diff
        # has no columns and all() is True, as it should be
        low = sums.min(axis=1)
        span = np.flatnonzero(sums.max(axis=1) - low == q - 1)
        hits = span[(np.diff(np.sort(sums[span], axis=1), axis=1) == 1).all(axis=1)]
        if hits.size:
            valences.update(int(k) for k in np.unique(p + q + low[hits]))
            if first_witness is None:
                first_witness = tuple(int(x) for x in rows[hits[0]])
        tested += len(table)

    vset = ValenceSet(tuple(sorted(valences)), complete=True)
    if first_witness is not None:
        cert = extend_to_sem(g, first_witness)
        return outcome(STATUS_SEM, witness=cert, valence_set=vset, tested=tested)
    return outcome(STATUS_NOT_SEM_EXHAUSTED, valence_set=vset, tested=tested)
