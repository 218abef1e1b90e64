import concurrent.futures
import itertools
import math
import multiprocessing as mp
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from semlab import (
    Graph,
    SearchConfig,
    STATUS_NOT_SEM_EXHAUSTED,
    STATUS_NOT_SEM_OBSTRUCTION,
    STATUS_SEM,
    STATUS_TRIVIAL_EDGELESS,
    STATUS_UNKNOWN_BUDGET_EXCEEDED,
    assignment_order,
    degree_sequence,
    disjoint_union,
    edge_sums,
    is_extendable,
    make_cycle,
    make_two_cycle,
    is_perfect_sem,
    oracle_search,
    rearrangement_extremes,
    search_sem,
    sem_interval,
    sem_set,
    verify_sem,
)
import semlab.solver as solver_mod

import helpers

SEQ = SearchConfig(use_obstructions=False, threads=1)
# 3C3, order 9: SEM, its interval [24, 24]; the lead rule leaves each of its
# five first labels live
C3_C3_C3 = disjoint_union(make_cycle(3), make_cycle(3), make_cycle(3))


def _first_labels(g) -> list[int]:
    """The first labels that the split hands out as tasks on g, read off
    a stand-in task that searches nothing."""
    seen = []

    def record(plan, collect, idx, prefix_labels, cap, full=None,
               handoff=None):
        seen.extend(prefix_labels)
        return solver_mod._TaskResult(0, 0, True, None, {})

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "_run_task", record)
        solver_mod._execute(g, 10**9, 1, True)
    return seen


def _runs_pool(g) -> bool:
    # under pool_at_first_node more than one thread starts the pool on such
    # a graph
    return len(_first_labels(g)) > 1


@pytest.fixture
def pool_at_first_node(monkeypatch):
    """Start the worker pool at a search's first node, not once the nodes
    visited pass _INLINE_NODES, which the searches here never reach."""
    monkeypatch.setattr(solver_mod, "_INLINE_NODES", 0)


def brute_extremes(degrees):
    best = [None, None]
    for perm in helpers.all_bijections(len(degrees)):
        s = sum(d * x for d, x in zip(degrees, perm))
        best[0] = s if best[0] is None else min(best[0], s)
        best[1] = s if best[1] is None else max(best[1], s)
    return tuple(best)


def test_rearrangement_examples():
    assert rearrangement_extremes((2, 2, 2)) == (12, 12)
    assert rearrangement_extremes((4, 2, 2, 2, 2, 2, 2)) == (58, 70)
    assert rearrangement_extremes((1, 1)) == (3, 3)
    with pytest.raises(ValueError):
        rearrangement_extremes(())


def test_rearrangement_matches_brute_force():
    rng = random.Random(17)
    for _ in range(1000):
        p = rng.randint(1, 7)
        degrees = tuple(rng.randint(0, p - 1) for _ in range(p))
        assert rearrangement_extremes(degrees) == brute_extremes(degrees)


def test_interval_examples():
    iv = sem_interval(make_cycle(3))
    assert (iv.lo, iv.hi) == (9, 9) and not iv.empty
    iv = sem_interval(make_two_cycle(3, 5))
    assert (iv.lo, iv.hi) == (19, 20)
    assert iv.min_s == Fraction(150, 8) and iv.max_s == Fraction(162, 8)
    iv = sem_interval(make_cycle(4))
    assert iv.empty and iv.values() == [] and iv.to_json() == []
    assert iv.min_s == iv.max_s == Fraction(46, 4)
    with pytest.raises(ValueError):
        sem_interval(Graph(3, ()))


def test_interval_agrees_with_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        g = helpers.random_graph(rng, p_min=2, p_max=6)
        if g.size == 0:
            continue
        p, q = g.order, g.size
        const = q * p + q * (q + 1) // 2
        lo, hi = brute_extremes(g.degrees())
        iv = sem_interval(g)
        assert iv.min_s == Fraction(lo + const, q)
        assert iv.max_s == Fraction(hi + const, q)
        assert iv.lo == math.ceil(iv.min_s) and iv.hi == math.floor(iv.max_s)


def test_assignment_order():
    g = make_two_cycle(3, 4)  # vertex 0 has degree 4
    order = assignment_order(g)
    assert order[0] == 0
    assert order[1:] == sorted(order[1:])


def test_search_two_cycle_3_5_is_sem():
    # hand-checkable witness: labels (2,5,6,4,1,3,7) on the shared-vertex
    # union of a triangle and a pentagon give edge sums 4..11
    out = search_sem(make_two_cycle(3, 5), SEQ)
    assert out.status == STATUS_SEM
    assert verify_sem(out.graph, out.witness)
    assert out.witness.valence in (19, 20)
    assert oracle_search(make_two_cycle(3, 5)).status == STATUS_SEM


def test_search_cycle5_witness():
    out = search_sem(make_cycle(5), SEQ)
    assert out.status == STATUS_SEM
    assert verify_sem(out.graph, out.witness)
    # the documented witness is also valid
    assert sorted(edge_sums(make_cycle(5), (1, 3, 5, 2, 4))) == [4, 5, 6, 7, 8]
    assert is_extendable(edge_sums(make_cycle(5), (1, 3, 5, 2, 4)))


def test_search_statuses():
    g34 = make_two_cycle(3, 4)
    with_obs = search_sem(g34, SearchConfig(threads=1))
    assert with_obs.status == STATUS_NOT_SEM_OBSTRUCTION
    assert with_obs.obstruction is not None
    without = search_sem(g34, SEQ)
    assert without.status == STATUS_NOT_SEM_EXHAUSTED

    assert search_sem(Graph(4, ()), SEQ).status == STATUS_TRIVIAL_EDGELESS

    tight = SearchConfig(use_obstructions=False, threads=1, budget=5)
    out = search_sem(make_cycle(10), tight)
    assert out.status == STATUS_UNKNOWN_BUDGET_EXCEEDED
    assert out.stats.nodes == 5


@pytest.mark.usefixtures("pool_at_first_node")
def test_budget_is_deterministic_across_threads():
    # every graph here has more than one live first label, so threads > 1
    # run the pool; C(3,7) is not SEM and takes 22,789 nodes
    assert all(map(_runs_pool, (make_two_cycle(3, 7), make_two_cycle(3, 9),
                                C3_C3_C3)))
    for budget in (17, 400, 9999):
        outs = [
            search_sem(make_two_cycle(3, 7),
                       SearchConfig(use_obstructions=False, threads=t,
                                    budget=budget))
            for t in (1, 2, 4)
        ]
        assert {o.status for o in outs} == {STATUS_UNKNOWN_BUDGET_EXCEEDED}
        assert {o.stats.nodes for o in outs} == {budget}
    # C(3,9) reaches its witness at node 188,220: one node short of it, and
    # exactly at it, where a task's cap meets its sequential allowance
    for budget, status in ((188_219, STATUS_UNKNOWN_BUDGET_EXCEEDED),
                           (188_220, STATUS_SEM)):
        outs = [search_sem(make_two_cycle(3, 9),
                           SearchConfig(threads=t, budget=budget))
                for t in (1, 2, 4)]
        assert {o.status for o in outs} == {status}
        assert {o.stats.nodes for o in outs} == {budget}
        assert len({o.witness for o in outs}) == 1
    for budget in (10, 500, 10**9):
        sets = [sem_set(C3_C3_C3, budget=budget, threads=t) for t in (1, 2)]
        assert sets[0].values == sets[1].values
        assert sets[0].complete == sets[1].complete


@pytest.mark.usefixtures("pool_at_first_node")
def test_collect_traversal_is_deterministic_under_budget_cut():
    # the pool's collect path cut at, inside and just short of the end of a
    # full enumeration. A cut keeps the valences the cut task reached
    # within its sequential allowance: 3C3's first task reaches 24 at node
    # 612 of 2,223, and C(4,8)'s third, 160,935 nodes in, reaches 29 at its
    # node 26,553 of 569,789. sem_set, which stops at those nodes, is
    # complete from them on, and each partial set is part of the whole one.
    # test_cli checks the exit codes of `valences` at C(4,8)'s edge
    for g, edge, total, valences, budgets in (
            (C3_C3_C3, 612, 2_223, {24},
             (500, 611, 612, 1_500, 2_222, 2_223)),
            (make_two_cycle(4, 8), 187_488, 569_789, {29},
             (500, 187_487, 187_488))):
        assert _runs_pool(g)
        whole = set(sem_set(g, threads=1).values)
        for budget in budgets:
            runs = {t: solver_mod._execute(g, budget, t, collect=True)
                    for t in (1, 2, 4)}
            assert len({(e.nodes, e.labelings, tuple(sorted(e.valences)),
                         e.exceeded) for e in runs.values()}) == 1
            assert runs[1].exceeded == (budget < total)
            assert runs[1].nodes == min(budget, total)
            assert runs[1].valences == (valences if budget >= edge else set())
            sets = {sem_set(g, budget=budget, threads=t) for t in (1, 2, 4)}
            assert len(sets) == 1
            vs = sets.pop()
            assert vs.complete == (budget >= edge) == (set(vs.values) == whole)
            assert set(vs.values) <= whole


@pytest.mark.usefixtures("pool_at_first_node")
def test_parallel_work_is_bounded_by_budget():
    # C(3,13) takes 397,588,338 nodes, so without lowered caps and a stop at
    # the cut each of its 8 tasks, one per first label, could visit the whole
    # budget: more tasks than the window holds
    budget = 20_000
    g = make_two_cycle(3, 13)
    window = solver_mod._WINDOW_PER_WORKER * 2
    assert (g.order + 1) // 2 == 8 > window + 1
    engine = solver_mod._execute(g, budget, 2, collect=False)
    assert engine.exceeded and engine.nodes == budget
    assert budget <= engine.visited <= (window + 1) * budget


def test_task_cap_is_exact_at_the_abort_poll(monkeypatch):
    # one test per node serves the cap and, in a pool worker, the abort poll
    # at every 4096th node; task 1 of C(3,9), first label 2, with 80,675
    # nodes stops at exactly its cap on either side of a poll, with and
    # without an abort box
    plan = solver_mod._make_plan(make_two_cycle(3, 9))
    box = mp.Value("q", 10**6)
    for abort in (None, box):
        monkeypatch.setattr(solver_mod, "_WORKER_ABORT", abort)
        for cap in (4095, 4096, 4097, 8192):
            res = solver_mod._run_task(plan, True, 1, (2,), cap)
            assert (res.nodes, res.exhausted) == (cap, False), (abort, cap)
        res = solver_mod._run_task(plan, True, 1, (2,), 10**9)
        assert (res.nodes, res.exhausted) == (80_675, True)
    # a task whose index lies past the abort value quits at its first poll
    box.value = 0
    res = solver_mod._run_task(plan, True, 1, (2,), 10**9)
    assert (res.nodes, res.exhausted) == (1, False)

    class AbortAfterFirstPoll:
        # passes the poll at node 1, then tells the task to quit
        polls = 0

        @property
        def value(self):
            self.polls += 1
            return 10**6 if self.polls == 1 else 0

    # a poll passed moves the next one 4,096 nodes on, where the task quits
    monkeypatch.setattr(solver_mod, "_WORKER_ABORT", AbortAfterFirstPoll())
    res = solver_mod._run_task(plan, True, 1, (2,), 10**9)
    assert (res.nodes, res.exhausted) == (4_097, False)


# C(3,4) + C4, order 10: NOT_SEM after 27,773 nodes. Its two-cycle takes
# the first six positions and the cycle the last four
C34_C4 = disjoint_union(make_two_cycle(3, 4), make_cycle(4))
C33_C3_C3 = disjoint_union(make_two_cycle(3, 3), make_cycle(3), make_cycle(3))
C45_C3 = disjoint_union(make_two_cycle(4, 5), make_cycle(3))
# K(2,3) on {0, 1} and {2, 3, 7}, a triangle and an edge: with ties by
# index alone the triangle's positions would fall between the open twins
# 3 and 7
K23_C3_K2 = Graph(10, ((0, 2), (0, 3), (0, 7), (1, 2), (1, 3), (1, 7),
                       (4, 5), (5, 6), (4, 6), (8, 9)))


def test_components_take_contiguous_blocks_of_the_order():
    # the assignment order takes one component after another
    for g, order in (
            (make_two_cycle(3, 9), list(range(11))),
            (C34_C4, list(range(10))),
            # C(3,4) holds the vertex of largest degree, so it comes first,
            # and C6 follows it whole
            (disjoint_union(make_cycle(6), make_two_cycle(3, 4)),
             [6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5]),
            (C33_C3_C3, list(range(11))),
            (Graph(6, ((0, 1), (2, 3), (4, 5))), list(range(6))),
            (Graph(4, ((0, 2), (1, 3))), [0, 2, 1, 3]),
            (K23_C3_K2, [0, 1, 2, 3, 7, 4, 5, 6, 8, 9]),
            # isolated vertices come last
            (Graph(5, ((1, 2), (3, 4))), [1, 2, 3, 4, 0])):
        assert assignment_order(g) == order, g


def _twin_classes(g):
    # vertices with an edge, grouped by open and by closed neighbourhood
    adj = g.adjacency()
    classes = {}
    for v in range(g.order):
        if adj[v]:
            classes.setdefault(("open", adj[v]), []).append(v)
            classes.setdefault(("closed", tuple(sorted(adj[v] + (v,)))),
                               []).append(v)
    return [c for c in classes.values() if len(c) > 1]


def _automorphisms(g):
    """Every permutation of positions that keeps the edges and maps each
    component's block of positions to itself, by brute force."""
    pos = solver_mod._make_plan(g).pos
    edges = {frozenset((pos[u], pos[v])) for u, v in g.edges}
    h = nx.empty_graph(g.order)
    h.add_edges_from(g.edges)
    block = {}
    for i, comp in enumerate(nx.connected_components(h)):
        block.update((pos[v], i) for v in comp)
    return [m for m in itertools.permutations(range(g.order))
            if all(block[m[x]] == block[x] for x in range(g.order))
            and {frozenset((m[a], m[b])) for a, b in edges} == edges]


def _lead_chain(plan, y):
    chain = []
    while plan.lead[y] < plan.p:
        y = plan.lead[y]
        chain.append(y)
    return chain


def test_leads_and_seams_stay_inside_component_blocks():
    # every component takes one contiguous block of positions, each lead
    # lies before its position in the same block, and the chain of leads
    # from each position passes every earlier twin of it
    rng = random.Random(83)
    graphs = [K23_C3_K2, C34_C4, C33_C3_C3, C45_C3,
              disjoint_union(make_cycle(6), make_two_cycle(3, 4)),
              Graph(5, ((1, 2), (3, 4)))]
    graphs += [helpers.twin_rich_graph(rng) for _ in range(60)]
    for g in graphs:
        plan = solver_mod._make_plan(g)
        pos = plan.pos
        h = nx.empty_graph(g.order)
        h.add_edges_from(g.edges)
        block_of = {}
        for i, comp in enumerate(nx.connected_components(h)):
            at = sorted(pos[v] for v in comp)
            assert at == list(range(at[0], at[0] + len(at))), g
            block_of.update((x, i) for x in at)
        for y, b in enumerate(plan.lead):
            assert b == g.order or (b < y and block_of[b] == block_of[y]), g
        for c in _twin_classes(g):
            at = sorted(pos[v] for v in c)
            for x, y in itertools.pairwise(at):
                assert x in _lead_chain(plan, y), (g, x, y)
    assert sum(len(_twin_classes(g)) for g in graphs) > 100


def test_leads_are_the_stabiliser_chain_orbits():
    # by brute force over every permutation, on every atlas graph of order
    # at most 6 and chosen graphs of order 7: the lead of y is the latest b
    # whose orbit, under the automorphisms that fix every position before b
    # and map each component to itself, holds y, so an automorphism fixing
    # the positions before b maps b to y; and b's followers are the rest of
    # that orbit, so no orbit is missed
    graphs = [Graph(a.number_of_nodes(), tuple(a.edges()))
              for a in nx.graph_atlas_g()[1:209] if a.number_of_edges()]
    assert {g.order for g in graphs} == {2, 3, 4, 5, 6}
    graphs += [make_cycle(7), make_two_cycle(3, 5), make_two_cycle(4, 4),
               disjoint_union(make_cycle(3), make_cycle(4)),
               Graph(7, tuple((0, v) for v in range(1, 7))
                     + tuple((v, v % 6 + 1) for v in range(1, 7)))]
    moved = 0
    for g in graphs:
        plan = solver_mod._make_plan(g)
        auts = _automorphisms(g)
        lead, follow = [g.order] * g.order, [0] * g.order
        for b in range(g.order):
            orbit = {m[b] for m in auts if m[:b] == tuple(range(b))}
            follow[b] = len(orbit) - 1
            for y in orbit - {b}:
                lead[y] = b
        assert (plan.lead, plan.follow) == (tuple(lead), tuple(follow)), g
        moved += sum(follow)
    assert len(graphs) == 207 and moved == 559


def test_plan_of_a_rigid_cubic_graph_is_cheap():
    # a cubic graph of order 20 with no automorphism but the identity: every
    # vertex has one colour, so the plan refines and tests candidate images
    # before it finds no lead, and stays well inside its work cap
    g = Graph(20, ((0, 2), (0, 5), (0, 18), (1, 4), (1, 14), (1, 16), (2, 5),
                   (2, 7), (3, 9), (3, 11), (3, 18), (4, 8), (4, 14), (5, 17),
                   (6, 7), (6, 13), (6, 19), (7, 16), (8, 10), (8, 16),
                   (9, 15), (9, 17), (10, 12), (10, 19), (11, 14), (11, 15),
                   (12, 13), (12, 19), (13, 18), (15, 17)))
    assert set(g.degrees()) == {3}
    h = nx.Graph(g.edges)
    assert sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter()) == 1
    times = []
    for _ in range(5):
        start = time.perf_counter()
        plan = solver_mod._make_plan(g)
        times.append(time.perf_counter() - start)
    assert plan.lead == (20,) * 20 and plan.follow == (0,) * 20
    assert min(times) < 0.05


@pytest.mark.usefixtures("pool_at_first_node")
def test_the_budget_bounds_the_reported_count():
    # a budget one short of a decided search's node count cuts it at the
    # budget, and that count decides it, at threads 1 and 2 alike
    for g, nodes, status in (
            (C34_C4, 27_773, STATUS_NOT_SEM_EXHAUSTED),
            (C45_C3, 96_570, STATUS_SEM)):
        assert _runs_pool(g)
        for threads in (1, 2):
            for budget, want in ((nodes - 1, STATUS_UNKNOWN_BUDGET_EXCEEDED),
                                 (nodes, status)):
                out = search_sem(g, SearchConfig(use_obstructions=False,
                                                 threads=threads,
                                                 budget=budget))
                assert (out.status, out.stats.nodes) == (want, budget), g


@pytest.mark.usefixtures("pool_at_first_node")
def test_budget_cut_on_a_disconnected_graph_is_deterministic():
    # a cut reports its budget. Budgets in the first task; at the end of
    # task 0 (5,040 nodes) and inside task 1; at the end of task 1 (10,243
    # nodes in all); and one short of the 27,773 nodes in all
    g = C34_C4
    assert _runs_pool(g)
    for budget in (17, 5_040, 8_340, 10_243, 27_772):
        outs = [search_sem(g, SearchConfig(use_obstructions=False, threads=t,
                                           budget=budget)) for t in (1, 2, 4)]
        assert {(o.status, o.stats.nodes) for o in outs} == {
            (STATUS_UNKNOWN_BUDGET_EXCEEDED, budget)}
        runs = [solver_mod._execute(g, budget, t, collect=True)
                for t in (1, 2, 4)]
        assert {(e.nodes, e.labelings, tuple(e.valences), e.exceeded)
                for e in runs} == {(budget, 0, (), True)}


@pytest.mark.usefixtures("pool_at_first_node")
def test_disconnected_paper_family_is_pinned():
    # (4, 2, ..., 2) graphs that are a two-cycle plus cycles, with the
    # obstructions off: status, nodes, witness and valence set at threads 1
    # and 2. C(3,3) + C3 + C3 has three components
    for g, status, nodes, witness, valences in (
            (disjoint_union(make_two_cycle(3, 3), make_cycle(4)),
             STATUS_NOT_SEM_EXHAUSTED, 3_097, None, ()),
            (C34_C4, STATUS_NOT_SEM_EXHAUSTED, 27_773, None, ()),
            (C33_C3_C3, STATUS_SEM, 17_892,
             (3, 4, 11, 6, 10, 1, 5, 7, 2, 8, 9), (29, 30)),
            (C45_C3, STATUS_SEM, 96_570,
             (3, 4, 2, 7, 5, 11, 1, 10, 6, 8, 9), (29, 30))):
        assert _runs_pool(g)
        for threads in (1, 2):
            out = search_sem(g, SearchConfig(use_obstructions=False,
                                             threads=threads))
            assert (out.status, out.stats.nodes) == (status, nodes), g
            labels = out.witness.vertex_labels if out.witness else None
            assert labels == witness
            assert sem_set(g, threads=threads).values == valences


def test_split_counts_each_node_once():
    # the split's count is that of one sequential search of its tree: the
    # searches pinned at each live first label, up to (p+1)//2 and to p
    # less position 0's followers, each one task of the plan the split
    # searches, add up to it, also on graphs whose edges all join the first
    # two positions, where the leaf is depth 1
    graphs = [g for g in helpers.small_corpus(seed=53, n_random=30, n_cacti=8)
              if g.size]
    assert len(graphs) == 46
    for g in graphs + [C34_C4]:
        split = solver_mod._execute(g, 10**9, 1, True).nodes
        plan = solver_mod._make_plan(g)
        live = min((g.order + 1) // 2, g.order - plan.follow[0])
        pinned = sum(solver_mod._run_task(plan, True, a - 1, (a,), 10**9).nodes
                     for a in range(1, live + 1))
        assert split == pinned, g


def test_task_split_stays_small_on_a_large_star():
    # the star K(1,1500) splits into 751 tasks, one per first label, and the
    # first task's witness, 1,501 nodes in, ends the search within 8 MiB of
    # traced memory. (Peak RSS of a child process would not show it: on
    # Linux a child starts from the high-water mark of the process that
    # forked it)
    g = Graph(1501, tuple((0, v) for v in range(1, 1501)))
    tracemalloc.start()
    try:
        out = search_sem(g, SearchConfig(threads=1, budget=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.stats.nodes) == (STATUS_SEM, 1_501)
    assert peak < 8 * 2**20
    out = search_sem(g, SearchConfig(threads=2, budget=10**6))
    assert (out.status, out.stats.nodes) == (STATUS_SEM, 1_501)


def test_the_split_hands_out_only_live_first_labels():
    # complement symmetry caps the first label at (p+1)//2, and the lead
    # rule at p less position 0's followers: C9, C10, K5 and K6, whose
    # automorphisms move position 0 to every other one, have one task; a
    # graph with one vertex of largest degree keeps every label to the cap
    complete = [Graph(k, tuple(itertools.combinations(range(k), 2)))
                for k in (5, 6)]
    star = Graph(1501, tuple((0, v) for v in range(1, 1501)))
    for g, live in ((make_cycle(9), 1), (make_cycle(10), 1),
                    (complete[0], 1), (complete[1], 1),
                    (make_two_cycle(3, 9), 6),
                    (disjoint_union(make_cycle(6), make_two_cycle(3, 4)), 6),
                    (star, 751)):
        assert _first_labels(g) == list(range(1, live + 1)), g


@pytest.mark.usefixtures("pool_at_first_node")
def test_one_live_first_label_runs_in_process(monkeypatch):
    # one task needs no pool at any thread count; six do
    def no_pool(*args, **kwargs):
        raise RuntimeError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    out = search_sem(make_cycle(9), SearchConfig(threads=2))
    assert out.status == STATUS_SEM and out.stats.nodes == 2_491
    assert sem_set(make_cycle(9), threads=2).values == (24,)
    with pytest.raises(RuntimeError, match="worker pool"):
        search_sem(make_two_cycle(3, 9), SearchConfig(threads=2))


# C6 + C(3,4), order 12: NOT_SEM after 352,960 nodes in six tasks
C6_C34 = disjoint_union(make_cycle(6), make_two_cycle(3, 4))


def test_pool_started_inside_a_task_changes_no_result(monkeypatch):
    # at thresholds of 1, 1,000 and 100,000 nodes the pool starts inside
    # the first or the second task, which finishes in this process; the
    # results at threads 2 and 4 are serial's. The first two tasks take
    # 75,456 and 80,675 nodes on C(3,9), 48,504 and 51,067 on C6 + C(3,4),
    # 798 and 601 of 2,223 on 3C3's full traversal, and 75,626 and 85,309
    # on C(4,8)'s collect run, whose interval fills at node 187,488
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            started.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    c48 = make_two_cycle(4, 8)
    runs = [(make_two_cycle(3, 9), False, 10**9, None),
            (C6_C34, False, 10**9, None), (C3_C3_C3, True, 10**9, None)]
    runs += [(c48, True, budget, sem_interval(c48))
             for budget in (187_487, 187_488, 10**9)]
    for g, collect, budget, interval in runs:
        serial = solver_mod._execute(g, budget, 1, collect, interval=interval)
        for at in (1, 1_000, 100_000):
            monkeypatch.setattr(solver_mod, "_INLINE_NODES", at)
            for threads in (2, 4):
                del started[:]
                engine = solver_mod._execute(g, budget, threads, collect,
                                             interval=interval)
                # 3C3's 2,223 nodes stay below 100,000
                assert len(started) == (g is not C3_C3_C3 or at < 2_223)
                assert replace(engine, visited=0) == replace(serial, visited=0), (
                    g, budget, at, threads)
                if g is C6_C34:
                    # an exhausted search replays every task it ran, and
                    # each node visited counts once: none ran twice
                    assert engine.visited == engine.nodes == 352_960


def test_a_pool_started_deep_in_a_search_fits_its_workers_stacks():
    # the hand-off may fork the workers deep in the recursion, and a worker
    # starts as deep as this process was: on K(1,1500) the first task
    # starts the pool 1,400 frames deep, and a worker's task, center label
    # 2, recurses 1,500 frames more
    star = Graph(1501, tuple((0, v) for v in range(1, 1501)))
    plan = solver_mod._make_plan(star)
    nodes = []

    def start_pool():
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            nodes.append(pool.submit(solver_mod._run_task, plan, False, 1,
                                     (2,), 10**6).result().nodes)

    res = solver_mod._run_task(plan, False, 0, (1,), 10**6, None,
                               (1_400, start_pool))
    assert (res.nodes, res.witness is not None, nodes) == (1_501, True, [1_501])


def test_correctness_checks_survive_optimized_mode():
    # under python -O assert statements vanish; the self-checks must not
    code = textwrap.dedent("""
        import sys
        from fractions import Fraction
        import semlab.cli as cli
        import semlab.labeling as labeling
        import semlab.solver as solver
        from semlab import Graph, SearchConfig, VerifyResult, make_cycle

        if __debug__:
            sys.exit("not running under python -O")

        def expect_raise(what, call):
            try:
                call()
            except AssertionError:
                return
            sys.exit(f"{what}: a failed self-check did not raise")

        # a sweep row whose witness pair does not fill its interval
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        cli._sweep_graphs = lambda args: [("star", star)]
        if cli.main(["sweep", "two-cycle-grid", "--threads", "1"]) != 4:
            sys.exit("sweep: a failed self-check did not exit 4")
        solver.verify_sem = lambda g, cert: VerifyResult(False, "patched")
        expect_raise("search_sem", lambda: solver.search_sem(
            make_cycle(5), SearchConfig(threads=1)))
        solver.dual_valence = lambda p, q, k: k + 1
        expect_raise("sem_set", lambda: solver.sem_set(make_cycle(5), threads=1))
        labeling.valence_of = lambda g, labels: Fraction(0)
        expect_raise("extend_to_sem", lambda: labeling.extend_to_sem(
            make_cycle(5), (1, 3, 5, 2, 4)))
    """)
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sem_set_examples():
    assert sem_set(make_cycle(3), threads=1).values == (9,)
    assert sem_set(make_cycle(4), threads=1).values == ()
    assert sem_set(make_two_cycle(3, 5), threads=1).values == (19, 20)
    with pytest.raises(ValueError):
        sem_set(Graph(2, ()))


def test_sem_set_subset_of_interval_and_dual_closed():
    for g in helpers.small_corpus(seed=31, n_random=25, n_cacti=8, p_max=7):
        if g.size == 0:
            continue
        p, q = g.order, g.size
        vs = sem_set(g, threads=1)
        assert vs.complete
        iv = sem_interval(g)
        assert set(vs.values) <= set(iv.values())
        for k in vs.values:
            assert 4 * p + q + 3 - k in vs.values


def test_sem_set_partial_under_budget():
    # C7 has a non-empty interval, so the budget actually binds
    vs = sem_set(make_cycle(7), budget=10, threads=1)
    assert not vs.complete
    # an empty interval short-circuits before any search happens
    vs = sem_set(make_cycle(8), budget=10, threads=1)
    assert vs.complete and vs.values == ()


def test_perfect_classification():
    assert is_perfect_sem(make_cycle(3), threads=1) == "perfect"
    assert is_perfect_sem(make_cycle(7), threads=1) == "perfect"
    assert is_perfect_sem(make_cycle(4), threads=1) == "vacuous-not-sem"
    # the 3-star realizes only the interval endpoints {10, 12}, missing 11
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert sem_set(star, threads=1).values == (10, 12)
    assert sem_interval(star).values() == [10, 11, 12]
    assert is_perfect_sem(star, threads=1) == "not-perfect"
    assert is_perfect_sem(make_cycle(7), budget=10, threads=1) == "unknown"
    with pytest.raises(ValueError):
        is_perfect_sem(Graph(1, ()))


def test_oracle_examples():
    assert oracle_search(make_cycle(3)).status == STATUS_SEM
    out = oracle_search(make_two_cycle(3, 3))
    assert out.status == STATUS_NOT_SEM_EXHAUSTED
    assert out.stats.labelings == math.factorial(5)
    assert oracle_search(Graph(3, ())).status == STATUS_TRIVIAL_EDGELESS
    # one edge: every bijection has one sum, trivially consecutive
    for g, valences in ((Graph(2, ((0, 1),)), (6,)),
                        (Graph(4, ((1, 3),)), (8, 9, 10, 11, 12))):
        out = oracle_search(g)
        assert out.status == STATUS_SEM
        assert out.valence_set.values == valences
        assert out.stats.labelings == math.factorial(g.order)


def test_oracle_rejects_large_free_space():
    with pytest.raises(ValueError):
        oracle_search(make_cycle(11))
    # fixing one vertex brings the free count back within range
    out = oracle_search(make_cycle(11), prefix=[(0, 1)])
    assert out.stats.labelings == math.factorial(10)


def test_oracle_prefix_validation():
    g = make_cycle(5)
    with pytest.raises(ValueError):
        oracle_search(g, prefix=[(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        oracle_search(g, prefix=[(0, 1), (1, 1)])
    with pytest.raises(ValueError):
        oracle_search(g, prefix=[(9, 1)])
    with pytest.raises(ValueError):
        oracle_search(g, prefix=[(0, 9)])


def test_oracle_equivalence_small_corpus():
    for g in helpers.small_corpus(seed=47, n_random=40, n_cacti=10, p_max=7):
        ref = oracle_search(g)
        got = search_sem(g, SEQ)
        assert got.status == ref.status, f"{g} {got.status} != {ref.status}"
        if g.size:
            assert sem_set(g, threads=1).values == ref.valence_set.values


def test_cycles_are_sem_iff_odd():
    # a known fact about the paper's family: C_n is super edge-magic exactly
    # when n is odd. Searched without obstructions; C10 exhausts in 280,694
    # nodes
    for n in range(3, 12):
        out = search_sem(make_cycle(n), SEQ)
        want = STATUS_SEM if n % 2 else STATUS_NOT_SEM_EXHAUSTED
        assert out.status == want, n
        if out.witness is not None:
            assert verify_sem(out.graph, out.witness), n


@pytest.mark.usefixtures("pool_at_first_node")
def test_twin_rule_keeps_every_answer():
    # on seeded twin-rich graphs, connected or not: status and
    # valence set are the oracle's, the witness is that of the whole space
    # searched with the rule off, and nodes and witness are the same at
    # threads 1 and 2 (the pool runs on those with more than one live first
    # label)
    rng = random.Random(61)
    graphs = [helpers.twin_rich_graph(rng, p_max=9) for _ in range(24)]
    graphs.append(K23_C3_K2)
    statuses = []
    for g in graphs:
        ref = oracle_search(g)
        whole = search_sem(g, SEQ, prefix=())
        outs = [search_sem(g, SearchConfig(use_obstructions=False,
                                           threads=t)) for t in (1, 2)]
        assert outs[0].status == outs[1].status == ref.status == whole.status, g
        assert outs[0].stats.nodes == outs[1].stats.nodes, g
        assert outs[0].witness == outs[1].witness == whole.witness, g
        for threads in (1, 2):
            assert sem_set(g, threads=threads).values == ref.valence_set.values, g
        statuses.append(ref.status)
    assert statuses.count(STATUS_SEM) == 6
    assert sum(map(_runs_pool, graphs)) == len(graphs) == 25


@pytest.mark.usefixtures("pool_at_first_node")
def test_lead_rule_keeps_every_answer_on_symmetric_graphs():
    # cycles, two disjoint cycles and vertex-transitive graphs, where the
    # lead rule cuts most: status and valence set are the oracle's, the
    # witness is that of the whole space searched with the rule off, and
    # the search's nodes and witness, and sem_set's nodes and valences, are
    # the same at threads 1, 2 and 4. From order 10 the oracle pins label 1
    # at one vertex of each vertex orbit, which every labeling's orbit meets
    named = (nx.complete_bipartite_graph(3, 3), nx.hypercube_graph(3),
             nx.petersen_graph(), nx.circular_ladder_graph(5))
    graphs = [(make_cycle(n), (0,)) for n in range(3, 12)]
    graphs += [(disjoint_union(make_cycle(m), make_cycle(n)), (0, m))
               for m in range(3, 6) for n in range(m, 11 - m)]
    graphs += [(Graph(h.order(), tuple(nx.convert_node_labels_to_integers(h).edges)),
                (0,)) for h in named]
    assert len(graphs) == 22
    for g, reps in graphs:
        refs = ([oracle_search(g, prefix=[(v, 1)]) for v in reps]
                if g.order >= 10 else [oracle_search(g)])
        status = (STATUS_SEM if STATUS_SEM in {r.status for r in refs}
                  else STATUS_NOT_SEM_EXHAUSTED)
        values = tuple(sorted(set().union(*(r.valence_set.values for r in refs))))
        whole = search_sem(g, SEQ, prefix=())
        assert whole.status == status, g
        assert sem_set(g, threads=1).values == values, g
        outs, collects = set(), set()
        for threads in (1, 2, 4):
            out = search_sem(g, SearchConfig(use_obstructions=False,
                                             threads=threads))
            outs.add((out.status, out.stats.nodes, out.witness))
            engine = solver_mod._execute(g, 10**9, threads, True,
                                         interval=sem_interval(g))
            collects.add((engine.nodes, tuple(sorted(engine.valences))))
        assert outs == {(status, out.stats.nodes, whole.witness)}, g
        assert len(collects) == 1, g


def test_symmetry_on_off_same_answers():
    # the task split's complement-symmetry cap against the whole space,
    # searched as one task under an empty prefix
    for g in (make_cycle(6), make_cycle(7), make_two_cycle(3, 5),
              make_two_cycle(4, 4), Graph(5, ((0, 1), (1, 2), (3, 4)))):
        on = search_sem(g, SEQ)
        off = search_sem(g, SEQ, prefix=())
        assert on.status == off.status
        for out in (on, off):
            if out.witness is not None:
                assert verify_sem(g, out.witness)


@pytest.mark.usefixtures("pool_at_first_node")
def test_thread_count_does_not_change_results():
    # C9 and C10, whose one live first label is one task, run serially at
    # any thread count; the others run the pool, 3C3 with a witness and
    # C(3,7) with a full traversal
    for g in (make_two_cycle(3, 5), make_cycle(8), make_two_cycle(4, 4),
              make_cycle(9), make_cycle(10), C3_C3_C3, make_two_cycle(3, 7)):
        one = search_sem(g, SearchConfig(use_obstructions=False, threads=1))
        four = search_sem(g, SearchConfig(use_obstructions=False, threads=4))
        assert one.status == four.status
        assert one.stats.nodes == four.stats.nodes
        w1 = one.witness.vertex_labels if one.witness else None
        w4 = four.witness.vertex_labels if four.witness else None
        assert w1 == w4
        if g.size:
            assert sem_set(g, threads=1).values == sem_set(g, threads=4).values


def test_witness_is_lexicographically_least():
    # in assignment order, over the symmetry-restricted space
    g = make_cycle(5)
    out = search_sem(g, SearchConfig(use_obstructions=False, threads=1))
    order = assignment_order(g)
    cap = (g.order + 1) // 2

    def key(labels):
        return tuple(labels[v] for v in order)

    extendables = [perm for perm in helpers.all_bijections(5)
                   if is_extendable(edge_sums(g, perm)) and key(perm)[0] <= cap]
    expected = min(extendables, key=key)
    assert out.witness.vertex_labels == expected


def test_every_extendable_labeling_is_reached():
    # full-coverage check of the pruning: the number of completions the
    # engine reaches must equal the brute-force count of extendable
    # bijections, and the valences must match exactly. An empty prefix
    # searches the whole space; the task split covers the lex-leaders (in
    # assignment order, under the automorphisms that map each component to
    # itself) whose first label is at most (p+1)//2, and pins two depths,
    # past the only edge in Graph(4, ((0, 1),))
    rng = random.Random(91)
    graphs = [make_cycle(5), make_cycle(6), make_two_cycle(3, 3),
              Graph(4, ((0, 1), (1, 2))), Graph(4, ((0, 1),)), Graph(5, ())]
    graphs += [helpers.random_graph(rng, p_min=2, p_max=6) for _ in range(40)]
    for g in graphs:
        if g.size == 0:
            continue
        order = assignment_order(g)
        auts = _automorphisms(g)

        def leads(perm):
            key = tuple(perm[v] for v in order)
            return all(key <= tuple(key[x] for x in m) for m in auts)

        brute = [perm for perm in helpers.all_bijections(g.order)
                 if is_extendable(edge_sums(g, perm))]
        for prefix, space in (
                ((), brute),
                (None, [perm for perm in brute
                        if perm[order[0]] <= (g.order + 1) // 2
                        and leads(perm)])):
            engine = solver_mod._execute(g, 10**9, 1, True, prefix)
            assert engine.labelings == len(space), f"coverage differs on {g}"
            want = sorted({g.order + g.size + min(edge_sums(g, perm))
                           for perm in space})
            assert sorted(engine.valences) == want


def test_restricted_search_matches_restricted_oracle():
    g = make_two_cycle(3, 5)
    order = assignment_order(g)
    for labs in ((1, 2), (2, 5), (4, 3), (7, 1)):
        prefix = list(zip(order[:2], labs))
        got = search_sem(g, SEQ, prefix=prefix)
        ref = oracle_search(g, prefix=prefix)
        assert got.status == ref.status
        if got.witness is not None:
            assert verify_sem(g, got.witness)
            assert got.witness.vertex_labels[order[0]] == labs[0]
            assert got.witness.vertex_labels[order[1]] == labs[1]


@pytest.mark.usefixtures("pool_at_first_node")
def test_node_counts_are_pinned():
    # exact counts and witnesses; node counts are deterministic, so any
    # change to the kernel's pruning, assignment step or task split shows here
    for (m, n), nodes, witness in (
            ((3, 9), 188_220, (3, 4, 6, 8, 9, 7, 1, 5, 10, 2, 11)),
            ((5, 7), 184_796, (3, 4, 2, 6, 7, 9, 8, 1, 10, 5, 11)),
            ((3, 5), 517, (2, 5, 6, 4, 1, 3, 7)),
            ((4, 4), 238, (2, 3, 1, 5, 6, 4, 7))):
        for threads in (1, 2):
            out = search_sem(make_two_cycle(m, n), SearchConfig(threads=threads))
            assert out.status == STATUS_SEM, (m, n)
            assert (out.stats.nodes, out.stats.labelings) == (nodes, 1), (m, n)
            assert out.witness.vertex_labels == witness
    # these graphs have q > 2p-3 edges: the kernel kills every node that
    # places an edge, and only those. In the last one, K(2,4) plus two
    # edges, the first two vertices in assignment order are not adjacent,
    # so its tasks pass their pinned depths and count nodes at depth 2.
    # Each is searched by the task split, which breaks their symmetry (K5
    # and K6 take only labels that rise in assignment order, so one node
    # at depth 0 and one at depth 1), and, under an empty prefix, whole
    dense = [Graph(k, tuple(itertools.combinations(range(k), 2))) for k in (5, 6)]
    dense.append(Graph(6, tuple((a, b) for a in (0, 1) for b in range(2, 6))
                       + ((2, 3), (4, 5))))
    for g, counts in zip(dense, ((2, 25), (2, 36), (27, 156))):
        assert g.size > 2 * g.order - 3
        for prefix, nodes in zip((None, ()), counts):
            out = search_sem(g, SEQ, prefix=prefix)
            assert (out.status, out.stats.nodes) == (
                STATUS_NOT_SEM_EXHAUSTED, nodes), g


def test_pinned_prefix_node_counts():
    # pinned labels replay through the kernel's own loop, and each pinned
    # node visited counts, as every other node does
    g = make_two_cycle(3, 5)
    order = assignment_order(g)
    witness = (2, 5, 6, 4, 1, 3, 7)
    for labs, status, nodes in (
            ((), STATUS_SEM, 1_200),
            ((1,), STATUS_NOT_SEM_EXHAUSTED, 733),
            ((2,), STATUS_SEM, 467),
            ((1, 2), STATUS_NOT_SEM_EXHAUSTED, 120),
            ((2, 5), STATUS_SEM, 92),
            ((2, 1, 3), STATUS_NOT_SEM_EXHAUSTED, 29),
            ((1, 2, 3, 5), STATUS_NOT_SEM_EXHAUSTED, 10),
            ((2, 5, 6, 4), STATUS_SEM, 7),
            # 1 + 4 repeats the sum 2 + 3 at the fourth pinned vertex, the
            # last node visited
            ((1, 2, 3, 4, 5), STATUS_NOT_SEM_EXHAUSTED, 4),
            (witness, STATUS_SEM, 7),
            ((1, 2, 3, 4, 5, 6, 7), STATUS_NOT_SEM_EXHAUSTED, 4)):
        for threads in (1, 2):
            cfg = SearchConfig(use_obstructions=False, threads=threads)
            out = search_sem(g, cfg, prefix=list(zip(order, labs)))
            assert (out.status, out.stats.nodes) == (status, nodes), labs
            assert out.stats.labelings == (status == STATUS_SEM)
            if status == STATUS_SEM:
                assert out.witness.vertex_labels == witness
    cut = SearchConfig(use_obstructions=False, threads=1, budget=50)
    out = search_sem(g, cut, prefix=list(zip(order, (2, 5))))
    assert (out.status, out.stats.nodes) == (STATUS_UNKNOWN_BUDGET_EXCEEDED, 50)


def test_pinned_depths_skip_fill():
    # the leaf, where the ascending fill of the unused labels starts, is the
    # depth of the last edge, or the last pinned depth if deeper; no node
    # past it counts. Every task of the split pins depth 0 only, but takes
    # only lex-leaders: in the second graph 0 and 1, and 2 and 3, are
    # closed twins, so it counts less than an empty prefix, which takes all
    for g, witness, counts in (
            (Graph(3, ((0, 2),)), (1, 3, 2), (2, 2)),
            (Graph(5, ((0, 1), (2, 3))), (1, 5, 2, 3, 4), (22, 34))):
        for prefix, nodes in zip((None, ()), counts):
            out = search_sem(g, SearchConfig(threads=1), prefix=prefix)
            assert out.status == STATUS_SEM and out.stats.nodes == nodes
            assert out.witness.vertex_labels == witness
    # the last edge of Graph(4, ((0, 2),)) is at depth 1: two pins end
    # there, and a third pin, label 4 at depth 2, is the leaf, whose fill
    # keeps it
    g = Graph(4, ((0, 2),))
    order = assignment_order(g)
    for labs, nodes, witness in (((1, 2), 2, (1, 3, 2, 4)),
                                 ((1, 2, 4), 3, (1, 4, 2, 3))):
        out = search_sem(g, SearchConfig(threads=1),
                         prefix=list(zip(order, labs)))
        assert (out.status, out.stats.nodes) == (STATUS_SEM, nodes), labs
        assert out.witness.vertex_labels == witness


def test_deep_search_does_not_overflow_the_stack():
    # the kernel recurses once per depth, and a star of order 1501 needs
    # 1500 of them: more than the interpreter's default limit of 1000
    g = Graph(1501, tuple((0, v) for v in range(1, 1501)))
    for threads in (1, 2):
        out = search_sem(g, SearchConfig(threads=threads))
        assert out.status == STATUS_SEM and verify_sem(g, out.witness)
        assert out.stats.nodes == 1_501


def test_prefix_validation():
    g = make_two_cycle(3, 5)
    with pytest.raises(ValueError):
        search_sem(g, SEQ, prefix=[(3, 1)])  # not first in assignment order
    with pytest.raises(ValueError):
        search_sem(g, SEQ, prefix=[(0, 1), (1, 1)])
    # a bad prefix is an error even where no search would run: an edgeless
    # graph, or a graph an obstruction decides
    with pytest.raises(ValueError):
        search_sem(make_two_cycle(3, 4), SearchConfig(threads=1),
                   prefix=[(5, 1), (5, 1)])
    with pytest.raises(ValueError):
        search_sem(Graph(3, ()), SEQ, prefix=[(7, 9)])


def test_outcome_json_shape():
    out = search_sem(make_two_cycle(3, 4), SearchConfig(threads=2))
    data = out.to_json_dict()
    assert data["status"] == STATUS_NOT_SEM_OBSTRUCTION
    assert data["obstruction"]["rule"] == "DEGSEQ_4_2_EVEN_ORDER"
    assert data["witness"] is None
    assert data["interval"] == [17, 17]
    assert data["config"]["threads"] == 2
    assert set(data["stats"]) == {"nodes", "labelings", "millis"}

    out = search_sem(make_cycle(5), SEQ)
    data = out.to_json_dict()
    assert data["witness"]["valence"] == 14
    assert data["interval"] == [14, 14]

    out = search_sem(make_cycle(4), SEQ)
    assert out.to_json_dict()["interval"] == []

    out = search_sem(Graph(2, ()), SEQ)
    assert out.to_json_dict()["interval"] is None

    # an empty prefix searches every bijection, the split only the
    # lex-leaders whose first label is at most (p+1)//2: on K5, 25 nodes
    # against 2
    k5 = Graph(5, tuple(itertools.combinations(range(5), 2)))
    outs = [search_sem(k5, SEQ, prefix=prefix) for prefix in ((), None)]
    assert [o.stats.nodes for o in outs] == [25, 2]
    assert [o.to_json_dict()["config"]["prefix"] for o in outs] == [[], None]
    out = search_sem(make_cycle(5), SEQ, prefix=[(0, 1)])
    assert out.to_json_dict()["config"]["prefix"] == [[0, 1]]


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(budget=0)
    with pytest.raises(ValueError):
        SearchConfig(threads=0)
