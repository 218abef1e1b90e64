"""Correctness floor: every graph of the networkx atlas (all graphs on at
most 7 vertices, up to isomorphism) against the brute-force oracle."""

import math

import networkx as nx

from semlab import (Graph, SearchConfig, STATUS_SEM, check_all, make_two_cycle,
                    oracle_search, search_sem, sem_interval, sem_set)
from semlab.labeling import dual_valence
from semlab.solver import DEFAULT_BUDGET, _execute, _make_plan, _run_task

SEQ = SearchConfig(use_obstructions=False, threads=1)


def atlas_graphs():
    for index, a in enumerate(nx.graph_atlas_g()):
        if a.number_of_edges():
            yield index, Graph(a.number_of_nodes(), tuple(a.edges()))


def test_search_sem_set_and_obstructions_agree_with_oracle():
    checked = nodes = labelings = enumerated = 0
    saturated = [0, 0]  # graphs with a non-empty interval, and their nodes
    for index, g in atlas_graphs():
        ref = oracle_search(g)
        out = search_sem(g, SEQ)
        assert out.status == ref.status, index
        assert sem_set(g, threads=1).values == ref.valence_set.values, index
        if ref.status == STATUS_SEM:
            assert check_all(g) is None, index
        checked += 1
        nodes += out.stats.nodes
        labelings += out.stats.labelings
        enumerated += _execute(g, DEFAULT_BUDGET, 1, math.inf).nodes
        interval = sem_interval(g)
        if not interval.empty:
            saturated[0] += 1
            saturated[1] += _execute(g, DEFAULT_BUDGET, 1,
                                     len(interval.values())).nodes
    assert checked == 1_245
    # node counts are deterministic: any change to the kernel's pruning or
    # task split shows here. 729 of these graphs have a vertex with three or
    # more neighbours assigned before it
    assert (nodes, labelings) == (254_027, 624)
    # full enumeration of the lex-leaders, and the runs of sem_set,
    # which stop once the valences found and their duals fill the interval
    assert enumerated == 693_690
    assert saturated == [1_215, 445_777]


def test_saturation_stops_at_the_first_labeling_of_a_dual_pair():
    # an interval of one or two values is one dual pair, so the first
    # labeling fills it: sem_set's run counts the nodes of the
    # search for a witness, and sem_set is the closure of a full
    # enumeration. Order 9 and above runs the pool at 2 threads
    graphs = [g for _, g in atlas_graphs()]
    graphs += [make_two_cycle(m, n) for m in range(3, 10) for n in range(m, 10)
               if m + n - 1 <= 11]
    checked = 0
    for g in graphs:
        interval = sem_interval(g)
        if interval.empty or interval.hi > interval.lo + 1:
            continue
        out = search_sem(g, SEQ)
        if out.status != STATUS_SEM:
            continue
        lo, hi = interval.lo, interval.hi
        assert dual_valence(g.order, g.size, lo) == hi, g
        full = _execute(g, DEFAULT_BUDGET, 2, math.inf).valences
        closure = {dual_valence(g.order, g.size, k) for k in full} | full
        for threads in (1, 2):
            engine = _execute(g, DEFAULT_BUDGET, threads,
                              len(interval.values()))
            assert (engine.nodes, engine.exceeded) == (out.stats.nodes, False), g
            assert sem_set(g, threads=threads).values == tuple(sorted(closure))
        checked += 1
    assert checked == 164 + 6


def test_split_count_is_that_of_one_sequential_search():
    # the least labeling in assignment order has its first label at most
    # (p+1)//2, or its complement would be less, and it is a lex-leader,
    # or an automorphism would make it less. So one task over every first
    # label, with the lead rule on, visits the split's nodes up to the
    # split's witness and stops there: on every SEM graph both count the
    # same. Every bijection, prefix=() with the rule off, has that witness
    graphs = [g for _, g in atlas_graphs()]
    graphs += [make_two_cycle(m, n) for m in range(3, 9) for n in range(m, 9)
               if m + n - 1 <= 10]
    checked = 0
    for g in graphs:
        split = search_sem(g, SEQ)
        if split.status == STATUS_SEM:
            whole = _run_task(_make_plan(g), 1, (), DEFAULT_BUDGET)
            [(at, _, witness)] = whole.valences.values()
            assert (whole.nodes, at, witness) == (
                split.stats.nodes, split.stats.nodes,
                split.witness.vertex_labels), g
            assert search_sem(g, SEQ, prefix=()).witness == split.witness, g
            checked += 1
    assert checked == 626


def test_the_integrality_pin_keeps_every_answer():
    # at the pin depth the kernel keeps only the labels that make q divide
    # the valence's numerator; each one it drops is a node that dies. With
    # the pin off, every weight 0 and a base of 0, each task of the split
    # reaches the same valences at the same labelings, stops or exhausts
    # alike, and takes at least as many nodes. Cut below the pin depth,
    # both count the same nodes: the dropped ones are visited too
    graphs = [g for _, g in atlas_graphs()]
    graphs += [make_two_cycle(m, n) for m in range(3, 6) for n in range(m, 6)]
    totals = [0, 0]
    for g in graphs:
        plan = _make_plan(g)
        off = plan._replace(wt=(0,) * plan.p, base=0)
        live = min((plan.p + 1) // 2, plan.p - plan.follow[0])
        for task in [(first,) for first in range(1, live + 1)]:
            for full in (1, math.inf):
                on, no = (_run_task(pl, full, task, DEFAULT_BUDGET)
                          for pl in (plan, off))
                assert on.exhausted == no.exhausted, (g, task)
                assert ({k: at[1:] for k, at in on.valences.items()}
                        == {k: at[1:] for k, at in no.valences.items()}), (g, task)
                assert on.nodes <= no.nodes, (g, task)
                totals[0] += on.nodes
                totals[1] += no.nodes
            on, no = (_run_task(pl._replace(last=plan.pin + 1), math.inf, task,
                                DEFAULT_BUDGET) for pl in (plan, off))
            assert on.nodes == no.nodes, (g, task)
    assert totals == [1_142_065, 1_585_367]
