import itertools
import math
import multiprocessing as mp
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

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


def test_budget_is_deterministic_across_threads():
    # every graph here has order >= _PARALLEL_MIN_ORDER, so threads > 1 run
    # the pool; C(3,7) is not SEM and takes 55,519 nodes
    assert make_two_cycle(3, 7).order >= solver_mod._PARALLEL_MIN_ORDER
    for budget in (17, 400, 9999):
        outs = [
            search_sem(make_two_cycle(3, 7),
                       SearchConfig(use_obstructions=False, threads=t,
                                    budget=budget))
            for t in (1, 2, 4)
        ]
        assert {o.status for o in outs} == {STATUS_UNKNOWN_BUDGET_EXCEEDED}
        assert {o.stats.nodes for o in outs} == {budget}
    # C(3,9) reaches its witness at node 399,634: one node short of it, and
    # exactly at it, where a task's cap meets its sequential allowance
    for budget, status in ((399_633, STATUS_UNKNOWN_BUDGET_EXCEEDED),
                           (399_634, STATUS_SEM)):
        outs = [search_sem(make_two_cycle(3, 9),
                           SearchConfig(threads=t, budget=budget))
                for t in (1, 2, 4)]
        assert {o.status for o in outs} == {status}
        assert {o.stats.nodes for o in outs} == {budget}
        assert len({o.witness for o in outs}) == 1
    for budget in (10, 500, 10**9):
        sets = [sem_set(make_cycle(9), budget=budget, threads=t) for t in (1, 2)]
        assert sets[0].values == sets[1].values
        assert sets[0].complete == sets[1].complete


def test_collect_traversal_is_deterministic_under_budget_cut():
    # the pool's collect path (sem_set) cut at, inside and just short of
    # the end of the C9 traversal, which takes 63,044 nodes
    g = make_cycle(9)
    assert g.order >= solver_mod._PARALLEL_MIN_ORDER
    for budget in (500, 30_000, 63_043, 63_044):
        runs = {t: solver_mod._execute(g, budget, t, collect=True)
                for t in (1, 2, 4)}
        assert len({(e.nodes, e.labelings, tuple(sorted(e.valences)),
                     e.exceeded) for e in runs.values()}) == 1
        assert runs[1].exceeded == (budget < 63_044)
        assert runs[1].nodes == min(budget, 63_044)


def test_parallel_work_is_bounded_by_budget():
    # C(3,13) takes 397,588,338 nodes, so without lowered caps and a stop at
    # the cut each of its 112 tasks could visit the whole budget
    budget = 20_000
    g = make_two_cycle(3, 13)
    tasks = solver_mod._TaskPrefixes(g.order)
    assert len(tasks) == 112
    engine = solver_mod._execute(g, budget, 2, collect=False)
    assert engine.exceeded and engine.nodes == budget
    window = solver_mod._WINDOW_PER_WORKER * 2
    assert budget - tasks.nodes <= engine.visited <= (window + 1) * budget


def test_task_cap_is_exact_at_the_abort_poll(monkeypatch):
    # one test per node serves the cap and, in a pool worker, the abort poll
    # at every 4096th node; a task of C(3,9) with 14,740 nodes stops at
    # exactly its cap on either side of a poll, with and without an abort box
    plan = solver_mod._make_plan(make_two_cycle(3, 9))
    box = mp.Value("q", 10**6)
    for abort in (None, box):
        monkeypatch.setattr(solver_mod, "_WORKER_ABORT", abort)
        for cap in (4095, 4096, 4097, 8192):
            res = solver_mod._run_task(plan, True, 5, (1, 3), cap)
            assert (res.nodes, res.exhausted) == (cap, False), (abort, cap)
        res = solver_mod._run_task(plan, True, 5, (1, 3), 10**9)
        assert (res.nodes, res.exhausted) == (14_740, True)
    # a task whose index lies past the abort value quits at its first poll
    box.value = 4
    res = solver_mod._run_task(plan, True, 5, (1, 3), 10**9)
    assert (res.nodes, res.exhausted) == (1, False)


# C(3,4) + C4, order 10: NOT_SEM after 300,592 nodes. Its two-cycle takes
# the first six positions, so the search has one seam, at depth 6, where
# nothing assigned before it has a neighbor after it
C34_C4 = disjoint_union(make_two_cycle(3, 4), make_cycle(4))
C33_C3_C3 = disjoint_union(make_two_cycle(3, 3), make_cycle(3), make_cycle(3))
C45_C3 = disjoint_union(make_two_cycle(4, 5), make_cycle(3))


def test_seams_of_the_plan():
    for g, seams in (
            (make_two_cycle(3, 9), ()),
            (C34_C4, ((6, ()),)),
            # the hub of C(3,4) comes first and is live at the seam after C6
            (disjoint_union(make_cycle(6), make_two_cycle(3, 4)),
             ((7, (0,)),)),
            (C33_C3_C3, ((5, ()), (8, ()))),
            (Graph(6, ((0, 1), (2, 3), (4, 5))), ((2, ()), (4, ()))),
            # the seam after {0, 2}, depth 3, is the leaf of an unpinned
            # search: no memo there
            (Graph(4, ((0, 2), (1, 3))), ())):
        assert solver_mod._make_plan(g).seams == seams, g


def test_task_cap_is_exact_on_a_memo_hit(monkeypatch):
    # task 11 of C(3,4) + C4, prefix (2, 4), takes 7,461 nodes, 3,272 of them
    # credited from its seam memo. Its hit at node 1,453 credits 40 nodes,
    # and its hit at node 4,073 credits 32, across the abort poll at node
    # 4,097. A cap inside either stops the task at exactly the cap, as a
    # search of the subtree would
    plan = solver_mod._make_plan(C34_C4)
    box = mp.Value("q", 10**6)
    for abort in (None, box):
        monkeypatch.setattr(solver_mod, "_WORKER_ABORT", abort)
        for cap in (1454, 1470, 1492, 1493, 4080, 4096, 4097, 4104):
            res = solver_mod._run_task(plan, True, 11, (2, 4), cap)
            assert (res.nodes, res.exhausted) == (cap, False), (abort, cap)
        res = solver_mod._run_task(plan, True, 11, (2, 4), 10**9)
        assert (res.nodes, res.exhausted, res.credited) == (7_461, True, 3_272)

    class AbortAfterFirstPoll:
        # passes the poll at node 1, then tells the task to quit
        polls = 0

        @property
        def value(self):
            self.polls += 1
            return 10**6 if self.polls == 1 else 0

    # the next poll is the hit's: the task quits on the jumped count
    monkeypatch.setattr(solver_mod, "_WORKER_ABORT", AbortAfterFirstPoll())
    res = solver_mod._run_task(plan, True, 11, (2, 4), 10**9)
    assert (res.nodes, res.exhausted) == (4_105, False)


def test_budget_cut_on_a_disconnected_graph_is_deterministic():
    # budgets in the prefix, inside task 11's hits at nodes 1,453 and 4,073
    # (61,393 nodes come before the task), midway, and at the end
    g = C34_C4
    assert g.order >= solver_mod._PARALLEL_MIN_ORDER
    for budget in (17, 62_866, 65_482, 150_000, 300_591, 300_592):
        outs = [search_sem(g, SearchConfig(use_obstructions=False, threads=t,
                                           budget=budget)) for t in (1, 2, 4)]
        assert {(o.status, o.stats.nodes) for o in outs} == {(
            STATUS_NOT_SEM_EXHAUSTED if budget == 300_592
            else STATUS_UNKNOWN_BUDGET_EXCEEDED, budget)}
        runs = [solver_mod._execute(g, budget, t, collect=True)
                for t in (1, 2, 4)]
        assert len({(e.nodes, e.labelings, tuple(sorted(e.valences)),
                     e.exceeded, e.credited) for e in runs}) == 1


def test_a_full_seam_memo_changes_nothing(monkeypatch):
    # past its bound the memo stops storing but keeps answering
    graphs = (C34_C4, C33_C3_C3)
    want = [[solver_mod._execute(g, 10**9, 1, collect) for g in graphs]
            for collect in (False, True)]
    monkeypatch.setattr(solver_mod, "_MEMO_MAX_ENTRIES", 1)
    for collect, runs in zip((False, True), want):
        for g, ref in zip(graphs, runs):
            got = solver_mod._execute(g, 10**9, 1, collect)
            assert (got.nodes, got.labelings, got.witness, got.valences) == (
                ref.nodes, ref.labelings, ref.witness, ref.valences)
            assert 0 < got.credited < ref.credited


def test_disconnected_paper_family_is_pinned():
    # (4, 2, ..., 2) graphs that are a two-cycle plus cycles, with the
    # obstructions off: status, nodes, witness and valence set at threads 1
    # and 2. C(3,3) + C3 + C3 has two seams
    for g, status, nodes, witness, valences in (
            (disjoint_union(make_two_cycle(3, 3), make_cycle(4)),
             STATUS_NOT_SEM_EXHAUSTED, 80_343, None, ()),
            (C34_C4, STATUS_NOT_SEM_EXHAUSTED, 300_592, None, ()),
            (C33_C3_C3, STATUS_SEM, 457_158,
             (3, 4, 11, 6, 10, 1, 5, 7, 2, 8, 9), (29, 30)),
            (C45_C3, STATUS_SEM, 386_173,
             (3, 4, 2, 7, 5, 11, 1, 10, 6, 8, 9), (29, 30))):
        assert g.order >= solver_mod._PARALLEL_MIN_ORDER
        assert solver_mod._make_plan(g).seams
        for threads in (1, 2):
            out = search_sem(g, SearchConfig(use_obstructions=False,
                                             threads=threads))
            assert (out.status, out.stats.nodes) == (status, nodes), g
            labels = out.witness.vertex_labels if out.witness else None
            assert labels == witness
            assert sem_set(g, threads=threads).values == valences


def test_task_prefixes_are_made_on_demand():
    # task i's prefix comes from divmod(i, p - 1) and equals the i-th
    # (first, second) pair in lexicographic order
    for p in range(2, 13):
        tasks = solver_mod._TaskPrefixes(p)
        first_max = (p + 1) // 2
        pairs = [(a, b) for a in range(1, first_max + 1)
                 for b in range(1, p + 1) if b != a]
        assert list(tasks) == pairs, p
        assert tasks.nodes == first_max + len(pairs)
    # the star K(1,1500) has 1,126,500 tasks: a list of them as tuples takes
    # ~98 MB of traced memory before the budget cut ends the search. (Peak
    # RSS of a child process would not show it: on Linux a child starts from
    # the high-water mark of the process that forked it)
    g = Graph(1501, tuple((0, v) for v in range(1, 1501)))
    tracemalloc.start()
    try:
        out = search_sem(g, SearchConfig(threads=1, budget=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.status == STATUS_UNKNOWN_BUDGET_EXCEEDED
    assert peak < 8 * 2**20


def test_correctness_checks_survive_optimized_mode():
    # under python -O assert statements vanish; the self-checks must not
    code = textwrap.dedent("""
        import sys
        from fractions import Fraction
        import semlab.labeling as labeling
        import semlab.solver as solver
        from semlab import SearchConfig, VerifyResult, make_cycle

        if __debug__:
            sys.exit("not running under python -O")

        def expect_raise(what, call):
            try:
                call()
            except AssertionError:
                return
            sys.exit(f"{what}: a failed self-check did not raise")

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


def test_thread_count_does_not_change_results():
    # orders 7 and 8 run serially at any thread count; orders 9 and 10 run
    # the pool, with a witness (C9) and with a full traversal (C(3,7), C10)
    for g in (make_two_cycle(3, 5), make_cycle(8), make_two_cycle(4, 4),
              make_cycle(9), make_two_cycle(3, 7), make_cycle(10)):
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
    # searches the whole space; the task split covers the bijections whose
    # first label in assignment order is at most (p+1)//2 and pins two
    # depths, past the only edge in Graph(4, ((0, 1),))
    rng = random.Random(91)
    graphs = [make_cycle(5), make_cycle(6), make_two_cycle(3, 3),
              Graph(4, ((0, 1), (1, 2))), Graph(4, ((0, 1),)), Graph(5, ())]
    graphs += [helpers.random_graph(rng, p_min=2, p_max=6) for _ in range(40)]
    for g in graphs:
        if g.size == 0:
            continue
        first = assignment_order(g)[0]
        brute = [perm for perm in helpers.all_bijections(g.order)
                 if is_extendable(edge_sums(g, perm))]
        for prefix, space in (
                ((), brute),
                (None, [perm for perm in brute
                        if perm[first] <= (g.order + 1) // 2])):
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


def test_node_counts_are_pinned():
    # exact counts and witnesses; node counts are deterministic, so any
    # change to the kernel's pruning, assignment step or task split shows here
    for (m, n), nodes, witness in (
            ((3, 9), 399_634, (3, 4, 6, 8, 9, 7, 1, 5, 10, 2, 11)),
            ((5, 7), 414_286, (3, 4, 2, 6, 7, 9, 8, 1, 10, 5, 11)),
            ((3, 5), 1_216, (2, 5, 6, 4, 1, 3, 7)),
            ((4, 4), 820, (2, 3, 1, 5, 6, 4, 7))):
        for threads in (1, 2):
            out = search_sem(make_two_cycle(m, n), SearchConfig(threads=threads))
            assert out.status == STATUS_SEM, (m, n)
            assert (out.stats.nodes, out.stats.labelings) == (nodes, 1), (m, n)
            assert out.witness.vertex_labels == witness
    # these graphs have q > 2p-3 edges: the kernel kills every node that
    # places an edge, and only those. In the last one, K(2,4) plus two
    # edges, the first two vertices in assignment order are not adjacent,
    # so its tasks pass their pinned depths and count nodes at depth 2.
    # Each is searched by the task split and, under an empty prefix, whole
    dense = [Graph(k, tuple(itertools.combinations(range(k), 2))) for k in (5, 6)]
    dense.append(Graph(6, tuple((a, b) for a in (0, 1) for b in range(2, 6))
                       + ((2, 3), (4, 5))))
    for g, counts in zip(dense, ((15, 25), (18, 36), (78, 156))):
        assert g.size > 2 * g.order - 3
        for prefix, nodes in zip((None, ()), counts):
            out = search_sem(g, SEQ, prefix=prefix)
            assert (out.status, out.stats.nodes) == (
                STATUS_NOT_SEM_EXHAUSTED, nodes), g


def test_pinned_prefix_node_counts():
    # pinned labels replay through the kernel's own loop but count no nodes
    g = make_two_cycle(3, 5)
    order = assignment_order(g)
    witness = (2, 5, 6, 4, 1, 3, 7)
    for labs, status, nodes in (
            ((), STATUS_SEM, 1_200),
            ((1,), STATUS_NOT_SEM_EXHAUSTED, 732),
            ((2,), STATUS_SEM, 466),
            ((1, 2), STATUS_NOT_SEM_EXHAUSTED, 118),
            ((2, 5), STATUS_SEM, 90),
            ((2, 1, 3), STATUS_NOT_SEM_EXHAUSTED, 26),
            ((1, 2, 3, 5), STATUS_NOT_SEM_EXHAUSTED, 6),
            ((2, 5, 6, 4), STATUS_SEM, 3),
            # 1 + 4 repeats the sum 2 + 3 at the fourth pinned vertex
            ((1, 2, 3, 4, 5), STATUS_NOT_SEM_EXHAUSTED, 0),
            (witness, STATUS_SEM, 0),
            ((1, 2, 3, 4, 5, 6, 7), STATUS_NOT_SEM_EXHAUSTED, 0)):
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
    # every task of the split pins depths 0 and 1. When the last edge is
    # placed earlier, the leaf, where the ascending fill of the unused
    # labels starts, is the first free depth, whose nodes count. An empty
    # prefix pins no depth, so the leaf is the depth of the last edge
    for g, witness, counts in (
            (Graph(3, ((0, 2),)), (1, 3, 2), (7, 2)),
            (Graph(5, ((0, 1), (2, 3))), (1, 5, 2, 3, 4), (44, 34))):
        for prefix, nodes in zip((None, ()), counts):
            out = search_sem(g, SearchConfig(threads=1), prefix=prefix)
            assert out.status == STATUS_SEM and out.stats.nodes == nodes
            assert out.witness.vertex_labels == witness


def test_deep_search_does_not_overflow_the_stack():
    # the kernel recurses once per depth, and a star of order 1501 needs
    # 1500 of them: more than the interpreter's default limit of 1000
    g = Graph(1501, tuple((0, v) for v in range(1, 1501)))
    for threads in (1, 2):
        out = search_sem(g, SearchConfig(threads=threads))
        assert out.status == STATUS_SEM and verify_sem(g, out.witness)
        assert out.stats.nodes == 1_128_750


def test_prefix_validation():
    g = make_two_cycle(3, 5)
    with pytest.raises(ValueError):
        search_sem(g, SEQ, prefix=[(3, 1)])  # not first in assignment order
    with pytest.raises(ValueError):
        search_sem(g, SEQ, prefix=[(0, 1), (1, 1)])


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


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(budget=0)
    with pytest.raises(ValueError):
        SearchConfig(threads=0)
