import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest

from semlab import (
    DEGSEQ_4_2_EVEN_ORDER,
    EVEN_DEG_Q_MOD4,
    VALENCE_INTEGRALITY,
    Graph,
    check_all,
    check_degseq_4_2_even_order,
    check_even_degree_parity,
    check_valence_integrality,
    degseq_4_2_realizations,
    disjoint_union,
    make_cycle,
    make_two_cycle,
    oracle_search,
    sem_interval,
    theorem_valence_gap,
    STATUS_NOT_SEM_EXHAUSTED,
    STATUS_SEM,
)
from semlab.labeling import edge_label_total

import helpers


def test_even_degree_parity_examples():
    v = check_even_degree_parity(make_two_cycle(3, 3))
    assert v is not None and v.rule == EVEN_DEG_Q_MOD4
    assert check_even_degree_parity(make_cycle(6)) is not None
    assert check_even_degree_parity(make_two_cycle(3, 5)) is None  # q = 8
    assert check_even_degree_parity(make_cycle(5)) is None  # q odd
    assert check_even_degree_parity(Graph(2, ((0, 1),))) is None  # odd degrees


def test_degseq_4_2_examples():
    v = check_degseq_4_2_even_order(make_two_cycle(3, 4))
    assert v is not None and v.rule == DEGSEQ_4_2_EVEN_ORDER
    assert check_degseq_4_2_even_order(make_two_cycle(3, 5)) is None  # odd order
    assert check_degseq_4_2_even_order(make_cycle(6)) is None  # wrong degrees


def test_degseq_4_2_ignores_connectivity():
    g = disjoint_union(make_cycle(6), make_two_cycle(3, 4))  # order 12
    v = check_degseq_4_2_even_order(g)
    assert v is not None and v.params["order"] == 12


def test_degseq_4_2_disconnected_order12_exhausts():
    from semlab import SearchConfig, search_sem
    from semlab.solver import DEFAULT_BUDGET, _execute

    g = disjoint_union(make_cycle(6), make_two_cycle(3, 4))
    out = search_sem(g, SearchConfig(use_obstructions=False, threads=2))
    assert out.status == STATUS_NOT_SEM_EXHAUSTED
    # the hub's label alone makes the valence non-integral: each of the
    # six tasks dies at its root
    assert out.stats.nodes == 6
    # the same at 1, 2 and 4 threads
    for threads in (1, 2, 4):
        engine = _execute(g, DEFAULT_BUDGET, threads, 1)
        assert (engine.nodes, engine.witness, engine.exceeded) == (
            6, None, False)


def test_degseq_4_2_on_two_cycles_iff_odd_total():
    for m in range(3, 9):
        for n in range(3, 9):
            fired = check_degseq_4_2_even_order(make_two_cycle(m, n)) is not None
            assert fired == ((m + n) % 2 == 1)


def test_valence_gap_values():
    v = theorem_valence_gap(6, 1)
    assert v == Fraction(228, 14) == Fraction(114, 7)
    assert v == Fraction(5 * 6, 2) + 1 + Fraction(2 * 1, 6 + 1)
    assert theorem_valence_gap(8, 4) == 21 + Fraction(8, 9)
    for alpha in range(1, 7):
        assert theorem_valence_gap(6, alpha).denominator != 1


def test_valence_gap_domain():
    for n, alpha in ((5, 1), (4, 1), (7, 2), (6, 0), (6, 7), (8, -1)):
        with pytest.raises(ValueError):
            theorem_valence_gap(n, alpha)


def test_valence_gap_never_integral_sample():
    for n in range(6, 61, 2):
        for alpha in range(1, n + 1):
            assert (5 * n * n + 7 * n + 2 + 4 * alpha) % (2 * (n + 1)) != 0


def test_valence_integrality_examples():
    v = check_valence_integrality(make_two_cycle(3, 4))
    assert v is not None and v.rule == VALENCE_INTEGRALITY
    assert check_valence_integrality(make_cycle(3)) is None
    assert check_valence_integrality(make_two_cycle(3, 5)) is None
    with pytest.raises(ValueError):
        check_valence_integrality(Graph(3, ()))


def test_valence_integrality_two_regular():
    # for 2-regular graphs every bijection gives the same valence (5p+3)/2,
    # an integer exactly when p is odd
    for n in range(3, 11):
        fired = check_valence_integrality(make_cycle(n)) is not None
        assert fired == (n % 2 == 0)


def test_valence_integrality_three_distinct_degrees_silent():
    # degrees (3,2,1,1,1): three distinct values, window non-empty -> silent
    g = Graph(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
    assert check_valence_integrality(g) is None


def test_valence_integrality_three_distinct_empty_window():
    # K8 minus the path 0-1-2: degrees (7,7,7,7,7,6,6,5); the extreme
    # would-be valences are 782/26 and 804/26, and no integer lies between
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    edges.remove((0, 1))
    edges.remove((1, 2))
    g = Graph(8, tuple(edges))
    v = check_valence_integrality(g)
    assert v is not None and v.rule == VALENCE_INTEGRALITY
    assert v.params["min_valence"] == [391, 13]
    assert v.params["max_valence"] == [402, 13]
    assert v.justification == ("no integer lies between the minimum and "
                               "maximum would-be valences 391/13 and 402/13")


def test_valence_integrality_tests_one_period_of_masses():
    # masses A and A + q give numerators equal mod q, so q masses decide:
    # 2,002 disjoint K(1,3) stars (order 8,008) have ~12 million masses, and
    # the verdict still reports the full range
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    v = check_all(disjoint_union(*[star] * 2002))
    assert v.rule == VALENCE_INTEGRALITY
    assert v.params == {"numerator_base": 98_203_105, "numerator_step": 2,
                        "mass_range": [2_005_003, 14_029_015], "size": 6_006}
    # the same verdicts as testing every mass, on s stars K(1,k) and t
    # disjoint edges, where the range spans more than q masses
    fired = set()
    for k, s, t in itertools.product(range(2, 6), range(1, 6), range(6)):
        g = disjoint_union(*[Graph(k + 1, tuple((0, v) for v in range(1, k + 1)))] * s,
                           *[Graph(2, ((0, 1),))] * t)
        p, q = g.order, g.size
        base = p * (p + 1) // 2 + edge_label_total(p, q)
        masses = range(s * (s + 1) // 2, s * (2 * p - s + 1) // 2 + 1)
        assert len(masses) > q
        full = all((base + (k - 1) * a) % q for a in masses)
        assert (check_valence_integrality(g) is not None) == full, (k, s, t)
        fired.add(full)
    assert fired == {False, True}


def test_check_all_order():
    assert check_all(make_two_cycle(3, 3)).rule == EVEN_DEG_Q_MOD4
    assert check_all(make_two_cycle(3, 4)).rule == DEGSEQ_4_2_EVEN_ORDER
    assert check_all(make_cycle(4)).rule == VALENCE_INTEGRALITY
    assert check_all(make_cycle(5)) is None
    assert check_all(Graph(4, ())) is None


def test_every_empty_interval_gets_a_verdict():
    # sem_set takes "no labeling" from check_all alone, so a graph with an
    # empty valence interval must never pass it silently
    rng = random.Random(2022)
    graphs = [Graph(a.number_of_nodes(), tuple(a.edges()))
              for a in nx.graph_atlas_g()]
    graphs += [helpers.random_graph(rng, p_max=10) for _ in range(2000)]
    graphs += [g for order in range(5, 16)
               for _, g in degseq_4_2_realizations(order)]
    empty = [g for g in graphs if g.size and sem_interval(g).empty]
    assert len(graphs) == 3392 and len(empty) == 111
    for g in empty:
        assert check_all(g) is not None, g


def test_obstructions_sound_against_oracle():
    rng = random.Random(404)
    checked = 0
    for g in helpers.small_corpus(seed=11, n_random=40, n_cacti=10, p_max=7):
        if g.size == 0:
            continue
        if check_all(g) is not None:
            assert oracle_search(g).status == STATUS_NOT_SEM_EXHAUSTED
            checked += 1
    # the corpus must actually exercise the obstructions
    assert checked >= 5
