import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlab import (
    CactusSpec,
    Graph,
    GraphError,
    degree_sequence,
    degseq_4_2_realizations,
    disjoint_union,
    make_cactus,
    make_cycle,
    make_two_cycle,
    parse_graph,
    serialize_graph,
)
from semlab.graphs import parse_edge_list, parse_graph6, to_graph6

import helpers


def test_graph_normalizes_and_validates():
    g = Graph(3, ((2, 0), (0, 1)))
    assert g.edges == ((0, 1), (0, 2))
    assert g.size == 2
    with pytest.raises(GraphError):
        Graph(3, ((0, 0),))
    with pytest.raises(GraphError):
        Graph(3, ((0, 3),))
    with pytest.raises(GraphError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(GraphError):
        Graph(-1, ())
    # an edge is exactly two endpoints
    for edges in (((0, 1, 2),), ((0,),), (5,)):
        with pytest.raises(GraphError):
            Graph(3, edges)
    # the order and every endpoint are ints, what operator.index takes but
    # a bool: nothing is truncated or parsed
    for order, edges in ((3.0, ((0, 1),)), ("3", ()), (True, ()),
                         (3, ((0.5, 1.5),)), (3, ((True, 2),)), (3, (("0", 1),))):
        with pytest.raises(GraphError):
            Graph(order, edges)
    g = Graph(np.int64(3), ((np.int64(2), np.int8(0)),))
    assert g.to_json_dict() == {"order": 3, "edges": [[0, 2]]}
    assert type(g.order) is type(g.edges[0][0]) is int


def test_order_limit():
    # graph6's limit holds for every graph, so no input can ask for more
    assert Graph(258_047).order == 258_047
    for build in (lambda: Graph(258_048), lambda: make_cycle(258_048),
                  lambda: CactusSpec((258_046, 3), ((0, 0),))):
        with pytest.raises(GraphError, match="orders beyond 258047"):
            build()
    assert CactusSpec((258_045, 3), ((0, 0),)).cycle_lengths == (258_045, 3)


def test_graph_json_round_trip():
    g = make_two_cycle(3, 4)
    assert Graph.from_json_dict(g.to_json_dict()) == g
    for data in ({"order": "3", "edges": [[0.5, 1.7], [True, "2"]]},
                 {"order": 3.0, "edges": []}, {"order": 3, "edges": [[0, 1.0]]},
                 {"order": 3, "edges": [[False, 1]]}, {"order": 3, "edges": [[0, 1, 2]]},
                 {"order": 3, "edges": [[0]]}, {"order": 3, "edges": [5]}):
        with pytest.raises(GraphError):
            Graph.from_json_dict(data)
    with pytest.raises(GraphError, match="bad graph JSON: 'edges'"):
        Graph.from_json_dict({"order": 3})


def test_make_cycle():
    tri = make_cycle(3)
    assert tri.order == 3 and set(tri.edges) == {(0, 1), (1, 2), (0, 2)}
    c5 = make_cycle(5)
    assert c5.order == 5 and c5.size == 5
    assert degree_sequence(make_cycle(4)) == (2, 2, 2, 2)
    with pytest.raises(GraphError):
        make_cycle(2)


def test_make_two_cycle():
    g = make_two_cycle(3, 5)
    assert (g.order, g.size) == (7, 8)
    assert degree_sequence(g) == (4, 2, 2, 2, 2, 2, 2)
    assert make_two_cycle(3, 3).order == 5
    assert make_two_cycle(3, 3).size == 6
    assert (make_two_cycle(4, 5).order, make_two_cycle(4, 5).size) == (8, 9)
    with pytest.raises(GraphError):
        make_two_cycle(2, 5)


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("n", range(3, 9))
def test_two_cycle_degree_profile(m, n):
    degs = degree_sequence(make_two_cycle(m, n))
    assert degs[0] == 4
    assert degs[1:] == (2,) * (m + n - 2)


def test_cactus_single_cycle_matches_cycle():
    for n in range(3, 8):
        a = make_cactus(CactusSpec((n,)))
        b = make_cycle(n)
        assert (a.order, a.size, degree_sequence(a)) == (b.order, b.size,
                                                         degree_sequence(b))


def test_cactus_two_cycles_matches_two_cycle():
    a = make_cactus(CactusSpec((3, 5), ((0, 0),)))
    b = make_two_cycle(3, 5)
    assert (a.order, a.size, degree_sequence(a)) == (b.order, b.size,
                                                     degree_sequence(b))


def test_cactus_chain_of_three_triangles():
    # chained at two distinct cut vertices
    g = make_cactus(CactusSpec((3, 3, 3), ((0, 1), (1, 1))))
    assert (g.order, g.size) == (7, 9)
    assert degree_sequence(g) == (4, 4, 2, 2, 2, 2, 2)


def test_cactus_flower_shares_one_vertex():
    g = make_cactus(CactusSpec((3, 3, 3), ((0, 0), (0, 0))))
    assert (g.order, g.size) == (7, 9)
    assert degree_sequence(g) == (6, 2, 2, 2, 2, 2, 2)


def test_cactus_validation():
    with pytest.raises(GraphError, match="at least one cycle"):
        CactusSpec(())
    with pytest.raises(GraphError):
        CactusSpec((3, 2), ((0, 0),))
    with pytest.raises(GraphError):
        CactusSpec((3, 3), ())
    with pytest.raises(GraphError):
        CactusSpec((3, 3), ((1, 0),))
    with pytest.raises(GraphError):
        CactusSpec((3, 3), ((0, 3),))


def test_degree_sequence_examples():
    assert degree_sequence(make_two_cycle(3, 5)) == (4, 2, 2, 2, 2, 2, 2)
    assert degree_sequence(make_cycle(4)) == (2, 2, 2, 2)
    assert degree_sequence(Graph(3, ())) == (0, 0, 0)


def test_disjoint_union():
    g = disjoint_union(make_cycle(3), make_cycle(4))
    assert (g.order, g.size) == (7, 7)
    assert degree_sequence(g) == (2,) * 7
    assert disjoint_union().order == 0


def test_degseq_4_2_realizations():
    assert degseq_4_2_realizations(4) == []
    names6 = [name for name, _ in degseq_4_2_realizations(6)]
    assert names6 == ["C(3,4)"]
    reals8 = degseq_4_2_realizations(8)
    assert [name for name, _ in reals8] == ["C(3,3)+C3", "C(3,6)", "C(4,5)"]
    for _, g in reals8:
        assert degree_sequence(g) == (4,) + (2,) * 7


def test_parse_edge_list():
    g = parse_edge_list("3\n0 1\n1 2\n2 0")
    assert set(g.edges) == {(0, 1), (1, 2), (0, 2)}
    g = parse_edge_list("# comment\n4\n0 1  # trailing\n\n2 3\n")
    assert g.order == 4 and set(g.edges) == {(0, 1), (2, 3)}
    with pytest.raises(GraphError):
        parse_edge_list("3\n0 0\n")
    with pytest.raises(GraphError):
        parse_edge_list("x y\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(GraphError, match="line 2: non-integer endpoint"):
        parse_edge_list("3\n0 x\n")
    with pytest.raises(GraphError):
        parse_edge_list("")


def test_graph6_triangle():
    g = parse_graph6("Bw")
    assert g.order == 3 and set(g.edges) == {(0, 1), (1, 2), (0, 2)}
    assert to_graph6(make_cycle(3)) == "Bw"
    assert parse_graph6(">>graph6<<Bw\n").order == 3


def test_graph6_known_strings():
    # frozen against an independent encoder
    assert to_graph6(make_cycle(4)) == "Cl"
    assert to_graph6(make_cycle(5)) == "Dhc"
    assert to_graph6(Graph(5, ())) == "D??"
    assert to_graph6(Graph(1, ())) == "@"
    k4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    assert to_graph6(k4) == "C~"


def test_graph6_long_form_orders():
    # orders above 62 use the 4-byte length prefix; frozen against an
    # independent encoder
    path70 = Graph(70, tuple((i, i + 1) for i in range(69)))
    s = to_graph6(path70)
    assert s.startswith("~?@E")
    assert parse_graph6(s) == path70


def test_graph6_errors():
    with pytest.raises(GraphError, match="empty graph6 input"):
        parse_graph6("")
    # below '?' and above '~'; a control byte would go to str.strip()
    for text in ("B!", "B\x7f"):
        with pytest.raises(GraphError, match="graph6 byte out of range"):
            parse_graph6(text)
    with pytest.raises(GraphError, match="body length 2 wrong for order 3"):
        parse_graph6("Bww")
    with pytest.raises(GraphError, match="padding bits must be zero"):
        parse_graph6("Bz")
    # orders past 258047 take an 8-byte form, '~~' and six bytes
    with pytest.raises(GraphError, match="orders beyond 258047"):
        parse_graph6("~~??????")
    # '~' opens a 4-byte header: cut short, it is no order at all
    for text in ("~", "~?", "~??", "~?@"):
        with pytest.raises(GraphError, match="truncated graph6 order header"):
            parse_graph6(text)
    with pytest.raises(GraphError, match="orders beyond 258047"):
        to_graph6(Graph(258_048, ()))


def test_parse_graph_dispatch():
    assert parse_graph("Bw", "graph6").order == 3
    assert parse_graph("3\n0 1\n", "edge-list").size == 1
    # graph6 text takes comments and blank lines, and holds one graph
    assert parse_graph("# a triangle\nBw\n", "graph6") == make_cycle(3)
    with pytest.raises(GraphError, match="more than one graph"):
        parse_graph("Bw\nBw\n", "graph6")
    with pytest.raises(GraphError):
        parse_graph("Bw", "nonsense")
    with pytest.raises(GraphError, match="unknown graph format 'nonsense'"):
        serialize_graph(make_cycle(3), "nonsense")


@st.composite
def graphs(draw, p_max=9):
    p = draw(st.integers(min_value=0, max_value=p_max))
    pool = [(u, v) for u in range(p) for v in range(u + 1, p)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return Graph(p, tuple(edges))


@given(graphs())
def test_round_trip_both_formats(g):
    for fmt in ("edge-list", "graph6"):
        assert parse_graph(serialize_graph(g, fmt), fmt) == g


@given(st.integers(min_value=0, max_value=2**31))
def test_random_cactus_degree_sum(seed):
    import random

    spec = helpers.random_cactus_spec(random.Random(seed), max_order=12)
    g = make_cactus(spec)
    assert sum(g.degrees()) == 2 * g.size
    assert g.order == sum(spec.cycle_lengths) - len(spec.attachments)
    assert g.size == sum(spec.cycle_lengths)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**31))
def test_random_cactus_connected_blocks(seed):
    import random

    g = make_cactus(helpers.random_cactus_spec(random.Random(seed)))
    # connectivity: reachable set from 0 covers all vertices
    adj = g.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == g.order
