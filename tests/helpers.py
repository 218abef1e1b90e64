"""Shared corpus builders for the test suite (seeded, reproducible)."""

from __future__ import annotations

import itertools
import random

from semlab import (CactusSpec, Graph, disjoint_union, make_cactus,
                    make_cycle, make_two_cycle)


def random_graph(rng: random.Random, p_min: int = 2, p_max: int = 8) -> Graph:
    p = rng.randint(p_min, p_max)
    pool = list(itertools.combinations(range(p), 2))
    q_cap = min(len(pool), 2 * p)
    q = rng.randint(0, q_cap)
    return Graph(p, tuple(rng.sample(pool, q)))


def random_cactus_spec(rng: random.Random, max_order: int = 8) -> CactusSpec:
    lengths = [rng.randint(3, 5)]
    attachments = []
    while True:
        extra = rng.randint(3, 5)
        # adding this cycle would give order sum+extra-(len(attachments)+1)
        if sum(lengths) + extra - len(attachments) - 1 > max_order:
            break
        cycle = rng.randrange(len(lengths))
        attachments.append((cycle, rng.randrange(lengths[cycle])))
        lengths.append(extra)
        if rng.random() < 0.5:
            break
    return CactusSpec(tuple(lengths), tuple(attachments))


def small_corpus(seed: int = 20240607, n_random: int = 60,
                 n_cacti: int = 20, p_max: int = 8) -> list[Graph]:
    """Cycles, shared-vertex two-cycles, random cacti, random graphs."""
    rng = random.Random(seed)
    graphs = [make_cycle(n) for n in range(3, p_max + 1)]
    graphs += [make_two_cycle(m, n)
               for m in range(3, p_max) for n in range(m, p_max)
               if m + n - 1 <= p_max]
    for _ in range(n_cacti):
        g = make_cactus(random_cactus_spec(rng, max_order=p_max))
        if g.order <= p_max:
            graphs.append(g)
    for _ in range(n_random):
        graphs.append(random_graph(rng, p_max=p_max))
    return graphs


def all_bijections(p: int):
    return itertools.permutations(range(1, p + 1))


def twin_rich_graph(rng: random.Random, p_min: int = 7,
                    p_max: int = 10) -> Graph:
    """A sparse random graph, grown to order p by clones: each new vertex
    copies the neighbours of an earlier one, so the two are open twins, or
    copies them and joins it, so they are closed twins. From order 8 some
    are the disjoint union of such a graph and a cycle."""
    p = rng.randint(p_min, p_max)
    cycle = rng.choice([c for c in (0, 0, 3, 4) if c <= p - 5])
    k = rng.randint(3, p - cycle - 2)  # vertices before the clones
    pool = list(itertools.combinations(range(k), 2))
    base = rng.sample(pool, min(len(pool), rng.randint(k - 1, k + 1)))
    nbrs = [set() for _ in range(p - cycle)]
    for u, v in base:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for v in range(k, p - cycle):
        src = rng.randrange(v)
        joined = nbrs[src] | ({src} if rng.random() < 0.5 else set())
        for w in joined:
            nbrs[w].add(v)
        nbrs[v] = joined
    g = Graph(p - cycle, tuple((u, v) for u in range(p - cycle)
                               for v in sorted(nbrs[u]) if u < v))
    return disjoint_union(g, make_cycle(cycle)) if cycle else g
