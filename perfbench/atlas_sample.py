"""Print a seeded sample of the networkx graph atlas as JSON.

    python3 perfbench/atlas_sample.py --seed 1

The sample holds COUNT of the atlas graphs with at least one edge (1,245
graphs on at most 7 vertices), stratified by (order, size) so that every seed draws
the same mix of sizes. Each entry is [atlas index, order, edges, graph6].
It runs in its own process so that the benchmark process, whose pool
workers are forked from it, stays as small as a semlab user's process.
"""

import argparse
import json
import random
from collections import defaultdict

import networkx as nx

# a census pass takes 5 to 11 s on a shared 2-vCPU VM, so one run fits
# several passes
COUNT = 200


def sample(seed: int) -> list:
    strata = defaultdict(list)
    for index, g in enumerate(nx.graph_atlas_g()):
        if g.number_of_edges():
            strata[(g.number_of_nodes(), g.number_of_edges())].append((index, g))
    total = sum(len(v) for v in strata.values())
    quota = {k: COUNT * len(v) / total for k, v in strata.items()}
    take = {k: int(q) for k, q in quota.items()}
    by_remainder = sorted(quota, key=lambda k: (take[k] - quota[k], k))
    for k in by_remainder[:COUNT - sum(take.values())]:
        take[k] += 1
    rng = random.Random(seed)
    chosen = [item for k in sorted(strata)
              for item in rng.sample(strata[k], take[k])]
    rng.shuffle(chosen)
    return [[index, g.number_of_nodes(), sorted(g.edges()),
             nx.to_graph6_bytes(g, header=False).decode().strip()]
            for index, g in chosen]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(sample(args.seed)))
