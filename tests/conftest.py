from __future__ import annotations

import itertools
import random

import pytest

from rsplits import Graph, Hypergraph, close_full

# 9-vertex graph whose cut at {1..5} has rank 2: vertices 4 and 5 see only
# the left side, and the three crossing rows XOR to zero.
NINE_VERTEX_EDGES = [
    (1, 2), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6),
    (2, 8), (3, 5), (3, 7), (3, 8), (7, 9),
]


@pytest.fixture(scope="session")
def nine_vertex_graph() -> Graph:
    return Graph.from_edges(9, NINE_VERTEX_EDGES)


@pytest.fixture(scope="session")
def c4() -> Graph:
    return Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


@pytest.fixture(scope="session")
def c5() -> Graph:
    return Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


@pytest.fixture(scope="session")
def k33() -> Graph:
    return Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])


@pytest.fixture(scope="session")
def two_edge_family() -> Hypergraph:
    return Hypergraph.of_vertex_lists(8, [[1, 2, 3], [2, 3, 4, 5]])


@pytest.fixture(scope="session")
def two_edge_closure(two_edge_family):
    return close_full(two_edge_family, 2)


# The six middles of the closure of {{1,2,3},{2,3,4,5}} at n=8, r=2.
SIX_MIDDLES = [
    (1, 2, 3),
    (6, 7, 8),
    (1, 6, 7, 8),
    (2, 3, 4, 5),
    (1, 2, 3, 4, 5),
    (4, 5, 6, 7, 8),
]


def all_graphs(max_n: int):
    """Every labelled graph on 0..max_n vertices."""
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for code in range(1 << len(pairs)):
            yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if code >> k & 1])


def seeded_graphs(seed: int, sizes: range, per_size: int):
    """per_size random graphs of each order in sizes, sparse to dense."""
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(per_size):
            p = rng.uniform(0.15, 0.6)
            pairs = itertools.combinations(range(1, n + 1), 2)
            yield Graph.from_edges(n, [e for e in pairs if rng.random() < p])
