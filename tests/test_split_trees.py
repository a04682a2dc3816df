"""Split families at r = 1 of graphs built from reduced graph-labelled trees.

At r = 1 a middle of a connected graph is a split in Cunningham's sense, and
every connected graph has a unique reduced graph-labelled tree (Cunningham,
"Decomposition of directed graphs", SIAM J. Alg. Disc. Meth. 3 (1982);
Gioan and Paul, "Split decomposition and graph-labelled trees", Discrete
Appl. Math. 160 (2012)).  Each internal node is labelled by a graph on its
markers, one marker per incident tree edge; the leaves are the vertices, and
two vertices are adjacent when every node on the tree path between them links
the two markers of the path.  The tree is reduced when every label is prime,
complete or a star, no tree edge joins two complete nodes, and none joins a
star's centre to another star's extremity.  The splits are then exactly the
two sides of every internal tree edge, and, for each complete or star node,
every bipartition of its markers with at least 2 markers on each side, a
side standing for the leaves behind its markers.  So there are
2 (t + sum of 2^(d-1) - d - 1) middles, over the t internal tree edges and
the complete and star nodes of degree d.

The prime labels here are cycles C_d, d >= 5, with the markers placed around
the cycle at random.  This predicts the middles at any n, past the
brute-force oracle's cap and, through RSPLIT_MAX_N, past the exhaustive cap.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import rsplits.graph
from conftest import source_mutant
from rsplits.bitset import mask_members
from rsplits.bruteforce import brute_splits
from rsplits.graph import Graph
from rsplits.splits import enumerate_r_splits, rank_connected_splits, verify_representation

MAX_N = 64

# (seed, internal nodes, shuffled): 5 to 63 vertices numbered in depth-first
# order, and 3 to 53 numbered at random.  The last, 53 vertices, took the
# search in label order past 110 s; breadth-first it takes a few ms.
CASES = ([(0, nodes, False) for nodes in range(1, 21)]
         + [(1, nodes, True) for nodes in range(1, 18)] + [(16, 17, True)])


@pytest.fixture(autouse=True)
def large_n(monkeypatch):
    monkeypatch.setenv("RSPLIT_MAX_N", str(MAX_N))


class Node:
    """An internal tree node: its label's kind and, per marker, the node or
    the vertex across that marker's tree edge ("leaf", v)."""

    def __init__(self, kind: str, ends: list) -> None:
        self.kind = kind
        self.ends = ends
        self.centre = 0                      # the centre marker of a star
        self.ring = list(range(len(ends)))   # the markers around a cycle

    def links(self, i: int, j: int) -> bool:
        """True when the label joins markers i and j."""
        if self.kind == "complete":
            return True
        if self.kind == "star":
            return self.centre in (i, j)
        d = len(self.ends)
        return (self.ring.index(i) - self.ring.index(j)) % d in (1, d - 1)


def random_tree(rng: random.Random, nodes: int) -> list[Node]:
    """A seeded reduced graph-labelled tree with the given number of internal
    nodes, each with at most 4 internal neighbours.  A node with k internal
    neighbours has degree max(3, k) to max(3, k) + 2, or max(5, k) to
    max(5, k) + 2 for a cycle; the leaves are numbered in the order they are
    created."""
    parent = [None]
    for v in range(1, nodes):
        parent.append(rng.choice([u for u in range(v) if parent.count(u) + (u > 0) < 4]))
    tree: list[Node] = []
    leaves = 0
    for v in range(nodes):
        up = parent[v]
        kinds = ["complete", "star", "cycle"]
        if up is not None and tree[up].kind == "complete":
            kinds.remove("complete")
        kind = rng.choice(kinds)
        inner = ([up] if up is not None else []) + [c for c in range(v + 1, nodes) if parent[c] == v]
        smallest = 5 if kind == "cycle" else 3
        degree = max(smallest, len(inner)) + rng.randint(0, 2)
        ends = inner + [("leaf", leaves + k + 1) for k in range(degree - len(inner))]
        leaves += degree - len(inner)
        rng.shuffle(ends)
        node = Node(kind, ends)
        if kind == "star":
            centres = range(degree)
            if up is not None and tree[up].kind == "star":
                # The edge to the parent joins two centres or two extremities.
                toward_up = ends.index(up)
                if tree[up].ends[tree[up].centre] == v:
                    centres = [toward_up]
                else:
                    centres = [i for i in centres if i != toward_up]
            node.centre = rng.choice(centres)
        elif kind == "cycle":
            rng.shuffle(node.ring)
        tree.append(node)
    return tree


def behind(tree: list[Node], u: int, i: int) -> int:
    """The mask of the vertices across marker i of node u."""
    end = tree[u].ends[i]
    if isinstance(end, tuple):
        return 1 << end[1] - 1
    return sum(behind(tree, end, j) for j, e in enumerate(tree[end].ends) if e != u)


def realise(tree: list[Node], n: int) -> Graph:
    """The graph whose vertices are the leaves, adjacent when every node on
    the tree path between them links the path's two markers."""
    edges = set()

    def walk(source: int, u: int, entry: int) -> None:
        for j, end in enumerate(tree[u].ends):
            if j != entry and tree[u].links(entry, j):
                if isinstance(end, tuple):
                    edges.add((min(source, end[1]), max(source, end[1])))
                else:
                    walk(source, end, tree[end].ends.index(u))

    for u, node in enumerate(tree):
        for i, end in enumerate(node.ends):
            if isinstance(end, tuple):
                walk(end[1], u, i)
    return Graph.from_edges(n, sorted(edges))


def predicted_middles(tree: list[Node], n: int) -> set[int]:
    """Both sides of every internal tree edge, and of every bipartition of a
    complete or star node's markers with at least 2 on each side."""
    full = (1 << n) - 1
    found = set()
    for u, node in enumerate(tree):
        sides = [behind(tree, u, i) for i in range(len(node.ends))]
        found.update(side for side, end in zip(sides, node.ends) if not isinstance(end, tuple))
        if node.kind != "cycle":
            for size in range(2, len(sides) - 1):
                found.update(sum(part) for part in combinations(sides, size))
    return found | {side ^ full for side in found}


def predicted_count(tree: list[Node]) -> int:
    """2 (t + sum of 2^(d-1) - d - 1) over the complete and star nodes."""
    t = sum(not isinstance(end, tuple) for node in tree for end in node.ends) // 2
    nodes = sum(2 ** (len(node.ends) - 1) - len(node.ends) - 1
                for node in tree if node.kind != "cycle")
    return 2 * (t + nodes)


def depth_first(tree: list[Node], u: int = 0, up: int | None = None) -> list[int]:
    """The vertices in the order a depth-first walk from node 0 meets them."""
    found = []
    for end in tree[u].ends:
        if isinstance(end, tuple):
            found.append(end[1])
        elif end != up:
            found.extend(depth_first(tree, end, u))
    return found


def tree_graph(seed: int, nodes: int, shuffled: bool) -> tuple[Graph, set[int], int]:
    """The realised graph of a seeded tree, its predicted middles and count,
    with the vertices numbered at random when shuffled and otherwise in
    depth-first order."""
    rng = random.Random(f"split-tree-{seed}-{nodes}")
    tree = random_tree(rng, nodes)
    walk = depth_first(tree)
    n = len(walk)
    new = rng.sample(range(1, n + 1), n) if shuffled else [walk.index(v) + 1 for v in range(1, n + 1)]
    g = realise(tree, n)
    g = Graph.from_edges(n, [(new[u - 1], new[v - 1]) for u, v in g.edges()])
    middles = {sum(1 << new[v - 1] - 1 for v in mask_members(m)) for m in predicted_middles(tree, n)}
    return g, middles, predicted_count(tree)


def first_disagreement(seed: int, nodes: int, shuffled: bool) -> str | None:
    """The first check that the seeded tree's graph fails at r = 1, or None.
    A wrong family stops the checks before the round trip closes it."""
    g, middles, count = tree_graph(seed, nodes, shuffled)
    if len(middles) != count:
        return "count"
    if enumerate_r_splits(g, 1).masks != middles:
        return "enumerate_r_splits"
    if rank_connected_splits(g, 1).masks != middles:
        return "rank_connected_splits"
    if not verify_representation(g, 1).passed:
        return "verify_representation"
    return None


@pytest.mark.parametrize("seed, nodes, shuffled", CASES)
def test_middles_are_the_predicted_splits(seed, nodes, shuffled):
    assert first_disagreement(seed, nodes, shuffled) is None


def test_largest_tree_is_within_the_raised_cap():
    assert max(tree_graph(*case)[0].n for case in CASES) == 63 <= MAX_N


@pytest.mark.parametrize("seed", range(8))
def test_prediction_matches_bruteforce(seed):
    """The generator itself, on trees small enough for the oracle."""
    for nodes in (1, 2, 3):
        g, middles, _ = tree_graph(seed, nodes, seed % 2 == 1)
        if g.n <= 10:
            brute = {sum(1 << v - 1 for v in s) for s in brute_splits(g, 1) if 1 < len(s) < g.n - 1}
            assert middles == brute, (seed, nodes, g.edges())


def test_catches_a_search_that_defers_the_a_side_rank(monkeypatch):
    """A branch that puts a vertex in A skips its rank check one vertex too
    long, so cuts of rank above the bound reach the leaves."""
    mutant = source_mutant(rsplits.graph, "low_rank_cuts",
                           "na >= bound and nb > bound", "na >= bound and nb > bound + 1")
    monkeypatch.setattr(rsplits.graph, "low_rank_cuts", mutant)
    assert any(first_disagreement(*case) for case in CASES)
