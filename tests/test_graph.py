from __future__ import annotations

import itertools
import random

import pytest

from conftest import all_graphs, seeded_graphs
from rsplits.bitset import VertexSet
from rsplits.bruteforce import brute_cut_rank
from rsplits.graph import (
    Graph,
    cut_rank,
    format_graph,
    is_r_rank_connected,
    is_r_split,
    is_trivial_cut,
    parse_graph,
)
from rsplits.limits import TooLargeError


class TestCutRank:
    def test_rank_two_cut(self, nine_vertex_graph):
        x = VertexSet.of(9, [1, 2, 3, 4, 5])
        assert cut_rank(nine_vertex_graph, x) == 2
        assert brute_cut_rank(nine_vertex_graph, frozenset({1, 2, 3, 4, 5})) == 2

    def test_empty_and_full_sides(self, nine_vertex_graph):
        assert cut_rank(nine_vertex_graph, VertexSet.empty(9)) == 0
        assert cut_rank(nine_vertex_graph, VertexSet.full(9)) == 0

    def test_path_middle_vertex(self):
        path = Graph.from_edges(3, [(1, 2), (2, 3)])
        assert cut_rank(path, VertexSet.of(3, [2])) == 1

    def test_agrees_with_complement(self, nine_vertex_graph):
        rng = random.Random(5)
        for _ in range(50):
            x = VertexSet(9, rng.getrandbits(9))
            assert cut_rank(nine_vertex_graph, x) == cut_rank(nine_vertex_graph, x.complement())

    def test_agrees_with_dense_elimination(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 8)
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            x = VertexSet(n, rng.getrandbits(n))
            assert cut_rank(g, x) == brute_cut_rank(g, frozenset(x.members()))


class TestSplitPredicates:
    def test_two_split_not_one_split(self, nine_vertex_graph):
        x = VertexSet.of(9, [1, 2, 3, 4, 5])
        assert is_r_split(nine_vertex_graph, x, 2)
        assert not is_r_split(nine_vertex_graph, x, 1)

    def test_opposite_cycle_vertices_are_a_split(self, c4):
        assert is_r_split(c4, VertexSet.of(4, [1, 3]), 1)

    def test_trivial_cut_examples(self, nine_vertex_graph):
        assert is_trivial_cut(nine_vertex_graph, VertexSet.of(9, [9]))
        assert not is_trivial_cut(nine_vertex_graph, VertexSet.of(9, [1, 2, 3, 4, 5]))
        assert is_trivial_cut(nine_vertex_graph, VertexSet.empty(9))


def connected_by_definition(g: Graph, r: int) -> bool:
    """No cut of rank below r is nontrivial, with every rank from the oracle."""
    for size in range(g.n + 1):
        for side in itertools.combinations(range(1, g.n + 1), size):
            rank = brute_cut_rank(g, frozenset(side))
            if rank < r and rank != min(size, g.n - size):
                return False
    return True


class TestRankConnectivity:
    def test_all_small_graphs_match_definition(self):
        for g in all_graphs(5):
            for r in range(4):
                assert is_r_rank_connected(g, r) == connected_by_definition(g, r), (g, r)

    def test_seeded_graphs_up_to_twelve_vertices_match_definition(self):
        verdicts = set()
        for g in seeded_graphs(59, range(6, 13), 2):
            for r in range(1, 4):
                verdict = is_r_rank_connected(g, r)
                assert verdict == connected_by_definition(g, r), (g, r)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_five_cycle_is_two_rank_connected(self, c5):
        assert is_r_rank_connected(c5, 2)

    def test_bipartite_twins_break_it(self, k33):
        assert not is_r_rank_connected(k33, 2)

    def test_connected_graphs_are_one_rank_connected(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 8)
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.6]
            g = Graph.from_edges(n, edges)
            if g.is_connected():
                assert is_r_rank_connected(g, 1)

    def test_disconnected_graph_fails_r1(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert not is_r_rank_connected(g, 1)

    def test_r0_is_vacuous(self, k33):
        assert is_r_rank_connected(k33, 0)

    def test_cap_refused(self):
        g = Graph(30, tuple(0 for _ in range(30)))
        with pytest.raises(TooLargeError, match="too large for exhaustive check"):
            is_r_rank_connected(g, 1)


class TestGraphConstruction:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_universe_checked_like_vertex_sets(self):
        with pytest.raises(ValueError, match="universe size must be >= 0, got -1"):
            Graph(-1, ())
        with pytest.raises(ValueError, match="universe size 129 exceeds"):
            Graph.from_edges(129, [])

    def test_submodularity_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(1, 8)
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            x = VertexSet(n, rng.getrandbits(n))
            y = VertexSet(n, rng.getrandbits(n))
            assert cut_rank(g, x | y) + cut_rank(g, x & y) <= cut_rank(g, x) + cut_rank(g, y)


class TestGraphFormat:
    def test_round_trip(self, nine_vertex_graph):
        assert parse_graph(format_graph(nine_vertex_graph)) == nine_vertex_graph

    def test_comments_and_blank_lines(self):
        text = "# a graph\n\n3 2\n# edges follow\n1 2\n2 3\n"
        g = parse_graph(text)
        assert g.edges() == [(1, 2), (2, 3)]

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_graph("2 2\n1 2\n1 2\n")

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_graph("2 1\n1 1\n")

    def test_rejects_unordered_edge(self):
        with pytest.raises(ValueError):
            parse_graph("3 1\n3 2\n")

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="promises"):
            parse_graph("3 2\n1 2\n")

    def test_non_integer_fields_name_the_line(self):
        with pytest.raises(ValueError, match="line 4: bad edge line '1 x'"):
            parse_graph("# header next\n3 2\n1 2\n1 x\n")
        with pytest.raises(ValueError, match="line 1: bad graph header 'three 2'"):
            parse_graph("three 2\n1 2\n2 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("-2 0\n", "line 1: universe size must be >= 0, got -2"),
            ("# big\n200 0\n", "line 2: universe size 200 exceeds the configured budget"),
            ("3 -1\n", "line 1: edge count must be >= 0, got -1"),
            ("# two edges\n3 1\n1 2\n2 3\n", "line 2: header promises 1 edges, file has 2"),
        ],
    )
    def test_bad_header_values_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_graph(text)
