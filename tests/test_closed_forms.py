"""Split families of cycles, paths and complete graphs against closed forms,
and the split search's work under another numbering of the same graph.

These families are known in closed form, so they can be checked at sizes far
past the brute-force oracle's cap, and past the exhaustive cap through
RSPLIT_MAX_N.  A graph's r-splits are the implicit trivial sets (size <= r or
>= n - r) plus the middles, which are compared here as int masks over bit
i - 1 for vertex i.
"""

from __future__ import annotations

import itertools
import random
from math import comb

import pytest

import rsplits.graph
from rsplits.graph import Graph
from rsplits.splits import enumerate_r_splits, essential_representation


@pytest.fixture(autouse=True)
def large_n(monkeypatch):
    monkeypatch.setenv("RSPLIT_MAX_N", "48")


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def grid(k: int) -> Graph:
    """The k x k grid, vertex (i, j) numbered i k + j + 1 for 0 <= i, j < k."""
    right = [(i * k + j + 1, i * k + j + 2) for i in range(k) for j in range(k - 1)]
    down = [(i * k + j + 1, (i + 1) * k + j + 1) for i in range(k - 1) for j in range(k)]
    return Graph.from_edges(k * k, right + down)


def arcs(n: int, lengths: range) -> set[int]:
    """Every run of consecutive vertices around the cycle 1..n with a length in lengths."""
    full = (1 << n) - 1
    runs = [(1 << length) - 1 for length in lengths]
    return {(run << start | run >> (n - start)) & full for run in runs for start in range(n)}


def middles(g: Graph, r: int) -> frozenset[int]:
    return enumerate_r_splits(g, r).masks


class TestCycles:
    @pytest.mark.parametrize("n", [*range(7, 25), 32, 40])
    def test_two_splits_are_the_arcs(self, n):
        """A cut of C_n has rank equal to the number of arcs on either side, so
        the middles at r = 2 are the arcs of length 3..n-3."""
        assert middles(cycle(n), 2) == arcs(n, range(3, n - 2))

    def test_two_split_count_at_48(self):
        assert len(middles(cycle(48), 2)) == 48 * (48 - 5)

    @pytest.mark.parametrize("n", range(7, 25))
    def test_essential_two_splits_are_the_short_arcs(self, n):
        """The essential members at r = 2 are the n(floor(n/2) - 2) arcs of
        length 3..floor(n/2): n(n-4)/2 for even n, n(n-5)/2 for odd n."""
        essential = essential_representation(enumerate_r_splits(cycle(n), 2))
        assert len(essential) == n * (n // 2 - 2)
        assert essential.masks == arcs(n, range(3, n // 2 + 1))

    @pytest.mark.parametrize("n", [*range(9, 17), 20, 25])
    def test_three_split_count(self, n):
        """Conjecture, checked for n = 9..16, 20 and 25: C_n has n(n-3)(n-7)
        middles at r = 3."""
        assert len(middles(cycle(n), 3)) == n * (n - 3) * (n - 7)


class TestPaths:
    @pytest.mark.parametrize("n", range(4, 41))
    def test_one_splits_are_prefixes_and_suffixes(self, n):
        """A cut of P_n has rank 1 exactly when one side is a prefix, so the
        middles at r = 1 are the prefixes and suffixes of length 2..n-2."""
        prefixes = {(1 << length) - 1 for length in range(2, n - 1)}
        suffixes = {((1 << length) - 1) << (n - length) for length in range(2, n - 1)}
        assert middles(path(n), 1) == prefixes | suffixes

    @pytest.mark.parametrize("n", range(6, 24))
    def test_two_split_count(self, n):
        """Conjecture, checked for n = 6..23: P_n has 3(n-2)(n-5) middles at r = 2."""
        assert len(middles(path(n), 2)) == 3 * (n - 2) * (n - 5)


class TestCompleteGraphs:
    @pytest.mark.parametrize("n", [*range(5, 11), 12])
    def test_every_set_is_a_one_split_and_the_pairs_are_essential(self, n):
        """Every proper cut of K_n has rank 1, so all 2^n - 2n - 2 sets of size
        2..n-2 are middles, and phi maps each pair to itself."""
        family = enumerate_r_splits(complete(n), 1)
        assert len(family.masks) == 2**n - 2 * n - 2
        essential = essential_representation(family)
        assert len(essential) == comb(n, 2)
        assert essential.masks == {1 << i | 1 << j for i, j in itertools.combinations(range(n), 2)}


class TestNumbering:
    """The split search decides vertices breadth-first from vertex 1, so its
    work follows the graph, not the numbering of its vertices."""

    @pytest.mark.parametrize("g, r", [(cycle(32), 2), (grid(6), 3)], ids=["C32", "grid-6x6"])
    def test_random_numbering_keeps_the_rank_evaluations(self, g, r, monkeypatch):
        calls = []
        block_rank = rsplits.graph._block_rank
        monkeypatch.setattr(rsplits.graph, "_block_rank",
                            lambda *args: calls.append(None) or block_rank(*args))
        natural = middles(g, r)
        natural_calls = len(calls)
        new = random.Random(f"numbering-{g.n}").sample(range(1, g.n + 1), g.n)
        renumbered = Graph.from_edges(g.n, [(new[u - 1], new[v - 1]) for u, v in g.edges()])
        calls.clear()
        found = middles(renumbered, r)
        moved = {sum(1 << new[i] - 1 for i in range(g.n) if m >> i & 1) for m in natural}
        assert found == moved
        assert len(calls) <= 1.5 * natural_calls, (len(calls), natural_calls)
