from __future__ import annotations

import itertools
import random

import pytest

from conftest import SIX_MIDDLES
from rsplits.bitset import VertexSet
from rsplits.bruteforce import brute_closure, explicit_members
from rsplits.closure import check_derived_rules, close_degenerate, close_full
from rsplits.hypergraph import ClosedHypergraph, Hypergraph, equals


def random_family(rng, n, max_edges=4):
    edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(0, max_edges)))
    return Hypergraph(n, edges)


class TestCloseFull:
    def test_two_edge_example(self, two_edge_closure):
        assert {m.members() for m in two_edge_closure.middles} == {tuple(m) for m in SIX_MIDDLES}

    def test_empty_family(self):
        assert close_full(Hypergraph(8, frozenset()), 2).middles == frozenset()

    def test_disjoint_pairs_stay_put(self):
        h = Hypergraph.of_vertex_lists(4, [[1, 3], [2, 4]])
        closed = close_full(h, 1)
        assert {m.members() for m in closed.middles} == {(1, 3), (2, 4)}
        assert explicit_members(closed) == brute_closure(h, 1)

    def test_matches_bruteforce_on_random_inputs(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(2, 9)
            r = rng.randint(0, 3)
            h = random_family(rng, n)
            assert explicit_members(close_full(h, r)) == brute_closure(h, r, use_rule_k2=True)

    def test_extensive_monotone_idempotent(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(2, 8)
            r = rng.randint(0, 3)
            h = random_family(rng, n, max_edges=3)
            closed = close_full(h, r)
            assert all(closed.contains(e) for e in h.edges)
            wider = Hypergraph(n, h.edges | {VertexSet(n, rng.getrandbits(n))})
            assert closed.middles <= close_full(wider, r).middles
            assert equals(close_full(closed.materialize(), r), closed)

    def test_degenerate_universe(self):
        h = Hypergraph.of_vertex_lists(4, [[1, 2, 3]])
        assert close_full(h, 2).middles == frozenset()


class TestCloseDegenerate:
    def test_two_edge_example(self, two_edge_family):
        closed = close_degenerate(two_edge_family, 2)
        assert {m.members() for m in closed.middles} == {
            (1, 2, 3), (4, 5, 6, 7, 8), (2, 3, 4, 5), (1, 6, 7, 8),
        }

    def test_empty_family_closures_coincide(self):
        empty = Hypergraph(8, frozenset())
        assert equals(close_degenerate(empty, 2), close_full(empty, 2))

    def test_single_edge(self):
        h = Hypergraph.of_vertex_lists(9, [[1, 4, 7]])
        closed = close_degenerate(h, 2)
        assert {m.members() for m in closed.middles} == {(1, 4, 7), (2, 3, 5, 6, 8, 9)}

    def test_below_full_closure_and_matches_bruteforce(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(2, 9)
            r = rng.randint(0, 3)
            h = random_family(rng, n)
            degenerate = close_degenerate(h, r)
            assert degenerate.middles <= close_full(h, r).middles
            assert explicit_members(degenerate) == brute_closure(h, r, use_rule_k2=False)


class TestDerivedRules:
    def test_computed_closures_are_clean(self, two_edge_closure):
        assert check_derived_rules(two_edge_closure) == []

    def test_trivial_closure_is_clean(self):
        assert check_derived_rules(ClosedHypergraph(9, 2, frozenset())) == []

    def test_union_gap_is_reported(self):
        middles = frozenset(
            VertexSet.of(8, m)
            for m in [(1, 2, 3), (4, 5, 6, 7, 8), (2, 3, 4, 5), (1, 6, 7, 8)]
        )
        assert check_derived_rules(ClosedHypergraph(8, 2, middles)) == [
            "P2 violated by (1,2,3, 1,6,7,8): 6,7,8 missing",
            "P1 violated by (1,6,7,8, 4,5,6,7,8): 6,7,8 missing",
            "P2 violated by (2,3,4,5, 4,5,6,7,8): 6,7,8 missing",
        ]

    def test_random_closures_are_clean(self):
        rng = random.Random(37)
        for _ in range(80):
            n = rng.randint(3, 9)
            r = rng.randint(1, 3)
            closed = close_full(random_family(rng, n, max_edges=3), r)
            assert check_derived_rules(closed) == []


class TestExhaustiveAgainstBruteForce:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_all_one_and_two_edge_families(self, n):
        sets = [VertexSet(n, mask) for mask in range(1 << n)]
        families = [{a} for a in sets] + [set(pair) for pair in itertools.combinations(sets, 2)]
        for edges in families:
            h = Hypergraph(n, frozenset(edges))
            for r in range(4):
                assert explicit_members(close_full(h, r)) == brute_closure(h, r), (n, r, edges)
                assert explicit_members(close_degenerate(h, r)) == brute_closure(
                    h, r, use_rule_k2=False
                ), (n, r, edges)
