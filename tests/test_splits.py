from __future__ import annotations

import math
import random

import pytest

from conftest import all_graphs, seeded_graphs
from rsplits.bitset import VertexSet
from rsplits.bruteforce import (
    brute_phi_image,
    brute_rank_connected,
    brute_splits,
    explicit_members,
)
from rsplits.closure import close_degenerate, close_full
from rsplits.graph import Graph, is_r_rank_connected
from rsplits.hypergraph import Hypergraph, NotClosedError, equals
from rsplits.limits import TooLargeError
from rsplits.splits import (
    NotRankConnectedError,
    enumerate_r_splits,
    essential_representation,
    phi,
    rank_connected_splits,
    verify_representation,
)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestEnumerate:
    def test_four_cycle(self, c4):
        family = enumerate_r_splits(c4, 1)
        assert {m.members() for m in family.middles} == {(1, 3), (2, 4)}

    def test_five_cycle_has_no_middles(self, c5):
        assert enumerate_r_splits(c5, 1).middles == frozenset()

    def test_degenerate_rank_zone(self, c4):
        assert enumerate_r_splits(c4, 2).middles == frozenset()

    def test_matches_bruteforce(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 8)
            r = rng.randint(0, 3)
            g = random_graph(rng, n)
            fast = explicit_members(enumerate_r_splits(g, r))
            assert fast == brute_splits(g, r)

    def test_all_small_graphs_match_bruteforce(self):
        for g in all_graphs(5):
            for r in range(4):
                assert explicit_members(enumerate_r_splits(g, r)) == brute_splits(g, r), (g, r)

    def test_seeded_graphs_up_to_twelve_vertices_match_bruteforce(self):
        for g in seeded_graphs(53, range(6, 13), 2):
            for r in range(4):
                assert explicit_members(enumerate_r_splits(g, r)) == brute_splits(g, r), (g, r)

    def test_long_cycle_is_searched_not_scanned(self):
        # A cycle has n(n-5) middles at r = 2.  Ranking all 2^23 sides of
        # C_24 would take minutes; the pruned search visits few of them.
        n = 24
        cycle = Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])
        assert len(enumerate_r_splits(cycle, 2).middles) == n * (n - 5)

    def test_cap_refused(self):
        g = Graph(25, tuple(0 for _ in range(25)))
        with pytest.raises(TooLargeError):
            enumerate_r_splits(g, 1)


class TestPhi:
    def test_self_witness(self, c4):
        family = enumerate_r_splits(c4, 1)
        assert phi(family, VertexSet.of(4, [1, 3])) == VertexSet.of(4, [1, 3])

    def test_undefined_when_no_small_cover(self, c4):
        family = enumerate_r_splits(c4, 1)
        assert phi(family, VertexSet.of(4, [1, 2])) is None

    def test_unique_half_sized_cover(self, two_edge_closure):
        assert phi(two_edge_closure, VertexSet.of(8, [2, 4, 5])) == VertexSet.of(8, [2, 3, 4, 5])

    def test_wrong_argument_size_rejected(self, two_edge_closure):
        with pytest.raises(ValueError, match="exactly 3"):
            phi(two_edge_closure, VertexSet.of(8, [1, 2]))

    def test_result_is_intersection_of_candidates(self, two_edge_closure):
        # scan-based cross-check over the explicit middle list
        n, r = two_edge_closure.n, two_edge_closure.r
        import itertools

        for combo in itertools.combinations(range(1, n + 1), r + 1):
            x = VertexSet.of(n, combo)
            candidates = [
                a for a in two_edge_closure.middles
                if x.issubset(a) and 2 * len(a) <= n
            ]
            value = phi(two_edge_closure, x)
            if not candidates:
                assert value is None
            else:
                meet = candidates[0]
                for a in candidates[1:]:
                    meet = meet & a
                assert value == meet

    def test_non_closed_input_detected(self):
        # {1,2,3} and {1,2,4} both cover X={1,2}, but their intersection
        # {1,2} is not a member: the family only pretends to be closed.
        from rsplits.hypergraph import ClosedHypergraph

        middles = frozenset(
            VertexSet.of(8, m) for m in [(1, 2, 3), (4, 5, 6, 7, 8), (1, 2, 4), (3, 5, 6, 7, 8)]
        )
        fake = ClosedHypergraph(8, 1, middles)
        with pytest.raises(NotClosedError, match="not r-closed"):
            phi(fake, VertexSet.of(8, [1, 2]))
        message = "input not r-closed: intersection 1,2 of the members covering 1,2 is not a member"
        with pytest.raises(NotClosedError) as exc:
            essential_representation(fake)
        assert str(exc.value) == message

    def test_first_failing_set_in_lexicographic_order_is_reported(self):
        from rsplits.hypergraph import ClosedHypergraph

        # {1,3} (covered by {1,2,3} and {1,3,4}) fails before {2,4} does.
        tuples = [(1, 2, 3), (1, 3, 4), (2, 4, 5), (2, 4, 6)]
        full = (1 << 9) - 1
        masks = {VertexSet.of(9, m).mask for m in tuples}
        middles = frozenset(VertexSet(9, m) for mask in masks for m in (mask, mask ^ full))
        with pytest.raises(NotClosedError) as exc:
            essential_representation(ClosedHypergraph(9, 1, middles))
        assert str(exc.value) == (
            "input not r-closed: intersection 1,3 of the members covering 1,3 is not a member"
        )
        # {2,5} and {3,4} both fail; {2,5} comes first although its mask is the larger.
        degenerate = close_degenerate(Hypergraph.of_vertex_lists(6, [(1, 2, 5), (1, 3, 4)]), 1)
        with pytest.raises(NotClosedError) as exc:
            essential_representation(degenerate)
        assert str(exc.value) == (
            "input not r-closed: intersection 2,5 of the members covering 2,5 is not a member"
        )


class TestEssentialRepresentation:
    def test_four_cycle(self, c4):
        family = enumerate_r_splits(c4, 1)
        essential = essential_representation(family)
        assert {e.members() for e in essential.edges} == {(1, 3), (2, 4)}
        assert equals(close_full(essential, 1), family)

    def test_trivial_closure_needs_nothing(self):
        from rsplits.hypergraph import ClosedHypergraph

        empty = ClosedHypergraph(9, 2, frozenset())
        essential = essential_representation(empty)
        assert len(essential) == 0
        assert equals(close_full(essential, 2), empty)

    def test_two_edge_closure_round_trip(self, two_edge_closure):
        essential = essential_representation(two_edge_closure)
        assert equals(close_full(essential, 2), two_edge_closure)
        assert len(essential) <= math.comb(8, 3)


def labels(h: Hypergraph) -> set[frozenset[int]]:
    """The edges of h as frozensets of vertex labels, the oracle's currency."""
    return {frozenset(e.members()) for e in h.edges}


class TestEssentialAgainstDefinition:
    def test_seeded_closed_families(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(6, 10)
            r = rng.randint(0, 3)
            edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(1, 4)))
            closed = close_full(Hypergraph(n, edges), r)
            image = brute_phi_image(explicit_members(closed), n, r)
            assert labels(essential_representation(closed)) == image, (n, r)

    def test_seeded_split_families(self):
        checked = 0
        for g in seeded_graphs(43, range(6, 11), per_size=4):
            for r in (1, 2):
                if is_r_rank_connected(g, r):
                    family = enumerate_r_splits(g, r)
                    image = brute_phi_image(brute_splits(g, r), g.n, r)
                    assert labels(essential_representation(family)) == image
                    checked += 1
        assert checked >= 10


class TestRoundTrip:
    def test_four_cycle(self, c4):
        report = verify_representation(c4, 1)
        assert report.passed
        assert report.essential_count == 2
        assert report.essential_bound == 6

    def test_five_cycle(self, c5):
        report = verify_representation(c5, 1)
        assert report.passed
        assert report.essential_count == 0

    def test_bipartite(self, k33):
        report = verify_representation(k33, 1)
        assert report.passed
        assert report.essential_count <= 15

    def test_refuses_non_connected_input(self, k33):
        assert not is_r_rank_connected(k33, 2)
        with pytest.raises(NotRankConnectedError, match="not 2-rank connected"):
            verify_representation(k33, 2)

    def test_random_connected_graphs(self):
        rng = random.Random(43)
        done = 0
        while done < 40:
            n = rng.randint(4, 9)
            g = random_graph(rng, n, rng.uniform(0.3, 0.8))
            if not g.is_connected():
                continue
            for r in (1, 2):
                if is_r_rank_connected(g, r):
                    assert verify_representation(g, r).passed
                    done += 1


class TestRankConnectedSplits:
    def test_all_small_graphs(self):
        # One search must agree with the oracle's connectivity verdict and
        # the enumeration, and its essential members with the oracle's phi.
        for g in all_graphs(5):
            for r in range(4):
                if brute_rank_connected(g, r):
                    family = rank_connected_splits(g, r)
                    assert equals(family, enumerate_r_splits(g, r)), (g, r)
                    image = brute_phi_image(brute_splits(g, r), g.n, r)
                    assert labels(essential_representation(family)) == image, (g, r)
                else:
                    with pytest.raises(NotRankConnectedError, match=f"not {r}-rank connected"):
                        rank_connected_splits(g, r)

    @pytest.mark.parametrize("seed", [53, 59])
    def test_seeded_graphs_up_to_twelve_vertices(self, seed):
        # The seeded graphs of TestEnumerate (53) and TestRankConnectivity (59).
        verdicts = set()
        for g in seeded_graphs(seed, range(6, 13), 2):
            for r in range(4):
                verdict = brute_rank_connected(g, r)
                verdicts.add(verdict)
                if verdict:
                    assert explicit_members(rank_connected_splits(g, r)) == brute_splits(g, r), (g, r)
                else:
                    with pytest.raises(NotRankConnectedError, match=f"not {r}-rank connected"):
                        rank_connected_splits(g, r)
        assert verdicts == {True, False}

    def test_cap_refused_as_connectivity(self):
        g = Graph(25, tuple(0 for _ in range(25)))
        with pytest.raises(TooLargeError, match="r-rank connectivity"):
            rank_connected_splits(g, 1)


class TestClosedFamilyLaws:
    def test_chain_union_membership(self, two_edge_closure):
        rng = random.Random(47)
        members = sorted(
            (VertexSet.of(8, sorted(m)) for m in explicit_members(two_edge_closure)),
            key=VertexSet.sort_key,
        )
        for _ in range(200):
            chain = [members[rng.randrange(len(members))]]
            for _ in range(rng.randint(0, 3)):
                linked = [m for m in members if len(m & chain[-1]) >= 2]
                if not linked:
                    break
                chain.append(linked[rng.randrange(len(linked))])
            union = chain[0]
            for a in chain[1:]:
                union = union | a
            assert two_edge_closure.contains(union)

    def test_half_side_intersections_are_members(self, two_edge_closure):
        halves = [
            VertexSet.of(8, sorted(m))
            for m in explicit_members(two_edge_closure)
            if 2 * len(m) <= 8
        ]
        for a in halves:
            for b in halves:
                assert two_edge_closure.contains(a & b)
