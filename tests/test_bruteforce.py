from __future__ import annotations

import itertools
import random

import pytest

import rsplits.graph
from conftest import seeded_graphs
from rsplits.bitset import VertexSet
from rsplits.bruteforce import (
    brute_closure,
    brute_cut_rank,
    brute_phi_image,
    brute_rank,
    brute_rank_connected,
    brute_splits,
    explicit_members,
)
from rsplits.hypergraph import Hypergraph
from rsplits.limits import TooLargeError
from rsplits.verification import (
    _sorted_members,
    _split_pairs,
    check_submodularity,
    property_rng,
    random_closed_family,
    run_verification_suite,
)


class TestBruteClosure:
    def test_empty_family_small_universe_saturates(self):
        # n=5, r=2: every subset has size <= 2 or >= 3, so everything is trivial.
        family = brute_closure(Hypergraph(5, frozenset()), 2)
        assert len(family) == 32

    def test_empty_family_census(self):
        family = brute_closure(Hypergraph(5, frozenset()), 1)
        assert len(family) == 12
        sizes = sorted(len(s) for s in family)
        assert sizes == [0] + [1] * 5 + [4] * 5 + [5]

    def test_contains_input_and_complements(self):
        h = Hypergraph.of_vertex_lists(6, [[1, 2, 3]])
        family = brute_closure(h, 1, use_rule_k2=False)
        assert frozenset({1, 2, 3}) in family
        assert frozenset({4, 5, 6}) in family

    def test_union_rule_toggle(self):
        h = Hypergraph.of_vertex_lists(8, [[1, 2, 3], [2, 3, 4, 5]])
        with_unions = brute_closure(h, 2, use_rule_k2=True)
        without = brute_closure(h, 2, use_rule_k2=False)
        assert frozenset({1, 2, 3, 4, 5}) in with_unions
        assert frozenset({1, 2, 3, 4, 5}) not in without
        assert without <= with_unions

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError):
            brute_closure(Hypergraph(20, frozenset()), 1)

    def test_env_var_raises_cap(self, monkeypatch):
        h = Hypergraph.of_vertex_lists(15, [[1, 2, 3]])
        with pytest.raises(TooLargeError):
            brute_closure(h, 1)
        monkeypatch.setenv("RSPLIT_MAX_N", "16")
        family = brute_closure(h, 1)
        assert frozenset({1, 2, 3}) in family

    def test_env_var_cannot_lower_cap(self, monkeypatch):
        monkeypatch.setenv("RSPLIT_MAX_N", "3")
        h = Hypergraph.of_vertex_lists(10, [[1, 2]])
        assert frozenset({1, 2}) in brute_closure(h, 1)


def assert_closed_by_definition(h: Hypergraph, r: int, use_rule_k2: bool) -> None:
    """brute_closure(h, r) read against the rules themselves, not its own loop:
    it holds the edges and the sets of size <= r (K0), every complement (K1)
    and, with K2 on, the union of every pair meeting in >= r vertices."""
    family = brute_closure(h, r, use_rule_k2=use_rule_k2)
    context = (h.n, r, use_rule_k2, sorted(str(edge) for edge in h.edges))
    universe = frozenset(range(1, h.n + 1))
    assert all(frozenset(edge.members()) in family for edge in h.edges), context
    for size in range(min(r, h.n) + 1):
        assert all(frozenset(c) in family for c in itertools.combinations(universe, size)), context
    assert all(universe - a in family for a in family), context
    if use_rule_k2:
        for a, b in itertools.combinations(family, 2):
            assert len(a & b) < r or a | b in family, (context, sorted(a), sorted(b))


class TestBruteClosureByDefinition:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_all_families_of_at_most_two_edges(self, n):
        sets = [VertexSet(n, mask) for mask in range(1 << n)]
        for count in range(3):
            for edges in itertools.combinations(sets, count):
                h = Hypergraph(n, frozenset(edges))
                for r in range(4):
                    for use_rule_k2 in (True, False):
                        assert_closed_by_definition(h, r, use_rule_k2)

    def test_seeded_families_up_to_nine_vertices(self):
        rng = random.Random(83)
        for n in range(5, 10):
            for _ in range(6):
                edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 4)))
                r = rng.randint(0, 3)
                for use_rule_k2 in (True, False):
                    assert_closed_by_definition(Hypergraph(n, edges), r, use_rule_k2)

    def test_chain_needing_three_union_sweeps(self):
        # {i, i+1} for i < 6 at r = 1: the first sweep adds the triples, the
        # second {1..5} and {2..6}, and only the third their union {1..6}.
        h = Hypergraph.of_vertex_lists(10, [[i, i + 1] for i in range(1, 6)])
        assert frozenset(range(1, 7)) in brute_closure(h, 1)
        assert_closed_by_definition(h, 1, True)

    def test_round_that_only_adds_unions_is_not_the_last(self):
        # The third round adds no complement, only unions such as {1,2,3,5};
        # their complements ({4,6}, ...) come in the fourth.
        h = Hypergraph.of_vertex_lists(6, [[1, 3, 4], [1, 3, 5, 6], [2, 3, 4, 6], [3, 6]])
        assert frozenset({4, 6}) in brute_closure(h, 1)
        assert_closed_by_definition(h, 1, True)


class TestBruteRank:
    def test_dense_elimination_on_known_matrix(self):
        rows = [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        assert brute_rank(rows) == 2

    def test_identity(self):
        assert brute_rank([[1, 0], [0, 1]]) == 2

    def test_empty(self):
        assert brute_rank([]) == 0

    def test_cut_rank_on_nine_vertex_graph(self, nine_vertex_graph):
        assert brute_cut_rank(nine_vertex_graph, frozenset({1, 2, 3, 4, 5})) == 2


class TestBruteSplits:
    def test_four_cycle(self, c4):
        splits = brute_splits(c4, 1)
        middles = {s for s in splits if 1 < len(s) < 3}
        assert middles == {frozenset({1, 3}), frozenset({2, 4})}
        # all trivially small/large sides are splits
        assert all(frozenset(c) in splits for c in ([], [1], [2], [3], [4]))


class TestBruteRankConnected:
    def test_named_graphs(self, c4, c5, k33):
        assert brute_rank_connected(c5, 2)
        assert not brute_rank_connected(k33, 2)
        assert brute_rank_connected(c4, 1)
        assert not brute_rank_connected(c4, 2)   # {1,3} has rank 1 < 2

    def test_r0_is_vacuous(self, k33):
        assert brute_rank_connected(k33, 0)

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError, match="brute-force rank connectivity"):
            brute_rank_connected(rsplits.graph.Graph(15, (0,) * 15), 1)


class TestBrutePhiImage:
    def test_four_cycle(self, c4):
        assert brute_phi_image(brute_splits(c4, 1), 4, 1) == {frozenset({1, 3}), frozenset({2, 4})}

    def test_uncovered_sets_have_no_image(self):
        # Only the trivial sets: nothing of size 2..3 covers a pair.
        members = {
            frozenset(c) for size in (0, 1, 5, 6) for c in itertools.combinations(range(1, 7), size)
        }
        assert brute_phi_image(members, 6, 1) == set()

    def test_missing_minimum_is_refused(self):
        # {1,2,3} and {1,2,4} both cover {1,2}; their meet {1,2} is no member.
        members = {frozenset({1, 2, 3}), frozenset({1, 2, 4})}
        with pytest.raises(ValueError, match=r"no minimum member contains \[1, 2\]"):
            brute_phi_image(members, 6, 1)


class TestVerificationSuite:
    def test_quick_profile_passes(self):
        report = run_verification_suite(seed=99, profile="quick")
        assert report.passed

    def test_reports_are_reproducible(self):
        first = run_verification_suite(seed=4, profile="quick")
        second = run_verification_suite(seed=4, profile="quick")
        assert first.format_lines() == second.format_lines()

    def test_line_format(self):
        report = run_verification_suite(seed=1, profile="quick")
        for line in report.format_lines().splitlines():
            assert line.startswith(("PASS ", "FAIL "))

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            run_verification_suite(seed=1, profile="exhaustive")

    def test_broken_rank_is_caught(self, monkeypatch):
        # Fault injection: a rank routine that undercounts dense cuts must
        # surface as a submodularity counterexample.
        true_rank = rsplits.graph.cut_rank

        def broken(g, x):
            rank = true_rank(g, x)
            return rank - 1 if rank >= 2 and len(x) % 2 == 0 else rank

        monkeypatch.setattr(rsplits.graph, "cut_rank", broken)
        result = check_submodularity(property_rng(0, "fault-injection"), 400)
        assert not result.passed
        assert result.detail    # names the counterexample triple

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_split_pairs_match_a_full_cut_scan(self, r):
        for g in seeded_graphs(53 + r, range(1, 10), 4):
            splits = [
                VertexSet(g.n, mask)
                for mask in range(1 << g.n)
                if brute_cut_rank(g, frozenset(VertexSet(g.n, mask).members())) <= r
            ]
            naive = [(x, y) for i, x in enumerate(splits) for y in splits[i:] if len(x & y) >= r]
            assert _split_pairs(g, r) == naive, (r, g.edges())

    def test_sorted_members_in_sort_key_order(self):
        rng = random.Random(61)
        for _ in range(80):
            n = rng.randint(1, 9)
            closed = random_closed_family(rng, n, rng.randint(0, 3))
            expected = sorted(
                (VertexSet.of(n, sorted(m)) for m in explicit_members(closed)),
                key=VertexSet.sort_key,
            )
            assert _sorted_members(closed) == expected
