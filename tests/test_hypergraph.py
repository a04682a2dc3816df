from __future__ import annotations

import itertools
import random

import pytest

from conftest import SIX_MIDDLES
from rsplits import limits
from rsplits.bitset import VertexSet
from rsplits.bruteforce import explicit_members
from rsplits.closure import close_full
from rsplits.hypergraph import (
    ClosedHypergraph,
    Hypergraph,
    NotClosedError,
    equals,
    format_closed,
    format_hypergraph,
    middles_and_complements,
    normalize,
    parse_closed,
    parse_hypergraph,
    trivial_closure_size,
)
from rsplits.verification import random_closed_family


def closed_from_tuples(n, r, middles):
    return ClosedHypergraph(n, r, frozenset(VertexSet.of(n, m) for m in middles))


def materialized_family(n, r, middles):
    """Explicit family: the given middles plus every trivially closed set."""
    edges = {VertexSet.of(n, m) for m in middles}
    for size in range(n + 1):
        if size <= r or size >= n - r:
            edges.update(VertexSet.of(n, c) for c in itertools.combinations(range(1, n + 1), size))
    return Hypergraph(n, frozenset(edges))


class TestContains:
    def test_large_sets_implicit(self, two_edge_closure):
        assert two_edge_closure.contains(VertexSet.of(8, [6, 7, 8]))

    def test_small_sets_implicit(self, two_edge_closure):
        assert two_edge_closure.contains(VertexSet.of(8, [1, 2]))

    def test_non_member_middle(self, two_edge_closure):
        assert not two_edge_closure.contains(VertexSet.of(8, [1, 2, 4]))

    def test_complement_symmetry(self, two_edge_closure):
        rng = random.Random(1)
        for _ in range(200):
            a = VertexSet(8, rng.getrandbits(8))
            assert two_edge_closure.contains(a) == two_edge_closure.contains(a.complement())


class TestCensus:
    @pytest.mark.parametrize("n", range(0, 13))
    @pytest.mark.parametrize("r", range(0, 4))
    def test_contains_matches_census(self, n, r):
        empty_closure = ClosedHypergraph(n, r, frozenset())
        count = sum(1 for mask in range(1 << n) if empty_closure.contains(VertexSet(n, mask)))
        assert count == trivial_closure_size(n, r)
        if n > 2 * r:
            import math

            assert count == 2 * sum(math.comb(n, i) for i in range(r + 1))


class TestNormalize:
    def test_six_middle_family(self):
        h = materialized_family(8, 2, SIX_MIDDLES)
        closed = normalize(h, 2)
        assert {m.members() for m in closed.middles} == {tuple(m) for m in SIX_MIDDLES}

    def test_missing_complement(self):
        h = materialized_family(8, 2, [(1, 2, 3)])
        with pytest.raises(NotClosedError, match="^'1,2,3' has no complement '4,5,6,7,8'$"):
            normalize(h, 2)

    def test_trivial_part_alone(self):
        closed = normalize(materialized_family(8, 2, []), 2)
        assert closed.middles == frozenset()

    def test_missing_trivial_member(self):
        h = materialized_family(8, 2, [])
        pruned = Hypergraph(8, h.edges - {VertexSet.of(8, [1, 2])})
        with pytest.raises(NotClosedError, match="trivial part incomplete"):
            normalize(pruned, 2)

    def test_union_rule_violation(self):
        middles = [(1, 2, 3), (4, 5, 6, 7, 8), (2, 3, 4, 5), (1, 6, 7, 8)]
        with pytest.raises(NotClosedError) as exc:
            normalize(materialized_family(8, 2, middles), 2)
        assert str(exc.value) == "K2 violated by (1,2,3, 2,3,4,5)"

    def test_idempotent_on_computed_closures(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 8)
            r = rng.randint(0, 3)
            edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 3)))
            closed = close_full(Hypergraph(n, edges), r)
            assert equals(normalize(closed.materialize(), r), closed)

    def test_intersection_of_closed_families_is_closed(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(3, 8)
            r = rng.randint(0, 2)
            families = []
            for _ in range(2):
                edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 3)))
                families.append(close_full(Hypergraph(n, edges), r))
            meet = ClosedHypergraph(n, r, families[0].middles & families[1].middles)
            normalize(meet.materialize(), r)


class TestEquals:
    def test_insertion_order_irrelevant(self):
        a = closed_from_tuples(8, 2, SIX_MIDDLES)
        b = closed_from_tuples(8, 2, list(reversed(SIX_MIDDLES)))
        assert equals(a, b)

    def test_strictly_larger_family_differs(self, two_edge_closure):
        assert not equals(ClosedHypergraph(8, 2, frozenset()), two_edge_closure)

    def test_reflexive(self, two_edge_closure):
        assert equals(two_edge_closure, two_edge_closure)

    def test_mismatched_parameters_rejected(self):
        with pytest.raises(ValueError, match="cannot compare"):
            equals(ClosedHypergraph(8, 2, frozenset()), ClosedHypergraph(8, 1, frozenset()))


class TestMiddlesAndComplements:
    def test_keeps_middles_adds_complements_each_once_in_first_seen_order(self):
        # over {1..6} at r = 1: 0b11 (size 2) is a middle, 0b1 (size 1) and
        # 0b11111 (size 5) are implicit, and 0b111100 is the complement of 0b11
        masks = [0b000011, 0b000001, 0b011111, 0b000111, 0b111100, 0b000011]
        assert middles_and_complements(6, 1, masks) == [0b000011, 0b000111, 0b111100, 0b111000]

    def test_nothing_is_a_middle_when_the_zone_is_empty(self):
        assert middles_and_complements(4, 2, range(16)) == []


class TestMaterialize:
    def test_includes_the_implicit_part(self, two_edge_closure):
        explicit = two_edge_closure.materialize()
        assert len(explicit) == two_edge_closure.member_count()

    def test_matches_the_oracle_on_seeded_closed_families(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(1, 9)
            r = rng.randint(0, 3)
            closed = random_closed_family(rng, n, r)
            edges = closed.materialize().edges
            vertex_sets = {
                frozenset(v for v in range(1, n + 1) if a.mask >> (v - 1) & 1) for a in edges
            }
            assert len(edges) == closed.member_count()
            assert vertex_sets == explicit_members(closed), (n, r)

    def test_limit_is_inclusive(self, monkeypatch, two_edge_closure):
        total = two_edge_closure.member_count()
        monkeypatch.setattr(limits, "MAX_EXPLICIT_FAMILY", total)
        assert len(two_edge_closure.materialize()) == total
        monkeypatch.setattr(limits, "MAX_EXPLICIT_FAMILY", total - 1)
        with pytest.raises(ValueError, match="materialized family would have"):
            two_edge_closure.materialize()

    def test_refuses_a_family_above_the_limit(self):
        family = ClosedHypergraph(40, 6, frozenset())
        total = family.member_count()
        limit = limits.MAX_EXPLICIT_FAMILY
        assert total > limit
        message = rf"^materialized family would have {total} members \(limit {limit}\)$"
        with pytest.raises(limits.TooLargeError, match=message):
            family.materialize()


class TestMaskStorage:
    def test_from_masks_equals_the_public_construction(self):
        edges = frozenset(VertexSet.of(6, m) for m in [(), (1, 2), (2, 5, 6), (1, 2, 3, 4, 5, 6)])
        public = Hypergraph(6, edges)
        private = Hypergraph._from_masks(6, frozenset(a.mask for a in edges))
        assert private == public and hash(private) == hash(public)
        assert private.masks == public.masks and private.edges == edges
        assert repr(private) == repr(public)
        assert private.sorted_edges() == public.sorted_edges()

    def test_membership_and_size_read_the_masks(self):
        h = Hypergraph._from_masks(4, frozenset({0b0011, 0b1100}))
        assert len(h) == 2 and "edges" not in vars(h)
        assert VertexSet.of(4, [1, 2]) in h
        assert VertexSet.of(4, [1, 3]) not in h
        assert VertexSet.of(5, [1, 2]) not in h
        assert 3 not in h

    @pytest.mark.parametrize("mask", [1 << 3, 0b10110, -1])
    def test_out_of_universe_mask_raises_from_set(self, mask):
        with pytest.raises(ValueError, match="outside a universe of size 3") as excinfo:
            Hypergraph._from_masks(3, frozenset({1, mask}))
        assert [entry.name for entry in excinfo.traceback][-2:] == ["_set", "_check_masks"]

    def test_materialize_equals_the_vertex_set_expansion(self):
        rng = random.Random(29)
        for n in range(0, 10):
            for r in range(4):
                closed = random_closed_family(rng, n, r)
                edges = set(closed.middles)
                for size in range(n + 1):
                    if size <= r or size >= n - r:
                        edges.update(VertexSet.of(n, c)
                                     for c in itertools.combinations(range(1, n + 1), size))
                assert closed.materialize() == Hypergraph(n, frozenset(edges)), (n, r)


class TestConstructionInvariants:
    def test_middle_zone_enforced(self):
        with pytest.raises(ValueError, match="middle zone"):
            closed_from_tuples(8, 2, [(1, 2), (3, 4, 5, 6, 7, 8)])

    def test_complement_closure_enforced(self):
        with pytest.raises(NotClosedError):
            closed_from_tuples(8, 2, [(1, 2, 3)])

    def test_negative_universe_rejected(self):
        with pytest.raises(ValueError, match="universe size must be >= 0"):
            Hypergraph(-2, frozenset())
        with pytest.raises(ValueError, match="universe size must be >= 0"):
            ClosedHypergraph(-2, 1, frozenset())

    def test_degenerate_universe_has_no_middles(self):
        assert ClosedHypergraph(4, 2, frozenset()).contains(VertexSet.of(4, [1, 2, 3]))


class TestFormats:
    def test_hypergraph_round_trip(self):
        h = Hypergraph.of_vertex_lists(6, [[1, 2], [3, 4, 5], []])
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_closed_round_trip(self, two_edge_closure):
        parsed = parse_closed(format_closed(two_edge_closure))
        assert equals(parsed, two_edge_closure)

    def test_closed_format_layout(self, two_edge_closure):
        lines = format_closed(two_edge_closure).splitlines()
        assert lines[0] == "8"
        assert lines[1] == "r 2"
        assert lines[-1] == "implicit cl-empty"
        # middles sorted by cardinality then vertex order
        assert lines[2:-1] == ["1,2,3", "6,7,8", "1,6,7,8", "2,3,4,5", "1,2,3,4,5", "4,5,6,7,8"]

    def test_comments_ignored(self):
        text = "# family\n4\nr 1\n# middles\n1,3\n2,4\nimplicit cl-empty\n"
        closed = parse_closed(text)
        assert {m.members() for m in closed.middles} == {(1, 3), (2, 4)}

    def test_empty_edge_line(self):
        h = parse_hypergraph("3\n-\n1,2\n")
        assert VertexSet.empty(3) in h.edges

    def test_bad_rank_header(self):
        with pytest.raises(ValueError, match="rank header"):
            parse_closed("4\n1,3\n")


class TestParseErrorsNameTheLine:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("# family\nx\n1,2\n", "line 2: bad universe line 'x', expected 'n'"),
            ("-2\n", "line 1: universe size must be >= 0, got -2"),
            ("4\n1,2\n\n1,x\n", "line 4: bad vertex set '1,x'"),
            ("4\n2,1\n", "line 2: vertex set '2,1' is not strictly ascending"),
            ("4\n# edges\n1,9\n", "line 3: vertex 9 outside universe 1..4 in vertex set '1,9'"),
            ("1_0\n+1, 2\n", "line 1: bad universe line '1_0', expected 'n'"),
            ("+4\n1,2\n", "line 1: bad universe line '+4', expected 'n'"),
            ("\u0664\n1,2\n", "line 1: bad universe line '\u0664', expected 'n'"),
            ("4\n+1, 2\n", "line 2: bad vertex set '+1, 2'"),
            ("4\n1,\u0662\n", "line 2: bad vertex set '1,\u0662'"),
            ("4\n1,2\n# again\n1,2\n", "line 4: duplicate vertex set '1,2' (first on line 2)"),
            ("4\n-\n3\n-\n", "line 4: duplicate vertex set '-' (first on line 2)"),
        ],
    )
    def test_hypergraph(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_hypergraph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x\nr 1\n", "line 1: bad universe line 'x', expected 'n'"),
            ("4\n# rank\nr x\n", "line 3: bad rank header 'r x', expected 'r <value>'"),
            ("4\nr -1\n", "line 2: bad rank header 'r -1', expected 'r <value>'"),
            ("4\nr \u0661\n1,3\n2,4\n", "line 2: bad rank header 'r \u0661', expected 'r <value>'"),
            ("4\nr +1\n", "line 2: bad rank header 'r +1', expected 'r <value>'"),
            ("4\nr 1_0\n", "line 2: bad rank header 'r 1_0', expected 'r <value>'"),
            ("+4\nr 1\n", "line 1: bad universe line '+4', expected 'n'"),
            ("4\nr 1\n1,+3\n", "line 3: bad vertex set '1,+3'"),
            ("4\nr 1\n1,3\n2,x\n", "line 4: bad vertex set '2,x'"),
            ("4\nr 1\n1,3\n1\n", "line 4: '1' has size 1, outside the middle zone"),
            ("4\nr 1\n1,3\n2,4\n1,3\n", "line 5: duplicate vertex set '1,3' (first on line 3)"),
            ("6\nr 1\n1,2\n3,4,5,6\n2,3\n", "line 5: '2,3' has no complement '1,4,5,6'"),
            # several faults: the first line in file order is named
            ("6\nr 1\n2,3\n1,2\n3,4,5,6\n", "line 3: '2,3' has no complement '1,4,5,6'"),
            # a fault found while reading comes before the K0 and K1 rules
            ("4\nr 1\n1\n1,3\n1,3\n", "line 5: duplicate vertex set '1,3' (first on line 4)"),
        ],
    )
    def test_closed(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_closed(text)
        assert str(exc.value) == message

    def test_family_level_errors_keep_their_messages(self):
        with pytest.raises(NotClosedError, match=r"^line 3: '1,3' has no complement '2,4'$"):
            parse_closed("4\nr 1\n1,3\n")


def test_loading_a_file_builds_no_vertex_set_view():
    closed = parse_closed("4\nr 1\n1,3\n2,4\nimplicit cl-empty\n")
    h = parse_hypergraph("4\n1,3\n-\n")
    assert "middles" not in closed.__dict__
    assert "edges" not in h.__dict__
    assert (closed.masks, h.masks) == (frozenset({0b0101, 0b1010}), frozenset({0b0101, 0}))


def test_free_contains_function_is_gone():
    import rsplits
    import rsplits.hypergraph

    assert not hasattr(rsplits.hypergraph, "contains")
    assert "contains" not in rsplits.__all__
