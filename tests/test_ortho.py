from __future__ import annotations

import random

import pytest

import rsplits.ortho
from rsplits import limits
from rsplits.bitset import VertexSet
from rsplits.bruteforce import brute_orthogonal
from rsplits.cli import main
from rsplits.closure import close_full
from rsplits.hypergraph import Hypergraph, equals
from rsplits.limits import TooLargeError
from rsplits.ortho import (
    FamilyParams,
    _orthogonal_sizes,
    NotCrossFreeError,
    build_family,
    cross_free_closure,
    crossfree_size_bounds,
    find_crossing_pair,
    is_cross_free,
    is_orthogonal,
    is_orthogonal_oracle,
    verify_lower_bound,
)
from rsplits.verification import check_family_laws, property_rng


def vs(n, vertices):
    return VertexSet.of(n, vertices)


def first_crossing_by_full_scan(h, r):
    """The first non-orthogonal pair in canonical order, every set paired."""
    ordered = h.sorted_edges()
    return next(
        ((a, b) for i, a in enumerate(ordered) for b in ordered[i:] if not is_orthogonal(a, b, r)),
        None,
    )


def boundary_pair(rng, n, r):
    """Two sets over {1..n} whose atoms A & B, A - B, B - A and the outside
    have at most r + 1 vertices each, but for one atom that takes the rest:
    the boundary cases of the orthogonality formula."""
    sizes = [rng.randint(0, r + 1) for _ in range(4)]
    rest = rng.randrange(4)
    sizes[rest] = 0
    sizes[rest] = n - sum(sizes)
    order = rng.sample(range(1, n + 1), n)
    inter, a_only, b_only = (order[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(3))
    return VertexSet.of(n, sorted(inter + a_only)), VertexSet.of(n, sorted(inter + b_only))


class TestOrthogonalityFormula:
    def test_small_overlap_pair(self):
        assert is_orthogonal(vs(12, [1, 2, 3]), vs(12, [2, 3, 4, 5, 6]), 3)

    def test_balanced_equality_pair(self):
        assert is_orthogonal(vs(12, [1, 2, 3, 4, 5, 6]), vs(12, [4, 5, 6, 7, 8, 9]), 3)

    def test_crossing_pair(self):
        assert not is_orthogonal(vs(6, [1, 2, 3]), vs(6, [3, 4, 5]), 1)

    def test_agrees_with_definition_on_named_pairs(self):
        assert is_orthogonal_oracle(vs(12, [1, 2, 3]), vs(12, [2, 3, 4, 5, 6]), 3)
        assert is_orthogonal_oracle(vs(12, [1, 2, 3, 4, 5, 6]), vs(12, [4, 5, 6, 7, 8, 9]), 3)
        assert not is_orthogonal_oracle(vs(6, [1, 2, 3]), vs(6, [3, 4, 5]), 1)

    def test_agrees_with_bruteforce_definition(self):
        assert not brute_orthogonal(vs(6, [1, 2, 3]), vs(6, [3, 4, 5]), 1)
        assert brute_orthogonal(vs(12, [1, 2, 3]), vs(12, [2, 3, 4, 5, 6]), 3)

    def test_definition_route_on_reflexive_and_complement_pairs(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 8)
            r = rng.randint(0, 3)
            a = VertexSet(n, rng.getrandbits(n))
            assert is_orthogonal_oracle(a, a, r)
            assert is_orthogonal_oracle(a, a.complement(), r)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive_agreement_small(self, n, r):
        for a_mask in range(1 << n):
            for b_mask in range(a_mask, 1 << n):
                a, b = VertexSet(n, a_mask), VertexSet(n, b_mask)
                assert is_orthogonal(a, b, r) == is_orthogonal_oracle(a, b, r)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_exhaustive_agreement_with_bruteforce(self, n):
        for a_mask in range(1 << n):
            for b_mask in range(a_mask, 1 << n):
                a, b = VertexSet(n, a_mask), VertexSet(n, b_mask)
                for r in range(4):
                    assert is_orthogonal(a, b, r) == brute_orthogonal(a, b, r), (n, r, a, b)

    def test_definition_route_has_no_size_cap(self, capsys):
        # The pair closure stays inside the 16 sets that A and B generate,
        # so the definition answers at every universe size.
        rng = random.Random(19)
        verdicts = []
        for t in range(1000):
            n = rng.randint(25, 128)
            r = rng.randint(0, 3)
            a, b = boundary_pair(rng, n, r)
            verdict = is_orthogonal(a, b, r)
            assert is_orthogonal_oracle(a, b, r) == verdict, (n, r, a, b)
            verdicts.append(verdict)
            if t < 40:
                argv = ["ortho", "-n", str(n), "-r", str(r), "-A", str(a), "-B", str(b)]
                assert main([*argv, "--oracle"]) == (0 if verdict else 1), argv
        assert 200 < sum(verdicts) < 800

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="universe mismatch"):
            is_orthogonal(vs(4, [1]), vs(5, [1]), 1)
        with pytest.raises(ValueError, match="r must be >= 0"):
            is_orthogonal(vs(4, [1]), vs(4, [2]), -1)


class TestOrthogonalityLaws:
    def test_small_side_always_orthogonal(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 10)
            r = rng.randint(0, 3)
            a = VertexSet.of(n, rng.sample(range(1, n + 1), min(r, n)))
            b = VertexSet(n, rng.getrandbits(n))
            assert is_orthogonal(a, b, r)

    def test_reflexive_and_self_complement(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 10)
            r = rng.randint(0, 3)
            a = VertexSet(n, rng.getrandbits(n))
            assert is_orthogonal(a, a, r)
            assert is_orthogonal(a, a.complement(), r)

    def test_symmetry_and_complement_stability(self):
        rng = random.Random(7)
        for _ in range(400):
            n = rng.randint(1, 10)
            r = rng.randint(0, 3)
            a = VertexSet(n, rng.getrandbits(n))
            b = VertexSet(n, rng.getrandbits(n))
            ab = is_orthogonal(a, b, r)
            assert ab == is_orthogonal(b, a, r)
            if ab:
                for a2 in (a, a.complement()):
                    for b2 in (b, b.complement()):
                        assert is_orthogonal(a2, b2, r)
                assert is_orthogonal(a, b, r + 1)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_r1_reduces_to_noncrossing(self, n):
        full = (1 << n) - 1
        for a_mask in range(1 << n):
            for b_mask in range(1 << n):
                a, b = VertexSet(n, a_mask), VertexSet(n, b_mask)
                classic = (
                    a.issubset(b)
                    or b.issubset(a)
                    or a_mask & b_mask == 0
                    or a_mask | b_mask == full
                )
                assert is_orthogonal(a, b, 1) == classic


class TestCrossFree:
    def test_generated_family_is_cross_free(self):
        assert is_cross_free(build_family(FamilyParams(2, 3)), 2)

    def test_crossing_family_detected(self):
        h = Hypergraph.of_vertex_lists(6, [[1, 2, 3], [3, 4, 5]])
        assert not is_cross_free(h, 1)
        pair = find_crossing_pair(h, 1)
        assert pair is not None
        assert {pair[0].members(), pair[1].members()} == {(1, 2, 3), (3, 4, 5)}

    def test_first_pair_of_a_colored_family_with_one_vertex_flipped(self):
        family = build_family(FamilyParams(2, 3))
        edge = vs(9, [2, 5, 8])
        h = Hypergraph(9, (family.edges - {edge}) | {vs(9, [2, 5, 8, 9])})
        pair = find_crossing_pair(h, 2)
        assert (str(pair[0]), str(pair[1])) == ("1,5,9", "2,5,8,9")

    def test_first_pair_matches_a_scan_by_the_definition(self):
        family = build_family(FamilyParams(2, 3))
        for edge in family.sorted_edges():
            for v in range(1, 10):
                flipped = VertexSet(9, edge.mask ^ (1 << (v - 1)))
                h = Hypergraph(9, (family.edges - {edge}) | {flipped})
                edges = h.sorted_edges()
                expected = next(
                    ((a, b) for i, a in enumerate(edges) for b in edges[i:]
                     if not is_orthogonal_oracle(a, b, 2)),
                    None,
                )
                assert find_crossing_pair(h, 2) == expected, (edge, v)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_first_pair_matches_a_pairwise_scan_with_is_orthogonal(self, r):
        rng = random.Random(37 + r)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 8)
            edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 5)))
            h = Hypergraph(n, edges)
            expected = first_crossing_by_full_scan(h, r)
            assert find_crossing_pair(h, r) == expected, (n, r, [str(e) for e in h.sorted_edges()])
            outcomes.add(expected is None)
        # At r = 3 a crossing pair needs n >= 9, so every family here is cross-free.
        assert outcomes == ({True, False} if r < 3 else {True})

    @pytest.mark.parametrize("r", [1, 2])
    def test_first_pair_of_a_materialized_closure_matches_a_full_scan(self, r):
        """A materialized closure holds every trivial set, which the crossing
        scan skips."""
        rng = random.Random(53 + r)
        outcomes = set()
        for _ in range(25):
            n = rng.randint(2 * r + 2, 7)
            edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(1, 3)))
            closed = close_full(Hypergraph(n, edges), r).materialize()
            expected = first_crossing_by_full_scan(closed, r)
            assert find_crossing_pair(closed, r) == expected, (n, r, [str(e) for e in edges])
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_trivial_sizes_are_orthogonal_to_every_size(self):
        """A set of size <= r or >= n - r is orthogonal to every set: the
        formula holds for every other size and every feasible intersection."""
        for n in range(41):
            for r in range(8):
                for size_a in range(n + 1):
                    if r < size_a < n - r:
                        continue
                    for size_b in range(n + 1):
                        for inter in range(max(0, size_a + size_b - n), min(size_a, size_b) + 1):
                            assert _orthogonal_sizes(n, size_a, size_b, inter, r), (
                                n, r, size_a, size_b, inter)

    def test_trivial_sets_are_orthogonal_to_every_set_by_the_definition(self):
        for n in range(1, 7):
            for r in range(n + 1):
                for a in range(1 << n):
                    if r < a.bit_count() < n - r:
                        continue
                    for b in range(1 << n):
                        assert is_orthogonal_oracle(VertexSet(n, a), VertexSet(n, b), r), (n, r, a, b)

    def test_negative_rank_rejected_on_any_family(self):
        for edges in ([], [[1, 2]]):
            with pytest.raises(ValueError, match="r must be >= 0"):
                find_crossing_pair(Hypergraph.of_vertex_lists(4, edges), -1)

    def test_empty_and_singleton_families(self):
        assert is_cross_free(Hypergraph(6, frozenset()), 1)
        assert is_cross_free(Hypergraph.of_vertex_lists(6, [[1, 2, 3]]), 1)

    def test_transfer_through_closure(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(3, 7)
            r = rng.randint(1, 2)
            edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 3)))
            h = Hypergraph(n, edges)
            closed = close_full(h, r).materialize()
            assert is_cross_free(h, r) == is_cross_free(closed, r)


class TestCrossFreeClosure:
    def test_self_complementary_pairs(self):
        h = build_family(FamilyParams(1, 2))
        closed = cross_free_closure(h, 1)
        assert {m.members() for m in closed.middles} == {(1, 3), (2, 4)}
        assert equals(closed, close_full(h, 1))

    def test_empty_family(self):
        closed = cross_free_closure(Hypergraph(8, frozenset()), 2)
        assert closed.middles == frozenset()

    def test_nine_vertex_family(self):
        h = build_family(FamilyParams(2, 3))
        closed = cross_free_closure(h, 2)
        assert len(closed.middles) == 18
        assert equals(closed, close_full(h, 2))

    def test_rejects_crossing_input(self):
        h = Hypergraph.of_vertex_lists(6, [[1, 2, 3], [3, 4, 5]])
        with pytest.raises(ValueError, match="not 1-cross-free"):
            cross_free_closure(h, 1)

    def test_crossing_input_names_the_first_pair(self):
        h = Hypergraph.of_vertex_lists(6, [[3, 4, 5], [1, 2, 3]])
        for route in (cross_free_closure, crossfree_size_bounds):
            with pytest.raises(NotCrossFreeError) as exc:
                route(h, 1)
            assert str(exc.value) == "input is not 1-cross-free: 1,2,3 and 3,4,5 cross"

    def test_matches_full_closure_on_random_cross_free_inputs(self):
        rng = random.Random(13)
        found = 0
        while found < 40:
            n = rng.randint(3, 8)
            r = rng.randint(1, 3)
            edges = frozenset(VertexSet(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 3)))
            h = Hypergraph(n, edges)
            if not is_cross_free(h, r):
                continue
            assert equals(cross_free_closure(h, r), close_full(h, r))
            found += 1


class TestSizeBounds:
    def test_nine_vertex_family(self):
        report = crossfree_size_bounds(build_family(FamilyParams(2, 3)), 2)
        assert (report.middle_edges, report.closure_middles) == (9, 18)
        assert report.chain_holds and report.cap_holds

    def test_self_complementary_family(self):
        report = crossfree_size_bounds(build_family(FamilyParams(1, 2)), 1)
        assert (report.middle_edges, report.closure_middles) == (2, 2)
        assert report.passed

    def test_empty_family(self):
        report = crossfree_size_bounds(Hypergraph(6, frozenset()), 1)
        assert (report.middle_edges, report.closure_middles) == (0, 0)
        assert report.passed


class TestOneCrossingScan:
    """cross_free_closure is the one crossing check on the bounds path."""

    def test_family_laws_scan_each_family_once(self, monkeypatch):
        scanned = []

        def counted(h, r):
            scanned.append((h.n, r))
            return find_crossing_pair(h, r)

        monkeypatch.setattr(rsplits.ortho, "find_crossing_pair", counted)
        assert check_family_laws(property_rng(2024, "family-laws"), 12).passed
        assert len(scanned) == len(set(scanned)) == 12

    def test_a_reported_crossing_fails_the_laws_and_the_command(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(
            rsplits.ortho, "find_crossing_pair", lambda h, r: tuple(h.sorted_edges()[:2])
        )
        # Both callers learn of the crossing from the size bounds themselves.
        raised = []
        bounds = rsplits.ortho.crossfree_size_bounds

        def recorded(h, r):
            try:
                return bounds(h, r)
            except NotCrossFreeError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(rsplits.ortho, "crossfree_size_bounds", recorded)
        result = check_family_laws(property_rng(2024, "family-laws"), 12)
        assert (result.tag, result.passed, result.detail) == ("family-crossfree", False, "r=1 k=2")
        fam = tmp_path / "fam.hg"
        assert main(["family", "-r", "1", "-k", "2", "-o", str(fam)]) == 0
        assert main(["bounds", "-H", str(fam), "-r", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input is not 1-cross-free: 1,3 and 2,4 cross\n"
        assert raised == ["input is not 1-cross-free: 1,3 and 2,4 cross"] * 2


class TestBuildFamily:
    def test_two_color_pairs(self):
        family = build_family(FamilyParams(1, 2))
        assert {e.members() for e in family.edges} == {(1, 3), (2, 4)}

    def test_three_color_triples(self):
        family = build_family(FamilyParams(2, 3))
        members = {e.members() for e in family.edges}
        assert len(members) == 9
        assert (1, 4, 7) in members          # values 0,0,0
        assert (2, 6, 7) in members          # values 1,2,0

    def test_counts_match_power_law(self):
        for r in (1, 2, 3):
            for k in (2, 3, 4, 5):
                params = FamilyParams(r, k)
                family = build_family(params)
                assert len(family) == k**r
                assert all(len(e) == r + 1 for e in family.edges)
                assert family.n == k * (r + 1)

    def test_distinct_edges_share_few_vertices(self):
        for r in (1, 2, 3):
            for k in (2, 3, 4, 5):
                edges = build_family(FamilyParams(r, k)).sorted_edges()
                for i, a in enumerate(edges):
                    for b in edges[i + 1:]:
                        assert len(a & b) < r

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FamilyParams(0, 3)
        with pytest.raises(ValueError):
            FamilyParams(2, 1)

    def test_refuses_more_edges_than_an_explicit_family_may_hold(self):
        # n = 126 is inside MAX_UNIVERSE, so only the edge count stops it
        limit = limits.MAX_EXPLICIT_FAMILY
        message = rf"^family for r=20, k=6 would have k\^r = {6**20} edges \(limit {limit}\)$"
        with pytest.raises(TooLargeError, match=message):
            build_family(FamilyParams(20, 6))

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_EXPLICIT_FAMILY", 8)
        assert len(build_family(FamilyParams(3, 2))) == 8
        with pytest.raises(TooLargeError, match=r"k\^r = 9 edges \(limit 8\)"):
            build_family(FamilyParams(2, 3))

    def test_universe_checked_before_the_edge_count(self):
        with pytest.raises(ValueError, match="universe size 202 exceeds the configured budget"):
            build_family(FamilyParams(100, 2))


class TestLowerBound:
    @pytest.mark.parametrize("r,k", [(1, 2), (1, 4), (2, 3)])
    def test_desk_cases(self, r, k):
        report = verify_lower_bound(FamilyParams(r, k))
        assert report.family_size == k**r
        assert report.closure_matches
        assert 2 * report.essential_count >= report.family_size
        assert report.passed
