from __future__ import annotations

import ast
import itertools
import pathlib
import random
from types import SimpleNamespace

import pytest

import rsplits.bitset
import rsplits.bruteforce
import rsplits.closure
import rsplits.graph
import rsplits.hypergraph
import rsplits.ortho
import rsplits.splits
from rsplits import cli
from conftest import all_graphs, seeded_graphs, source_mutant
from rsplits.bitset import VertexSet, mask_sort_key
from rsplits.bruteforce import (
    brute_closure,
    brute_cut_rank,
    brute_phi_image,
    brute_rank,
    brute_rank_connected,
    brute_splits,
    explicit_members,
)
from rsplits.hypergraph import ClosedHypergraph, Hypergraph
from rsplits.limits import TooLargeError
from rsplits.verification import (
    REGISTRY,
    PropertyResult,
    _sorted_members,
    _split_pairs,
    check_chain_union,
    check_half_side_intersection,
    check_lower_bound_desk,
    check_normalize_idempotent,
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


def rederive_closure(h: Hypergraph, r: int, use_rule_k2: bool) -> set[frozenset[int]]:
    """The least family holding the seeds, re-derived on label frozensets in
    full rounds: every complement and, with K2 on, the union of every pair
    meeting in >= r vertices, until a round adds nothing."""
    universe = frozenset(range(1, h.n + 1))
    family = {frozenset(edge.members()) for edge in h.edges}
    for size in range(min(r, h.n) + 1):
        family.update(frozenset(c) for c in itertools.combinations(universe, size))
    while True:
        derived = {universe - a for a in family}
        if use_rule_k2:
            derived.update(a | b for a, b in itertools.combinations(family, 2) if len(a & b) >= r)
        if derived <= family:
            return family
        family |= derived


def assert_closed_by_definition(h: Hypergraph, r: int, use_rule_k2: bool) -> None:
    """brute_closure(h, r) read against the rules themselves, not its own loop:
    it holds the edges and the sets of size <= r (K0), every complement (K1)
    and, with K2 on, the union of every pair meeting in >= r vertices; and it
    is the least such family, the one the rules derive from the seeds."""
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
    assert family == rederive_closure(h, r, use_rule_k2), context


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


class TestOracleIndependence:
    """The oracles share no code with the engines: `bruteforce.py` imports
    nothing beyond the value types and the caps, and never reads the int
    masks the engines store (`mask`, `masks`, a graph's `adj` rows), so its
    encodings are its own."""

    TREE = ast.parse(pathlib.Path(rsplits.bruteforce.__file__).read_text(encoding="utf-8"))

    def test_imports_only_itertools_limits_and_the_value_types(self):
        imported = set()
        for node in ast.walk(self.TREE):
            if isinstance(node, ast.Import):
                imported.update((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                module = "." * node.level + (node.module or "")
                imported.update((module, alias.name) for alias in node.names)
        assert imported == {
            ("itertools", None),
            (".", "limits"),
            (".bitset", "VertexSet"),
            (".graph", "Graph"),
            (".hypergraph", "Hypergraph"),
        }

    def test_reads_no_mask_attribute(self):
        reads = [
            (node.lineno, node.attr)
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Attribute) and node.attr in ("mask", "masks", "adj")
        ]
        getattr_names = [
            (node.lineno, node.value)
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Constant) and node.value in ("mask", "masks", "adj")
        ]
        assert (reads, getattr_names) == ([], [])


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

    @pytest.mark.parametrize("rows", [[[1], [1, 1]], [[1, 0], [0, 2]]])
    def test_ragged_or_non_binary_rows_are_refused(self, rows):
        with pytest.raises(ValueError, match=rf"row 2 is not a 0/1 row of {len(rows[0])} entries"):
            brute_rank(rows)

    @pytest.mark.parametrize("label", [0, -1, 4])
    def test_label_outside_the_graph_is_refused(self, label):
        path = rsplits.graph.Graph.from_edges(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError, match=rf"vertex {label} is outside 1\.\.3"):
            brute_cut_rank(path, frozenset({label}))


def transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(column) for column in zip(*rows)]


def all_matrices(max_rows: int, max_cols: int):
    """Every 0/1 matrix with 1..max_rows rows and 1..max_cols columns."""
    for n_rows in range(1, max_rows + 1):
        for n_cols in range(1, max_cols + 1):
            for code in range(1 << (n_rows * n_cols)):
                yield [[code >> (i * n_cols + j) & 1 for j in range(n_cols)] for i in range(n_rows)]


def seeded_matrices(seed: int, count: int, max_side: int):
    rng = random.Random(seed)
    for _ in range(count):
        n_rows, n_cols = rng.randint(1, max_side), rng.randint(1, max_side)
        yield [[rng.getrandbits(1) for _ in range(n_cols)] for _ in range(n_rows)]


class TestBruteRankByDefinition:
    """brute_rank and brute_cut_rank read against the laws of rank over GF(2),
    not against the engine's elimination."""

    def test_rank_of_transpose_on_every_small_matrix(self):
        for rows in all_matrices(3, 4):
            assert brute_rank(rows) == brute_rank(transpose(rows)), rows

    def test_rank_of_transpose_on_seeded_matrices(self):
        for rows in seeded_matrices(89, 400, 7):
            assert brute_rank(rows) == brute_rank(transpose(rows)), rows

    @pytest.mark.parametrize("k", range(1, 9))
    def test_identity_has_full_rank(self, k):
        assert brute_rank([[int(i == j) for j in range(k)] for i in range(k)]) == k

    def test_zero_row_and_row_sums_leave_the_rank(self):
        rng = random.Random(97)
        for rows in itertools.chain(all_matrices(3, 3), seeded_matrices(101, 300, 7)):
            rank = brute_rank(rows)
            assert brute_rank(rows + [[0] * len(rows[0])]) == rank, rows
            subset = [row for row in rows if rng.getrandbits(1)] or rows[:1]
            row_sum = [sum(column) % 2 for column in zip(*subset)]
            assert brute_rank(rows + [row_sum]) == rank, (rows, subset)
            assert brute_rank([row_sum] + rows) == rank, (rows, subset)

    def test_singleton_side_has_rank_one_iff_its_vertex_has_a_neighbour(self):
        # Consecutive graphs share n, so each must be ranked on its own edges.
        for g in all_graphs(5):
            for v in range(1, g.n + 1):
                has_neighbour = any(v in edge for edge in g.edges())
                assert brute_cut_rank(g, frozenset({v})) == has_neighbour, (g.edges(), v)

    def test_cut_rank_of_a_side_and_its_complement_agree(self):
        for g in all_graphs(5):
            universe = frozenset(range(1, g.n + 1))
            for size in range(g.n + 1):
                for side in map(frozenset, itertools.combinations(universe, size)):
                    assert brute_cut_rank(g, side) == brute_cut_rank(g, universe - side), (
                        g.edges(), sorted(side))


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


def break_cut_rank(monkeypatch) -> None:
    """Patch in a rank routine that undercounts dense cuts of even-sized sets."""
    true_rank = rsplits.graph.cut_rank

    def broken(g, x):
        rank = true_rank(g, x)
        return rank - 1 if rank >= 2 and len(x) % 2 == 0 else rank

    monkeypatch.setattr(rsplits.graph, "cut_rank", broken)


def raise_on_call(*args, **kwargs):
    raise RuntimeError("injected fault")


def always_rank_connected(g, r):
    """An r-rank connectivity test that checks r and then says yes."""
    rsplits.bitset._check_rank(r)
    return True


# fault -> (module, routine, its broken version, the failing tags of the
# quick suite in report order, the same at seeds 99, 4 and 2024).
# The first four are faults in routines the suite reaches through their
# modules; the last five are one-line mutants of a law's bound or test.
FAULTS = {
    "normalize-raises": (
        rsplits.hypergraph, "normalize", raise_on_call,
        ["normalize-idempotent", "closure-system-intersection"],
    ),
    "equals-always-false": (
        rsplits.hypergraph, "equals", lambda a, b: False,
        ["closure-idempotent", "normalize-idempotent", "ortho-formula-vs-definition",
         "essential-roundtrip", "lowerbound-desk"],
    ),
    "rank-always-zero": (
        rsplits.bitset, "rank_of_rows", lambda rows: 0,
        ["gf2-rank-zero", "cutrank-vs-bruteforce", "middle-rank-floor",
         "essential-roundtrip", "splits-vs-bruteforce"],
    ),
    # essential-roundtrip reaches it through rank_connected_splits, which
    # must refuse through it too.
    "rank-connected-always-true": (
        rsplits.graph, "is_r_rank_connected", always_rank_connected,
        ["middle-rank-floor", "essential-roundtrip"],
    ),
    "essential-bound-doubled": (
        rsplits.splits, "verify_representation",
        source_mutant(rsplits.splits, "verify_representation",
                      "essential_bound=math.comb(", "essential_bound=2 * math.comb("),
        ["essential-bound"],
    ),
    "closure-cap-plus-one": (
        rsplits.ortho, "crossfree_size_bounds",
        source_mutant(rsplits.ortho, "crossfree_size_bounds",
                      "+ 2 * len(h.masks)", "+ 2 * len(h.masks) + 1"),
        ["closure-cap"],
    ),
    "normalize-k2-strict": (
        rsplits.hypergraph, "normalize",
        source_mutant(rsplits.hypergraph, "normalize",
                      "(a & b).bit_count() >= r", "(a & b).bit_count() > r"),
        ["normalize-k2-refusal"],
    ),
    "derived-rules-p1-strict": (
        rsplits.closure, "check_derived_rules",
        source_mutant(rsplits.closure, "check_derived_rules",
                      "n - (a | b).bit_count() >= r", "n - (a | b).bit_count() > r"),
        ["derived-rules-refusal"],
    ),
    "family-residue-shifted": (
        rsplits.ortho, "build_family",
        source_mutant(rsplits.ortho, "build_family", "-sum(free) % p.k", "(1 - sum(free)) % p.k"),
        ["family-definition"],
    ),
}


TRUE_MATERIALIZE = ClosedHypergraph.materialize


def distinct_nonzero_rows(rows) -> int:
    """A rank routine that forgot elimination."""
    return len({row for row in rows if row})


def cut_edge_count(g, x) -> int:
    """A cut rank that counts the edges across the cut."""
    return sum((u in x) != (v in x) for u, v in g.edges())


def contains_by_half(self, a) -> bool:
    """ClosedHypergraph.contains that looks up only middles of at most half size."""
    size = len(a)
    return size <= self.r or size >= self.n - self.r or (2 * size <= self.n and a.mask in self.masks)


def materialize_without_empty(self) -> Hypergraph:
    """ClosedHypergraph.materialize that leaves out the empty set."""
    h = TRUE_MATERIALIZE(self)
    return Hypergraph._from_masks(h.n, h.masks - {0})


# check -> (owner, routine, its broken version, seed, the line the quick suite
# prints for the check).  Each fault drives a check to a failure return of its
# own (not to an exception) that no fault in FAULTS reaches.
FAILURE_RETURNS = {
    "gf2-rank-laws": (
        rsplits.bitset, "rank_of_rows", distinct_nonzero_rows, 99,
        "FAIL gf2-transpose rows=(13, 10) cols=6",
    ),
    "set-cardinality-identity": (
        VertexSet, "__or__", lambda self, other: VertexSet(self.n, self.mask ^ other.mask), 99,
        "FAIL set-cardinality-identity n=14 a=1,2,4,6,8,10,11,12 b=3,6,7,9,11,12,14",
    ),
    "cutrank-symmetry-bound": (
        rsplits.graph, "cut_rank", cut_edge_count, 2024,
        "FAIL cutrank-bound g=[(1, 2), (1, 3), (2, 3), (2, 4)] X=3 rank=2",
    ),
    "split-union": (
        rsplits.graph, "is_r_split",
        source_mutant(rsplits.graph, "is_r_split", "cut_rank(g, x) <= r", "cut_rank(g, x) < r"), 99,
        "FAIL split-union r=1 g=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)] X=2 Y=1,2,3",
    ),
    "trivial-closure-census": (
        rsplits.hypergraph, "trivial_closure_size",
        source_mutant(rsplits.hypergraph, "trivial_closure_size", "range(n + 1)", "range(n)"), 4,
        "FAIL trivial-closure-census n=0 r=0",
    ),
    "closure-vs-bruteforce": (
        rsplits.closure, "close_degenerate", rsplits.closure.close_full, 2024,
        "FAIL degenerate-vs-bruteforce n=8 r=1 edges=['1,7', '5,6,7']",
    ),
    "closure-operator-laws": (
        rsplits.closure, "close_full",
        source_mutant(rsplits.closure, "close_full", "middles_and_complements(n, r, h.masks)",
                      "middles_and_complements(n, r + 1, h.masks)"), 4,
        "FAIL closure-extensive n=6 r=1",
    ),
    "normalize-idempotent": (
        ClosedHypergraph, "contains", contains_by_half, 99,
        "FAIL contains-complement n=4 r=0",
    ),
    "closure-system-intersection": (
        ClosedHypergraph, "materialize", materialize_without_empty, 99,
        "FAIL closure-system-intersection n=3 r=1: trivial part incomplete: 7 of 8 sets with "
        "size <= 1 or >= 2 present",
    ),
    "ortho-properties": (
        rsplits.ortho, "_orthogonal_sizes",
        source_mutant(rsplits.ortho, "_orthogonal_sizes", "inter < r or", "inter <= r or"), 2024,
        "FAIL ortho-prop-flip-b n=4 r=0 A=1,3 B=2",
    ),
    "ortho-noncrossing-r1": (
        rsplits.ortho, "_orthogonal_sizes",
        source_mutant(rsplits.ortho, "_orthogonal_sizes", "a_minus_b == 0 or", "a_minus_b < 0 or"),
        4, "FAIL ortho-noncrossing-r1 n=5 A=2,3 B=1,2,3,5",
    ),
    "singleton-closure": (
        VertexSet, "complement", lambda self: VertexSet(self.n, self.mask ^ ((1 << self.n - 1) - 1)),
        4, "FAIL singleton-closure n=8 r=2 A=2,3,7,8 middles=2",
    ),
    "family-laws": (
        rsplits.ortho, "build_family",
        source_mutant(rsplits.ortho, "build_family", "product(range(p.k)", "product(range(1, p.k)"),
        2024, "FAIL family-count r=1 k=2",
    ),
}


# The quick suite's report at seed 2024, byte for byte.
QUICK_2024 = """\
PASS gf2-rank-laws trials=200
PASS set-cardinality-identity trials=300
PASS cutrank-vs-bruteforce trials=80
PASS cutrank-symmetry-bound trials=200
PASS cutrank-submodular trials=200
PASS split-union trials=200
PASS middle-rank-floor trials=200
PASS trivial-closure-census trials=52
PASS closure-vs-bruteforce trials=60
PASS closure-operator-laws trials=60
PASS normalize-idempotent trials=60
PASS closure-system-intersection trials=40
PASS derived-rules trials=100
PASS chain-union trials=100
PASS half-side-intersection trials=100
PASS ortho-formula-vs-definition trials=150
PASS ortho-properties trials=300
PASS ortho-noncrossing-r1 trials=300
PASS singleton-closure trials=150
PASS pair-closure-union trials=100
PASS crossfree-transfer trials=60
PASS essential-roundtrip trials=25
PASS family-laws trials=12
PASS lowerbound-desk trials=3
PASS splits-vs-bruteforce trials=40
"""

# The lines that differ from QUICK_2024 under break_cut_rank, by line index.
BROKEN_RANK_2024 = {
    2: "FAIL cutrank-vs-bruteforce g=[(1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (3, 6), "
       "(4, 5), (5, 6)] X=3,5: 1 vs 2",
    3: "FAIL cutrank-symmetry g=[(1, 2), (1, 3), (1, 4), (1, 8), (1, 9), (2, 7), (3, 9), (4, 9), "
       "(5, 6), (5, 7), (5, 8), (6, 8), (7, 8)] X=3,5,6,8",
    4: "FAIL cutrank-submodular g=[(1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4), "
       "(2, 7), (3, 4), (3, 8), (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 8), (7, 8), "
       "(7, 9), (8, 9)] X=1,3,5,6,7,8,9 Y=1,2,3,6,7,9: 5 > 4",
    6: "FAIL middle-rank-floor r=2 g=[(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), "
       "(3, 6), (4, 5), (4, 6), (5, 6)] X=2,3,4,5",
}

TRUE_CLOSE_FULL = rsplits.closure.close_full


def drop_one_complement_pair(h: Hypergraph, r: int) -> ClosedHypergraph:
    """close_full with its first middle and that middle's complement left out."""
    closed = TRUE_CLOSE_FULL(h, r)
    if not closed.middles:
        return closed
    a = min(closed.middles, key=VertexSet.sort_key)
    return ClosedHypergraph(closed.n, r, closed.middles - {a, a.complement()})


TRUE_CLOSE_DEGENERATE = rsplits.closure.close_degenerate
TRUE_BUILD_FAMILY = rsplits.ortho.build_family
TRUE_CROSSFREE_SIZE_BOUNDS = rsplits.ortho.crossfree_size_bounds


def close_full_dropping_wide_inputs(h: Hypergraph, r: int) -> ClosedHypergraph:
    """close_full that loses every middle of an input with three or more edges."""
    closed = TRUE_CLOSE_FULL(h, r)
    return ClosedHypergraph._from_masks(h.n, r, frozenset()) if len(h) >= 3 else closed


def close_degenerate_with_a_stray_pair(h: Hypergraph, r: int) -> ClosedHypergraph:
    """close_degenerate that adds the lowest middle outside the full closure,
    with its complement."""
    closed = TRUE_CLOSE_DEGENERATE(h, r)
    n, full, inside = h.n, (1 << h.n) - 1, TRUE_CLOSE_FULL(h, r).masks
    outside = [x for x in range(full + 1) if r < x.bit_count() < n - r and x not in inside]
    if not outside:
        return closed
    return ClosedHypergraph._from_masks(n, r, closed.masks | {outside[0], outside[0] ^ full})


def build_family_with_a_grown_edge(p) -> Hypergraph:
    """build_family with its lowest edge grown by its lowest missing vertex."""
    h = TRUE_BUILD_FAMILY(p)
    edge = min(h.masks)
    return Hypergraph._from_masks(h.n, h.masks - {edge} | {edge | (edge + 1) & ~edge})


# sub-tag -> (check, owner, routine, its broken version, seed, the line the
# check prints at its quick trial count): failure returns that FAILURE_RETURNS
# leaves unreached, each driven by a fault of its own.
SUB_TAG_RETURNS = {
    "closure-monotone": (
        "closure-operator-laws", rsplits.closure, "close_full", close_full_dropping_wide_inputs,
        99, "FAIL closure-monotone n=3 r=0 extra=1,3",
    ),
    "degenerate-below-full": (
        "closure-operator-laws", rsplits.closure, "close_degenerate",
        close_degenerate_with_a_stray_pair, 99, "FAIL degenerate-below-full n=5 r=0",
    ),
    "family-edge-size": (
        "family-laws", rsplits.ortho, "build_family", build_family_with_a_grown_edge,
        2024, "FAIL family-edge-size r=1 k=2",
    ),
    "crossfree-size-chain": (
        "family-laws", rsplits.ortho, "crossfree_size_bounds",
        lambda h, r: TRUE_CROSSFREE_SIZE_BOUNDS(h, r)._replace(chain_holds=False),
        2024, "FAIL crossfree-size-chain r=1 k=2",
    ),
}


class TestVerificationSuite:
    def test_quick_profile_passes(self):
        report = run_verification_suite(seed=99, profile="quick")
        assert report.passed

    def test_reports_are_reproducible(self):
        first = run_verification_suite(seed=4, profile="quick")
        second = run_verification_suite(seed=4, profile="quick")
        assert first.format_lines() == second.format_lines()

    def test_quick_report_text(self):
        assert run_verification_suite(seed=2024).format_lines() == QUICK_2024

    def test_broken_rank_report_text(self, monkeypatch):
        break_cut_rank(monkeypatch)
        expected = QUICK_2024.splitlines()
        for index, line in BROKEN_RANK_2024.items():
            expected[index] = line
        assert run_verification_suite(seed=2024).format_lines() == "\n".join(expected) + "\n"

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
        break_cut_rank(monkeypatch)
        result = check_submodularity(property_rng(0, "fault-injection"), 400)
        assert not result.passed
        assert result.detail    # names the counterexample triple
        assert result.tag == "cutrank-submodular"
        assert result.trials == 16

    @pytest.mark.parametrize("seed", [99, 4, 2024])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_injected_fault_fails_the_quick_suite(self, monkeypatch, fault, seed):
        module, name, broken, failing = FAULTS[fault]
        monkeypatch.setattr(module, name, broken)
        report = run_verification_suite(seed=seed, profile="quick")
        assert [res.tag for res in report.results if not res.passed] == failing

    @pytest.mark.parametrize("tag", FAILURE_RETURNS)
    def test_injected_fault_reaches_a_failure_return(self, monkeypatch, tag):
        owner, name, broken, seed, line = FAILURE_RETURNS[tag]
        monkeypatch.setattr(owner, name, broken)
        check, trials = {t: (c, quick) for t, c, quick, _ in REGISTRY}[tag]
        assert check(property_rng(seed, tag), trials).line() == line

    @pytest.mark.parametrize("sub_tag", SUB_TAG_RETURNS)
    def test_injected_fault_names_the_sub_tag(self, monkeypatch, sub_tag):
        tag, owner, name, broken, seed, line = SUB_TAG_RETURNS[sub_tag]
        monkeypatch.setattr(owner, name, broken)
        check, trials = {t: (c, quick) for t, c, quick, _ in REGISTRY}[tag]
        assert check(property_rng(seed, tag), trials).line() == line

    @pytest.mark.parametrize(
        "seed, failures",
        [
            (2024, [("cutrank-vs-bruteforce", 3), ("cutrank-symmetry", 15),
                    ("cutrank-submodular", 15), ("middle-rank-floor", 101)]),
            (99, [("cutrank-vs-bruteforce", 1), ("cutrank-symmetry", 1),
                  ("cutrank-submodular", 15), ("middle-rank-floor", 101)]),
        ],
    )
    def test_broken_rank_fails_these_properties(self, monkeypatch, seed, failures):
        # The failure path, pinned: each failing sub-tag with the trial that failed.
        break_cut_rank(monkeypatch)
        report = run_verification_suite(seed=seed, profile="quick")
        assert [(res.tag, res.trials) for res in report.results if not res.passed] == failures

    def test_k2_refusal_is_checked_after_the_trials(self, monkeypatch):
        # Every (n, r) family is tried once per call, in order, after the trials.
        module, name, broken, _ = FAULTS["normalize-k2-strict"]
        monkeypatch.setattr(module, name, broken)
        result = check_normalize_idempotent(property_rng(2024, "normalize-idempotent"), 60)
        assert result == PropertyResult("normalize-k2-refusal", 60, False, "n=3 r=0 A=1 B=2")

    def test_a_check_that_raises_is_a_fail(self, monkeypatch, capsys):
        # A close_full that drops one complement pair leaves a family that
        # normalize refuses; the suite reports that and runs every property.
        monkeypatch.setattr(rsplits.closure, "close_full", drop_one_complement_pair)
        report = run_verification_suite(seed=2024)
        assert len(report.results) == len(REGISTRY)
        assert "FAIL normalize-idempotent raised NotClosedError: K2 violated by (5, 1,2,4)" in (
            report.format_lines().splitlines()
        )
        assert cli.main(["verify", "--seed", "2024"]) == 1
        assert "FAIL normalize-idempotent raised NotClosedError" in capsys.readouterr().out

    def test_lowerbound_desk_counts_its_failing_case(self, monkeypatch):
        def verify_lower_bound(params):
            return SimpleNamespace(passed=(params.r, params.k) != (2, 3))

        monkeypatch.setattr(rsplits.ortho, "verify_lower_bound", verify_lower_bound)
        result = check_lower_bound_desk(property_rng(0, "lowerbound-desk"), 1)
        assert result == PropertyResult("lowerbound-desk", 3, False, "r=2 k=3")

    @pytest.mark.parametrize("tag, check", [(tag, check) for tag, check, *_ in REGISTRY])
    def test_one_trial_passes_under_the_registry_tag(self, tag, check):
        result = check(property_rng(0, tag), 1)
        assert result.passed
        assert result.tag == tag

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_split_pairs_match_a_full_cut_scan(self, r):
        for g in seeded_graphs(53 + r, range(1, 10), 4):
            splits = [
                mask
                for mask in range(1 << g.n)
                if brute_cut_rank(g, frozenset(VertexSet(g.n, mask).members())) <= r
            ]
            naive = [
                (x, y)
                for i, x in enumerate(splits)
                for y in splits[i:]
                if len(VertexSet(g.n, x) & VertexSet(g.n, y)) >= r
            ]
            assert _split_pairs(g, r) == naive, (r, g.edges())

    @staticmethod
    def oracle_members(closed: ClosedHypergraph) -> list[int]:
        """The masks of the oracle's expansion, in VertexSet.sort_key order."""
        expanded = (VertexSet.of(closed.n, sorted(m)) for m in explicit_members(closed))
        return [a.mask for a in sorted(expanded, key=VertexSet.sort_key)]

    def test_sorted_members_in_sort_key_order(self):
        rng = random.Random(61)
        for _ in range(80):
            n = rng.randint(1, 9)
            closed = random_closed_family(rng, n, rng.randint(0, 3))
            assert _sorted_members(closed) == self.oracle_members(closed), (n, closed.r)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", range(0, 8))
    def test_sorted_members_of_small_universes(self, n, r):
        # n = 0 and 1, and every n <= 2r + 1, where the middle zone is empty.
        closed = ClosedHypergraph(n, r, frozenset())
        members = _sorted_members(closed)
        assert members == self.oracle_members(closed)
        assert len(members) == closed.member_count()
        if n <= 2 * r + 1:
            assert members == [a.mask for a in sorted(
                (VertexSet(n, mask) for mask in range(1 << n)), key=VertexSet.sort_key)]

    def test_contains_rejecting_one_middle_fails_the_member_checks(self, monkeypatch):
        # A contains that misses the first middle of each family in canonical
        # order must surface in both checks that draw from the member list,
        # at their full-profile trial counts.
        true_contains = ClosedHypergraph.contains

        def broken(self, a):
            if self.masks and a.mask == min(self.masks, key=mask_sort_key):
                return False
            return true_contains(self, a)

        monkeypatch.setattr(ClosedHypergraph, "contains", broken)
        chain = check_chain_union(property_rng(2024, "chain-union"), 1000)
        assert chain == PropertyResult("chain-union", 259, False, "n=5 r=1 chain=['4,5']")
        halves = check_half_side_intersection(property_rng(2024, "half-side-intersection"), 1000)
        assert halves == PropertyResult(
            "half-side-intersection", 377, False, "n=9 r=1 A=3,4,6 B=3,4,6"
        )

    def test_closure_fault_reaches_essential_roundtrip(self, monkeypatch):
        # The round trip runs close_full through its module, so a broken
        # closure injected there is the one it uses.
        monkeypatch.setattr(rsplits.closure, "close_full", drop_one_complement_pair)
        report = run_verification_suite(seed=2024)
        assert "FAIL essential-roundtrip r=1 g=" in report.format_lines()


# (tag, check, quick trials, full trials) of every property, in report order.
REGISTRY_TABLE = [
    ("gf2-rank-laws", "check_gf2_rank_laws", 200, 1000),
    ("set-cardinality-identity", "check_set_cardinality_identity", 300, 1000),
    ("cutrank-vs-bruteforce", "check_cut_rank_vs_bruteforce", 80, 400),
    ("cutrank-symmetry-bound", "check_cut_rank_symmetry_and_bound", 200, 1000),
    ("cutrank-submodular", "check_submodularity", 200, 1000),
    ("split-union", "check_split_union", 200, 1000),
    ("middle-rank-floor", "check_middle_rank_floor", 200, 1000),
    ("trivial-closure-census", "check_trivial_closure_census", 1, 1),
    ("closure-vs-bruteforce", "check_closure_vs_bruteforce", 60, 500),
    ("closure-operator-laws", "check_closure_operator_laws", 60, 300),
    ("normalize-idempotent", "check_normalize_idempotent", 60, 300),
    ("closure-system-intersection", "check_closure_system_intersection", 40, 200),
    ("derived-rules", "check_derived_rules_hold", 100, 1000),
    ("chain-union", "check_chain_union", 100, 1000),
    ("half-side-intersection", "check_half_side_intersection", 100, 1000),
    ("ortho-formula-vs-definition", "check_ortho_formula_vs_definition", 150, 1000),
    ("ortho-properties", "check_ortho_properties", 300, 1000),
    ("ortho-noncrossing-r1", "check_noncrossing_r1", 300, 1000),
    ("singleton-closure", "check_singleton_closure", 150, 1000),
    ("pair-closure-union", "check_pair_closure_union", 100, 1000),
    ("crossfree-transfer", "check_crossfree_transfer", 60, 1000),
    ("essential-roundtrip", "check_essential_roundtrip", 25, 120),
    ("family-laws", "check_family_laws", 12, 40),
    ("lowerbound-desk", "check_lower_bound_desk", 1, 1),
    ("splits-vs-bruteforce", "check_split_enumeration_vs_bruteforce", 40, 200),
]


class TestRegistry:
    def test_rows_in_report_order(self):
        rows = [(tag, check.__name__, quick, full) for tag, check, quick, full in REGISTRY]
        assert rows == REGISTRY_TABLE
        report = run_verification_suite(seed=99, profile="quick")
        assert [res.tag for res in report.results] == [tag for tag, *_ in REGISTRY_TABLE]
