"""Randomized verification suite: every structural law the library relies
on, each checked against independent brute-force routes where one exists.

Each property is declared once, on the decorator that registers it with its
tag and its trial counts for the quick and full profiles; REGISTRY lists
them in definition order, which is the report order.  A check returns only
the count of trials it ran and its failure, if any; `_register` builds the
one PropertyResult from them.  All randomness flows from a single seeded
generator, so a given (seed, profile) pair produces a byte-identical report.
Engine entry points are called through their modules, which lets tests
inject broken routines and confirm that the suite catches them.  A check
that raises, as a broken engine may, is reported as a FAIL line and the
suite goes on.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, NamedTuple, Optional

from . import bitset, bruteforce, closure as closure_mod, graph as graph_mod, hypergraph
from . import ortho as ortho_mod, splits as splits_mod
from .bitset import VertexSet, mask_sort_key
from .graph import Graph
from .hypergraph import ClosedHypergraph, Hypergraph
from .limits import PROFILES
from .ortho import FamilyParams


class PropertyResult(NamedTuple):
    tag: str
    trials: int
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = self.detail or f"trials={self.trials}"
        return f"{status} {self.tag} {detail}"

    def to_dict(self) -> dict:
        return self._asdict()


class SuiteReport(NamedTuple):
    seed: int
    profile: str
    results: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(res.passed for res in self.results)

    def format_lines(self) -> str:
        return "\n".join(res.line() for res in self.results) + "\n"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "passed": self.passed,
            "results": [res.to_dict() for res in self.results],
        }


# ---------------------------------------------------------------------------
# Random instance generators


def random_vertex_set(rng: random.Random, n: int) -> VertexSet:
    return VertexSet(n, rng.getrandbits(n))


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    while True:
        g = random_graph(rng, n, rng.uniform(0.3, 0.8))
        if g.is_connected():
            return g


def random_hypergraph(
    rng: random.Random,
    n: int,
    max_edges: int = 4,
    max_size: Optional[int] = None,
) -> Hypergraph:
    count = rng.randint(0, max_edges)
    edges = []
    for _ in range(count):
        if max_size is None:
            edges.append(random_vertex_set(rng, n))
        else:
            size = rng.randint(0, min(max_size, n))
            edges.append(VertexSet.of(n, rng.sample(range(1, n + 1), size)))
    return Hypergraph(n, frozenset(edges))


def random_closed_family(rng: random.Random, n: int, r: int) -> ClosedHypergraph:
    return closure_mod.close_full(random_hypergraph(rng, n, max_edges=3, max_size=max(2, n // 2)), r)


def _rank_connected_pool(rng: random.Random, r: int) -> list[Graph]:
    """Search random connected graphs for six r-rank connected ones."""
    pool: list[Graph] = []
    attempts = 0
    while len(pool) < 6 and attempts < 4000:
        attempts += 1
        n = rng.randint(max(4, 2 * r), 8)
        g = random_connected_graph(rng, n)
        if graph_mod.is_r_rank_connected(g, r):
            pool.append(g)
    if not pool:
        # Cycles are r-rank connected for r <= 2; guarantee a non-empty pool.
        pool = [Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)]) for n in (5, 6, 7)]
    return pool


def _sorted_members(closed: ClosedHypergraph) -> list[int]:
    """The member masks in VertexSet.sort_key order: by size, then by
    ascending vertex list.  Each trivial size comes from combinations of
    the bits, which yield that order; the middles sit between."""
    n, r = closed.n, closed.r
    bits = [1 << i for i in range(n)]
    members: list[int] = []
    for size in range(n + 1):
        if size <= r or size >= n - r:
            members.extend(map(sum, itertools.combinations(bits, size)))
        elif size == r + 1:
            members.extend(sorted(closed.masks, key=mask_sort_key))
    return members


# ---------------------------------------------------------------------------
# Property checks, registered in report order; `trials` scales the work.
# A check returns the count of trials it ran and its failure: None, a detail
# under the check's own tag, or a (sub-tag, detail) pair.  Only `_register`
# builds the PropertyResult.  Seventeen checks are one trial, run `trials`
# times by `_per_trial`; eight keep loops of their own and register through
# `_register`.  A check that raises is a FAIL, reported by
# `run_verification_suite`.

Failure = str | tuple[str, str] | None
Outcome = tuple[int, Failure]
Body = Callable[[random.Random, int], Outcome]
Check = Callable[[random.Random, int], PropertyResult]
Trial = Callable[[random.Random], Failure]

# (tag, check, quick trials, full trials), in report order.
REGISTRY: list[tuple[str, Check, int, int]] = []


def _register(tag: str, quick: int, full: int) -> Callable[[Body], Check]:
    """Append a check to REGISTRY under `tag`, with its trial counts; the
    registered check reports `body`'s outcome as a PropertyResult."""

    def wrap(body: Body) -> Check:
        @functools.wraps(body)
        def check(rng: random.Random, trials: int) -> PropertyResult:
            done, failure = body(rng, trials)
            if failure is None:
                return PropertyResult(tag, done, True)
            sub_tag, detail = (tag, failure) if isinstance(failure, str) else failure
            return PropertyResult(sub_tag, done, False, detail)

        REGISTRY.append((tag, check, quick, full))
        return check

    return wrap


def _per_trial(tag: str, quick: int, full: int) -> Callable[[Trial], Check]:
    """Register a check that runs `trial` `trials` times, stopping at a failure."""

    def wrap(trial: Trial) -> Check:
        @functools.wraps(trial)
        def body(rng: random.Random, trials: int) -> Outcome:
            for t in range(trials):
                failure = trial(rng)
                if failure is not None:
                    return t + 1, failure
            return trials, None

        return _register(tag, quick, full)(body)

    return wrap


def _transpose(rows: tuple[int, ...], n_cols: int) -> tuple[int, ...]:
    """Columns of a 0/1 matrix of packed rows (column j in bit j), packed the same way."""
    return tuple(
        sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(n_cols)
    )


@_per_trial("gf2-rank-laws", 200, 1000)
def check_gf2_rank_laws(rng: random.Random) -> Failure:
    n_rows = rng.randint(0, 7)
    n_cols = rng.randint(0, 7)
    rows = tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
    rank = bitset.rank_of_rows(rows)
    if (rank == 0) != (not any(rows)):
        return "gf2-rank-zero", f"rows={rows} rank={rank}"
    if rank != bitset.rank_of_rows(_transpose(rows, n_cols)):
        return "gf2-transpose", f"rows={rows} cols={n_cols}"
    if n_rows >= 2:
        picks = rng.sample(range(n_rows), rng.randint(2, n_rows))
        extra = 0
        for i in picks:
            extra ^= rows[i]
        if bitset.rank_of_rows(rows + (extra,)) != rank:
            return "gf2-xor-append", f"rows={rows} xor of {picks}"
    shuffled = list(rows)
    rng.shuffle(shuffled)
    if bitset.rank_of_rows(shuffled) != rank:
        return "gf2-row-permutation", f"rows={rows}"


@_per_trial("set-cardinality-identity", 300, 1000)
def check_set_cardinality_identity(rng: random.Random) -> Failure:
    n = rng.randint(0, 16)
    a = random_vertex_set(rng, n)
    b = random_vertex_set(rng, n)
    if len(a | b) + len(a & b) != len(a) + len(b):
        return f"n={n} a={a} b={b}"


@_per_trial("cutrank-vs-bruteforce", 80, 400)
def check_cut_rank_vs_bruteforce(rng: random.Random) -> Failure:
    n = rng.randint(1, 9)
    g = random_graph(rng, n)
    x = random_vertex_set(rng, n)
    fast = graph_mod.cut_rank(g, x)
    slow = bruteforce.brute_cut_rank(g, frozenset(x.members()))
    if fast != slow:
        return f"g={g.edges()} X={x}: {fast} vs {slow}"


@_per_trial("cutrank-symmetry-bound", 200, 1000)
def check_cut_rank_symmetry_and_bound(rng: random.Random) -> Failure:
    n = rng.randint(1, 10)
    g = random_graph(rng, n)
    x = random_vertex_set(rng, n)
    rank = graph_mod.cut_rank(g, x)
    if rank != graph_mod.cut_rank(g, x.complement()):
        return "cutrank-symmetry", f"g={g.edges()} X={x}"
    if rank > min(len(x), n - len(x)):
        return "cutrank-bound", f"g={g.edges()} X={x} rank={rank}"


@_per_trial("cutrank-submodular", 200, 1000)
def check_submodularity(rng: random.Random) -> Failure:
    n = rng.randint(1, 9)
    g = random_graph(rng, n)
    x = random_vertex_set(rng, n)
    y = random_vertex_set(rng, n)
    lhs = graph_mod.cut_rank(g, x | y) + graph_mod.cut_rank(g, x & y)
    rhs = graph_mod.cut_rank(g, x) + graph_mod.cut_rank(g, y)
    if lhs > rhs:
        return f"g={g.edges()} X={x} Y={y}: {lhs} > {rhs}"


def _split_pairs(g: Graph, r: int) -> list[tuple[int, int]]:
    """Mask pairs (X, Y) of r-splits of g (n >= 1), X <= Y, with |X & Y| >= r."""
    full = (1 << g.n) - 1
    sides = [mask for mask, _ in graph_mod.low_rank_cuts(g, r)]
    splits = sorted(sides + [m ^ full for m in sides])
    return [(x, y) for i, x in enumerate(splits) for y in splits[i:] if (x & y).bit_count() >= r]


@_register("split-union", 200, 1000)
def check_split_union(rng: random.Random, trials: int) -> Outcome:
    done = 0
    for r in (1, 2):
        pool = _rank_connected_pool(rng, r)
        candidates = [(g, _split_pairs(g, r)) for g in pool]
        candidates = [(g, pairs) for g, pairs in candidates if pairs]
        per_r = trials - done if r == 2 else trials // 2
        for _ in range(per_r):
            g, pairs = candidates[rng.randrange(len(candidates))]
            x, y = pairs[rng.randrange(len(pairs))]
            if not graph_mod.is_r_split(g, VertexSet(g.n, x | y), r):
                x, y = VertexSet(g.n, x), VertexSet(g.n, y)
                return done + 1, f"r={r} g={g.edges()} X={x} Y={y}"
            done += 1
    return done, None


@_register("middle-rank-floor", 200, 1000)
def check_middle_rank_floor(rng: random.Random, trials: int) -> Outcome:
    done = 0
    for r in (1, 2):
        pool = _rank_connected_pool(rng, r)
        per_r = trials - done if r == 2 else trials // 2
        for _ in range(per_r):
            g = pool[rng.randrange(len(pool))]
            x = random_vertex_set(rng, g.n)
            if r <= len(x) <= g.n - r and graph_mod.cut_rank(g, x) < r:
                return done + 1, f"r={r} g={g.edges()} X={x}"
            done += 1
    return done, None


@_register("trivial-closure-census", 1, 1)
def check_trivial_closure_census(rng: random.Random, trials: int) -> Outcome:
    combos = 0
    for n in range(0, 13):
        sets = [VertexSet(n, mask) for mask in range(1 << n)]
        for r in range(0, 4):
            empty = ClosedHypergraph(n, r, frozenset())
            count = sum(map(empty.contains, sets))
            if count != hypergraph.trivial_closure_size(n, r):
                return combos + 1, f"n={n} r={r}"
            if n > 2 * r and count != 2 * sum(math.comb(n, i) for i in range(r + 1)):
                return combos + 1, f"n={n} r={r} formula"
            combos += 1
    return combos, None


@_per_trial("closure-vs-bruteforce", 60, 500)
def check_closure_vs_bruteforce(rng: random.Random) -> Failure:
    r = rng.randint(1, 3)
    n = rng.randint(3, 9)
    h = random_hypergraph(rng, n, max_edges=4)
    full = closure_mod.close_full(h, r)
    if bruteforce.explicit_members(full) != bruteforce.brute_closure(h, r, use_rule_k2=True):
        return f"n={n} r={r} edges={[str(e) for e in h]}"
    degenerate = closure_mod.close_degenerate(h, r)
    if bruteforce.explicit_members(degenerate) != bruteforce.brute_closure(h, r, use_rule_k2=False):
        return "degenerate-vs-bruteforce", f"n={n} r={r} edges={[str(e) for e in h]}"


@_per_trial("closure-operator-laws", 60, 300)
def check_closure_operator_laws(rng: random.Random) -> Failure:
    r = rng.randint(0, 3)
    n = rng.randint(2, 9)
    h = random_hypergraph(rng, n, max_edges=3)
    closed = closure_mod.close_full(h, r)
    if not all(closed.contains(edge) for edge in h.edges):
        return "closure-extensive", f"n={n} r={r}"
    extra = random_vertex_set(rng, n)
    wider = Hypergraph(n, h.edges | {extra})
    wider_closed = closure_mod.close_full(wider, r)
    if not closed.masks <= wider_closed.masks:
        return "closure-monotone", f"n={n} r={r} extra={extra}"
    again = closure_mod.close_full(closed.materialize(), r)
    if not hypergraph.equals(again, closed):
        return "closure-idempotent", f"n={n} r={r}"
    degenerate = closure_mod.close_degenerate(h, r)
    if not degenerate.masks <= closed.masks:
        return "degenerate-below-full", f"n={n} r={r}"


@functools.cache
def _k2_refusal_cases() -> tuple[tuple[int, Hypergraph, str], ...]:
    """(r, family, detail) for each n <= 9 and r <= 3 with n > 2r + 2, built once:
    A = {1..r+1} and B = {2..r+2} meet in exactly r vertices and their union
    is a middle, so their K0/K1 closure, the family, breaks K2."""
    cases = []
    for r in range(4):
        a, b = (1 << r + 1) - 1, (1 << r + 2) - 2
        for n in range(2 * r + 3, 10):
            pair = frozenset({a, b, a ^ (1 << n) - 1, b ^ (1 << n) - 1})
            detail = f"n={n} r={r} A={VertexSet(n, a)} B={VertexSet(n, b)}"
            cases.append((r, ClosedHypergraph._from_masks(n, r, pair).materialize(), detail))
    return tuple(cases)


@_register("normalize-idempotent", 60, 300)
def check_normalize_idempotent(rng: random.Random, trials: int) -> Outcome:
    for t in range(trials):
        r = rng.randint(0, 3)
        n = rng.randint(2, 9)
        closed = random_closed_family(rng, n, r)
        if not hypergraph.equals(hypergraph.normalize(closed.materialize(), r), closed):
            return t + 1, f"n={n} r={r}"
        if not all(closed.contains(a) == closed.contains(a.complement()) for a in closed.middles):
            return t + 1, ("contains-complement", f"n={n} r={r}")
    for r, unclosed, detail in _k2_refusal_cases():
        try:
            hypergraph.normalize(unclosed, r)
        except hypergraph.NotClosedError:
            continue
        return trials, ("normalize-k2-refusal", detail)
    return trials, None


@_per_trial("closure-system-intersection", 40, 200)
def check_closure_system_intersection(rng: random.Random) -> Failure:
    r = rng.randint(0, 2)
    n = rng.randint(3, 8)
    h1 = random_closed_family(rng, n, r)
    h2 = random_closed_family(rng, n, r)
    meet = ClosedHypergraph(n, r, h1.middles & h2.middles)
    try:
        hypergraph.normalize(meet.materialize(), r)
    except ValueError as exc:
        return f"n={n} r={r}: {exc}"


# A = {1..5} and B = {3..6} over n = 8 at r = 2: exactly r vertices lie
# outside A | B, and the middle A & B = {3,4,5} is missing from the K0/K1
# closure of A and B, so it breaks P1 once and P2 twice.
DERIVED_RULES_REFUSAL = [
    "P2 violated by (6,7,8, 3,4,5,6): 3,4,5 missing",
    "P2 violated by (1,2,7,8, 1,2,3,4,5): 3,4,5 missing",
    "P1 violated by (3,4,5,6, 1,2,3,4,5): 3,4,5 missing",
]


@_register("derived-rules", 100, 1000)
def check_derived_rules_hold(rng: random.Random, trials: int) -> Outcome:
    for t in range(trials):
        r = rng.randint(1, 3)
        n = rng.randint(3, 9)
        closed = random_closed_family(rng, n, r)
        violations = closure_mod.check_derived_rules(closed)
        if violations:
            return t + 1, f"n={n} r={r}: {violations[0]}"
    a, b = VertexSet.of(8, range(1, 6)), VertexSet.of(8, range(3, 7))
    unclosed = ClosedHypergraph(8, 2, frozenset({a, b, a.complement(), b.complement()}))
    violations = closure_mod.check_derived_rules(unclosed)
    if violations != DERIVED_RULES_REFUSAL:
        return trials, ("derived-rules-refusal", f"A={a} B={b}: {violations}")
    return trials, None


@_per_trial("chain-union", 100, 1000)
def check_chain_union(rng: random.Random) -> Failure:
    r = rng.randint(1, 3)
    n = rng.randint(3, 9)
    closed = random_closed_family(rng, n, r)
    members = _sorted_members(closed)
    chain = [members[rng.randrange(len(members))]]
    for _ in range(rng.randint(0, 3)):
        last = chain[-1]
        linked = [m for m in members if (m & last).bit_count() >= r]
        if not linked:
            break
        chain.append(linked[rng.randrange(len(linked))])
    union = 0
    for a in chain:
        union |= a
    if not closed.contains(VertexSet(n, union)):
        return f"n={n} r={r} chain={[str(VertexSet(n, c)) for c in chain]}"


@_per_trial("half-side-intersection", 100, 1000)
def check_half_side_intersection(rng: random.Random) -> Failure:
    r = rng.randint(1, 3)
    n = rng.randint(3, 9)
    closed = random_closed_family(rng, n, r)
    halves = [m for m in _sorted_members(closed) if 2 * m.bit_count() <= n]
    a = halves[rng.randrange(len(halves))]
    b = halves[rng.randrange(len(halves))]
    if not closed.contains(VertexSet(n, a & b)):
        return f"n={n} r={r} A={VertexSet(n, a)} B={VertexSet(n, b)}"


def _random_pair(rng: random.Random, n: int) -> tuple[VertexSet, VertexSet]:
    """A pair biased toward subset/disjoint/complement shapes, so properties
    whose antecedent is orthogonality get exercised often."""
    a = random_vertex_set(rng, n)
    noise = rng.getrandbits(n)
    style = rng.randrange(4)
    if style == 0:
        b = VertexSet(n, noise)
    elif style == 1:
        b = VertexSet(n, a.mask & noise)
    elif style == 2:
        b = VertexSet(n, noise & ~a.mask & ((1 << n) - 1))
    else:
        b = a.complement()
    return a, b


@_per_trial("ortho-formula-vs-definition", 150, 1000)
def check_ortho_formula_vs_definition(rng: random.Random) -> Failure:
    n = rng.randint(1, 8)
    r = rng.randint(0, 3)
    a, b = _random_pair(rng, n)
    via_formula = ortho_mod.is_orthogonal(a, b, r)
    via_definition = ortho_mod.is_orthogonal_oracle(a, b, r)
    if via_formula != via_definition:
        return f"n={n} r={r} A={a} B={b}: formula={via_formula}"


@_per_trial("ortho-properties", 300, 1000)
def check_ortho_properties(rng: random.Random) -> Failure:
    n = rng.randint(1, 10)
    r = rng.randint(0, 3)
    a, b = _random_pair(rng, n)
    small = VertexSet.of(n, rng.sample(range(1, n + 1), min(rng.randint(0, r), n)))
    if not ortho_mod.is_orthogonal(small, b, r):
        return "ortho-prop-small", f"n={n} r={r} A={small} B={b}"
    if not ortho_mod.is_orthogonal(a, a, r):
        return "ortho-prop-self", f"n={n} r={r} A={a}"
    if not ortho_mod.is_orthogonal(a, a.complement(), r):
        return "ortho-prop-complement", f"n={n} r={r} A={a}"
    ab = ortho_mod.is_orthogonal(a, b, r)
    if ab != ortho_mod.is_orthogonal(b, a, r):
        return "ortho-prop-symmetry", f"n={n} r={r} A={a} B={b}"
    if ab and not ortho_mod.is_orthogonal(a, b.complement(), r):
        return "ortho-prop-flip-b", f"n={n} r={r} A={a} B={b}"
    if ab:
        for a2 in (a, a.complement()):
            for b2 in (b, b.complement()):
                if not ortho_mod.is_orthogonal(a2, b2, r):
                    return "ortho-prop-flip-both", f"n={n} r={r} A={a2} B={b2}"
    if ab and not ortho_mod.is_orthogonal(a, b, r + 1):
        return "ortho-prop-monotone", f"n={n} r={r} A={a} B={b}"


@_per_trial("ortho-noncrossing-r1", 300, 1000)
def check_noncrossing_r1(rng: random.Random) -> Failure:
    n = rng.choice((5, 6, 7))
    a = random_vertex_set(rng, n)
    b = random_vertex_set(rng, n)
    classic = (
        a.issubset(b)
        or b.issubset(a)
        or (a & b).mask == 0
        or (a | b).mask == (1 << n) - 1
    )
    if ortho_mod.is_orthogonal(a, b, 1) != classic:
        return f"n={n} A={a} B={b}"


@_per_trial("singleton-closure", 150, 1000)
def check_singleton_closure(rng: random.Random) -> Failure:
    n = rng.randint(1, 9)
    r = rng.randint(0, 3)
    a = random_vertex_set(rng, n)
    closed = closure_mod.close_full(Hypergraph(n, frozenset({a})), r)
    if not closed.masks <= {a.mask, a.complement().mask}:
        return f"n={n} r={r} A={a} middles={len(closed.masks)}"


@_per_trial("pair-closure-union", 100, 1000)
def check_pair_closure_union(rng: random.Random) -> Failure:
    n = rng.randint(2, 8)
    r = rng.randint(0, 3)
    a, b = _random_pair(rng, n)
    joint = closure_mod.close_full(Hypergraph(n, frozenset({a, b})), r)
    solo_union = (
        closure_mod.close_full(Hypergraph(n, frozenset({a})), r).masks
        | closure_mod.close_full(Hypergraph(n, frozenset({b})), r).masks
    )
    union_equality = joint.masks == solo_union
    if union_equality != ortho_mod.is_orthogonal(a, b, r):
        return f"n={n} r={r} A={a} B={b}"


@_per_trial("crossfree-transfer", 60, 1000)
def check_crossfree_transfer(rng: random.Random) -> Failure:
    n = rng.randint(3, 6)
    r = rng.randint(1, 2)
    h = random_hypergraph(rng, n, max_edges=3)
    before = ortho_mod.is_cross_free(h, r)
    after = ortho_mod.is_cross_free(closure_mod.close_full(h, r).materialize(), r)
    if before != after:
        return f"n={n} r={r} edges={[str(e) for e in h]}: {before} vs {after}"


@_register("essential-roundtrip", 25, 120)
def check_essential_roundtrip(rng: random.Random, trials: int) -> Outcome:
    done = 0
    while done < trials:
        n = rng.randint(4, 9)
        g = random_connected_graph(rng, n)
        for r in (1, 2):
            try:
                report = splits_mod.verify_representation(g, r)
            except splits_mod.NotRankConnectedError:
                if r == 1:  # every connected graph is 1-rank connected
                    return done + 1, f"r=1 g={g.edges()}: connected but refused"
                continue
            done += 1
            if not report.passed:
                return done, f"r={r} g={g.edges()}"
            if report.essential_bound != math.comb(n, r + 1):
                return done, ("essential-bound", f"r={r} n={n} bound={report.essential_bound}")
            if done >= trials:
                break
    return done, None


@_register("family-laws", 12, 40)
def check_family_laws(rng: random.Random, trials: int) -> Outcome:
    cases = list(itertools.product((1, 2, 3), (2, 3, 4, 5)))
    for case, (r, k) in enumerate(cases, 1):
        family = ortho_mod.build_family(FamilyParams(r, k))
        if len(family) != k**r:
            return case, ("family-count", f"r={r} k={k}")
        edges = family.sorted_edges()
        if any(len(e) != r + 1 for e in edges):
            return case, ("family-edge-size", f"r={r} k={k}")
        for e in edges:
            colors, values = zip(*(divmod(v - 1, k) for v in e.members()))
            if colors != tuple(range(r + 1)) or sum(values) % k:
                return case, ("family-definition", f"r={r} k={k} edge={e}")
        for _ in range(min(trials, 40)):
            a = edges[rng.randrange(len(edges))]
            b = edges[rng.randrange(len(edges))]
            if a != b and len(a & b) >= r:
                return case, ("family-intersection-sharpness", f"r={r} k={k} A={a} B={b}")
        try:
            bounds = ortho_mod.crossfree_size_bounds(family, r)
        except ortho_mod.NotCrossFreeError:
            return case, ("family-crossfree", f"r={r} k={k}")
        if not bounds.passed:
            return case, ("crossfree-size-chain", f"r={r} k={k}")
        if bounds.closure_cap != 2 * (r + 1) * family.n**r + 2 * len(family):
            return case, ("closure-cap", f"r={r} k={k} cap={bounds.closure_cap}")
    return len(cases), None


@_register("lowerbound-desk", 1, 1)
def check_lower_bound_desk(rng: random.Random, trials: int) -> Outcome:
    cases = ((1, 2), (1, 4), (2, 3))
    for case, (r, k) in enumerate(cases, 1):
        if not ortho_mod.verify_lower_bound(FamilyParams(r, k)).passed:
            return case, f"r={r} k={k}"
    return len(cases), None


@_per_trial("splits-vs-bruteforce", 40, 200)
def check_split_enumeration_vs_bruteforce(rng: random.Random) -> Failure:
    n = rng.randint(1, 8)
    r = rng.randint(0, 3)
    g = random_graph(rng, n)
    fast = bruteforce.explicit_members(splits_mod.enumerate_r_splits(g, r))
    slow = bruteforce.brute_splits(g, r)
    if fast != slow:
        return f"n={n} r={r} g={g.edges()}"


# ---------------------------------------------------------------------------
# Runner


def run_verification_suite(seed: int = 2024, profile: str = "quick") -> SuiteReport:
    """Run every registered property with reproducible randomness."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    results = []
    for tag, check, quick_trials, full_trials in REGISTRY:
        trials = quick_trials if profile == "quick" else full_trials
        try:
            results.append(check(property_rng(seed, tag), trials))
        except Exception as exc:
            results.append(PropertyResult(tag, 0, False, f"raised {type(exc).__name__}: {exc}"))
    return SuiteReport(seed=seed, profile=profile, results=tuple(results))


def property_rng(seed: int, tag: str) -> random.Random:
    # str seeds go through sha512, stable across processes; tuple seeds do not.
    return random.Random(f"{seed}:{tag}")
