"""r-orthogonality of vertex sets and r-cross-free families.

Two sets are r-orthogonal when closing the pair under the union rule K2
adds nothing beyond complements and trivially small sets; a family all of
whose pairs are orthogonal is r-cross-free.  Such families close by
complementation alone, which bounds their size and yields an explicit
family needing about n^r members in any generating set.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from . import closure, hypergraph, limits, splits
from .bitset import (
    Frozen, VertexSet, _check_rank, _check_same_universe, _check_universe, _setattr, mask_sort_key,
)
from .hypergraph import ClosedHypergraph, Hypergraph


def _orthogonal_sizes(n: int, size_a: int, size_b: int, inter: int, r: int) -> bool:
    """The criterion of is_orthogonal on the sizes |A|, |B| and |A & B| of two
    sets over {1..n}."""
    outside = n - size_a - size_b + inter
    a_minus_b = size_a - inter
    b_minus_a = size_b - inter
    conjunct_1 = (inter < r or a_minus_b == 0 or b_minus_a == 0 or outside < r
                  or (inter == r and outside == r))
    conjunct_2 = (a_minus_b < r or inter == 0 or outside == 0 or b_minus_a < r
                  or (a_minus_b == r and b_minus_a == r))
    return conjunct_1 and conjunct_2


def is_orthogonal(a: VertexSet, b: VertexSet, r: int) -> bool:
    """Orthogonality by the closed-form criterion: two conjuncts, each a
    five-way alternative over intersection, containment, complement-union
    and difference cardinalities."""
    _check_same_universe(a.n, b.n)
    _check_rank(r)
    x, y = a.mask, b.mask
    return _orthogonal_sizes(a.n, x.bit_count(), y.bit_count(), (x & y).bit_count(), r)


def is_orthogonal_oracle(a: VertexSet, b: VertexSet, r: int) -> bool:
    """Orthogonality by its definition: the pair closure with the union
    rule equals the pair closure without it.  The closure never leaves the
    16 sets that a and b generate, so its work does not grow with n."""
    _check_same_universe(a.n, b.n)
    pair = Hypergraph(a.n, frozenset({a, b}))
    return hypergraph.equals(closure.close_full(pair, r), closure.close_degenerate(pair, r))


def find_crossing_pair(h: Hypergraph, r: int) -> Optional[tuple[VertexSet, VertexSet]]:
    """First non-orthogonal pair in canonical order, or None.  A set of size
    <= r or >= n - r is orthogonal to every set, and every set to itself, so
    only distinct middles are paired."""
    _check_rank(r)
    n = h.n
    sized = [(x, size) for x in sorted(h.masks, key=mask_sort_key)
             if r < (size := x.bit_count()) < n - r]
    for i, (a, size_a) in enumerate(sized):
        for b, size_b in itertools.islice(sized, i + 1, None):
            if not _orthogonal_sizes(n, size_a, size_b, (a & b).bit_count(), r):
                return (VertexSet(n, a), VertexSet(n, b))
    return None


def is_cross_free(h: Hypergraph, r: int) -> bool:
    """True when every pair of edges is r-orthogonal."""
    return find_crossing_pair(h, r) is None


class NotCrossFreeError(ValueError):
    """The family is not r-cross-free, a hypothesis the computation needs."""
    exit_code = 1


def cross_free_closure(h: Hypergraph, r: int) -> ClosedHypergraph:
    """Closure of a cross-free family, built directly: K2 adds nothing to
    such a family, so its closure is its degenerate closure.  Raises
    NotCrossFreeError naming the first crossing pair."""
    crossing = find_crossing_pair(h, r)
    if crossing is not None:
        a, b = crossing
        raise NotCrossFreeError(f"input is not {r}-cross-free: {a} and {b} cross")
    return closure.close_degenerate(h, r)


class CrossFreeBoundsReport(NamedTuple):
    """Size accounting for a cross-free family and its closure."""

    n: int
    r: int
    edge_count: int
    middle_edges: int            # |H \ trivial closure|
    closure_middles: int         # |cl H \ trivial closure|
    closure_total: int           # |cl H|, implicit part counted exactly
    closure_cap: int             # 2(r+1)n^r + 2|H|
    chain_holds: bool            # middle_edges <= closure_middles <= 2 * middle_edges
    cap_holds: bool              # closure_total <= closure_cap

    @property
    def passed(self) -> bool:
        return self.chain_holds and self.cap_holds

    def to_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


# The least int that str() refuses to print under Python's default limit.
_UNPRINTABLE = 10**limits.MAX_PRINTED_DIGITS


def crossfree_size_bounds(h: Hypergraph, r: int) -> CrossFreeBoundsReport:
    """Check both size laws for a cross-free family with exact arithmetic."""
    closed = cross_free_closure(h, r)
    middle_edges = sum(1 for x in h.masks if r < x.bit_count() < h.n - r)
    closure_middles = len(closed.masks)
    closure_total = closed.member_count()
    # n^r >= 2^(r (n.bit_length() - 1)) > 10^digits here, so it is never built.
    too_long = r * (h.n.bit_length() - 1) > 4 * limits.MAX_PRINTED_DIGITS
    closure_cap = _UNPRINTABLE if too_long else 2 * (r + 1) * h.n**r + 2 * len(h.masks)
    if closure_cap >= _UNPRINTABLE:
        raise limits.TooLargeError(f"closure cap 2(r+1)n^r + 2|H| for n={h.n}, r={r} has "
                                   f"more than {limits.MAX_PRINTED_DIGITS} digits (print limit)")
    return CrossFreeBoundsReport(
        n=h.n,
        r=r,
        edge_count=len(h.masks),
        middle_edges=middle_edges,
        closure_middles=closure_middles,
        closure_total=closure_total,
        closure_cap=closure_cap,
        chain_holds=middle_edges <= closure_middles <= 2 * middle_edges,
        cap_holds=closure_total <= closure_cap,
    )


class FamilyParams(Frozen):
    """Parameters of the colored lower-bound family over n = k(r+1) vertices.

    Vertices carry a value v in 0..k-1 and a color c in 1..r+1, laid out as
    id(v, c) = (c-1)*k + v + 1, so color c occupies the contiguous label
    block (c-1)*k+1 .. c*k.
    """

    __slots__ = _fields = ("r", "k")
    r: int
    k: int

    def __init__(self, r: int, k: int) -> None:
        if r < 1:
            raise ValueError("r must be >= 1")
        if k < 2:
            raise ValueError("k must be >= 2")
        _setattr(self, "r", r)
        _setattr(self, "k", k)

    @property
    def n(self) -> int:
        return self.k * (self.r + 1)


def build_family(p: FamilyParams) -> Hypergraph:
    """All sets with one vertex per color whose values sum to 0 mod k.

    The first r values are free and determine the last, so the family has
    exactly k^r edges, each of size r+1.  Refuses (TooLargeError) before
    building anything when k^r exceeds limits.MAX_EXPLICIT_FAMILY.
    """
    _check_universe(p.n)
    count = p.k**p.r
    if count > limits.MAX_EXPLICIT_FAMILY:
        raise limits.TooLargeError(
            f"family for r={p.r}, k={p.k} would have k^r = {count} edges "
            f"(limit {limits.MAX_EXPLICIT_FAMILY})"
        )
    edges = frozenset(
        VertexSet.of(p.n, ((c - 1) * p.k + v + 1 for c, v in enumerate((*free, -sum(free) % p.k), 1)))
        for free in itertools.product(range(p.k), repeat=p.r)
    )
    return Hypergraph(p.n, edges)


class LowerBoundReport(NamedTuple):
    """Desk-scale witness that generating families cannot be much smaller
    than the cross-free family they close to."""

    r: int
    k: int
    n: int
    family_size: int
    closure_middles: int
    essential_count: int
    closure_matches: bool
    inequality_holds: bool       # 2 * essential_count >= family_size

    @property
    def passed(self) -> bool:
        return self.closure_matches and self.inequality_holds

    def to_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


def verify_lower_bound(p: FamilyParams) -> LowerBoundReport:
    """Build the colored family, close it, extract the essential members,
    and check that twice their number covers the family size."""
    limits.check_cap(p.n, limits.exhaustive_cap(), "lower-bound pipeline")
    family = build_family(p)
    closed = cross_free_closure(family, p.r)
    essential = splits.essential_representation(closed)
    rebuilt = closure.close_full(essential, p.r)
    return LowerBoundReport(
        r=p.r,
        k=p.k,
        n=p.n,
        family_size=len(family),
        closure_middles=len(closed.masks),
        essential_count=len(essential),
        closure_matches=hypergraph.equals(rebuilt, closed),
        inequality_holds=2 * len(essential) >= len(family),
    )
