"""Closure of a family under the rules K0 (small sets), K1 (complements),
and K2 (unions of members meeting in >= r vertices).

Only middle hyperedges need tracking: a member of size <= r forces its
union partner to absorb it, and a union reaching size >= n-r lands in the
implicit trivial part.  The fixpoint runs on the bit masks of the middles.
"""

from __future__ import annotations

from itertools import islice

from .bitset import VertexSet
from .hypergraph import ClosedHypergraph, Hypergraph, closed_from_masks, middles_and_complements


def close_full(h: Hypergraph, r: int) -> ClosedHypergraph:
    """Least r-closed family containing h, in canonical form.

    Worklist fixpoint over an append-only list of middles: each middle is
    paired with every middle listed before it; unions that stay in the
    middle zone are appended together with their complements.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    n = h.n
    full = (1 << n) - 1
    order = middles_and_complements(n, r, (edge.mask for edge in h.edges))
    seen = set(order)
    for i, a in enumerate(order):
        for b in islice(order, i):
            if (a & b).bit_count() >= r:
                union = a | b
                if union not in seen and union.bit_count() < n - r:
                    co_union = union ^ full
                    seen.add(union)
                    seen.add(co_union)
                    order.append(union)
                    order.append(co_union)
    return ClosedHypergraph._from_masks(n, r, frozenset(order))


def close_degenerate(h: Hypergraph, r: int) -> ClosedHypergraph:
    """Least family containing h that is closed under K0 and K1 only."""
    return closed_from_masks(h.n, r, (edge.mask for edge in h.edges))


def check_derived_rules(h: ClosedHypergraph) -> list[str]:
    """Violations of the derived rules P1 and P2 over middle pairs.

    P0 (all sets of size >= n-r are members) holds by representation.  An
    empty list certifies that intersections with small joint complement
    (P1) and asymmetric differences with a large opposite side (P2) are
    all members.
    """
    n, r = h.n, h.r
    middles = [(a, a.mask) for a in h.sorted_middles()]

    def missing(x: int) -> bool:
        size = x.bit_count()
        return r < size < n - r and x not in h.masks

    violations = []
    for i, (sa, a) in enumerate(middles):
        for sb, b in islice(middles, i + 1, None):
            if n - (a | b).bit_count() >= r and missing(a & b):
                violations.append(f"P1 violated by ({sa}, {sb}): {VertexSet(n, a & b)} missing")
            if (a & ~b).bit_count() >= r and missing(b & ~a):
                violations.append(f"P2 violated by ({sa}, {sb}): {VertexSet(n, b & ~a)} missing")
            if (b & ~a).bit_count() >= r and missing(a & ~b):
                violations.append(f"P2 violated by ({sb}, {sa}): {VertexSet(n, a & ~b)} missing")
    return violations
