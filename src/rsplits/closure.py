"""Closure of a family under the rules K0 (small sets), K1 (complements),
and K2 (unions of members meeting in >= r vertices).

Only middle hyperedges need tracking: a member of size <= r forces its
union partner to absorb it, and a union reaching size >= n-r lands in the
implicit trivial part.  The fixpoint runs on the bit masks of the middles.
"""

from __future__ import annotations

from itertools import islice

from .bitset import VertexSet, _check_rank, mask_sort_key
from .hypergraph import ClosedHypergraph, Hypergraph, middles_and_complements


def close_full(h: Hypergraph, r: int) -> ClosedHypergraph:
    """Least r-closed family containing h, in canonical form.

    Worklist fixpoint over an append-only list of middles: each middle is
    paired with every middle listed before it; unions that stay in the
    middle zone are appended together with their complements.
    """
    _check_rank(r)
    n = h.n
    full = (1 << n) - 1
    order = middles_and_complements(n, r, h.masks)
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
    return ClosedHypergraph._from_masks(h.n, r, frozenset(middles_and_complements(h.n, r, h.masks)))


def check_derived_rules(h: ClosedHypergraph) -> list[str]:
    """Violations of the derived rules P1 and P2 over middle pairs.

    P0 (all sets of size >= n-r are members) holds by representation.  An
    empty list certifies that intersections with small joint complement
    (P1) and asymmetric differences with a large opposite side (P2) are
    all members.
    """
    n, r = h.n, h.r
    order = sorted(h.masks, key=mask_sort_key)

    def missing(x: int) -> bool:
        size = x.bit_count()
        return r < size < n - r and x not in h.masks

    violations = []  # (rule, A, B, the missing set) as masks
    for i, a in enumerate(order):
        for b in islice(order, i + 1, None):
            if n - (a | b).bit_count() >= r and missing(a & b):
                violations.append(("P1", a, b, a & b))
            if (a & ~b).bit_count() >= r and missing(b & ~a):
                violations.append(("P2", a, b, b & ~a))
            if (b & ~a).bit_count() >= r and missing(a & ~b):
                violations.append(("P2", b, a, a & ~b))
    return [f"{rule} violated by ({VertexSet(n, a)}, {VertexSet(n, b)}): {VertexSet(n, x)} missing"
            for rule, a, b, x in violations]
