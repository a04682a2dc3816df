"""The family of r-splits of a graph and its polynomial representation.

For an r-rank connected graph the r-splits form an r-closed family, and
the whole family is recoverable from at most C(n, r+1) of its members:
map each (r+1)-set of vertices to the inclusion-minimum member of size
at most n/2 containing it, when one exists, and close the image.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import closure, graph, hypergraph, limits
from .bitset import VertexSet, _check_rank, _check_same_universe, format_mask, mask_sort_key
from .graph import Graph
from .hypergraph import ClosedHypergraph, Hypergraph, NotClosedError


class NotRankConnectedError(ValueError):
    """The graph is not r-rank connected, a hypothesis the computation needs."""
    exit_code = 1


def enumerate_r_splits(g: Graph, r: int) -> ClosedHypergraph:
    """All r-splits of g as a canonical closed family.

    Sets of size <= r or >= n-r are r-splits of every graph and stay
    implicit; only middles are searched for (see low_rank_cuts).
    """
    _check_rank(r)
    limits.check_cap(g.n, limits.exhaustive_cap(), "split enumeration")
    sides = [mask for mask, _ in graph.low_rank_cuts(g, r, range(r + 1, g.n - r))]
    return closure.close_degenerate(Hypergraph._from_masks(g.n, frozenset(sides)), r)


def rank_connected_splits(g: Graph, r: int) -> ClosedHypergraph:
    """enumerate_r_splits(g, r) for an r-rank connected g; NotRankConnectedError
    otherwise, as decided by graph.is_r_rank_connected."""
    if not graph.is_r_rank_connected(g, r):
        raise NotRankConnectedError(f"graph is not {r}-rank connected")
    return enumerate_r_splits(g, r)


def phi(h: ClosedHypergraph, x: VertexSet) -> Optional[VertexSet]:
    """Inclusion-minimum member of size <= n/2 containing x, or None.

    x must have exactly r+1 vertices.  Candidates are necessarily middles:
    anything implicit is either too small to contain x or too large to
    satisfy 2|A| <= n.  The minimum is realized as the intersection of all
    candidates, which must itself be a candidate when h is truly closed.
    """
    _check_same_universe(x.n, h.n)
    if len(x) != h.r + 1:
        raise ValueError(f"phi takes a set of exactly {h.r + 1} vertices, got {len(x)}")
    meet = h._half_size_meets.get(x.mask)
    if meet is None:
        return None
    if meet not in h.masks:
        raise NotClosedError(f"input not r-closed: intersection {format_mask(meet)} "
                             f"of the members covering {x} is not a member")
    return VertexSet(h.n, meet)


def essential_representation(h: ClosedHypergraph) -> Hypergraph:
    """The deduplicated image of phi over all (r+1)-subsets of {1..n}.  Only the
    sets in phi's index have an image; they are visited in lexicographic order."""
    covered = sorted(h._half_size_meets, key=mask_sort_key)
    return Hypergraph(h.n, frozenset(phi(h, VertexSet(h.n, x)) for x in covered))


class RoundTripReport(NamedTuple):
    """Outcome of reconstructing a graph's r-split family from its essential part."""

    n: int
    r: int
    middle_count: int
    essential_count: int
    essential_bound: int
    closure_matches: bool

    @property
    def passed(self) -> bool:
        return self.closure_matches and self.essential_count <= self.essential_bound

    def to_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


def verify_representation(g: Graph, r: int) -> RoundTripReport:
    """Check that the essential members regenerate the full r-split family.

    Requires g to be r-rank connected (NotRankConnectedError otherwise);
    without that hypothesis the split family need not be closed and the
    reconstruction is not defined.
    """
    family = rank_connected_splits(g, r)
    essential = essential_representation(family)
    rebuilt = closure.close_full(essential, r)
    return RoundTripReport(
        n=g.n,
        r=r,
        middle_count=len(family.masks),
        essential_count=len(essential),
        essential_bound=math.comb(g.n, r + 1),
        closure_matches=hypergraph.equals(rebuilt, family),
    )
