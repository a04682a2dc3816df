"""Brute-force reference implementations, kept deliberately naive.

Naive here means literal: everything works on explicit Python sets of
frozensets (vertex labels, not bit masks) and dense 0/1 row lists, shares
no code with the packed-int engines it cross-checks, and applies each rule
as written over all 2^n subsets, trivial ones included, with no middle-zone
filter.  Speed is a non-goal; the one saving taken is that the closure
never retries a pair (see `brute_closure`).
"""

from __future__ import annotations

import itertools

from . import limits
from .bitset import VertexSet
from .graph import Graph
from .hypergraph import Hypergraph


def brute_closure(h: Hypergraph, r: int, use_rule_k2: bool = True) -> set[frozenset[int]]:
    """Explicit closure over all 2^n subsets by literal rule application.

    Seeds the family with the input edges and every set of at most r
    vertices, then sweeps complements (K1) and, when enabled, pairwise
    unions with intersection at least r (K2) until a full round adds
    nothing.  A pair is never retried: each K2 sweep pairs the members new
    since the last sweep with every member already paired and with each
    other.  The family only grows, so the union of a pair tried in an
    earlier sweep is still in it.
    """
    limits.check_cap(h.n, limits.oracle_cap(), "brute-force closure")
    universe = frozenset(range(1, h.n + 1))
    family: set[frozenset[int]] = {frozenset(edge.members()) for edge in h.edges}
    for size in range(r + 1):
        for combo in itertools.combinations(sorted(universe), size):
            family.add(frozenset(combo))
    paired: list[frozenset[int]] = []  # members already paired with one another
    changed = True
    while changed:
        changed = False
        for a in list(family):
            comp = universe - a
            if comp not in family:
                family.add(comp)
                changed = True
        if use_rule_k2:
            for a in list(family.difference(paired)):
                for b in paired:
                    if len(a & b) >= r:
                        union = a | b
                        if union not in family:
                            family.add(union)
                            changed = True
                paired.append(a)
    return family


def brute_rank(rows: list[list[int]]) -> int:
    """Textbook GF(2) Gaussian elimination on a dense 0/1 row list."""
    if not rows:
        return 0
    work = [row[:] for row in rows]
    n_cols = len(work[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for i in range(pivot_row, len(work)):
            if work[i][col] == 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        for i in range(len(work)):
            if i != pivot_row and work[i][col] == 1:
                work[i] = [x ^ y for x, y in zip(work[i], work[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == len(work):
            break
    return rank


def brute_cut_rank(g: Graph, x_vertices: frozenset[int]) -> int:
    """Cut rank via an explicitly extracted dense submatrix."""
    others = [v for v in range(1, g.n + 1) if v not in x_vertices]
    rows = []
    for u in sorted(x_vertices):
        rows.append([(g.adj[u - 1] >> (v - 1)) & 1 for v in others])
    return brute_rank(rows)


def brute_splits(g: Graph, r: int) -> set[frozenset[int]]:
    """All r-splits, found by ranking every one of the 2^n cuts."""
    limits.check_cap(g.n, limits.oracle_cap(), "brute-force split enumeration")
    out = set()
    vertices = list(range(1, g.n + 1))
    for size in range(g.n + 1):
        for combo in itertools.combinations(vertices, size):
            side = frozenset(combo)
            if brute_cut_rank(g, side) <= r:
                out.add(side)
    return out


def brute_rank_connected(g: Graph, r: int) -> bool:
    """r-rank connectivity by its definition: no cut of rank below r is
    nontrivial, that is, of rank below the size of its smaller side."""
    limits.check_cap(g.n, limits.oracle_cap(), "brute-force rank connectivity")
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(1, g.n + 1), size):
            rank = brute_cut_rank(g, frozenset(combo))
            if rank < r and rank != min(size, g.n - size):
                return False
    return True


def brute_phi_image(members: set[frozenset[int]], n: int, r: int) -> set[frozenset[int]]:
    """The image of phi by its definition, over an explicit closed family.

    For each (r+1)-set x, phi(x) is the inclusion-minimum member of size at
    most n/2 containing x: the intersection of all such members, which must
    itself be a member (ValueError otherwise).  Sets with no such member
    have no image.
    """
    image = set()
    for combo in itertools.combinations(range(1, n + 1), r + 1):
        x = frozenset(combo)
        covers = [a for a in members if x <= a and 2 * len(a) <= n]
        if covers:
            meet = frozenset.intersection(*covers)
            if meet not in members:
                raise ValueError(f"no minimum member contains {sorted(x)}")
            image.add(meet)
    return image


def brute_orthogonal(a: VertexSet, b: VertexSet, r: int) -> bool:
    """Orthogonality via its definition, on the brute-force closures."""
    pair = Hypergraph(a.n, frozenset({a, b}))
    return brute_closure(pair, r, use_rule_k2=True) == brute_closure(pair, r, use_rule_k2=False)


def explicit_members(closed) -> set[frozenset[int]]:
    """Explicit member set of a canonical closed family, for comparisons."""
    members = {frozenset(a.members()) for a in closed.middles}
    vertices = list(range(1, closed.n + 1))
    for size in range(closed.n + 1):
        if size <= closed.r or size >= closed.n - closed.r:
            for combo in itertools.combinations(vertices, size):
                members.add(frozenset(combo))
    return members
