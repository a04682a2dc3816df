"""Brute-force reference implementations, kept deliberately naive.

Naive here means literal: each rule is applied as written over all 2^n
subsets, trivial ones included, with no lemma from the paper.  The oracles
share no code with the engines and keep their own encodings: n-bit ints
built here from vertex labels (label v is bit v - 1), returned as
frozensets of labels.  A rank is log2 of the size of the row space, so a
cut of rank k costs at most |X| * 2^k steps.  Speed is a non-goal; the
closure never retries a pair, and the last graph's neighbour ints are kept.
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
    bits = [1 << (v - 1) for v in range(1, h.n + 1)]
    universe = (1 << h.n) - 1
    family: set[int] = {sum(bits[v - 1] for v in edge.members()) for edge in h.edges}
    for size in range(r + 1):
        family.update(sum(combo) for combo in itertools.combinations(bits, size))
    paired: list[int] = []  # members already paired with one another
    changed = True
    while changed:
        complements = {universe ^ a for a in family} - family
        changed = bool(complements)
        family |= complements
        if use_rule_k2:
            for a in list(family.difference(paired)):
                for b in paired:
                    if (a & b).bit_count() >= r:
                        union = a | b
                        if union not in family:
                            family.add(union)
                            changed = True
                paired.append(a)
    return {frozenset(_labels(a)) for a in family}


def _labels(a: int):
    """The labels of the set bits of a, lowest first (bit v - 1 is label v)."""
    while a:
        low = a & -a
        yield low.bit_length()
        a ^= low


def _row_space_rank(rows: list[int]) -> int:
    """GF(2) rank by definition: log2 of the size of the row space, grown one row at a time."""
    space = {0}
    for row in rows:
        if row not in space:
            space |= {s ^ row for s in space}
    return len(space).bit_length() - 1


def brute_rank(rows: list[list[int]]) -> int:
    """GF(2) rank of a dense 0/1 row list, each row packed into an int (entry j is bit j)."""
    for i, row in enumerate(rows, 1):
        if len(row) != len(rows[0]) or not set(row) <= {0, 1}:
            raise ValueError(f"row {i} is not a 0/1 row of {len(rows[0])} entries: {row}")
    return _row_space_rank([sum(bit << j for j, bit in enumerate(row)) for row in rows])


_last_graph: list = [(None, None)]  # (graph, neighbour ints) of the last cut ranked


def brute_cut_rank(g: Graph, x_vertices: frozenset[int]) -> int:
    """Cut rank of (X, V - X) on X's neighbour ints cut to V - X; a label outside 1..n is refused.
    The ints come from g's edge labels and are kept: callers rank one graph's cuts in a row."""
    graph, nbr = _last_graph[0]
    if graph is not g:
        nbr = [0] * (g.n + 1)
        for u, v in g.edges():
            nbr[u] |= 1 << (v - 1)
            nbr[v] |= 1 << (u - 1)
        _last_graph[0] = g, nbr
    inside = 0
    for u in x_vertices:
        if not 1 <= u <= g.n:
            raise ValueError(f"vertex {u} is outside 1..{g.n}")
        inside |= 1 << (u - 1)
    return _row_space_rank([nbr[u] & ~inside for u in x_vertices])


def _all_sides(n: int):
    """Every subset of the labels 1..n, as a frozenset, by size."""
    for size in range(n + 1):
        yield from map(frozenset, itertools.combinations(range(1, n + 1), size))


def brute_splits(g: Graph, r: int) -> set[frozenset[int]]:
    """All r-splits, found by ranking every one of the 2^n cuts."""
    limits.check_cap(g.n, limits.oracle_cap(), "brute-force split enumeration")
    return {side for side in _all_sides(g.n) if brute_cut_rank(g, side) <= r}


def brute_rank_connected(g: Graph, r: int) -> bool:
    """r-rank connectivity by its definition: no cut of rank below r is
    nontrivial, that is, of rank below the size of its smaller side."""
    limits.check_cap(g.n, limits.oracle_cap(), "brute-force rank connectivity")
    for side in _all_sides(g.n):
        rank = brute_cut_rank(g, side)
        if rank < r and rank != min(len(side), g.n - len(side)):
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
