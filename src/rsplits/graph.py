"""Graphs, cut-rank, r-splits, trivial cuts, and r-rank connectivity.

The rank of a cut (X, V-X) is the GF(2) rank of the adjacency submatrix
with rows X and columns V-X.  A cut is an r-split when its rank is at
most r, and trivial when its rank equals min(|X|, |V-X|), the largest
value the rank can take.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from . import bitset, limits
from .bitset import Frozen, VertexSet, _check_rank, _check_universe, _setattr, data_lines, parse_int


class Graph(Frozen):
    """Undirected simple graph; adj[u-1] is the neighbor mask of vertex u."""

    __slots__ = _fields = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        _check_universe(n)
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        bitset._check_masks(n, adj)
        for u, row in enumerate(adj):
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u + 1}")
        for u in range(n):
            for v in range(u + 1, n):
                if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                    raise ValueError(f"adjacency is not symmetric at ({u + 1}, {v + 1})")
        _setattr(self, "n", n)
        _setattr(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        adj = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 1..{n}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return cls(n, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                out.append((u + 1, low.bit_length()))
                row ^= low
        return out

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= self.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


def cut_rank(g: Graph, x: VertexSet) -> int:
    """Rank of the cut (x, complement) over GF(2)."""
    bitset._check_same_universe(x.n, g.n)
    return _block_rank(g.adj, x.mask, ((1 << g.n) - 1) ^ x.mask)


def _block_rank(adj: tuple[int, ...], rows: int, cols: int) -> int:
    """GF(2) rank of the adjacency block between the disjoint vertex masks rows
    and cols.  The block of a symmetric matrix has the rank of its transpose, so
    rows are taken from the smaller side."""
    if rows.bit_count() > cols.bit_count():
        rows, cols = cols, rows
    out = []
    while rows:
        low = rows & -rows
        out.append(adj[low.bit_length() - 1] & cols)
        rows ^= low
    return bitset.rank_of_rows(out)


def is_r_split(g: Graph, x: VertexSet, r: int) -> bool:
    """True when the cut at x has rank at most r."""
    _check_rank(r)
    return cut_rank(g, x) <= r


def is_trivial_cut(g: Graph, x: VertexSet) -> bool:
    """True when the cut at x has full rank min(|x|, n - |x|)."""
    return cut_rank(g, x) == min(len(x), g.n - len(x))


def low_rank_cuts(
    g: Graph, bound: int, sizes: Optional[range] = None
) -> Iterator[tuple[int, int]]:
    """Yield (mask, rank) for every side containing vertex 1 whose cut rank is <= bound.

    Cuts come in complement pairs with equal rank, so only the side holding
    vertex 1 is produced.  Depth-first search decides the other vertices
    into A (the side) or B (the rest) in the breadth-first order of
    _search_order, so the decided vertices stay close together and the
    partial cut's edges show up early, whatever the numbering.
    rank(M[A, B]) is at most the rank of every cut extending the partial
    one, since a submatrix never has larger rank, so a branch is pruned once
    it exceeds bound.  The partial rank is at most min(|A|, |B|), so it is
    computed only once both sides exceed bound; a leaf whose smaller side
    never did gets its rank computed there.  With sizes (a range), only
    sides whose size lies in it are produced, and branches that can no
    longer reach it are cut off.
    """
    n = g.n
    lo, hi = (sizes.start, sizes.stop - 1) if sizes is not None else (1, n)
    if n == 0 or bound < 0 or lo > hi or hi < 1 or lo > n:
        return
    adj = g.adj
    bits = _search_order(adj)
    # (next index into bits, A, B, |A|, |B|, rank of M[A, B] or -1 when not computed)
    stack = [(1, 1, 0, 1, 0, -1)]
    while stack:
        i, a, b, na, nb, rank = stack.pop()
        if i == n:
            if rank < 0:
                rank = _block_rank(adj, a, b)
            yield a, rank
            continue
        bit = bits[i]
        left = n - i - 1
        if na + left >= lo:
            child_b, child_rank = b | bit, -1
            if na > bound and nb >= bound:
                child_rank = _block_rank(adj, a, child_b)
            if child_rank <= bound:
                stack.append((i + 1, a, child_b, na, nb + 1, child_rank))
        if na < hi:
            child_a, child_rank = a | bit, -1
            if na >= bound and nb > bound:
                child_rank = _block_rank(adj, child_a, b)
            if child_rank <= bound:
                stack.append((i + 1, child_a, b, na + 1, nb, child_rank))


def _search_order(adj: tuple[int, ...]) -> list[int]:
    """The vertex bits in breadth-first order from vertex 1.  Each frontier is
    taken lowest label first, and each further component starts from its
    lowest unvisited vertex."""
    order = []
    unseen = (1 << len(adj)) - 1
    while unseen:
        frontier = unseen & -unseen
        unseen ^= frontier
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                order.append(low)
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & unseen
            unseen ^= frontier
    return order


def is_r_rank_connected(g: Graph, r: int) -> bool:
    """True when every cut of rank below r is trivial.

    Searches the cuts of rank at most r-1 (see low_rank_cuts) and stops at
    the first one whose rank is below the size of its smaller side.
    """
    _check_rank(r)
    limits.check_cap(g.n, limits.exhaustive_cap(), "r-rank connectivity")
    return all(
        rank == min(mask.bit_count(), g.n - mask.bit_count())
        for mask, rank in low_rank_cuts(g, r - 1)
    )


GRAPH_FORMAT_HELP = (
    "lines starting with '#' are comments; first data line 'n m'; "
    "then m lines 'u v' with 1 <= u < v <= n"
)


def parse_graph(text: str) -> Graph:
    """Parse the textual graph format (see GRAPH_FORMAT_HELP).

    Errors about one line give its 1-based number in the text and quote it.
    """
    data = data_lines(text)
    if not data:
        raise ValueError("graph file has no data lines")
    k, header = data[0]
    n, m = _int_pair(k, header, "graph header", "'n m'")
    try:
        _check_universe(n)
    except ValueError as exc:
        raise ValueError(f"line {k}: {exc}") from None
    if m < 0:
        raise ValueError(f"line {k}: edge count must be >= 0, got {m}")
    if len(data) - 1 != m:
        raise ValueError(f"line {k}: header promises {m} edges, file has {len(data) - 1}")
    adj = [0] * n
    for k, ln in data[1:]:
        u, v = _int_pair(k, ln, "edge line", "'u v'")
        if u == v:
            raise ValueError(f"line {k}: self-loop {u} {v} rejected")
        if not (1 <= u < v <= n):
            raise ValueError(f"line {k}: edge {u} {v} violates 1 <= u < v <= n")
        if adj[u - 1] >> (v - 1) & 1:
            raise ValueError(f"line {k}: duplicate edge {u} {v}")
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


def _int_pair(lineno: int, line: str, what: str, expected: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) == 2:
        try:
            return parse_int(parts[0]), parse_int(parts[1])
        except ValueError:
            pass
    raise ValueError(f"line {lineno}: bad {what} {line!r}, expected {expected}")


def format_graph(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
