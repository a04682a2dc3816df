"""Hyperedge families over {1..n}: explicit, and closed-canonical.

A closed family is stored as its "middle" hyperedges only, those A with
r < |A| < n-r.  Every set of size <= r or >= n-r belongs to every closed
family (it is the closure of the empty family), so that part stays
implicit and exponentially large families remain representable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bitset import VertexSet, _check_universe


class NotClosedError(ValueError):
    """A family presented as r-closed violates one of the closure rules."""


@dataclass(frozen=True)
class Hypergraph:
    """An explicit, deduplicated family of vertex sets over {1..n}."""

    n: int
    edges: frozenset[VertexSet]

    def __post_init__(self) -> None:
        _check_universe(self.n)
        for edge in self.edges:
            if edge.n != self.n:
                raise ValueError(f"edge over universe {edge.n} in hypergraph over {self.n}")

    @classmethod
    def of(cls, n: int, edges: Iterable[VertexSet]) -> Hypergraph:
        return cls(n, frozenset(edges))

    @classmethod
    def of_vertex_lists(cls, n: int, lists: Iterable[Iterable[int]]) -> Hypergraph:
        return cls(n, frozenset(VertexSet.of(n, vs) for vs in lists))

    def sorted_edges(self) -> list[VertexSet]:
        return sorted(self.edges, key=VertexSet.sort_key)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: VertexSet) -> bool:
        return edge in self.edges

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self.sorted_edges())


def is_middle(n: int, r: int, a: VertexSet) -> bool:
    return r < len(a) < n - r


def trivial_closure_size(n: int, r: int) -> int:
    """Number of sets over {1..n} of size <= r or >= n-r, counted exactly."""
    return sum(math.comb(n, i) for i in range(n + 1) if i <= r or i >= n - r)


@dataclass(frozen=True)
class ClosedHypergraph:
    """Canonical r-closed family: explicit middles, implicit trivial part."""

    n: int
    r: int
    middles: frozenset[VertexSet]

    def __post_init__(self) -> None:
        _check_universe(self.n)
        if self.r < 0:
            raise ValueError("r must be >= 0")
        for a in self.middles:
            if a.n != self.n:
                raise ValueError(f"middle over universe {a.n} in family over {self.n}")
            if not is_middle(self.n, self.r, a):
                raise ValueError(f"{a} has size {len(a)}, outside the middle zone")
            if a.complement() not in self.middles:
                raise NotClosedError(f"not complement closed ({a})")

    @classmethod
    def of(cls, n: int, r: int, middles: Iterable[VertexSet]) -> ClosedHypergraph:
        return cls(n, r, frozenset(middles))

    def contains(self, a: VertexSet) -> bool:
        if a.n != self.n:
            raise ValueError(f"universe mismatch: {a.n} vs {self.n}")
        size = len(a)
        return size <= self.r or size >= self.n - self.r or a in self.middles

    def sorted_middles(self) -> list[VertexSet]:
        return sorted(self.middles, key=VertexSet.sort_key)

    def member_count(self) -> int:
        """Total family size, implicit part included."""
        return trivial_closure_size(self.n, self.r) + len(self.middles)

    def materialize(self, limit: int = 1 << 22) -> Hypergraph:
        """Expand to an explicit family, implicit members included."""
        total = self.member_count()
        if total > limit:
            raise ValueError(f"materialized family would have {total} members (limit {limit})")
        edges = set(self.middles)
        vertices = range(1, self.n + 1)
        for size in range(self.n + 1):
            if size <= self.r or size >= self.n - self.r:
                edges.update(
                    VertexSet.of(self.n, combo)
                    for combo in itertools.combinations(vertices, size)
                )
        return Hypergraph(self.n, frozenset(edges))


def contains(h: ClosedHypergraph, a: VertexSet) -> bool:
    """Membership in a closed family: trivial by size, or an explicit middle."""
    return h.contains(a)


def equals(h1: ClosedHypergraph, h2: ClosedHypergraph) -> bool:
    """Equality of closed families; comparing across (n, r) is a usage error."""
    if (h1.n, h1.r) != (h2.n, h2.r):
        raise ValueError(f"cannot compare families over (n={h1.n}, r={h1.r}) and (n={h2.n}, r={h2.r})")
    return h1.middles == h2.middles


def normalize(h: Hypergraph, r: int) -> ClosedHypergraph:
    """Canonicalize a family that claims to be r-closed.

    Raises NotClosedError naming the first violated rule: presence of the
    full trivial part, complement closure (K1), then the union rule (K2)
    over middle pairs.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    n = h.n
    expected_trivial = trivial_closure_size(n, r)
    middles = frozenset(a for a in h.edges if is_middle(n, r, a))
    if len(h.edges) - len(middles) != expected_trivial:
        raise NotClosedError(
            f"trivial part incomplete: {len(h.edges) - len(middles)} of "
            f"{expected_trivial} sets with size <= {r} or >= {n - r} present"
        )
    for a in middles:
        if a.complement() not in middles:
            raise NotClosedError(f"not complement closed ({a})")
    middle_list = sorted(middles, key=VertexSet.sort_key)
    for i, a in enumerate(middle_list):
        for b in middle_list[i + 1:]:
            if len(a & b) >= r:
                union = a | b
                if is_middle(n, r, union) and union not in middles:
                    raise NotClosedError(f"K2 violated by ({a}, {b})")
    return ClosedHypergraph(n, r, middles)


HYPERGRAPH_FORMAT_HELP = (
    "lines starting with '#' are comments; first data line 'n'; then one "
    "hyperedge per line as comma-separated ascending vertices ('-' for the "
    "empty set).  Closed families add a second data line 'r <value>', list "
    "middles only, and end with the marker line 'implicit cl-empty'."
)

_IMPLICIT_MARKER = "implicit cl-empty"


def _data_lines(text: str) -> list[str]:
    lines = [ln.strip() for ln in text.splitlines()]
    return [ln for ln in lines if ln and not ln.startswith("#")]


def parse_hypergraph(text: str) -> Hypergraph:
    data = _data_lines(text)
    if not data:
        raise ValueError("hypergraph file has no data lines")
    try:
        n = int(data[0])
    except ValueError:
        raise ValueError(f"bad universe size line {data[0]!r}") from None
    edges = [VertexSet.parse(n, ln) for ln in data[1:]]
    return Hypergraph(n, frozenset(edges))


def format_hypergraph(h: Hypergraph) -> str:
    lines = [str(h.n)]
    lines.extend(str(edge) for edge in h.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_closed(text: str) -> ClosedHypergraph:
    data = _data_lines(text)
    if len(data) < 2:
        raise ValueError("closed-hypergraph file needs 'n' and 'r <value>' header lines")
    try:
        n = int(data[0])
    except ValueError:
        raise ValueError(f"bad universe size line {data[0]!r}") from None
    parts = data[1].split()
    if len(parts) != 2 or parts[0] != "r":
        raise ValueError(f"bad rank header {data[1]!r}, expected 'r <value>'")
    r = int(parts[1])
    body = [ln for ln in data[2:] if ln != _IMPLICIT_MARKER]
    middles = [VertexSet.parse(n, ln) for ln in body]
    return ClosedHypergraph(n, r, frozenset(middles))


def format_closed(h: ClosedHypergraph) -> str:
    lines = [str(h.n), f"r {h.r}"]
    lines.extend(str(a) for a in h.sorted_middles())
    lines.append(_IMPLICIT_MARKER)
    return "\n".join(lines) + "\n"
