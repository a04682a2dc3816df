"""Hyperedge families over {1..n}: explicit, and closed-canonical.

Both kinds hold their sets as int masks (vertex i is bit i-1) and build
VertexSet views of them only on first use.  A closed family is stored as
its "middle" hyperedges only, those A with r < |A| < n-r.  Every set of
size <= r or >= n-r belongs to every closed family (it is the closure of
the empty family), so that part stays implicit and exponentially large
families remain representable.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Collection, Iterable, Iterator, Optional

from . import limits
from .bitset import (
    Frozen, VertexSet, _check_masks, _check_members, _check_rank, _check_same_universe,
    _check_universe, _setattr, data_lines, format_mask, mask_sort_key, parse_int,
)


class NotClosedError(ValueError):
    """A family presented as r-closed violates one of the closure rules."""


class Hypergraph(Frozen):
    """An explicit, deduplicated family of vertex sets over {1..n}."""

    _fields = ("n", "edges")  # the constructor's arguments: repr, equality, pickling
    __slots__ = ("n", "masks", "__dict__")  # __dict__ caches edges
    n: int
    masks: frozenset[int]

    def __init__(self, n: int, edges: frozenset[VertexSet]) -> None:
        _check_members(n, edges)
        self._set(n, frozenset(edge.mask for edge in edges))

    @classmethod
    def _from_masks(cls, n: int, masks: frozenset[int]) -> Hypergraph:
        """The family of the sets with these masks; validated like any other."""
        h = cls.__new__(cls)
        h._set(n, masks)
        return h

    def _set(self, n: int, masks: frozenset[int]) -> None:
        _check_universe(n)
        _check_masks(n, masks)
        _setattr(self, "n", n)
        _setattr(self, "masks", masks)

    @functools.cached_property
    def edges(self) -> frozenset[VertexSet]:
        """The edges as VertexSets, built from the int masks `masks` on first use."""
        return frozenset(VertexSet(self.n, x) for x in self.masks)

    @classmethod
    def of_vertex_lists(cls, n: int, lists: Iterable[Iterable[int]]) -> Hypergraph:
        return cls(n, frozenset(VertexSet.of(n, vs) for vs in lists))

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, edge: VertexSet) -> bool:
        return isinstance(edge, VertexSet) and edge.n == self.n and edge.mask in self.masks

    def __iter__(self) -> Iterator[VertexSet]:
        """The edges in mask_sort_key order, built on each call."""
        return (VertexSet(self.n, x) for x in sorted(self.masks, key=mask_sort_key))


def trivial_closure_size(n: int, r: int) -> int:
    """Number of sets over {1..n} of size <= r or >= n-r, counted exactly."""
    return sum(math.comb(n, i) for i in range(n + 1) if i <= r or i >= n - r)


def _middle_fault(n: int, r: int, masks: Collection[int]) -> Optional[tuple[int, ValueError]]:
    """K0 and K1 on the middles of a closed family: the first of `masks`, in
    their order, outside the middle zone r < |A| < n-r, else the first whose
    complement is not among them, paired with the error that names it; None
    when both rules hold."""
    for x in masks:
        size = x.bit_count()
        if not r < size < n - r:
            return x, ValueError(f"'{format_mask(x)}' has size {size}, outside the middle zone")
    full = (1 << n) - 1
    for x in masks:
        if x ^ full not in masks:
            co = format_mask(x ^ full)
            return x, NotClosedError(f"'{format_mask(x)}' has no complement '{co}'")
    return None


class ClosedHypergraph(Frozen):
    """Canonical r-closed family: explicit middles, implicit trivial part."""

    _fields = ("n", "r", "middles")  # the constructor's arguments: repr, equality, pickling
    __slots__ = ("n", "r", "masks", "__dict__")  # __dict__ caches middles and _half_size_meets
    n: int
    r: int
    masks: frozenset[int]

    def __init__(self, n: int, r: int, middles: frozenset[VertexSet]) -> None:
        _check_members(n, middles)
        self._set(n, r, frozenset(a.mask for a in middles))

    @classmethod
    def _from_masks(cls, n: int, r: int, masks: frozenset[int]) -> ClosedHypergraph:
        """The family whose middles are `masks`, which must already be closed
        under K0 and K1; validated like any other family."""
        closed = cls.__new__(cls)
        closed._set(n, r, masks)
        return closed

    def _set(self, n: int, r: int, masks: frozenset[int]) -> None:
        _setattr(self, "n", n)
        _setattr(self, "r", r)
        _setattr(self, "masks", masks)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_universe(self.n)
        _check_rank(self.r)
        _check_masks(self.n, self.masks)
        fault = _middle_fault(self.n, self.r, self.masks)
        if fault:
            raise fault[1]

    @functools.cached_property
    def middles(self) -> frozenset[VertexSet]:
        """The middles as VertexSets, built from the int masks `masks` on first use."""
        return frozenset(VertexSet(self.n, x) for x in self.masks)

    def contains(self, a: VertexSet) -> bool:
        if a.n != self.n:
            _check_same_universe(a.n, self.n)
        size = a.mask.bit_count()
        return size <= self.r or size >= self.n - self.r or a.mask in self.masks

    @functools.cached_property
    def _half_size_meets(self) -> dict[int, int]:
        """For phi: each (r+1)-set's mask mapped to the meet of the middles of
        size <= n/2 containing it, built once in sum-of-C(|A|, r+1) steps."""
        meets: dict[int, int] = {}
        for a in self.masks:
            if 2 * a.bit_count() <= self.n:
                bits = [1 << i for i in range(self.n) if a >> i & 1]
                for combo in itertools.combinations(bits, self.r + 1):
                    x = sum(combo)
                    meets[x] = meets.get(x, a) & a
        return meets

    def member_count(self) -> int:
        """Total family size, implicit part included."""
        return trivial_closure_size(self.n, self.r) + len(self.masks)

    def materialize(self) -> Hypergraph:
        """Expand to an explicit family, implicit members included."""
        total = self.member_count()
        limit = limits.MAX_EXPLICIT_FAMILY
        if total > limit:
            raise limits.TooLargeError(
                f"materialized family would have {total} members (limit {limit})"
            )
        n = self.n
        masks = set(self.masks)
        bits = [1 << i for i in range(n)]
        for size in range(n + 1):
            if size <= self.r or size >= n - self.r:
                masks.update(map(sum, itertools.combinations(bits, size)))
        return Hypergraph._from_masks(n, frozenset(masks))


def middles_and_complements(n: int, r: int, masks: Iterable[int]) -> list[int]:
    """K0 and K1 on masks over {1..n}: the masks in the middle zone
    r < |A| < n-r, then their complements, each once, in first-seen order."""
    full = (1 << n) - 1
    middles = [mask for mask in masks if r < mask.bit_count() < n - r]
    return list(dict.fromkeys(middles + [mask ^ full for mask in middles]))


def equals(h1: ClosedHypergraph, h2: ClosedHypergraph) -> bool:
    """Equality of closed families; comparing across (n, r) is a usage error."""
    if (h1.n, h1.r) != (h2.n, h2.r):
        raise ValueError(f"cannot compare families over (n={h1.n}, r={h1.r}) and (n={h2.n}, r={h2.r})")
    return h1.masks == h2.masks


def normalize(h: Hypergraph, r: int) -> ClosedHypergraph:
    """Canonicalize a family that claims to be r-closed.

    Raises NotClosedError naming the first violated rule: presence of the
    full trivial part, complement closure (K1), then the union rule (K2)
    over middle pairs.
    """
    _check_rank(r)
    n = h.n
    expected_trivial = trivial_closure_size(n, r)
    middles = frozenset(x for x in h.masks if r < x.bit_count() < n - r)
    if len(h.masks) - len(middles) != expected_trivial:
        raise NotClosedError(
            f"trivial part incomplete: {len(h.masks) - len(middles)} of "
            f"{expected_trivial} sets with size <= {r} or >= {n - r} present"
        )
    closed = ClosedHypergraph._from_masks(n, r, middles)  # raises on a missing complement (K1)
    order = sorted(middles, key=mask_sort_key)
    for i, a in enumerate(order):
        for b in itertools.islice(order, i + 1, None):
            if (a & b).bit_count() >= r:
                union = a | b
                if union.bit_count() < n - r and union not in middles:
                    raise NotClosedError(f"K2 violated by ({VertexSet(n, a)}, {VertexSet(n, b)})")
    return closed


HYPERGRAPH_FORMAT_HELP = (
    "lines starting with '#' are comments; first data line 'n'; then one "
    "hyperedge per line, each at most once, as comma-separated ascending "
    "vertices ('-' for the empty set).  Closed families add a second data "
    "line 'r <value>', list middles only, each with its complement, and end "
    "with the marker line 'implicit cl-empty'.  A closed file is trusted to "
    "be closed under the union rule K2: loading it does not check that rule."
)

_IMPLICIT_MARKER = "implicit cl-empty"


def _parse_universe(k: int, line: str) -> int:
    try:
        n = parse_int(line)
    except ValueError:
        raise ValueError(f"line {k}: bad universe line {line!r}, expected 'n'") from None
    try:
        _check_universe(n)
    except ValueError as exc:
        raise ValueError(f"line {k}: {exc}") from None
    return n


def _parse_sets(n: int, data: list[tuple[int, str]]) -> dict[int, int]:
    """Each line's vertex set as a mask, mapped to its line number, in line order."""
    first_line: dict[int, int] = {}
    for k, line in data:
        try:
            mask = VertexSet.parse(n, line).mask
        except ValueError as exc:
            raise ValueError(f"line {k}: {exc}") from None
        if mask in first_line:
            raise ValueError(
                f"line {k}: duplicate vertex set {line!r} (first on line {first_line[mask]})"
            )
        first_line[mask] = k
    return first_line


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the hypergraph format (see HYPERGRAPH_FORMAT_HELP).

    Errors about one line give its 1-based number in the text and quote it.
    """
    data = data_lines(text)
    if not data:
        raise ValueError("hypergraph file has no data lines")
    n = _parse_universe(*data[0])
    return Hypergraph._from_masks(n, frozenset(_parse_sets(n, data[1:])))


def format_hypergraph(h: Hypergraph) -> str:
    lines = [str(h.n)]
    lines.extend(map(format_mask, sorted(h.masks, key=mask_sort_key)))
    return "\n".join(lines) + "\n"


def parse_closed(text: str) -> ClosedHypergraph:
    """Parse the closed-family format; errors name their line like parse_hypergraph."""
    data = data_lines(text)
    if len(data) < 2:
        raise ValueError("closed-hypergraph file needs 'n' and 'r <value>' header lines")
    n = _parse_universe(*data[0])
    k, header = data[1]
    parts = header.split()
    try:
        r = parse_int(parts[1]) if len(parts) == 2 and parts[0] == "r" else -1
    except ValueError:
        r = -1
    if r < 0:
        raise ValueError(f"line {k}: bad rank header {header!r}, expected 'r <value>'")
    first_line = _parse_sets(n, [(k, ln) for k, ln in data[2:] if ln != _IMPLICIT_MARKER])
    try:
        return ClosedHypergraph._from_masks(n, r, frozenset(first_line))
    except ValueError:  # K0 or K1: name the first offending line
        mask, error = _middle_fault(n, r, first_line)
        raise type(error)(f"line {first_line[mask]}: {error}") from None


def format_closed(h: ClosedHypergraph) -> str:
    lines = [str(h.n), f"r {h.r}"]
    lines.extend(map(format_mask, sorted(h.masks, key=mask_sort_key)))
    lines.append(_IMPLICIT_MARKER)
    return "\n".join(lines) + "\n"
