"""Vertex sets as packed bit vectors and GF(2) linear algebra.

Vertices are labeled 1..n externally; internally vertex i occupies bit
i-1 of a Python int.  The conversion happens only here, at construction
and formatting time.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import limits
from .limits import parse_int


def _check_universe(n: int) -> None:
    if n < 0:
        raise ValueError(f"universe size must be >= 0, got {n}")
    if n > limits.MAX_UNIVERSE:
        raise ValueError(
            f"universe size {n} exceeds the configured budget "
            f"({limits.MAX_UNIVERSE}); raise rsplits.limits.MAX_UNIVERSE to allow it"
        )


def _check_rank(r: int) -> None:
    if r < 0:
        raise ValueError("r must be >= 0")


# The three universe rules, each with its one error text.  A hot path makes the
# comparison inline and calls its rule only when the comparison fails.
def _check_same_universe(n: int, m: int) -> None:
    if n != m:
        raise ValueError(f"universe mismatch: {n} vs {m}")


def _check_masks(n: int, masks: Iterable[int]) -> None:
    for x in masks:
        if x >> n:  # 0 only when 0 <= x < 2^n
            raise ValueError(f"mask {x:#x} has bits outside a universe of size {n}")


def _check_members(n: int, sets: Iterable[VertexSet]) -> None:
    for a in sets:
        if a.n != n:
            raise ValueError(f"member over universe {a.n} in family over {n}")


def data_lines(text: str) -> list[tuple[int, str]]:
    """Stripped lines that are neither blank nor '#' comments, with their 1-based numbers."""
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), 1)]
    return [(k, ln) for k, ln in lines if ln and not ln.startswith("#")]


_setattr = object.__setattr__


def mask_members(mask: int) -> tuple[int, ...]:
    """The vertices of a mask in ascending order, walking its set bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def mask_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical order of vertex sets, on masks: by cardinality, then by
    ascending vertex list."""
    return (mask.bit_count(), mask_members(mask))


def format_mask(mask: int) -> str:
    """The textual form of a vertex set: its vertices ascending, comma-separated,
    and `-` for the empty set."""
    return ",".join(map(str, mask_members(mask))) if mask else "-"


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields in `_fields` and in `__slots__`.  Its
    `__init__` checks the arguments and only then stores them with `_setattr`,
    so no value with invalid fields is ever built.  `VertexSet` and
    `ClosedHypergraph` instead store first and validate in `__post_init__`,
    because the benchmark's tracer (`perfbench/tracer.py`) wraps that hook to
    count constructions.  Two values are equal when they have the same class
    and the same field tuple, which is also what they hash.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class VertexSet(Frozen):
    """A subset of {1, ..., n} stored as an n-bit mask."""

    __slots__ = _fields = ("n", "mask")
    n: int
    mask: int

    def __init__(self, n: int, mask: int) -> None:
        _setattr(self, "n", n)
        _setattr(self, "mask", mask)
        self.__post_init__()

    # Spelled out for speed: sets of VertexSet hash and compare these a lot.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.n == other.n and self.mask == other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= n <= limits.MAX_UNIVERSE:
            _check_universe(n)
        if not 0 <= self.mask < (1 << n):
            _check_masks(n, (self.mask,))

    @classmethod
    def of(cls, n: int, vertices: Iterable[int] = ()) -> VertexSet:
        mask = 0
        for v in vertices:
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} outside universe 1..{n}")
            mask |= 1 << (v - 1)
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> VertexSet:
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> VertexSet:
        return cls(n, (1 << n) - 1)

    @classmethod
    def parse(cls, n: int, text: str) -> VertexSet:
        """Parse the textual form: comma-separated ascending integers, `-` for the empty set."""
        _check_universe(n)  # before parsing, so a universe error does not blame the set
        text = text.strip()
        if text == "-":
            return cls.empty(n)
        try:
            vertices = [parse_int(part.strip()) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"bad vertex set {text!r}") from None
        if vertices != sorted(set(vertices)):
            raise ValueError(f"vertex set {text!r} is not strictly ascending")
        try:
            return cls.of(n, vertices)
        except ValueError as exc:
            raise ValueError(f"{exc} in vertex set {text!r}") from None

    def members(self) -> tuple[int, ...]:
        """The vertices in ascending order."""
        return mask_members(self.mask)

    def __str__(self) -> str:
        return format_mask(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, vertex: int) -> bool:
        return 1 <= vertex <= self.n and self.mask >> (vertex - 1) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __or__(self, other: VertexSet) -> VertexSet:
        if self.n != other.n:
            _check_same_universe(self.n, other.n)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: VertexSet) -> VertexSet:
        if self.n != other.n:
            _check_same_universe(self.n, other.n)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: VertexSet) -> VertexSet:
        if self.n != other.n:
            _check_same_universe(self.n, other.n)
        return VertexSet(self.n, self.mask & ~other.mask)

    def complement(self) -> VertexSet:
        return VertexSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def issubset(self, other: VertexSet) -> bool:
        if self.n != other.n:
            _check_same_universe(self.n, other.n)
        return self.mask & ~other.mask == 0

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order: see mask_sort_key."""
        return mask_sort_key(self.mask)


def rank_of_rows(rows: Iterable[int]) -> int:
    """GF(2) rank of a list of packed rows, by elimination on lowest set bits."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        cur = row
        while cur:
            low = cur & -cur
            basis = pivots.get(low)
            if basis is None:
                pivots[low] = cur
                rank += 1
                break
            cur ^= basis
    return rank
