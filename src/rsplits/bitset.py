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


def data_lines(text: str) -> list[tuple[int, str]]:
    """Stripped lines that are neither blank nor '#' comments, with their 1-based numbers."""
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), 1)]
    return [(k, ln) for k, ln in lines if ln and not ln.startswith("#")]


_setattr = object.__setattr__


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields in `_fields` and in `__slots__`, and its
    `__init__` sets them with `_setattr` and then calls `self.__post_init__()`,
    which validates them.  Two values are equal when they have the same class
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
            raise ValueError(f"mask {self.mask:#x} has bits outside a universe of size {self.n}")

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
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return tuple(out)

    def __str__(self) -> str:
        if not self.mask:
            return "-"
        return ",".join(map(str, self.members()))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, vertex: int) -> bool:
        return 1 <= vertex <= self.n and self.mask >> (vertex - 1) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def _check_same_universe(self, other: VertexSet) -> None:
        if self.n != other.n:
            raise ValueError(f"universe mismatch: {self.n} vs {other.n}")

    def __or__(self, other: VertexSet) -> VertexSet:
        self._check_same_universe(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: VertexSet) -> VertexSet:
        self._check_same_universe(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: VertexSet) -> VertexSet:
        self._check_same_universe(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def complement(self) -> VertexSet:
        return VertexSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def issubset(self, other: VertexSet) -> bool:
        self._check_same_universe(other)
        return self.mask & ~other.mask == 0

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order: by cardinality, then by ascending vertex list."""
        return (self.mask.bit_count(), self.members())


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
