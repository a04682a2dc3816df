"""Property-based checks of the three text formats: formatting then parsing
gives back an equal value, and any text either parses or raises ValueError."""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from rsplits.bitset import VertexSet
from rsplits.graph import Graph, format_graph, parse_graph
from rsplits.hypergraph import (
    ClosedHypergraph,
    Hypergraph,
    format_closed,
    format_hypergraph,
    parse_closed,
    parse_hypergraph,
)

PARSERS = [parse_graph, parse_hypergraph, parse_closed]


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@st.composite
def hypergraphs(draw) -> Hypergraph:
    n = draw(st.integers(0, 10))
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=12))
    return Hypergraph(n, frozenset(VertexSet(n, mask) for mask in masks))


@st.composite
def closed_families(draw) -> ClosedHypergraph:
    """Complement-closed sets of middles, the invariant the format carries."""
    n = draw(st.integers(0, 10))
    r = draw(st.integers(0, 4))
    full = (1 << n) - 1
    masks = draw(st.frozensets(st.integers(0, full), max_size=8))
    middles = {m for mask in masks if r < mask.bit_count() < n - r for m in (mask, mask ^ full)}
    return ClosedHypergraph(n, r, frozenset(VertexSet(n, mask) for mask in middles))


# Texts shaped like the formats: a first and second line drawn from header
# variants, then body lines of small integers.  These reach past the header
# checks far more often than uniformly random text does.
FIRST_LINES = ["0", "1", "3", "6", "-2", "129", "x", "3 2", "6 0", "3 -1", "1 2 3", "+3"]
SECOND_LINES = ["r", "r 1", "r 0", "r 9", "r -1", "r x", "r 1 2", "1 2", "1,2", "-", "2 3", ""]
small_ints = st.lists(st.integers(-1, 7), max_size=4)
body_line = st.one_of(
    st.sampled_from(["-", "implicit cl-empty", "# note", "1 1", "x y", "1,,2", ""]),
    small_ints.map(lambda xs: ",".join(map(str, xs))),
    small_ints.map(lambda xs: " ".join(map(str, xs))),
)
format_like = st.tuples(
    st.sampled_from(FIRST_LINES), st.sampled_from(SECOND_LINES), st.lists(body_line, max_size=6)
).map(lambda parts: "\n".join([parts[0], parts[1], *parts[2]]))


@settings(deadline=None)
@given(graphs())
def test_graph_format_round_trips(g):
    assert parse_graph(format_graph(g)) == g


@settings(deadline=None)
@given(hypergraphs())
def test_hypergraph_format_round_trips(h):
    assert parse_hypergraph(format_hypergraph(h)) == h


@settings(deadline=None)
@given(closed_families())
def test_closed_format_round_trips(h):
    assert parse_closed(format_closed(h)) == h


def _parses_or_raises_value_error(parse, text: str) -> None:
    try:
        parse(text)
    except ValueError:
        pass


@settings(deadline=None)
@given(st.text())
def test_arbitrary_text_parses_or_raises_value_error(text):
    for parse in PARSERS:
        _parses_or_raises_value_error(parse, text)


@settings(deadline=None, max_examples=300)
@given(format_like)
def test_format_like_text_parses_or_raises_value_error(text):
    for parse in PARSERS:
        _parses_or_raises_value_error(parse, text)
