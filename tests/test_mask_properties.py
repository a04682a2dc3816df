"""Property-based checks that a closed family's int-mask storage agrees with
its VertexSet view, with the naive definitions and with the brute-force
closure oracle, for n <= 8 and r <= 3."""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from rsplits.bitset import VertexSet
from rsplits.bruteforce import brute_closure, explicit_members
from rsplits.closure import close_degenerate, close_full
from rsplits.hypergraph import ClosedHypergraph, Hypergraph, NotClosedError, normalize
from rsplits.splits import essential_representation, phi


@st.composite
def families(draw) -> tuple[Hypergraph, int]:
    n = draw(st.integers(0, 8))
    r = draw(st.integers(0, 3))
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=5))
    return Hypergraph(n, frozenset(VertexSet(n, mask) for mask in masks)), r


@settings(deadline=None)
@given(families())
def test_close_full_is_idempotent_through_materialize(family):
    h, r = family
    closed = close_full(h, r)
    assert close_full(closed.materialize(), r) == closed


@settings(deadline=None)
@given(families())
def test_normalize_gives_back_the_closure(family):
    h, r = family
    closed = close_full(h, r)
    assert normalize(closed.materialize(), r) == closed


@settings(deadline=None)
@given(families())
def test_constructor_from_the_view_keeps_the_masks(family):
    h, r = family
    for closed in (close_full(h, r), close_degenerate(h, r)):
        assert ClosedHypergraph(h.n, r, closed.middles).masks == closed.masks
        assert {a.mask for a in closed.middles} == closed.masks


@settings(deadline=None)
@given(families())
def test_closures_match_the_brute_force_oracle(family):
    h, r = family
    assert explicit_members(close_full(h, r)) == brute_closure(h, r)
    assert explicit_members(close_degenerate(h, r)) == brute_closure(h, r, use_rule_k2=False)


def _outcome(compute):
    try:
        return compute()
    except NotClosedError as exc:
        return str(exc)


def _naive_image(h: ClosedHypergraph) -> frozenset[VertexSet]:
    """phi on every one of the C(n, r+1) sets, in lexicographic order."""
    image = set()
    for combo in itertools.combinations(range(1, h.n + 1), h.r + 1):
        a = phi(h, VertexSet.of(h.n, combo))
        if a is not None:
            image.add(a)
    return frozenset(image)


@settings(deadline=None)
@given(families())
def test_essential_representation_is_the_naive_image_of_phi(family):
    """Equal images on closed families; on the degenerate closure, which
    need not be closed, the same first NotClosedError as well."""
    h, r = family
    for closed in (close_full(h, r), close_degenerate(h, r)):
        fast = _outcome(lambda: essential_representation(closed).edges)
        assert fast == _outcome(lambda: _naive_image(closed))
