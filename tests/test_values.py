"""Value semantics of the immutable value types and the report named tuples."""

from __future__ import annotations

import copy
import pickle

import pytest

from rsplits import (
    ClosedHypergraph,
    FamilyParams,
    Graph,
    Hypergraph,
    NotClosedError,
    VertexSet,
    crossfree_size_bounds,
    enumerate_r_splits,
    phi,
    verify_lower_bound,
    verify_representation,
)
from rsplits.verification import PropertyResult, SuiteReport

C4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])

# Each value type: a factory building a fresh instance, and its repr.
VALUES = {
    "VertexSet": (lambda: VertexSet(3, 5), "VertexSet(n=3, mask=5)"),
    "Graph": (lambda: Graph.from_edges(3, [(1, 2), (2, 3)]), "Graph(n=3, adj=(2, 5, 2))"),
    "Hypergraph": (
        lambda: Hypergraph(3, frozenset({VertexSet(3, 5)})),
        "Hypergraph(n=3, edges=frozenset({VertexSet(n=3, mask=5)}))",
    ),
    "ClosedHypergraph": (
        lambda: ClosedHypergraph(4, 1, frozenset({VertexSet(4, 5), VertexSet(4, 10)})),
        None,  # frozenset order is not pinned; checked field by field below
    ),
    "FamilyParams": (lambda: FamilyParams(1, 2), "FamilyParams(r=1, k=2)"),
}

REPORTS = {
    "RoundTripReport": (
        lambda: verify_representation(C4, 1),
        "RoundTripReport(n=4, r=1, middle_count=2, essential_count=2, essential_bound=6, "
        "closure_matches=True)",
    ),
    "CrossFreeBoundsReport": (
        lambda: crossfree_size_bounds(Hypergraph(4, frozenset({VertexSet(4, 3)})), 1),
        "CrossFreeBoundsReport(n=4, r=1, edge_count=1, middle_edges=1, closure_middles=2, "
        "closure_total=12, closure_cap=18, chain_holds=True, cap_holds=True)",
    ),
    "LowerBoundReport": (
        lambda: verify_lower_bound(FamilyParams(1, 2)),
        "LowerBoundReport(r=1, k=2, n=4, family_size=2, closure_middles=2, essential_count=2, "
        "closure_matches=True, inequality_holds=True)",
    ),
    "PropertyResult": (
        lambda: PropertyResult("x", 3, True),
        "PropertyResult(tag='x', trials=3, passed=True, detail='')",
    ),
    "SuiteReport": (
        lambda: SuiteReport(1, "quick", (PropertyResult("x", 3, True),)),
        "SuiteReport(seed=1, profile='quick', results=(PropertyResult(tag='x', trials=3, "
        "passed=True, detail=''),))",
    ),
}

VALUE_CLASSES = [VertexSet, Graph, Hypergraph, ClosedHypergraph, FamilyParams]
NAMESPACE = {cls.__name__: cls for cls in VALUE_CLASSES} | {"frozenset": frozenset}

# Families with several members, each built from VertexSets and from masks;
# their reprs list the members in frozenset order, so no text is pinned.
EDGES5 = frozenset(VertexSet.of(5, vs) for vs in ([1, 2], [2, 3, 4], [5], [1, 3, 5], []))
# The middles of the 2-splits of the 6-cycle, each with its complement.
MIDDLES6 = frozenset(VertexSet.parse(6, text) for text in (
    "1,2,3", "1,2,6", "1,3,5", "1,5,6", "2,3,4", "2,4,6", "3,4,5", "4,5,6"))
FAMILIES = {
    "Hypergraph-sets": (lambda: Hypergraph(5, EDGES5), None),
    "Hypergraph-masks": (
        lambda: Hypergraph._from_masks(5, frozenset(a.mask for a in EDGES5)), None),
    "ClosedHypergraph-sets": (lambda: ClosedHypergraph(6, 2, MIDDLES6), None),
    "ClosedHypergraph-masks": (
        lambda: ClosedHypergraph._from_masks(6, 2, frozenset(a.mask for a in MIDDLES6)), None),
}


def make(name: str):
    return {**VALUES, **FAMILIES, **REPORTS}[name][0]()


@pytest.mark.parametrize("name", list(VALUES) + list(FAMILIES))
def test_equal_instances_are_equal_and_hash_equal(name):
    a, b = make(name), make(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_fields_are_unequal():
    assert VertexSet(3, 5) != VertexSet(3, 6)
    assert VertexSet(3, 5) != VertexSet(4, 5)
    assert FamilyParams(1, 2) != FamilyParams(2, 2)
    assert Graph.from_edges(3, [(1, 2)]) != Graph.from_edges(3, [(2, 3)])


def test_a_value_never_equals_a_tuple_or_another_type():
    assert VertexSet(3, 5) != (3, 5)
    assert (3, 5) != VertexSet(3, 5)
    assert FamilyParams(3, 5) != VertexSet(3, 5)

    class Tagged(VertexSet):
        __slots__ = ()

    assert Tagged(3, 5) != VertexSet(3, 5)
    assert VertexSet(3, 5) != Tagged(3, 5)
    instances = [make(name) for name in VALUES]
    for i, a in enumerate(instances):
        for j, b in enumerate(instances):
            assert (a == b) == (i == j)
    for value in instances + [make(name) for name in FAMILIES]:
        fields = tuple(getattr(value, field) for field in value._fields)
        assert value != fields and fields != value and fields not in {value}


@pytest.mark.parametrize("name", list(VALUES) + list(REPORTS))
def test_repr_keeps_its_text(name):
    factory, text = {**VALUES, **REPORTS}[name]
    if text is not None:
        assert repr(factory()) == text


def test_closed_hypergraph_repr_lists_its_fields():
    text = repr(make("ClosedHypergraph"))
    assert text.startswith("ClosedHypergraph(n=4, r=1, middles=frozenset({")
    assert "VertexSet(n=4, mask=5)" in text and "VertexSet(n=4, mask=10)" in text


@pytest.mark.parametrize("cls", VALUE_CLASSES)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = make(cls.__name__)
    for field in cls._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make(cls.__name__)


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_fields_cannot_be_assigned(name):
    report = make(name)
    with pytest.raises(AttributeError):
        setattr(report, report._fields[0], 0)


def test_keyword_construction():
    assert VertexSet(n=3, mask=5) == VertexSet(3, 5)
    assert Graph(n=2, adj=(2, 1)) == Graph.from_edges(2, [(1, 2)])
    assert Hypergraph(n=2, edges=frozenset()) == Hypergraph(2, frozenset())
    assert ClosedHypergraph(n=4, r=1, middles=frozenset()) == ClosedHypergraph(4, 1, frozenset())
    assert FamilyParams(r=1, k=3) == FamilyParams(1, 3)
    assert PropertyResult(tag="x", trials=1, passed=False, detail="d").detail == "d"


@pytest.mark.parametrize("name", list(VALUES) + list(FAMILIES) + list(REPORTS))
@pytest.mark.parametrize(
    "clone",
    [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(name, clone):
    original = make(name)
    twin = clone(original)
    assert type(twin) is type(original)
    assert twin == original
    assert hash(twin) == hash(original)
    # A frozenset field of several members need not list them in one order.
    assert repr(twin) == repr(original) or name == "ClosedHypergraph" or name in FAMILIES
    if name not in REPORTS:
        assert eval(repr(twin), NAMESPACE) == original


def test_closed_family_caches_and_clones_without_its_cache():
    family = enumerate_r_splits(C4, 1)
    first = phi(family, VertexSet.of(4, [1, 3]))
    assert "_half_size_meets" in vars(family)
    twin = pickle.loads(pickle.dumps(family))
    assert twin == family and "_half_size_meets" not in vars(twin)
    assert phi(twin, VertexSet.of(4, [1, 3])) == first


@pytest.mark.parametrize("cls", [Hypergraph, ClosedHypergraph])
def test_family_is_one_value_whichever_constructor_built_it(cls):
    by_sets, by_masks = make(f"{cls.__name__}-sets"), make(f"{cls.__name__}-masks")
    assert by_sets == by_masks and not by_sets != by_masks
    assert hash(by_sets) == hash(by_masks)
    assert len({by_sets, by_masks}) == 1


def test_family_views_are_built_from_masks_on_first_use():
    h = Hypergraph(5, EDGES5)
    assert "edges" not in vars(h)
    assert h.edges == EDGES5 and h.edges is not EDGES5
    closed = ClosedHypergraph(6, 2, MIDDLES6)
    assert "middles" not in vars(closed)
    assert closed.middles == MIDDLES6 and closed.middles is not MIDDLES6
    assert make("Hypergraph-masks").edges == EDGES5
    assert make("ClosedHypergraph-masks").middles == MIDDLES6


@pytest.mark.parametrize(
    "build, twin",
    [
        (lambda: C4, lambda: Graph(4, (10, 5, 10, 5))),
        (lambda: Graph.from_edges(3, []), lambda: Graph(3, (0, 0, 0))),
        (lambda: VertexSet.of(5, [1, 3, 5]), lambda: VertexSet(5, 0b10101)),
        (lambda: VertexSet.of(4, [4, 2]), lambda: VertexSet.parse(4, "2,4")),
        (lambda: VertexSet(3, (1 << 3) - 1), lambda: VertexSet.of(3, [1, 2, 3])),
    ],
)
def test_equal_values_hash_equal_whichever_constructor_built_them(build, twin):
    a, b = build(), twin()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "build, error, frame",
    [
        (lambda: VertexSet(2, 4), ValueError, "__post_init__"),
        (lambda: VertexSet(-1, 0), ValueError, "__post_init__"),
        (lambda: Graph(2, (1,)), ValueError, "__init__"),
        (lambda: Graph(2, (1, 0)), ValueError, "__init__"),
        (lambda: Graph(2, (2, 0)), ValueError, "__init__"),
        (lambda: Hypergraph(2, frozenset({VertexSet(3, 1)})), ValueError, "__init__"),
        (lambda: Hypergraph._from_masks(2, frozenset({4})), ValueError, "_set"),
        (lambda: ClosedHypergraph._from_masks(4, 1, frozenset({16})), ValueError, "__post_init__"),
        (lambda: ClosedHypergraph(4, -1, frozenset()), ValueError, "__post_init__"),
        (lambda: ClosedHypergraph(4, 1, frozenset({VertexSet(4, 1)})), ValueError, "__post_init__"),
        (lambda: ClosedHypergraph(4, 1, frozenset({VertexSet(4, 5)})), NotClosedError,
         "__post_init__"),
        (lambda: FamilyParams(0, 2), ValueError, "__init__"),
        (lambda: FamilyParams(1, 1), ValueError, "__init__"),
    ],
)
def test_invalid_fields_raise_from_the_validating_method(build, error, frame):
    with pytest.raises(error) as excinfo:
        build()
    names = [entry.name for entry in excinfo.traceback]
    assert [name for name in names if not name.startswith("_check_")][-1] == frame


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: VertexSet(3, 8), ValueError, "mask 0x8 has bits outside a universe of size 3"),
        (lambda: VertexSet.of(3, [4]), ValueError, "vertex 4 outside universe 1..3"),
        (lambda: VertexSet.parse(3, "1,4"), ValueError,
         "vertex 4 outside universe 1..3 in vertex set '1,4'"),
        (lambda: Graph(2, (0, 2)), ValueError, "self-loop at vertex 2"),
        (lambda: Graph.from_edges(2, [(1, 3)]), ValueError, r"edge \(1, 3\) outside vertex range 1..2"),
        (lambda: Hypergraph(2, frozenset({VertexSet(3, 1)})), ValueError,
         "member over universe 3 in family over 2"),
        (lambda: Hypergraph.of_vertex_lists(2, [[3]]), ValueError, "vertex 3 outside universe 1..2"),
        (lambda: Hypergraph._from_masks(2, frozenset({4})), ValueError,
         "mask 0x4 has bits outside a universe of size 2"),
        (lambda: ClosedHypergraph(3, 0, frozenset({VertexSet(4, 3)})), ValueError,
         "member over universe 4 in family over 3"),
        (lambda: ClosedHypergraph._from_masks(4, 1, frozenset({1})), ValueError,
         "'1' has size 1, outside the middle zone"),
        (lambda: ClosedHypergraph._from_masks(4, 1, frozenset({5})), NotClosedError,
         "'1,3' has no complement '2,4'"),
        (lambda: FamilyParams(1, 1), ValueError, "k must be >= 2"),
    ],
)
def test_every_way_of_building_rejects_an_invalid_field(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("masks", [frozenset({0b10011, 0b11100}), frozenset({-3, -14})])
def test_closed_family_refuses_masks_outside_its_universe(masks):
    """Both pairs pass the middle-zone and complement rules within 4 bits, so
    only the mask rule can refuse them."""
    with pytest.raises(ValueError, match="^mask -?0x[0-9a-f]+ has bits outside a universe of size 4$"):
        ClosedHypergraph._from_masks(4, 0, masks)


@pytest.mark.parametrize("cls", [VertexSet, ClosedHypergraph])
def test_patched_post_init_runs_on_construction(cls, monkeypatch):
    """The hook the benchmark's tracer wraps to count constructions."""
    seen = []
    original = cls.__post_init__

    def counting(self) -> None:
        seen.append(type(self))
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    make(cls.__name__)
    assert cls in seen
    monkeypatch.undo()
    seen.clear()
    make(cls.__name__)
    assert seen == []


def test_report_to_dict_keeps_key_order():
    assert list(make("RoundTripReport").to_dict()) == [
        "n", "r", "middle_count", "essential_count", "essential_bound", "closure_matches",
        "passed",
    ]
    assert list(make("CrossFreeBoundsReport").to_dict()) == [
        "n", "r", "edge_count", "middle_edges", "closure_middles", "closure_total",
        "closure_cap", "chain_holds", "cap_holds", "passed",
    ]
    assert list(make("LowerBoundReport").to_dict()) == [
        "r", "k", "n", "family_size", "closure_middles", "essential_count",
        "closure_matches", "inequality_holds", "passed",
    ]
    assert make("PropertyResult").to_dict() == {
        "tag": "x", "trials": 3, "passed": True, "detail": "",
    }
    assert list(make("SuiteReport").to_dict()) == ["seed", "profile", "passed", "results"]
