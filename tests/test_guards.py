"""Argument guards of the library API, each with its exact outcome.

The command line and the suite only ever pass well-formed arguments, so
these raise and early-return lines are reached from here alone.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import rsplits
from rsplits.bitset import VertexSet
from rsplits.closure import close_full
from rsplits.graph import Graph, cut_rank, is_r_rank_connected, is_r_split, is_trivial_cut
from rsplits.hypergraph import ClosedHypergraph, Hypergraph, normalize
from rsplits.ortho import is_orthogonal, is_orthogonal_oracle
from rsplits.splits import enumerate_r_splits, phi, rank_connected_splits

P3 = Graph.from_edges(3, [(1, 2), (2, 3)])
CLOSED4 = ClosedHypergraph(4, 1, frozenset())
FOREIGN = VertexSet.of(5, (1,))
R_NEGATIVE = ValueError("r must be >= 0")
ONE = VertexSet.of(4, (1,))


# The three universe rules, each with its one error text.
def mismatch(n: int, m: int) -> ValueError:
    return ValueError(f"universe mismatch: {n} vs {m}")


def mask_outside(mask: int, n: int) -> ValueError:
    return ValueError(f"mask {mask:#x} has bits outside a universe of size {n}")


def member_outside(m: int, n: int) -> ValueError:
    return ValueError(f"member over universe {m} in family over {n}")


UNIVERSE_RULES = [
    # operands share a universe
    ("or-universe", lambda: ONE | FOREIGN, mismatch(4, 5)),
    ("and-universe", lambda: ONE & FOREIGN, mismatch(4, 5)),
    ("sub-universe", lambda: ONE - FOREIGN, mismatch(4, 5)),
    ("issubset-universe", lambda: ONE.issubset(FOREIGN), mismatch(4, 5)),
    ("cut-rank-universe", lambda: cut_rank(P3, ONE), mismatch(4, 3)),
    ("is-r-split-universe", lambda: is_r_split(P3, ONE, 1), mismatch(4, 3)),
    ("is-trivial-cut-universe", lambda: is_trivial_cut(P3, ONE), mismatch(4, 3)),
    ("contains-universe", lambda: CLOSED4.contains(FOREIGN), mismatch(5, 4)),
    ("orthogonal-universe", lambda: is_orthogonal(ONE, FOREIGN, 1), mismatch(4, 5)),
    ("oracle-universe", lambda: is_orthogonal_oracle(ONE, FOREIGN, 1), mismatch(4, 5)),
    ("phi-universe", lambda: phi(CLOSED4, FOREIGN), mismatch(5, 4)),
    # a mask has no bit outside 0..n-1
    ("vertex-set-mask", lambda: VertexSet(3, 8), mask_outside(8, 3)),
    ("vertex-set-negative-mask", lambda: VertexSet(3, -1), mask_outside(-1, 3)),
    ("hypergraph-mask", lambda: Hypergraph._from_masks(3, frozenset({8})), mask_outside(8, 3)),
    ("hypergraph-negative-mask", lambda: Hypergraph._from_masks(3, frozenset({-2})),
     mask_outside(-2, 3)),
    ("closed-mask", lambda: ClosedHypergraph._from_masks(4, 0, frozenset({0b10011, 0b11100})),
     mask_outside(0b10011, 4)),
    ("closed-negative-mask", lambda: ClosedHypergraph._from_masks(4, 0, frozenset({-3})),
     mask_outside(-3, 4)),
    ("graph-row-out-of-range", lambda: Graph(3, (8, 0, 0)), mask_outside(8, 3)),
    # a member lives in its family's universe
    ("hypergraph-member-universe", lambda: Hypergraph(4, frozenset({FOREIGN})), member_outside(5, 4)),
    ("closed-middle-universe", lambda: ClosedHypergraph(4, 1, frozenset({FOREIGN})),
     member_outside(5, 4)),
]

# (id, call, outcome): a ValueError is raised with exactly its message,
# anything else is the value returned.
GUARDS = [
    ("graph-edge-out-of-range", lambda: Graph.from_edges(3, [(1, 4)]),
     ValueError("edge (1, 4) outside vertex range 1..3")),
    # Graph.__init__ alone rejects self-loops, after from_edges has built the
    # rows, so a range fault on any edge is named before a self-loop.
    ("graph-edge-self-loop", lambda: Graph.from_edges(3, [(2, 2)]),
     ValueError("self-loop at vertex 2")),
    ("graph-edge-range-before-self-loop", lambda: Graph.from_edges(3, [(1, 1), (1, 9)]),
     ValueError("edge (1, 9) outside vertex range 1..3")),
    ("is-connected-empty", lambda: Graph(0, ()).is_connected(), True),
    ("is-connected-single", lambda: Graph(1, (0,)).is_connected(), True),
    ("is-r-split-negative-r", lambda: is_r_split(P3, VertexSet.of(3, (1,)), -1), R_NEGATIVE),
    ("is-r-rank-connected-negative-r", lambda: is_r_rank_connected(P3, -1), R_NEGATIVE),
    ("normalize-negative-r", lambda: normalize(Hypergraph(4, frozenset()), -1), R_NEGATIVE),
    ("enumerate-negative-r", lambda: enumerate_r_splits(P3, -1), R_NEGATIVE),
    ("rank-connected-negative-r", lambda: rank_connected_splits(P3, -1), R_NEGATIVE),
    ("close-full-negative-r", lambda: close_full(Hypergraph(4, frozenset()), -1), R_NEGATIVE),
    ("closed-negative-r", lambda: ClosedHypergraph(4, -1, frozenset()), R_NEGATIVE),
    # Where a routine checks more than r, the order of its checks is kept too.
    ("closed-universe-before-r", lambda: ClosedHypergraph(-1, -1, frozenset()),
     ValueError("universe size must be >= 0, got -1")),
    # A family's own universe is judged before its members' universes.
    ("hypergraph-universe-before-members", lambda: Hypergraph(-1, frozenset({VertexSet(3, 1)})),
     ValueError("universe size must be >= 0, got -1")),
    ("closed-universe-budget-before-members",
     lambda: ClosedHypergraph(200, 1, frozenset({VertexSet(3, 3)})),
     ValueError(f"universe size 200 exceeds the configured budget ({rsplits.limits.MAX_UNIVERSE}); "
                "raise rsplits.limits.MAX_UNIVERSE to allow it")),
    ("orthogonal-universe-before-r", lambda: is_orthogonal(ONE, FOREIGN, -1), mismatch(4, 5)),
    *UNIVERSE_RULES,
]


@pytest.mark.parametrize("call, outcome", [row[1:] for row in GUARDS],
                         ids=[row[0] for row in GUARDS])
def test_guard(call, outcome):
    if isinstance(outcome, ValueError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(outcome))}$") as exc:
            call()
        assert type(exc.value) is ValueError
    else:
        assert call() == outcome


@pytest.mark.parametrize("stem", ["universe mismatch: ", " has bits outside a universe of size ",
                                  " in family over "])
def test_each_universe_rule_is_raised_in_one_place(stem):
    """Every entry point above reaches its rule's text through one raise."""
    sources = Path(rsplits.__file__).parent.glob("*.py")
    assert sum(path.read_text(encoding="utf-8").count(stem) for path in sources) == 1
