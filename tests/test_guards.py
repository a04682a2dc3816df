"""Argument guards of the library API, each with its exact outcome.

The command line and the suite only ever pass well-formed arguments, so
these raise and early-return lines are reached from here alone.
"""

from __future__ import annotations

import re

import pytest

from rsplits.bitset import VertexSet
from rsplits.closure import close_full
from rsplits.graph import Graph, cut_rank, is_r_rank_connected, is_r_split
from rsplits.hypergraph import ClosedHypergraph, Hypergraph, normalize
from rsplits.ortho import is_orthogonal, is_orthogonal_oracle
from rsplits.splits import enumerate_r_splits, phi, rank_connected_splits

P3 = Graph.from_edges(3, [(1, 2), (2, 3)])
CLOSED4 = ClosedHypergraph(4, 1, frozenset())
FOREIGN = VertexSet.of(5, (1,))
R_NEGATIVE = ValueError("r must be >= 0")

# (id, call, outcome): a ValueError is raised with exactly its message,
# anything else is the value returned.
GUARDS = [
    ("graph-row-out-of-range", lambda: Graph(3, (8, 0, 0)),
     ValueError("adjacency row 1 has bits outside the vertex range")),
    ("graph-edge-out-of-range", lambda: Graph.from_edges(3, [(1, 4)]),
     ValueError("edge (1, 4) outside vertex range 1..3")),
    ("is-connected-empty", lambda: Graph(0, ()).is_connected(), True),
    ("is-connected-single", lambda: Graph(1, (0,)).is_connected(), True),
    ("cut-rank-universe", lambda: cut_rank(P3, VertexSet.of(4, (1,))),
     ValueError("universe mismatch: set over 4, graph over 3")),
    ("is-r-split-negative-r", lambda: is_r_split(P3, VertexSet.of(3, (1,)), -1), R_NEGATIVE),
    ("is-r-rank-connected-negative-r", lambda: is_r_rank_connected(P3, -1), R_NEGATIVE),
    ("closed-middle-universe", lambda: ClosedHypergraph(4, 1, frozenset({FOREIGN})),
     ValueError("middle over universe 5 in family over 4")),
    ("contains-universe", lambda: CLOSED4.contains(FOREIGN),
     ValueError("universe mismatch: 5 vs 4")),
    ("normalize-negative-r", lambda: normalize(Hypergraph(4, frozenset()), -1), R_NEGATIVE),
    ("oracle-universe", lambda: is_orthogonal_oracle(VertexSet.of(4, (1,)), FOREIGN, 1),
     ValueError("universe mismatch: 4 vs 5")),
    ("enumerate-negative-r", lambda: enumerate_r_splits(P3, -1), R_NEGATIVE),
    ("rank-connected-negative-r", lambda: rank_connected_splits(P3, -1), R_NEGATIVE),
    ("phi-universe", lambda: phi(CLOSED4, FOREIGN), ValueError("universe mismatch: 5 vs 4")),
    ("close-full-negative-r", lambda: close_full(Hypergraph(4, frozenset()), -1), R_NEGATIVE),
    ("closed-negative-r", lambda: ClosedHypergraph(4, -1, frozenset()), R_NEGATIVE),
    # Where a routine checks more than r, the order of its checks is kept too.
    ("closed-universe-before-r", lambda: ClosedHypergraph(-1, -1, frozenset()),
     ValueError("universe size must be >= 0, got -1")),
    ("orthogonal-universe-before-r", lambda: is_orthogonal(VertexSet.of(4, (1,)), FOREIGN, -1),
     ValueError("universe mismatch: 4 vs 5")),
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
