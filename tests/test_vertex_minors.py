"""Local complementation and relabelling as an oracle for the split search,
at every r and past the brute-force cap.

Local complementation at v complements the graph induced on v's
neighbours.  It leaves every cut-rank unchanged (Bouchet; Oum, "Rank-width
and vertex-minors", JCTB 95 (2005)), and so does a pivot along an edge uv,
which is local complementation at u, v and u again.  So a graph and each
such transform have the same r-splits, the same r-rank connectivity and
the same essential members, or are refused alike.  Relabelling the
vertices maps all of these through the relabelling.  No transform keeps
the partial ranks that the search prunes on, so a search that prunes
wrongly answers differently on graphs that must agree.
"""

from __future__ import annotations

import random

import pytest

import rsplits.graph
from conftest import source_mutant
from rsplits.bitset import mask_members
from rsplits.graph import Graph, is_r_rank_connected
from rsplits.splits import (
    NotRankConnectedError,
    enumerate_r_splits,
    essential_representation,
    rank_connected_splits,
)

# (n, r) of the seeded G(n, 0.3); 7 of the 24 are not r-rank connected.
GNP = [(n, r) for n in range(15, 23) for r in (1, 2, 3)]


@pytest.fixture(autouse=True)
def large_n(monkeypatch):
    monkeypatch.setenv("RSPLIT_MAX_N", "32")


def local_complement(g: Graph, v: int) -> Graph:
    """g with the graph induced on the neighbours of vertex v complemented."""
    nbrs = g.adj[v - 1]
    return Graph(g.n, tuple(row ^ (nbrs & ~(1 << u)) if nbrs >> u & 1 else row
                            for u, row in enumerate(g.adj)))


def pivot(g: Graph, u: int, v: int) -> Graph:
    return local_complement(local_complement(local_complement(g, u), v), u)


def answers(g: Graph, r: int) -> dict:
    """The verdict, the masks or the refusal of each of the four routines on g."""
    found = {"connected": is_r_rank_connected(g, r), "splits": enumerate_r_splits(g, r).masks}
    try:
        family = rank_connected_splits(g, r)
    except NotRankConnectedError as exc:
        return {**found, "refused": str(exc)}
    return {**found, "family": family.masks, "essential": essential_representation(family).masks}


def relabelled(found: dict, perm: list[int]) -> dict:
    """answers() with every mask mapped through the relabelling v -> perm[v - 1]."""
    def move(mask: int) -> int:
        return sum(1 << perm[v - 1] - 1 for v in mask_members(mask))

    return {key: frozenset(map(move, value)) if isinstance(value, frozenset) else value
            for key, value in found.items()}


def disagreements(g: Graph, r: int, rng: random.Random, relabel: bool) -> list[str]:
    """The transforms of g whose answers differ from g's: one to three random
    local complementations, a pivot along a random edge and, with relabel,
    a random relabelling."""
    expected = answers(g, r)
    complemented = g
    for _ in range(rng.randint(1, 3)):
        complemented = local_complement(complemented, rng.randint(1, g.n))
    cases = [("local complementation", complemented, expected),
             ("pivot", pivot(g, *rng.choice(g.edges())), expected)]
    if relabel:
        perm = rng.sample(range(1, g.n + 1), g.n)
        moved = Graph.from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])
        cases.append(("relabelling", moved, relabelled(expected, perm)))
    return [name for name, h, want in cases if answers(h, r) != want]


def gnp_disagreements(n: int, r: int) -> list[str]:
    """disagreements() on the seeded G(n, 0.3) of the (n, r) case."""
    rng = random.Random(f"gnp-{n}-{r}")
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.3]
    return disagreements(Graph.from_edges(n, edges), r, rng, relabel=True)


@pytest.mark.parametrize("n, r", GNP, ids=[f"n{n}-r{r}" for n, r in GNP])
def test_gnp_transforms_agree(n, r):
    assert gnp_disagreements(n, r) == []


@pytest.mark.parametrize("n", [24, 32])
def test_cycle_transforms_agree(n):
    """C_n at r = 2, whose arcs are its middles, keeps them under local
    complementation and pivoting (tests/test_closed_forms.py)."""
    g = Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])
    assert disagreements(g, 2, random.Random(f"cycle-{n}"), relabel=False) == []


def test_catches_a_search_that_defers_the_b_side_rank(monkeypatch):
    """A branch that puts a vertex in B skips its rank check one vertex too
    long, so cuts of rank above the bound reach the leaves."""
    mutant = source_mutant(rsplits.graph, "low_rank_cuts",
                           "na > bound and nb >= bound", "na > bound + 1 and nb >= bound")
    monkeypatch.setattr(rsplits.graph, "low_rank_cuts", mutant)
    assert any(gnp_disagreements(n, r) for n, r in GNP)
