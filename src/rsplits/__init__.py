"""Cut-rank over GF(2), r-splits of graphs, and closure systems over
hyperedge families, with brute-force oracles for desk-scale verification."""

from .bitset import VertexSet
from .closure import check_derived_rules, close_degenerate, close_full
from .graph import (
    Graph,
    cut_rank,
    format_graph,
    is_r_rank_connected,
    is_r_split,
    is_trivial_cut,
    parse_graph,
)
from .hypergraph import (
    ClosedHypergraph,
    Hypergraph,
    NotClosedError,
    equals,
    format_closed,
    format_hypergraph,
    normalize,
    parse_closed,
    parse_hypergraph,
)
from .limits import TooLargeError
from .ortho import (
    CrossFreeBoundsReport,
    FamilyParams,
    LowerBoundReport,
    build_family,
    cross_free_closure,
    crossfree_size_bounds,
    find_crossing_pair,
    is_cross_free,
    is_orthogonal,
    is_orthogonal_oracle,
    verify_lower_bound,
)
from .splits import (
    NotRankConnectedError,
    RoundTripReport,
    enumerate_r_splits,
    essential_representation,
    phi,
    verify_representation,
)
from .verification import PropertyResult, SuiteReport, run_verification_suite

__all__ = [
    "ClosedHypergraph",
    "CrossFreeBoundsReport",
    "FamilyParams",
    "Graph",
    "Hypergraph",
    "LowerBoundReport",
    "NotClosedError",
    "NotRankConnectedError",
    "PropertyResult",
    "RoundTripReport",
    "SuiteReport",
    "TooLargeError",
    "VertexSet",
    "build_family",
    "check_derived_rules",
    "close_degenerate",
    "close_full",
    "cross_free_closure",
    "crossfree_size_bounds",
    "cut_rank",
    "enumerate_r_splits",
    "equals",
    "essential_representation",
    "find_crossing_pair",
    "format_closed",
    "format_graph",
    "format_hypergraph",
    "is_cross_free",
    "is_orthogonal",
    "is_orthogonal_oracle",
    "is_r_rank_connected",
    "is_r_split",
    "is_trivial_cut",
    "normalize",
    "parse_closed",
    "parse_graph",
    "parse_hypergraph",
    "phi",
    "run_verification_suite",
    "verify_lower_bound",
    "verify_representation",
]
