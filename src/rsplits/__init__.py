"""Cut-rank over GF(2), r-splits of graphs, and closure systems over
hyperedge families, with brute-force oracles for desk-scale verification.

Submodules load on first use: `rsplits.close_full` imports
`rsplits.closure`, and `rsplits.ortho` imports the module itself, so the
`rsplit` command pays only for the modules its subcommand runs.  Every
access goes to the defining module; nothing is cached here.  `__all__` is
derived from `_EXPORTS`, the one table of public names.
"""

import importlib

# Defining module -> the public names it exports.
_EXPORTS = {
    "bitset": ("VertexSet",),
    "closure": ("check_derived_rules", "close_degenerate", "close_full"),
    "graph": (
        "Graph",
        "cut_rank",
        "format_graph",
        "is_r_rank_connected",
        "is_r_split",
        "is_trivial_cut",
        "parse_graph",
    ),
    "hypergraph": (
        "ClosedHypergraph",
        "Hypergraph",
        "NotClosedError",
        "equals",
        "format_closed",
        "format_hypergraph",
        "normalize",
        "parse_closed",
        "parse_hypergraph",
    ),
    "limits": ("TooLargeError",),
    "ortho": (
        "CrossFreeBoundsReport",
        "FamilyParams",
        "LowerBoundReport",
        "NotCrossFreeError",
        "build_family",
        "cross_free_closure",
        "crossfree_size_bounds",
        "find_crossing_pair",
        "is_cross_free",
        "is_orthogonal",
        "is_orthogonal_oracle",
        "verify_lower_bound",
    ),
    "splits": (
        "NotRankConnectedError",
        "RoundTripReport",
        "enumerate_r_splits",
        "essential_representation",
        "phi",
        "verify_representation",
    ),
    "verification": ("PropertyResult", "SuiteReport", "run_verification_suite"),
}

_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset(_EXPORTS) | {"bruteforce", "cli"}

__all__ = sorted(_DEFINED_IN)


def __getattr__(name: str):
    module = _DEFINED_IN.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
