"""Command-line interface.

Exit codes follow one contract: 0 means true/success, 1 means a queried
property is false or a required hypothesis fails, 2 means a parse or
usage error.

`ortho` and `verification` are imported inside the commands that use
them, so a graph command such as `rsplit verify -g` never loads them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .bitset import VertexSet
from .closure import close_degenerate, close_full
from .graph import GRAPH_FORMAT_HELP, cut_rank, is_r_rank_connected, parse_graph
from .hypergraph import (
    HYPERGRAPH_FORMAT_HELP,
    ClosedHypergraph,
    format_closed,
    format_hypergraph,
    parse_closed,
    parse_hypergraph,
)
from .limits import PROFILES, parse_int
from .splits import (
    NotRankConnectedError,
    enumerate_r_splits,
    essential_representation,
    rank_connected_splits,
    verify_representation,
)


def _load(parse, path: str):
    """Read and parse one input file; a parse error names the file, then its line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _number(token: str) -> int:
    """argparse type of the numeric options: the integer rule of the file formats."""
    try:
        return parse_int(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_out(text: str, out: Optional[str]) -> None:
    """Write to the -o path, or to stdout without one; a failed write is a usage error."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_closed(path: str, r: int) -> ClosedHypergraph:
    closed = _load(parse_closed, path)
    if closed.r != r:
        raise ValueError(f"file declares r={closed.r}, command asked for r={r}")
    return closed


def cmd_rank(args: argparse.Namespace) -> int:
    g = _load(parse_graph, args.graph)
    x = VertexSet.parse(g.n, args.set)
    rank = cut_rank(g, x)
    _emit({"command": "rank", "n": g.n, "set": str(x), "rank": rank}, args.json, [str(rank)])
    return 0


def cmd_splits(args: argparse.Namespace) -> int:
    g = _load(parse_graph, args.graph)
    family = enumerate_r_splits(g, args.r)
    _write_out(format_closed(family), args.output)
    return 0


def cmd_connected(args: argparse.Namespace) -> int:
    g = _load(parse_graph, args.graph)
    verdict = is_r_rank_connected(g, args.r)
    _emit(
        {"command": "connected", "n": g.n, "r": args.r, "r_rank_connected": verdict},
        args.json,
        ["r-rank connected" if verdict else "not r-rank connected"],
    )
    return 0 if verdict else 1


def cmd_essential(args: argparse.Namespace) -> int:
    family = rank_connected_splits(_load(parse_graph, args.graph), args.r)
    _write_out(format_hypergraph(essential_representation(family)), args.output)
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    h = _load(parse_hypergraph, args.hypergraph)
    close = close_degenerate if args.degenerate else close_full
    _write_out(format_closed(close(h, args.r)), args.output)
    return 0


def cmd_member(args: argparse.Namespace) -> int:
    closed = _load_closed(args.hypergraph, args.r)
    x = VertexSet.parse(closed.n, args.set)
    verdict = closed.contains(x)
    _emit(
        {"command": "member", "n": closed.n, "r": args.r, "set": str(x), "member": verdict},
        args.json,
        ["member" if verdict else "not a member"],
    )
    return 0 if verdict else 1


def cmd_ortho(args: argparse.Namespace) -> int:
    from .ortho import is_orthogonal, is_orthogonal_oracle

    a = VertexSet.parse(args.n, args.set_a)
    b = VertexSet.parse(args.n, args.set_b)
    if args.oracle:
        verdict = is_orthogonal_oracle(a, b, args.r)
    else:
        verdict = is_orthogonal(a, b, args.r)
    _emit(
        {
            "command": "ortho",
            "n": args.n,
            "r": args.r,
            "a": str(a),
            "b": str(b),
            "mode": "definition" if args.oracle else "formula",
            "orthogonal": verdict,
        },
        args.json,
        ["orthogonal" if verdict else "crossing"],
    )
    return 0 if verdict else 1


def cmd_crossfree(args: argparse.Namespace) -> int:
    from .ortho import find_crossing_pair

    h = _load(parse_hypergraph, args.hypergraph)
    crossing = find_crossing_pair(h, args.r)
    payload = {
        "command": "crossfree",
        "n": h.n,
        "r": args.r,
        "cross_free": crossing is None,
        "crossing_pair": None if crossing is None else [str(crossing[0]), str(crossing[1])],
    }
    if crossing is None:
        _emit(payload, args.json, ["cross-free"])
        return 0
    _emit(payload, args.json, [f"crossing pair: {crossing[0]} {crossing[1]}"])
    return 1


def cmd_family(args: argparse.Namespace) -> int:
    from .ortho import FamilyParams, build_family

    family = build_family(FamilyParams(args.r, args.k))
    _write_out(format_hypergraph(family), args.output)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .ortho import NotCrossFreeError, crossfree_size_bounds

    h = _load(parse_hypergraph, args.hypergraph)
    try:
        report = crossfree_size_bounds(h, args.r)
    except NotCrossFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = [
        f"middle edges        {report.middle_edges}",
        f"closure middles     {report.closure_middles}",
        f"closure total       {report.closure_total}",
        f"closure cap         {report.closure_cap}",
        f"chain {report.middle_edges} <= {report.closure_middles} <= {2 * report.middle_edges}: "
        + ("holds" if report.chain_holds else "VIOLATED"),
        f"cap {report.closure_total} <= {report.closure_cap}: "
        + ("holds" if report.cap_holds else "VIOLATED"),
    ]
    _emit({"command": "bounds", **report.to_dict()}, args.json, lines)
    return 0 if report.passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.graph is None and args.r is not None:
        return _usage_error("-r needs -g")
    if args.graph is not None:
        for flag, value in (("--seed", args.seed), ("--profile", args.profile)):
            if value is not None:
                return _usage_error(f"{flag} cannot be used with -g")
        g = _load(parse_graph, args.graph)
        report = verify_representation(g, args.r if args.r is not None else 1)
        lines = [
            f"splits (middles)    {report.middle_count}",
            f"essential members   {report.essential_count}",
            f"essential bound     {report.essential_bound}",
            f"closure round trip  {'ok' if report.closure_matches else 'MISMATCH'}",
            "PASS" if report.passed else "FAIL",
        ]
        _emit({"command": "verify", **report.to_dict()}, args.json, lines)
        return 0 if report.passed else 1
    from .verification import run_verification_suite

    suite = run_verification_suite(
        seed=2024 if args.seed is None else args.seed,
        profile=args.profile or "quick",
    )
    _emit(
        {"command": "verify", **suite.to_dict()},
        args.json,
        suite.format_lines().splitlines(),
    )
    return 0 if suite.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsplit",
        description=(
            "Cut-rank and r-split machinery: enumerate low-rank cuts of a graph, "
            "close hyperedge families under the complement and union rules, extract "
            "essential generators, and test r-orthogonality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, json_flag: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit the result as one JSON object")
        return p

    graph_help = f"graph file: {GRAPH_FORMAT_HELP}"
    hypergraph_help = f"hypergraph file: {HYPERGRAPH_FORMAT_HELP}"

    p = add("rank", cmd_rank, "rank of the cut at a vertex set")
    p.add_argument("-g", "--graph", required=True, help=graph_help)
    p.add_argument("-X", dest="set", required=True, help="vertex set, e.g. 1,3,7 ('-' for empty)")

    p = add("splits", cmd_splits, "enumerate all r-splits as a closed family", json_flag=False)
    p.add_argument("-g", "--graph", required=True, help=graph_help)
    p.add_argument("-r", type=_number, required=True)
    p.add_argument("-o", "--output", help="write here instead of stdout")

    p = add("connected", cmd_connected, "test r-rank connectivity (exit 0/1)")
    p.add_argument("-g", "--graph", required=True, help=graph_help)
    p.add_argument("-r", type=_number, required=True)

    p = add("essential", cmd_essential, "essential members of the r-split family", json_flag=False)
    p.add_argument("-g", "--graph", required=True, help=graph_help)
    p.add_argument("-r", type=_number, required=True)
    p.add_argument("-o", "--output")

    p = add("closure", cmd_closure, "close a family under the rules (K2 optional)", json_flag=False)
    p.add_argument("-H", "--hypergraph", required=True, help=hypergraph_help)
    p.add_argument("-r", type=_number, required=True)
    p.add_argument("--degenerate", action="store_true", help="complement rule only, no unions")
    p.add_argument("-o", "--output")

    p = add(
        "member",
        cmd_member,
        "membership in a closed family (exit 0/1); the file is trusted to be "
        "closed under K2, which is not checked",
    )
    p.add_argument("-H", "--hypergraph", required=True, help=hypergraph_help)
    p.add_argument("-r", type=_number, required=True)
    p.add_argument("-X", dest="set", required=True)

    p = add("ortho", cmd_ortho, "r-orthogonality of two vertex sets (exit 0/1)")
    p.add_argument("-n", type=_number, required=True)
    p.add_argument("-r", type=_number, required=True)
    p.add_argument("-A", dest="set_a", required=True)
    p.add_argument("-B", dest="set_b", required=True)
    p.add_argument("--oracle", action="store_true", help="decide via pair closures, not the formula")

    p = add("crossfree", cmd_crossfree, "test whether a family is r-cross-free (exit 0/1)")
    p.add_argument("-H", "--hypergraph", required=True, help=hypergraph_help)
    p.add_argument("-r", type=_number, required=True)

    p = add(
        "family",
        cmd_family,
        "the colored value-sum family with k^r edges over n = k(r+1) vertices; "
        "value v of color c is vertex (c-1)*k + v + 1",
        json_flag=False,
    )
    p.add_argument("-r", type=_number, required=True)
    p.add_argument("-k", type=_number, required=True)
    p.add_argument("-o", "--output")

    p = add("bounds", cmd_bounds, "size bounds of a cross-free family and its closure")
    p.add_argument("-H", "--hypergraph", required=True, help=hypergraph_help)
    p.add_argument("-r", type=_number, required=True)

    p = add("verify", cmd_verify, "round-trip check for a graph, or the full property suite")
    p.add_argument(
        "-g", "--graph", help=f"check reconstruction of this graph's r-splits; {graph_help}"
    )
    p.add_argument("-r", type=_number, help="rank parameter (default 1 with -g)")
    p.add_argument("--seed", type=_number, help="suite seed (default 2024; not with -g)")
    p.add_argument("--profile", choices=PROFILES, help="suite profile (default quick; not with -g)")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotRankConnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
