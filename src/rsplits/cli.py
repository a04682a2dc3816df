"""Command-line interface.

Exit codes follow one contract: 0 means true/success, 1 means a queried
property is false or a required hypothesis fails, 2 means a parse or
usage error.  `_report` applies it to a command's verdict, and `main`
applies it to the exceptions a command raises.  Output to a pipe that its
reader has closed ends in exit 1, with nothing on stderr.

`ortho` and `verification` are imported inside the commands that use
them, so a graph command such as `rsplit verify -g` never loads them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .bitset import VertexSet
from .closure import close_degenerate, close_full
from .graph import GRAPH_FORMAT_HELP, cut_rank, is_r_rank_connected, parse_graph
from .hypergraph import (
    HYPERGRAPH_FORMAT_HELP,
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


def _write_out(text: str, out: Optional[str]) -> None:
    """Write to the -o path, or to stdout without one; a failed write is a usage error."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None


def _report(args: argparse.Namespace, payload: dict, lines: list[str], ok: bool = True) -> int:
    """Print a command's result, as one JSON object under --json and as text
    lines otherwise, and return its exit code: 0 when `ok`, 1 when not."""
    if args.json:
        print(json.dumps({"command": args.command, **payload}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


def cmd_rank(args: argparse.Namespace) -> int:
    g = _load(parse_graph, args.graph)
    x = VertexSet.parse(g.n, args.set)
    rank = cut_rank(g, x)
    return _report(args, {"n": g.n, "set": str(x), "rank": rank}, [str(rank)])


def cmd_splits(args: argparse.Namespace) -> int:
    g = _load(parse_graph, args.graph)
    family = enumerate_r_splits(g, args.r)
    _write_out(format_closed(family), args.output)
    return 0


def cmd_connected(args: argparse.Namespace) -> int:
    g = _load(parse_graph, args.graph)
    verdict = is_r_rank_connected(g, args.r)
    line = f"{args.r}-rank connected" if verdict else f"not {args.r}-rank connected"
    return _report(args, {"n": g.n, "r": args.r, "r_rank_connected": verdict}, [line], verdict)


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
    closed = _load(parse_closed, args.hypergraph)
    if closed.r != args.r:
        raise ValueError(f"file declares r={closed.r}, command asked for r={args.r}")
    x = VertexSet.parse(closed.n, args.set)
    verdict = closed.contains(x)
    payload = {"n": closed.n, "r": args.r, "set": str(x), "member": verdict}
    return _report(args, payload, ["member" if verdict else "not a member"], verdict)


def cmd_ortho(args: argparse.Namespace) -> int:
    from .ortho import is_orthogonal, is_orthogonal_oracle

    a = VertexSet.parse(args.n, args.set_a)
    b = VertexSet.parse(args.n, args.set_b)
    verdict = (is_orthogonal_oracle if args.oracle else is_orthogonal)(a, b, args.r)
    payload = {"n": args.n, "r": args.r, "a": str(a), "b": str(b),
               "mode": "definition" if args.oracle else "formula", "orthogonal": verdict}
    return _report(args, payload, ["orthogonal" if verdict else "crossing"], verdict)


def cmd_crossfree(args: argparse.Namespace) -> int:
    from .ortho import find_crossing_pair

    h = _load(parse_hypergraph, args.hypergraph)
    crossing = find_crossing_pair(h, args.r)
    pair = None if crossing is None else [str(x) for x in crossing]
    payload = {"n": h.n, "r": args.r, "cross_free": pair is None, "crossing_pair": pair}
    line = "cross-free" if pair is None else f"crossing pair: {pair[0]} {pair[1]}"
    return _report(args, payload, [line], pair is None)


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
    return _report(args, report.to_dict(), lines, report.passed)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.graph is None and args.r is not None:
        raise ValueError("-r needs -g")
    if args.graph is not None:
        for flag, value in (("--seed", args.seed), ("--profile", args.profile)):
            if value is not None:
                raise ValueError(f"{flag} cannot be used with -g")
        g = _load(parse_graph, args.graph)
        report = verify_representation(g, args.r if args.r is not None else 1)
        lines = [
            f"splits (middles)    {report.middle_count}",
            f"essential members   {report.essential_count}",
            f"essential bound     {report.essential_bound}",
            f"closure round trip  {'ok' if report.closure_matches else 'MISMATCH'}",
            "PASS" if report.passed else "FAIL",
        ]
        return _report(args, report.to_dict(), lines, report.passed)
    from .verification import run_verification_suite

    suite = run_verification_suite(
        seed=2024 if args.seed is None else args.seed,
        profile=args.profile or "quick",
    )
    return _report(args, suite.to_dict(), suite.format_lines().splitlines(), suite.passed)


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

    def add(name: str, func, help_text: str, *options, json_flag: bool = True) -> None:
        """Add a subcommand with its options, each a (flags, kwargs) pair."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit the result as one JSON object")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)

    def opt(*flags: str, **kwargs) -> tuple:
        return flags, kwargs

    graph_help = f"graph file: {GRAPH_FORMAT_HELP}"
    graph = opt("-g", "--graph", required=True, help=graph_help)
    hypergraph = opt("-H", "--hypergraph", required=True,
                     help=f"hypergraph file: {HYPERGRAPH_FORMAT_HELP}")
    rank = opt("-r", type=_number, required=True)
    output = opt("-o", "--output", help="write here instead of stdout")
    vertex_set = opt("-X", dest="set", required=True, help="vertex set, e.g. 1,3,7 ('-' for empty)")

    add("rank", cmd_rank, "rank of the cut at a vertex set", graph, vertex_set)
    add("splits", cmd_splits, "enumerate all r-splits as a closed family",
        graph, rank, output, json_flag=False)
    add("connected", cmd_connected, "test r-rank connectivity (exit 0/1)", graph, rank)
    add("essential", cmd_essential, "essential members of the r-split family",
        graph, rank, output, json_flag=False)
    add("closure", cmd_closure, "close a family under the rules (K2 optional)",
        hypergraph, rank,
        opt("--degenerate", action="store_true", help="complement rule only, no unions"),
        output, json_flag=False)
    add("member", cmd_member,
        "membership in a closed family (exit 0/1); the file is trusted to be "
        "closed under K2, which is not checked",
        hypergraph, rank, vertex_set)
    add("ortho", cmd_ortho, "r-orthogonality of two vertex sets (exit 0/1)",
        opt("-n", type=_number, required=True), rank,
        opt("-A", dest="set_a", required=True), opt("-B", dest="set_b", required=True),
        opt("--oracle", action="store_true", help="decide via pair closures, not the formula"))
    add("crossfree", cmd_crossfree, "test whether a family is r-cross-free (exit 0/1)",
        hypergraph, rank)
    add("family", cmd_family,
        "the colored value-sum family with k^r edges over n = k(r+1) vertices; "
        "value v of color c is vertex (c-1)*k + v + 1",
        rank, opt("-k", type=_number, required=True), output, json_flag=False)
    add("bounds", cmd_bounds, "size bounds of a cross-free family and its closure",
        hypergraph, rank)
    add("verify", cmd_verify, "round-trip check for a graph, or the full property suite",
        opt("-g", "--graph", help=f"check reconstruction of this graph's r-splits; {graph_help}"),
        opt("-r", type=_number, help="rank parameter (default 1 with -g)"),
        opt("--seed", type=_number, help="suite seed (default 2024; not with -g)"),
        opt("--profile", choices=PROFILES, help="suite profile (default quick; not with -g)"))

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the
        # interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NotRankConnectedError) else 2


if __name__ == "__main__":
    sys.exit(main())
