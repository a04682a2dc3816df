"""The benchmark's four workloads: seeded inputs, one fixed batch of ops, and
the checks that every op's output is correct.

All four are one client in a closed loop: the next op starts when the
previous one has returned, with no threads.  A batch is the workload's fixed
list of ops; a run repeats it.  Checks run after a batch, outside the timed
region; graph-verify caches its brute-force answers, so each graph is solved
once a run.  `scale="toy"` shrinks every workload for the benchmark's
self-test.

BENCHMARK.json lists graph-verify and verify-suite.  pair-closures and
crossfree-family run the same way from run.py's --workload; they are left
out of BENCHMARK.json because the run budget for four workloads leaves runs
too short to be steady on a noisy host.

The seed changes a workload's inputs without changing how much work they
are, so that runs with different seeds measure the same cost: graph-verify
relabels the vertices of a fixed graph set, and verify-suite shuffles the
order of a fixed list of property checks.  A seed that drew new random
graphs or new suite seeds would add the spread of their costs to every
timing's spread (the quick suite's time varies with a coefficient of
variation of 0.2 from one suite seed to the next).

Library entry points are looked up on their modules when a batch starts, not
bound at import, so a tracer or an injected broken routine installed between
batches is what the batch calls.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import rsplits
from rsplits import bruteforce, limits, verification
from rsplits.bitset import VertexSet
from rsplits.graph import Graph, format_graph
from rsplits.hypergraph import Hypergraph

from reference import CLOCK

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT_S = 150


@dataclass
class Op:
    start: float                   # time.perf_counter() when the op started
    latency: float
    output: Any = None
    error: Optional[str] = None    # set when the op raised


def timed(call: Callable[[], Any], tracer=None) -> Op:
    """Run one op, timing only the call; an exception is recorded, not raised."""
    CLOCK.between_ops()
    start = time.perf_counter()
    try:
        if tracer is None:
            output = call()
        else:
            with tracer.op_span():
                output = call()
    except Exception as exc:     # an op that raises is a failed op, not a dead run
        return Op(start, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Op(start, time.perf_counter() - start, output)


class Workload:
    name = ""

    def warmup(self) -> None:
        raise NotImplementedError

    def run_batch(self, tracer=None) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> list[Optional[str]]:
        """One entry per op: None when its output is correct, else why not."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def _op_error(op: Op, check: Callable[[Any], Optional[str]]) -> Optional[str]:
    if op.error is not None:
        return op.error
    return check(op.output)


# ---------------------------------------------------------------------------
# graph-verify: `rsplit verify -g FILE -r R --json`, one subprocess per op.


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def grid(rows: int, cols: int) -> Graph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def relabel_graph(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])


def random_connected_gnp(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = Graph.from_edges(n, [(u, v) for u in range(1, n + 1)
                                 for v in range(u + 1, n + 1) if rng.random() < p])
        if g.is_connected():
            return g


# (graph kind, size, r values); sizes stay within the seed's n <= 24 cap.
# The random graphs are drawn once from GRAPH_BASE_SEED; a workload seed
# only relabels vertices, which keeps each op's verdict, middle count and
# number of cuts.  Every op that is not r-rank connected (exit 1) has n <= 13,
# so where its scan stops, which relabeling moves, costs little.
GRAPH_BASE_SEED = "graph-verify:base"
GRAPH_SETS = {
    "full": (
        [("gnp", n, (1, 2, 3)) for n in (8, 11)]
        + [("gnp", n, (1, 2)) for n in (13, 14, 15)] + [("gnp", 16, (2,))]
        + [("cycle", n, (1, 2, 3)) for n in (9, 13)] + [("cycle", 15, (1, 2))]
        + [("grid", (3, 4), (1, 2, 3)), ("grid", (3, 5), (1, 2))]
    ),
    "toy": [("gnp", 8, (1, 2)), ("cycle", 9, (2, 3)), ("grid", (3, 4), (2,))],
}


def brute_ranks(g: Graph) -> dict[frozenset, int]:
    """The oracle rank of every side, as `bruteforce.brute_splits` ranks them;
    {x : rank <= j} is brute_splits(g, j) for every j at once."""
    vertices = range(1, g.n + 1)
    return {frozenset(side): bruteforce.brute_cut_rank(g, frozenset(side))
            for size in range(g.n + 1) for side in itertools.combinations(vertices, size)}


def brute_expectation(g: Graph, r: int, ranks: dict[frozenset, int]) -> dict:
    """Connectivity verdict, middle and essential counts, by brute force.

    g is r-rank connected iff no cut of rank below r is nontrivial, that is,
    has a rank below the size of its smaller side.
    """
    n = g.n
    if any(rank < r and rank < min(len(x), n - len(x)) for x, rank in ranks.items()):
        return {"connected": False}
    splits = [x for x, rank in ranks.items() if rank <= r]
    middles = [x for x in splits if r < len(x) < n - r]
    halves = [x for x in middles if 2 * len(x) <= n]
    essential = set()
    for combo in itertools.combinations(range(1, n + 1), r + 1):
        covering = [x for x in halves if x.issuperset(combo)]
        if covering:
            essential.add(frozenset.intersection(*covering))
    return {"connected": True, "middles": len(middles), "essential": len(essential)}


class GraphVerify(Workload):
    name = "graph-verify"

    def __init__(self, seed: int, scale: str, root: str, workdir: str) -> None:
        base = random.Random(GRAPH_BASE_SEED)
        rng = random.Random(f"graph-verify:{seed}")
        self.root = root
        self.graphs: list[Graph] = []
        self.ops: list[tuple[int, int]] = []      # (graph index, r)
        for kind, size, rs in GRAPH_SETS[scale]:
            if kind == "gnp":
                g = random_connected_gnp(base, size)
            elif kind == "cycle":
                g = cycle(size)
            else:
                g = grid(*size)
            self.ops += [(len(self.graphs), r) for r in rs]
            self.graphs.append(relabel_graph(g, rng))
        self.files = []
        for i, g in enumerate(self.graphs):
            path = os.path.join(workdir, f"graph{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_graph(g))
            self.files.append(path)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.launcher = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._peak_rss_mb: Optional[float] = None
        self._expected: dict[tuple[int, int], dict] = {}
        self._brute_ranks: dict[int, dict[frozenset, int]] = {}
        # Per traced op: (n, r, exit code, child trace summary).
        self.traced_ops: list[tuple[int, int, int, dict]] = []

    def _command(self, path: str, r: int, trace_out: Optional[str]) -> list[str]:
        args = ["verify", "-g", path, "-r", str(r), "--json"]
        if trace_out is None:
            return [sys.executable, "-m", "rsplits.cli", *args]
        return [sys.executable, os.path.join(HERE, "trace_cli.py"), trace_out, *args]

    def _run(self, path: str, r: int, trace_out: Optional[str] = None) -> Op:
        """One op, run and timed by the launcher."""
        request = {"argv": self._command(path, r, trace_out), "cwd": self.root, "env": self.env,
                   "timeout": OP_TIMEOUT_S, "stamp_spawn": trace_out is not None}
        CLOCK.between_ops()
        start = time.perf_counter()
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if "error" in reply:
            return Op(start, reply["latency"], error=reply["error"])
        return Op(start, reply["latency"], (reply["code"], reply["stdout"], reply["stderr"]))

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the CLI processes (ru_maxrss of the launcher's children)."""
        if self._peak_rss_mb is None:
            self.launcher.stdin.close()
            self._peak_rss_mb = json.loads(self.launcher.stdout.readlines()[-1])["peak_rss_mb"]
            self.launcher.wait(timeout=30)
        return self._peak_rss_mb

    def close(self) -> None:
        if self.launcher.poll() is None:
            self.launcher.stdin.close()
            self.launcher.stdout.read()
            self.launcher.wait(timeout=30)

    def warmup(self) -> None:
        path = os.path.join(self.workdir, "warmup.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_graph(cycle(5)))
        op = self._run(path, 1)
        if op.error is not None or op.output[0] != 0:
            raise RuntimeError(f"warm-up op failed: {op.error or op.output[2].strip()}")

    def run_batch(self, tracer=None) -> list[Op]:
        ops = []
        for k, (i, r) in enumerate(self.ops):
            if tracer is None:
                ops.append(self._run(self.files[i], r))
                continue
            trace_out = os.path.join(self.workdir, f"trace{k}.json")
            op = self._run(self.files[i], r, trace_out)
            ops.append(op)
            if op.error is None:
                try:
                    with open(trace_out, encoding="utf-8") as fh:
                        child = json.load(fh)
                except (OSError, json.JSONDecodeError) as exc:
                    op.error = f"traced op left no trace: {exc}"
                    continue
                os.remove(trace_out)
                tracer.absorb(child)
                self.traced_ops.append((self.graphs[i].n, r, op.output[0], child))
        return ops

    def expected(self, i: int, r: int) -> dict:
        key = (i, r)
        if key not in self._expected:
            g = self.graphs[i]
            if g.n <= limits.oracle_cap():
                if i not in self._brute_ranks:
                    self._brute_ranks[i] = brute_ranks(g)
                self._expected[key] = brute_expectation(g, r, self._brute_ranks[i])
            else:
                self._expected[key] = {"connected": rsplits.is_r_rank_connected(g, r)}
        return self._expected[key]

    def check(self, ops: list[Op]) -> list[Optional[str]]:
        return [_op_error(op, lambda out, i=i, r=r: self._check_one(i, r, out))
                for op, (i, r) in zip(ops, self.ops)]

    def _check_one(self, i: int, r: int, output) -> Optional[str]:
        code, stdout, stderr = output
        label = f"graph{i} n={self.graphs[i].n} r={r}"
        exp = self.expected(i, r)
        want = 0 if exp["connected"] else 1
        if code != want:
            return f"{label}: exit {code}, expected {want}: {stderr.strip()[:200]}"
        if code == 1:
            return None
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{label}: output is not JSON: {stdout[:200]!r}"
        if not got.get("passed"):
            return f"{label}: round trip did not pass: {got}"
        for key, field in (("middles", "middle_count"), ("essential", "essential_count")):
            if key in exp and got.get(field) != exp[key]:
                return f"{label}: {field}={got.get(field)}, brute force says {exp[key]}"
        return None

    def duplicated_scan_check(self) -> dict:
        """Today's verify path scans the cuts twice for connectivity and once
        more, over middle-sized sides only, for enumeration.  Counts the traced
        connected ops (r >= 1) whose trace shows exactly that."""
        checked = matching = 0
        for n, r, code, child in self.traced_ops:
            if code != 0 or r < 1:
                continue
            checked += 1
            counts = child["counts"]
            conn = child["spans"].get("graph.is_r_rank_connected", {}).get("calls", 0)
            in_conn = counts.get("graph.cut_rank.calls@graph.is_r_rank_connected", 0)
            in_enum = counts.get("graph.cut_rank.calls@splits.enumerate_r_splits", 0)
            middle_sides = sum(math.comb(n - 1, s - 1) for s in range(r + 1, n - r))
            if conn == 2 and in_conn == 2 * 2 ** (n - 1) and in_enum == middle_sides:
                matching += 1
        return {"ops_checked": checked, "ops_matching": matching}


# ---------------------------------------------------------------------------
# pair-closures: is_orthogonal and is_orthogonal_oracle on one pair per op.

# Orthogonal pairs among all A <= B over n = 1..7, r = 0..3 (44,196 pairs);
# the toy sweep (n = 1..3) count was cross-checked with bruteforce.brute_orthogonal.
SWEEPS = {"full": (7, 28068, 250), "toy": (3, 184, 5)}   # max n, orthogonal count, sample per (n, r)


class PairClosures(Workload):
    name = "pair-closures"

    def __init__(self, seed: int, scale: str, root: str, workdir: str) -> None:
        max_n, self.expected_orthogonal, sample = SWEEPS[scale]
        rng = random.Random(f"pair-closures:{seed}")
        self.pairs = []
        for n in range(1, max_n + 1):
            for r in range(4):
                for a in range(1 << n):
                    for b in range(a, 1 << n):
                        self.pairs.append((VertexSet(n, a), VertexSet(n, b), r))
        self.sweep_len = len(self.pairs)
        for n in range(max_n + 1, max_n + 4):
            for r in range(4):
                for _ in range(sample):
                    a, b = sorted((rng.getrandbits(n), rng.getrandbits(n)))
                    self.pairs.append((VertexSet(n, a), VertexSet(n, b), r))

    def _batch(self, pairs, tracer) -> list[Op]:
        formula, oracle = rsplits.ortho.is_orthogonal, rsplits.ortho.is_orthogonal_oracle
        return [timed(lambda: (formula(a, b, r), oracle(a, b, r)), tracer) for a, b, r in pairs]

    def warmup(self) -> None:
        self._batch(self.pairs[-200:], None)

    def run_batch(self, tracer=None) -> list[Op]:
        return self._batch(self.pairs, tracer)

    def check(self, ops: list[Op]) -> list[Optional[str]]:
        def agree(out, k):
            if out[0] != out[1]:
                a, b, r = self.pairs[k]
                return f"n={a.n} r={r} A={a} B={b}: formula {out[0]}, definition {out[1]}"
            return None

        errors = [_op_error(op, lambda out, k=k: agree(out, k)) for k, op in enumerate(ops)]
        census = sum(1 for op in ops[: self.sweep_len] if op.error is None and op.output[0])
        if census != self.expected_orthogonal:
            # A wrong census leaves no single culprit: the whole sweep fails.
            why = f"sweep found {census} orthogonal pairs, expected {self.expected_orthogonal}"
            errors[: self.sweep_len] = [e or why for e in errors[: self.sweep_len]]
        return errors


# ---------------------------------------------------------------------------
# crossfree-family: the colored family through closure, essential members,
# the closed-file round trip and normalize.

CROSSFREE_SETS = {
    "full": [(r, k) for r in range(1, 6) for k in range(2, 17)
             if k**r <= 256 and k * (r + 1) <= 32],
    "toy": [(1, 2), (1, 3), (2, 2)],
}


def relabel_family(h: Hypergraph, perm: list[int]) -> Hypergraph:
    return Hypergraph(h.n, frozenset(
        VertexSet.of(h.n, (perm[v - 1] for v in edge.members())) for edge in h.edges))


class CrossfreeFamily(Workload):
    name = "crossfree-family"

    def __init__(self, seed: int, scale: str, root: str, workdir: str) -> None:
        rng = random.Random(f"crossfree-family:{seed}")
        self.params = CROSSFREE_SETS[scale]
        self.perms = []
        for r, k in self.params:
            perm = list(range(1, k * (r + 1) + 1))
            rng.shuffle(perm)
            self.perms.append(perm)
        self.workdir = workdir

    def _op(self, index: int) -> dict:
        r, k = self.params[index]
        family = rsplits.ortho.build_family(rsplits.ortho.FamilyParams(r, k))
        h = relabel_family(family, self.perms[index])
        crossing = rsplits.ortho.find_crossing_pair(h, r)
        closed = rsplits.ortho.cross_free_closure(h, r)
        bounds = rsplits.ortho.crossfree_size_bounds(h, r)
        essential = rsplits.splits.essential_representation(closed)
        rebuilt = rsplits.closure.close_full(essential, r)
        matches = rsplits.hypergraph.equals(rebuilt, closed)
        path = os.path.join(self.workdir, f"closed{index}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rsplits.hypergraph.format_closed(closed))
        with open(path, encoding="utf-8") as fh:
            back = rsplits.hypergraph.parse_closed(fh.read())
        normalized = rsplits.hypergraph.normalize(back.materialize(), r)
        return {"edges": len(h), "crossing": crossing, "closed": closed, "bounds": bounds,
                "essential": len(essential), "matches": matches, "normalized": normalized}

    def warmup(self) -> None:
        self._op(0)

    def run_batch(self, tracer=None) -> list[Op]:
        return [timed(lambda: self._op(i), tracer) for i in range(len(self.params))]

    def check(self, ops: list[Op]) -> list[Optional[str]]:
        return [_op_error(op, lambda out, i=i: self._check_one(i, out)) for i, op in enumerate(ops)]

    def _check_one(self, index: int, out: dict) -> Optional[str]:
        r, k = self.params[index]
        size = k**r
        label = f"r={r} k={k}"
        if out["crossing"] is not None:
            return f"{label}: crossing pair {out['crossing']}"
        if out["edges"] != size:
            return f"{label}: {out['edges']} edges, expected {size}"
        # Each edge and its complement are middles.  For k = 2 and odd r the
        # complement of an edge (the other value at every color) is itself an
        # edge, so the closure has k^r middles instead of 2 k^r.
        middles = size if k == 2 and r % 2 == 1 else 2 * size
        if len(out["closed"].middles) != middles:
            return f"{label}: {len(out['closed'].middles)} closure middles, expected {middles}"
        if not out["bounds"].passed:
            return f"{label}: size bounds fail: {out['bounds'].to_dict()}"
        if not out["matches"]:
            return f"{label}: essential members do not regenerate the closure"
        if 2 * out["essential"] < size:
            return f"{label}: 2 * {out['essential']} essential members < {size}"
        if out["normalized"].middles != out["closed"].middles:
            return f"{label}: normalize after the file round trip differs from the closure"
        return None


# ---------------------------------------------------------------------------
# verify-suite: the quick verification suite, one property check per op.

# Two of the suite seeds the test suite runs the quick profile with.  Two
# seeds make a 50-op batch, short enough that a run repeats every op some 25
# times: the best of fewer repeats moved by 10-15% between runs on a noisy
# host, as the op missed or met the host's fast spells.
SUITE_SEEDS = {"full": (99, 4), "toy": (1,)}


class VerifySuite(Workload):
    name = "verify-suite"

    def __init__(self, seed: int, scale: str, root: str, workdir: str) -> None:
        rng = random.Random(f"verify-suite:{seed}")
        self.ops = [(s, tag) for s in SUITE_SEEDS[scale] for tag, *_ in verification.REGISTRY]
        rng.shuffle(self.ops)

    def warmup(self) -> None:
        for tag, check, _, _ in verification.REGISTRY:
            check(verification.property_rng(0, tag), 1)

    def run_batch(self, tracer=None) -> list[Op]:
        checks = {tag: (check, quick) for tag, check, quick, _ in verification.REGISTRY}
        property_rng = verification.property_rng

        def op(suite_seed: int, tag: str):
            check, trials = checks[tag]
            if tracer is None:
                return check(property_rng(suite_seed, tag), trials)
            with tracer.span(f"verification.property.{tag}"):
                return check(property_rng(suite_seed, tag), trials)

        return [timed(lambda: op(s, tag), tracer) for s, tag in self.ops]

    def check(self, ops: list[Op]) -> list[Optional[str]]:
        def passed(result, suite_seed: int) -> Optional[str]:
            return None if result.passed else f"suite seed {suite_seed}: {result.line()}"

        return [_op_error(op, lambda out, s=s: passed(out, s)) for op, (s, _) in zip(ops, self.ops)]


WORKLOADS = {cls.name: cls for cls in (GraphVerify, PairClosures, CrossfreeFamily, VerifySuite)}
