"""Self-test of the benchmark, at toy sizes.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that:

1. every metric of BENCHMARK.json is emitted, untraced and traced, on every
   workload, with no failed op, and that each layer reports work on the
   workloads where it runs;
2. an injected wrong answer (a broken `close_full` or `cut_rank`, installed
   the way the verification-suite tests do it) is counted as failed ops;
3. per-layer counts repeat exactly across two traced runs with one seed;
4. the traced graph-verify ops show today's duplicated cut scan: two
   connectivity scans of 2^(n-1) cuts each, plus one cut per middle-sized
   side for enumeration;
5. run.py fails, printing no result, where there is no source to benchmark.

Exits 0 when all hold, 1 otherwise, naming each failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import rsplits  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import is_count  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

TAGS = [tag for tag, *_ in rsplits.verification.REGISTRY]

# Per-layer metrics that must be non-zero on each workload: its layers work there.
WORKS_ON = {
    "graph-verify": [
        "cli.startup_ms", "cli.main.self_s", "graph.cut_rank.calls",
        "graph.is_r_rank_connected.calls", "graph.is_r_rank_connected.self_s",
        "graph.parse_graph.self_s", "bitset.rank_of_rows.calls", "bitset.vertexset_new",
        "graph.vertexset_new", "splits.enumerate_r_splits.calls", "splits.middles_found",
        "splits.split_yield", "splits.phi.calls", "splits.verify_representation.self_s",
        "closure.close_full.calls", "hypergraph.closed_new", "hypergraph.equals.calls",
    ],
    "pair-closures": [
        "ortho.is_orthogonal.calls", "ortho.is_orthogonal_oracle.calls",
        "ortho.is_orthogonal_oracle.self_s", "closure.close_full.calls",
        "closure.close_full.self_s", "closure.close_full.middles_out",
        "closure.close_degenerate.calls", "closure.close_degenerate.self_s",
        "closure.vertexset_new", "hypergraph.closed_new", "hypergraph.equals.calls",
    ],
    "crossfree-family": [
        "ortho.build_family.self_s", "ortho.find_crossing_pair.self_s",
        "ortho.cross_free_closure.self_s", "ortho.crossfree_size_bounds.self_s",
        "ortho.vertexset_new", "splits.essential_representation.self_s", "splits.phi.calls",
        "splits.phi_hit_ratio", "splits.essential_members", "splits.vertexset_new",
        "hypergraph.normalize.self_s", "hypergraph.materialize.self_s",
        "hypergraph.format_closed.self_s", "hypergraph.parse_closed.self_s",
        "hypergraph.vertexset_new", "closure.close_full.calls",
    ],
    "verify-suite": [f"verification.property.{tag}.self_s" for tag in TAGS] + [
        "bruteforce.brute_closure.calls", "bruteforce.brute_closure.self_s",
        "bruteforce.brute_splits.self_s", "graph.cut_rank.calls",
        "closure.close_full.calls",
    ],
}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        problems.append(message)


def run_bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=175)
    return proc


def parsed(proc) -> tuple[dict, dict]:
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("record "):])


def check_emitted_metrics() -> dict[str, dict]:
    traced_records = {}
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-200:]})")
            if proc.returncode != 0:
                continue
            final, record = parsed(proc)
            want = {m["name"]: m["unit"] for m in BENCH[kind]}
            got = {name: m["unit"] for name, m in final["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} emits every {kind} metric with its unit")
            expect(final["correct"] and final["failed"] == 0 and final["attempted"] > 0,
                   f"{workload} trace={trace}: fail_frac 0 over {final['attempted']} ops")
            if trace == 0:
                zero = [n for n, m in final["metrics"].items() if not m["value"] > 0]
                expect(not zero, f"{workload}: end-to-end metrics are non-zero {zero}")
            else:
                idle = [n for n in WORKS_ON[workload] if not final["metrics"][n]["value"] > 0]
                expect(not idle, f"{workload}: per-layer metrics of working layers are non-zero {idle}")
                expect(record["worker"]["counts_repeat"],
                       f"{workload}: per-layer counts repeat across traced batches")
                traced_records[workload] = (final, record)
    return traced_records


def check_counts_repeat(traced_records) -> None:
    for workload, (first, _) in traced_records.items():
        proc = run_bench(workload, 1)
        if proc.returncode != 0:
            expect(False, f"{workload}: second traced run exits 0")
            continue
        second, _ = parsed(proc)
        differ = [name for name in first["metrics"] if is_count(name)
                  and first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        expect(not differ, f"{workload}: per-layer counts repeat across two traced runs {differ}")


def check_duplicated_scan(traced_records) -> None:
    scan = traced_records["graph-verify"][1]["worker"]["duplicated_scan"]
    expect(scan["ops_checked"] > 0 and scan["ops_matching"] == scan["ops_checked"],
           f"graph-verify trace shows the duplicated cut scan {scan}")


def failed_ops(workload_cls, workdir: str) -> int:
    workload = workload_cls(1, "toy", ROOT, workdir)
    return sum(e is not None for e in workload.check(workload.run_batch()))


def check_injected_faults(workdir: str) -> None:
    true_close_full = rsplits.closure.close_full
    true_cut_rank = rsplits.graph.cut_rank

    def broken_close_full(h, r):
        # Drops the first middle and its complement: still a valid closed family.
        closed = true_close_full(h, r)
        if not closed.middles:
            return closed
        a = min(closed.middles, key=rsplits.VertexSet.sort_key)
        return rsplits.ClosedHypergraph(closed.n, r, closed.middles - {a, a.complement()})

    def broken_cut_rank(g, x):
        rank = true_cut_rank(g, x)
        return rank - 1 if rank >= 2 and len(x) % 2 == 0 else rank

    for original, broken, name, targets in (
        (true_close_full, broken_close_full, "close_full",
         (workloads.PairClosures, workloads.CrossfreeFamily)),
        (true_cut_rank, broken_cut_rank, "cut_rank", (workloads.VerifySuite,)),
    ):
        for cls in targets:
            undo = tracer.replace_everywhere(original, broken)
            try:
                failed = failed_ops(cls, workdir)
            finally:
                for owner, attr, value in undo:
                    setattr(owner, attr, value)
            expect(failed > 0, f"{cls.name}: a broken {name} fails {failed} ops")
            expect(failed_ops(cls, workdir) == 0, f"{cls.name}: restoring {name} fails none")


def check_refuses_without_source(workdir: str) -> None:
    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("pair-closures", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           f"without src/ run.py exits {proc.returncode} and prints no result")


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        traced = check_emitted_metrics()
        check_counts_repeat(traced)
        if "graph-verify" in traced:
            check_duplicated_scan(traced)
        check_injected_faults(workdir)
        check_refuses_without_source(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    print(f"{len(problems)} problem(s)" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
