"""One benchmark process: set a workload up, then measure it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --scale full|toy --workdir DIR [--setup-only]

`run.py` starts it from the root of a checkout.  It imports rsplits from
./src, builds the workload's inputs, warms up, and prints `ready <ns> <ref>`
(a CLOCK_MONOTONIC reading, then a reference loop time taken just after it;
see reference.py) so the parent can time set-up from the spawn.  With
--setup-only it stops there.  Otherwise it measures and prints one JSON
object as its last line.

Untraced, it repeats whole batches, at least MIN_BATCHES of them, until
another batch would take the measured time past --seconds.  Traced, it
alternates an untraced and a traced batch on the same rule, so the tracing
overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time

import reference

MIN_BATCHES = 3
TAIL_BEYOND = 10


def tail_percentile(batch_ops: int) -> float:
    """Highest percentile of a batch with TAIL_BEYOND ops beyond it."""
    return max(50.0, 100.0 * (batch_ops - TAIL_BEYOND) / batch_ops)


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    index = math.ceil(percentile / 100.0 * len(sorted_values)) - 1
    return sorted_values[min(max(index, 0), len(sorted_values) - 1)]


def run_checked_batch(workload, tracer=None) -> tuple[float, list, list]:
    reference.CLOCK.reset()
    start = time.perf_counter()
    ops = workload.run_batch(tracer)
    wall = time.perf_counter() - start
    reference.CLOCK.sample()      # the sample after the batch's last op
    return wall, ops, workload.check(ops)


def failures(errors: list) -> list[str]:
    return [e for e in errors if e is not None]


def measure(workload, seconds: float) -> dict:
    """Time the batch repeatedly.  wall_s, op_p50_ms and op_tail_ms all come
    from each op's best latency over the repeats, at reference speed (see
    run.py and reference.py); the raw_ figures are the same without scaling."""
    walls, errors = [], []
    best: list[float] = []
    raw_best: list[float] = []
    while True:
        wall, ops, errs = run_checked_batch(workload)
        walls.append(wall)
        errors += errs
        latencies = [reference.CLOCK.scale(op.start, op.latency) for op in ops]
        best = latencies if not best else [min(a, b) for a, b in zip(best, latencies)]
        raw = [op.latency for op in ops]
        raw_best = raw if not raw_best else [min(a, b) for a, b in zip(raw_best, raw)]
        if len(walls) >= MIN_BATCHES and sum(walls) + statistics.median(walls) > seconds:
            break
    percentile = tail_percentile(len(best))
    failed = failures(errors)
    raw_sorted = sorted(raw_best)
    return {
        "batches": len(walls),
        "batch_ops": len(best),
        "attempted": len(errors),
        "failed": len(failed),
        "errors": failed[:5],
        "batch_walls_s": walls,
        "op_best_ms": [latency * 1e3 for latency in best],
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": nearest_rank(sorted(best), percentile) * 1e3,
        "raw_wall_s": sum(raw_best),
        "raw_op_p50_ms": statistics.median(raw_sorted) * 1e3,
        "raw_op_tail_ms": nearest_rank(raw_sorted, percentile) * 1e3,
        "tail_percentile": percentile,
        "tail_ops": len(best),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def is_count(name: str) -> bool:
    return not (name.endswith("self_s") or name.endswith("_ms") or name.endswith("_frac"))


def measure_traced(workload, seconds: float, names: list[str]) -> dict:
    from tracer import Tracer, layer_metric

    tracer = Tracer()
    plain_walls, traced_walls, summaries, errors = [], [], [], []
    while True:
        wall, _, errs = run_checked_batch(workload)
        plain_walls.append(wall)
        errors += errs
        tracer.reset()
        tracer.install()
        try:
            wall, _, errs = run_checked_batch(workload, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        summaries.append(tracer.summary())
        errors += errs
        if sum(plain_walls) + sum(traced_walls) + plain_walls[-1] + traced_walls[-1] > seconds:
            break
    metrics, counts_repeat = {}, True
    for name in names:
        if name == "trace.overhead_frac":
            value = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        elif is_count(name):
            values = [layer_metric(name, s) for s in summaries]
            counts_repeat &= len(set(values)) == 1
            value = values[0]
        else:
            value = statistics.median(layer_metric(name, s) for s in summaries)
        metrics[name] = value
    failed = failures(errors)
    result = {
        "batches": len(plain_walls) + len(traced_walls),
        "traced_batches": len(traced_walls),
        "attempted": len(errors),
        "failed": len(failed),
        "errors": failed[:5],
        "plain_walls_s": plain_walls,
        "traced_walls_s": traced_walls,
        "counts_repeat": counts_repeat,
        "per_layer": metrics,
    }
    if hasattr(workload, "duplicated_scan_check"):
        result["duplicated_scan"] = workload.duplicated_scan_check()
    return result


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.scale, root, args.workdir)
    try:
        workload.warmup()
        # The inputs live for the whole run; keep them out of the collector's
        # full passes so pauses come from the library's own allocations.
        gc.freeze()
        ready_ns = time.monotonic_ns()
        print("ready", ready_ns, reference.loop(), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            result = measure_traced(workload, args.seconds, names)
        else:
            result = measure(workload, args.seconds)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
