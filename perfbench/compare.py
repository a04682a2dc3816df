"""Summarize or compare benchmark result sets.

    python3 perfbench/compare.py RUNS.log               # one set: medians and spread
    python3 perfbench/compare.py PARENT.log CHANGE.log  # parent against change

A result set is the captured standard output of any number of
`perfbench/run.py` runs; the `record {...}` line of each run is read and the
rest ignored.  Collect the two sets with the same --seconds, alternating
which side runs first, for example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 perfbench/run.py --workload W --seed $seed --seconds 20) >> parent.log
      (cd change && python3 perfbench/run.py --workload W --seed $seed --seconds 20) >> change.log
    done

Runs pair up in file order within a workload.  For each workload and
end-to-end metric it prints each side's median and quartiles, the share of
pairs the change wins (ties count for neither side), and a verdict against
the metric's bound in BENCHMARK.json:

- unresolved: either side's spread (quartile distance over median) exceeds
  the bound, unless every change run beats every parent run;
- regressed: the change's median is worse than the parent's by more than
  the bound;
- improved: the change wins at least 90% of the pairs and the medians differ
  by more than the parent's quartile distance;
- unchanged: otherwise.

Per-layer metrics of traced runs are listed next to each other; counts are
shown exactly.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_records(path: str) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace), in file order."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("record "):
                record = json.loads(line[len("record "):])
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse change is than parent, as a share of parent."""
    if not parent:
        return 0.0
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    if spread(parent) > bound or spread(change) > bound:
        if all(beats(c, p, better) for c in change for p in parent):
            return "improved"
        return "unresolved"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if worse_by(p_med, c_med, better) > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p, better) for p, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved"
    return "unchanged"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def metric_values(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def summarize(groups, bench) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for (workload, trace), records in sorted(groups.items()):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        probes = [p for r in records for p in r["host_probe_ms"]]
        print(f"{workload} trace={trace}: {len(records)} runs, seeds "
              f"{[r['seed'] for r in records]}, {failed}/{attempted} ops failed, "
              f"host probe {min(probes):.1f}..{max(probes):.1f} ms")
        for name in records[0]["metrics"]:
            values = metric_values(records, name)
            q1, med, q3 = quartiles(values)
            line = f"  {name:<44} median {fmt(med):>12}  q1 {fmt(q1):>12}  q3 {fmt(q3):>12}"
            if name in bounds:
                s = spread(values)
                line += f"  spread {s:.4f} (bound {bounds[name]}, {s / bounds[name]:.2f} of it)"
            print(line)


def compare(parent_groups, change_groups, bench) -> int:
    defs = {m["name"]: m for m in bench["end_to_end"]}
    regressions = 0
    for key in sorted(set(parent_groups) | set(change_groups)):
        workload, trace = key
        parent, change = parent_groups.get(key, []), change_groups.get(key, [])
        if not parent or not change:
            print(f"{workload} trace={trace}: missing on one side, skipped")
            continue
        pairs = min(len(parent), len(change))
        print(f"{workload} trace={trace}: {len(parent)} parent runs, {len(change)} change runs")
        for side, records in (("parent", parent), ("change", change)):
            failed = sum(r["failed"] for r in records)
            attempted = sum(r["attempted"] for r in records)
            probes = [p for r in records for p in r["host_probe_ms"]]
            print(f"  {side} ops failed: {failed}/{attempted},"
                  f" host probe {min(probes):.1f}..{max(probes):.1f} ms")
        for name in parent[0]["metrics"]:
            p_vals, c_vals = metric_values(parent, name), metric_values(change, name)
            if not c_vals:
                continue
            if trace:
                unit = parent[0]["metrics"][name]["unit"]
                show = (lambda vs: str(sorted(set(vs)))) if unit == "count" else (
                    lambda vs: fmt(statistics.median(vs)))
                print(f"  {name:<44} parent {show(p_vals):>14}  change {show(c_vals):>14} {unit}")
                continue
            d = defs[name]
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            wins = sum(beats(c, p, d["better"]) for p, c in zip(p_vals, c_vals))
            v = verdict(p_vals, c_vals, d["better"], d["bound"])
            regressions += v == "regressed"
            print(f"  {name:<12} parent {fmt(p_med)} [{fmt(p_q1)}, {fmt(p_q3)}]"
                  f"  change {fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}] {d['unit']}"
                  f"  wins {wins}/{pairs}  {v} (bound {d['bound']})")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    groups = [load_records(path) for path in argv]
    if len(groups) == 1:
        summarize(groups[0], bench)
        return 0
    return compare(groups[0], groups[1], bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
