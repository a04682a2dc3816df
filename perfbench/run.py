"""The rsplits benchmark: one command runs one workload and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the library in ./src.
BENCHMARK.json names the workloads and metrics.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer ones.  The line before it, `record {...}`, is the full run record
that `compare.py` reads; the lines above are the same figures for people.

Every timing is reported at the reference host speed of reference.py: it
is scaled by a fixed pure-Python loop timed just before and just after it,
because the shared 2-vCPU VM this was built on changes speed by up to 1.5x
for minutes at a time.  On a host at the reference speed the figures are
wall times; the run record keeps the raw wall times as `raw_*`.

Each measurement runs in a fresh worker process (worker.py).  `setup_s` is
the time from spawning a worker until its first op is ready: interpreter
start, `import rsplits`, input generation and warm-up.  It is the median of
SETUP_SPAWNS set-up-only spawns plus the measuring one.  Half of those
spawns run before the measuring worker and half after it.

A run repeats the workload's fixed batch of ops.  The three latency
metrics are built from each op's best latency over those repeats: `wall_s`
is their sum (the batch's time to solution), `op_p50_ms` their median and
`op_tail_ms` the highest percentile of them with ten ops beyond it; the
record states that percentile and the op count.  Best of repeats because
the host also has spells of seconds (a fixed loop took 15 ms in its fast
state and 20-26 ms in its slow one), so a median, mean or pooled
percentile mostly measures how long a run happened to spend in each.  A
batch takes a few seconds, so an op's repeats fall in different spells.
The ops are deterministic, so a slowdown in the library shows in every
repeat.  Raw batch walls and a host speed probe taken before and after
are recorded too.

`fail_frac` is `failed / attempted`.  It is printed and recorded, but it is
not a metric of BENCHMARK.json, where every metric must be non-zero; the
final line's `attempted` and `failed` carry it.

`--scale toy` runs every workload at toy size; the self-test uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 6
DEADLINE_S = 170      # the whole run must end within 180 s
WORKDIR = ".perfbench_work"


class BenchError(Exception):
    pass


def spawn_worker(args, workdir: str, deadline: float,
                 setup_only: bool) -> tuple[float, float, dict]:
    """Run one worker; return its set-up seconds at reference speed and as
    measured, and, unless setup_only, its result."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--workdir", workdir]
    if setup_only:
        command.append("--setup-only")
    before = reference.loop()
    spawned_ns = time.monotonic_ns()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = stdout.splitlines()
    ready = [ln for ln in lines if ln.startswith("ready ")]
    if not ready:
        raise BenchError("worker never reported ready")
    _, ready_ns, after = ready[0].split()
    raw_s = (int(ready_ns) - spawned_ns) / 1e9
    setup_s = reference.at_reference_speed(raw_s, before, float(after))
    return setup_s, raw_s, (None if setup_only else json.loads(lines[-1]))


def host_probe_ms() -> float:
    """Best of five timings of a fixed pure-Python loop: the host's speed at the
    moment, recorded so that a run made during a slow spell shows as one."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict:
    values = {"setup_s": statistics.median(scaled for scaled, _ in setups)}
    for name in ("wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"):
        values[name] = result[name]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rsplits", "__init__.py")):
        print("error: run from the root of an rsplits checkout (no src/rsplits here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metric_defs = bench["per_layer" if args.trace else "end_to_end"]

    load_start = os.getloadavg()
    probe_start = host_probe_ms()
    workdir = os.path.join(root, WORKDIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    deadline = started + DEADLINE_S
    try:
        spawns = 0 if args.trace else SETUP_SPAWNS
        setups = [spawn_worker(args, workdir, deadline, setup_only=True)[:2]
                  for _ in range(spawns // 2)]
        setup_s, raw_setup_s, result = spawn_worker(args, workdir, deadline, setup_only=False)
        setups.append((setup_s, raw_setup_s))
        setups += [spawn_worker(args, workdir, deadline, setup_only=True)[:2]
                   for _ in range(spawns - spawns // 2)]
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORKDIR))
        except OSError:
            pass    # another run still uses it
    load_end = os.getloadavg()
    probe_end = host_probe_ms()

    values = result["per_layer"] if args.trace else end_to_end(result, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_defs}
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "setup_samples_s": [scaled for scaled, _ in setups],
        "raw_setup_samples_s": [raw for _, raw in setups],
        "worker": {k: v for k, v in result.items() if k != "per_layer"},
        "commit": git_commit(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "host_probe_ms": [probe_start, probe_end],
        "elapsed_s": time.monotonic() - started,
    }

    print(f"{args.workload} seed={args.seed} trace={args.trace} scale={args.scale}: "
          f"{result['batches']} batches, {attempted} ops attempted, {failed} failed")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<44} {shown} {metric['unit']}")
    print(f"  {'fail_frac':<44} {record['fail_frac']:>14.6g} (failed / attempted)")
    if not args.trace:
        print(f"  op_tail_ms is p{result['tail_percentile']:.2f} of the best latencies of"
              f" {result['tail_ops']} ops over {result['batches']} repeats")
        print(f"  as measured, without scaling to reference speed: setup_s"
              f" {statistics.median(record['raw_setup_samples_s']):.6g} s, wall_s"
              f" {result['raw_wall_s']:.6g} s, op_p50_ms {result['raw_op_p50_ms']:.6g} ms,"
              f" op_tail_ms {result['raw_op_tail_ms']:.6g} ms")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    print(f"  load average {load_start[0]:.2f} -> {load_end[0]:.2f}, host probe {probe_start:.1f} ->"
          f" {probe_end:.1f} ms, nproc {record['nproc']}, {record['cpu_model']},"
          f" Python {record['python']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
