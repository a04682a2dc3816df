"""Run the commands sent on standard input and time each one.

graph-verify starts its CLI ops from this small process rather than from the
worker.  A forked child counts its parent's resident pages until it execs,
and ru_maxrss keeps that high-water mark, so children forked from the
worker (inputs, brute-force checks) would report the worker's size.  Forked
from here they report their own.

Protocol, one JSON object a line: a request {"argv", "cwd", "env", "timeout",
"stamp_spawn"} gets a reply {"latency", "code", "stdout", "stderr"} or
{"latency", "error"}.  With "stamp_spawn" the spawn time goes to the child
as PERFBENCH_SPAWN_NS.  At end of input it replies {"peak_rss_mb"} for all
its children and exits.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        env = request["env"]
        start = time.perf_counter()
        if request["stamp_spawn"]:
            env = dict(env, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
        try:
            proc = subprocess.run(request["argv"], cwd=request["cwd"], env=env,
                                  capture_output=True, text=True, timeout=request["timeout"])
        except subprocess.TimeoutExpired as exc:
            reply = {"latency": time.perf_counter() - start, "error": f"timed out: {exc}"}
        else:
            reply = {"latency": time.perf_counter() - start, "code": proc.returncode,
                     "stdout": proc.stdout, "stderr": proc.stderr}
        print(json.dumps(reply), flush=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
