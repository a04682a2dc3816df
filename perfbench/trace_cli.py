"""Run the `rsplit` command line with the layer tracer installed.

    python3 perfbench/trace_cli.py OUT.json <rsplit arguments>

The traced form of one graph-verify op.  It writes the trace summary to
OUT.json and exits with the command's own exit code.  `cli.startup_ms` is the
time from the parent's spawn (PERFBENCH_SPAWN_NS, a CLOCK_MONOTONIC reading)
until `rsplits.cli` is imported and ready to run.
"""

import json
import os
import sys
import time

import rsplits.cli

from tracer import Tracer


def main() -> int:
    ready_ns = time.monotonic_ns()
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = rsplits.cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
        summary["samples"]["cli.startup_ms"] = [(ready_ns - spawn_ns) / 1e6]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
