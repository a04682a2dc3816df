"""The host-speed reference the benchmark's timings are scaled by.

The shared 2-vCPU VM this benchmark was built on changes speed by up to
1.5x for minutes at a time, and evenly for everything a run does: the
per-op best latencies of two graph-verify runs ten minutes apart differed
by 1.34-1.76x on every one of their 26 ops, spawn-bound or compute-bound.
A run-to-run spread that size hides any regression within the bounds of
BENCHMARK.json.  So every timed interval is taken next to samples of a
fixed pure-Python loop, and reported at the loop's nominal speed:

    reported = measured * REFERENCE_S / reference

where `reference` is the mean of the loop's times just before and just
after the interval.  On a host that runs the loop in REFERENCE_S, reported
times are wall times.  A slower library is slower against the loop too; a
slower host is not.  The raw wall times are kept in the run record.
"""

from __future__ import annotations

import bisect
import time

# Best time of loop() on the VM above (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_S = 1.7e-3
# Between ops, sample the loop at most this often.
SAMPLE_EVERY_S = 0.02


def loop() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S * 2.0 / (before + after)


class ReferenceClock:
    """Samples loop() between ops and scales each op's latency by the
    samples taken just before and just after it."""

    def __init__(self) -> None:
        self.ends: list[float] = []       # perf_counter() when each sample ended
        self.samples: list[float] = []

    def reset(self) -> None:
        self.ends.clear()
        self.samples.clear()

    def sample(self) -> None:
        self.samples.append(loop())
        self.ends.append(time.perf_counter())

    def between_ops(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """An op that started at `start` and took `seconds`, at reference speed.

        Samples are only taken between ops, so the last one to end before
        `start` preceded the op and the first to end after it followed it.
        """
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, start + seconds)
        return at_reference_speed(seconds, self.samples[max(before, 0)],
                                  self.samples[min(after, len(self.samples) - 1)])


CLOCK = ReferenceClock()
