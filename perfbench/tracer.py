"""In-memory tracing of the rsplits layers, installed from outside the library.

`Tracer.install()` replaces public functions of the `rsplits` modules with
wrappers and `Tracer.uninstall()` puts the originals back; no source file
changes.  A function in SPANS records a span (name, start, end, parent span,
op id); a function in COUNTED only bumps a call counter, because it runs in
an inner loop where a span would cost more than the work it measures.

`cli`, `splits` and `ortho` bind names with `from .x import f`, so patching
the defining module alone would miss their calls.  Every attribute of every
loaded `rsplits` module that *is* the original function object is replaced.

Spans stay in memory until `summary()` folds them into per-name calls, total
and self time.  Self time is a span's duration minus the time covered by its
child spans.  Counters are also kept per innermost open span
(`name@parent`), which is how `VertexSet` constructions are attributed to a
layer.

Which end-to-end figure each layer's metrics should move, and where:
- cli: startup and `cli.main` self time move graph-verify op_p50_ms;
- graph: cut_rank and connectivity counts and time move graph-verify
  op_tail_ms and wall_s, and nothing elsewhere (the graph layer only works
  in graph-verify);
- bitset: rank_of_rows calls move graph-verify; VertexSet constructions
  move pair-closures wall_s and op_p50_ms;
- splits: enumeration and split yield move graph-verify op_tail_ms; phi,
  essential members and essential_representation time move
  crossfree-family wall_s and op_tail_ms;
- closure: close_full / close_degenerate move pair-closures first,
  crossfree-family second;
- hypergraph: ClosedHypergraph constructions move pair-closures wall_s;
  normalize, materialize and the file format move crossfree-family
  op_tail_ms and peak_rss_mb;
- ortho: the oracle moves pair-closures; the cross-free chain moves
  crossfree-family wall_s;
- verification: per-property self time moves verify-suite;
- bruteforce: the oracle floor, which should not move;
- limits: refusals feed failed ops.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("bitset", "bruteforce", "cli", "closure", "graph", "hypergraph",
           "limits", "ortho", "splits", "verification")

# (module, function); the span is named "<module>.<function>".
SPANS = (
    ("cli", "main"),
    ("graph", "is_r_rank_connected"),
    ("graph", "parse_graph"),
    ("splits", "enumerate_r_splits"),
    ("splits", "essential_representation"),
    ("splits", "verify_representation"),
    ("closure", "close_full"),
    ("closure", "close_degenerate"),
    ("hypergraph", "normalize"),
    ("hypergraph", "format_closed"),
    ("hypergraph", "parse_closed"),
    ("ortho", "is_orthogonal_oracle"),
    ("ortho", "find_crossing_pair"),
    ("ortho", "cross_free_closure"),
    ("ortho", "crossfree_size_bounds"),
    ("ortho", "build_family"),
    ("bruteforce", "brute_closure"),
    ("bruteforce", "brute_splits"),
)

# (module, function); counted as "<module>.<function>.calls".
COUNTED = (
    ("bitset", "rank_of_rows"),
    ("graph", "cut_rank"),
    ("splits", "phi"),
    ("hypergraph", "equals"),
    ("ortho", "is_orthogonal"),
)


def _len_middles(result) -> int:
    return len(result.middles)


# Work counts read off a wrapped function's result: name -> (counter, measure).
RESULT_COUNTS = {
    "splits.enumerate_r_splits": ("splits.middles_found", _len_middles),
    "splits.essential_representation": ("splits.essential_members", len),
    "closure.close_full": ("closure.close_full.middles_out", _len_middles),
    "splits.phi": ("splits.phi.hits", lambda result: result is not None),
}


def rsplits_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "rsplits" or name.startswith("rsplits."))]


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Point every rsplits module attribute that is `original` at `replacement`.

    Returns the (module, attribute, original) triples needed to undo it.
    """
    undo = []
    for mod in rsplits_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, layer, start, end, parent, op, child_s]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.absorbed = empty_summary()    # summaries traced in child processes
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, layer, time.perf_counter(), 0.0, parent, self.op, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        self.stack.pop()
        record[3] = time.perf_counter()
        if record[4] >= 0:
            self.spans[record[4]][6] += record[3] - record[2]

    @contextmanager
    def span(self, name: str):
        record = self._open(name, name.split(".", 1)[0])
        try:
            yield
        finally:
            self._close(record)

    @contextmanager
    def op_span(self):
        """Root span of one benchmark op; spans opened inside share its id."""
        self.op += 1
        with self.span("bench.op"):
            yield

    # -- wrappers ------------------------------------------------------------

    def _count(self, key: str) -> None:
        self.counts[key] += 1
        if self.stack:
            self.counts[key + "@" + self.spans[self.stack[-1]][0]] += 1

    def _result_hook(self, name: str):
        entry = RESULT_COUNTS.get(name)
        if entry is None:
            return None
        counter, measure = entry
        counts = self.counts

        def hook(result) -> None:
            counts[counter] += measure(result)

        return hook

    def _span_wrapper(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = self._result_hook(name)

        def wrapper(*args, **kwargs):
            record = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        key = name + ".calls"
        hook = self._result_hook(name)

        def wrapper(*args, **kwargs):
            self._count(key)
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _construction_counter(self, key: str, post_init, per_layer: bool):
        counts = self.counts
        spans = self.spans
        stack = self.stack

        def wrapper(obj) -> None:
            counts[key] += 1
            if per_layer and stack:
                counts[spans[stack[-1]][1] + ".vertexset_new"] += 1
            post_init(obj)

        return wrapper

    def _refusal_counter(self, fn, error_type):
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except error_type:
                counts["limits.refusals"] += 1
                raise

        return wrapper

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module("rsplits." + name) for name in MODULES}
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._counter_wrapper)):
            for mod, fn_name in table:
                original = getattr(mods[mod], fn_name)
                self._undo += replace_everywhere(original, make(f"{mod}.{fn_name}", original))
        limits = mods["limits"]
        self._undo += replace_everywhere(
            limits.check_cap, self._refusal_counter(limits.check_cap, limits.TooLargeError))
        closed_cls = mods["hypergraph"].ClosedHypergraph
        self._patch_attr(closed_cls, "materialize",
                         self._span_wrapper("hypergraph.materialize", closed_cls.materialize))
        self._patch_attr(closed_cls, "__post_init__", self._construction_counter(
            "hypergraph.closed_new", closed_cls.__post_init__, per_layer=False))
        vs_cls = mods["bitset"].VertexSet
        self._patch_attr(vs_cls, "__post_init__", self._construction_counter(
            "bitset.vertexset_new", vs_cls.__post_init__, per_layer=True))

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.op = 0
        self.absorbed = empty_summary()

    def absorb(self, child_summary: dict) -> None:
        merge_summaries(self.absorbed, child_summary)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds, plus all counters."""
        spans: dict[str, dict] = {}
        for name, _layer, start, end, _parent, _op, child in self.spans:
            entry = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        own = {"spans": spans, "counts": dict(self.counts), "samples": {}}
        return merge_summaries(own, self.absorbed)


def merge_summaries(into: dict, other: dict) -> dict:
    """Add `other` into `into` (as produced by `Tracer.summary`)."""
    for name, entry in other["spans"].items():
        target = into["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in target:
            target[key] += entry[key]
    for name, value in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    for name, values in other["samples"].items():
        into["samples"].setdefault(name, []).extend(values)
    return into


def empty_summary() -> dict:
    return {"spans": {}, "counts": {}, "samples": {}}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metric(name: str, summary: dict) -> float:
    """Value of one per-layer metric named in BENCHMARK.json."""
    spans, counts = summary["spans"], summary["counts"]
    if name == "splits.split_yield":
        return _ratio(counts.get("splits.middles_found", 0), counts.get("graph.cut_rank.calls", 0))
    if name == "splits.phi_hit_ratio":
        return _ratio(counts.get("splits.phi.hits", 0), counts.get("splits.phi.calls", 0))
    if name in summary["samples"]:
        return statistics.median(summary["samples"][name])
    if name.endswith(".self_s"):
        return spans.get(name[: -len(".self_s")], {}).get("self_s", 0.0)
    if name.endswith(".calls") and name[: -len(".calls")] in spans:
        return spans[name[: -len(".calls")]]["calls"]
    return counts.get(name, 0)
