"""Traced runs: timing shims around the program's public layer boundaries.

The benchmark does not change the program to trace it.  Instead,
:class:`Tracer` replaces selected public functions and methods with
thin shims that record one span per call — name, start, end, parent
span and the query or delta id in flight — and restores the originals
when the traced run ends.  A function imported by name into other
modules (``from ..core.greedy import accelerated_step``) is rebound in
every loaded ``repro`` module that holds it, so callers that bypass
the defining module are timed too.

Untraced runs install nothing: the end-to-end numbers always come from
a run with the original code objects in place.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the durations of its child spans
(children run nested on the same thread, so they never overlap).
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from common import Report, Samples

#: The query or delta id the current code path works for; copied into
#: every span opened under it.  The delta feed sets it per delta and the
#: frontend copies the context into its refresh executor.
CURRENT_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_id", default=None
)

_perf = time.perf_counter


class Tracer:
    """Span recorder plus the shims that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self.latest: Dict[str, tuple] = {}
        self.batches: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []
        self._gc_started: Optional[float] = None
        self.gc_pauses: List[float] = []

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def shim(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``after(args, result)`` runs after the span closes, outside the
        timed interval, to pick up counts from arguments or results.
        """
        spans, ids, latest = self.spans, self._ids, self.latest
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = _perf()
            latest[name] = (sid, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans.append(
                    (sid, name, start, end, parent, CURRENT_ID.get(), None)
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    def record(self, name: str, start: float, end: float,
               tag=None, link=None) -> None:
        """A span observed by the benchmark itself (e.g. one query)."""
        self.spans.append((next(self._ids), name, start, end, 0, tag, link))

    def value(self, name: str, value: float) -> None:
        self.values[name].append(float(value))

    # ------------------------------------------------------------------
    # Installing and removing shims
    # ------------------------------------------------------------------
    def wrap_function(self, module, attr: str, name: str,
                      after: Optional[Callable] = None) -> None:
        """Rebind ``module.attr`` in every loaded ``repro`` module."""
        original = getattr(module, attr)
        traced = self.shim(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                self._restore.append(
                    functools.partial(setattr, mod, attr, original)
                )

    def wrap_method(self, cls, attr: str, name: str,
                    after: Optional[Callable] = None) -> None:
        """Wrap a plain method, classmethod or property of ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.shim(name, raw.__func__, after))
        elif isinstance(raw, property):
            replacement = property(
                self.shim(name, raw.fget, after), raw.fset, raw.fdel,
                raw.__doc__,
            )
        else:
            replacement = self.shim(name, raw, after)
        setattr(cls, attr, replacement)
        self._restore.append(functools.partial(setattr, cls, attr, raw))

    def count_property(self, cls, attr: str,
                       after: Callable) -> None:
        """Observe a property's results without recording spans.

        For getters read on every query (``ServingRuntime.tier``), where
        a span per read would cost more than the read itself.
        """
        raw = cls.__dict__[attr]
        getter = raw.fget

        def observed(obj):
            result = getter(obj)
            after((obj,), result)
            return result

        setattr(cls, attr, property(observed, raw.fset, raw.fdel,
                                    raw.__doc__))
        self._restore.append(functools.partial(setattr, cls, attr, raw))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _perf()
        elif self._gc_started is not None:
            self.gc_pauses.append(_perf() - self._gc_started)
            self._gc_started = None

    def install(self) -> None:
        """Shim every layer boundary the per-layer metrics name."""
        # Modules by full name: ``repro.core`` re-exports functions that
        # shadow some of its submodules (``cover``).
        (drift, context, cover, csr, graph, greedy, threshold, incremental,
         runtime, service, store) = (
            importlib.import_module(f"repro.{name}") for name in (
                "clickstream.drift", "core.context", "core.cover",
                "core.csr", "core.graph", "core.greedy", "core.threshold",
                "extensions.incremental", "serving.runtime",
                "serving.service", "serving.store",
            )
        )

        tracer = self

        def batch(args, result):
            tracer.batches.append((tracer.latest["runtime.read"][1],
                                   len(args[1])))

        def degraded(args, tier):
            if tier != runtime.Tier.FRESH:
                tracer.counts["runtime.degraded"] += 1

        def changes(args, result):
            tracer.value("drift.changes", args[0].n_changes)

        def reuse(args, result):
            solver = args[0]
            tracer.value("incremental.reuse_ratio",
                         solver.last_reused_prefix / max(1, solver.k))

        def evaluations(args, result):
            tracer.value("greedy.gain_evaluations", result.gain_evaluations)

        def retained(args, result):
            tracer.value("threshold.size", len(result.retained))

        R = runtime.ServingRuntime
        self.wrap_method(R, "covered_probability_many", "runtime.read",
                         batch)
        self.wrap_method(R, "apply_delta", "runtime.apply")
        self.count_property(R, "tier", degraded)
        S = store.SolutionSnapshot
        self.wrap_method(S, "covered_probability_many", "store.read")
        self.wrap_method(S, "build", "store.build")
        A = service.AssortmentService
        self.wrap_method(A, "__init__", "service.init")
        self.wrap_method(A, "stage_delta", "service.stage")
        self.wrap_method(A, "refresh", "service.refresh")
        self.wrap_method(A, "context_key", "service.context_key")
        D = drift.GraphDelta
        self.wrap_method(D, "from_json", "drift.parse")
        self.wrap_method(D, "apply_to", "drift.apply", changes)
        self.wrap_method(graph.PreferenceGraph, "validate", "graph.validate")
        C = csr.CSRGraph
        self.wrap_method(C, "from_preference_graph", "csr.from_graph")
        self.wrap_method(C, "to_preference_graph", "csr.to_graph")
        self.wrap_function(context, "solve_context_digest", "context.digest")
        self.wrap_method(incremental.IncrementalSolver, "resolve",
                         "incremental.resolve", reuse)
        self.wrap_function(greedy, "greedy_solve", "greedy.solve",
                           evaluations)
        self.wrap_function(greedy, "prepare_accelerated_gains",
                           "greedy.first_sweep")
        self.wrap_function(greedy, "accelerated_step", "greedy.step")
        self.wrap_function(threshold, "greedy_threshold_solve",
                           "threshold.solve", retained)
        self.wrap_function(cover, "coverage_vector", "cover.vector")
        gc.callbacks.append(self._on_gc)
        self._restore.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        """Put every original back (last wrapped, first restored)."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # Reduction to per-layer metrics
    # ------------------------------------------------------------------
    def durations(self, name: str, self_time: bool = False,
                  window=None) -> Samples:
        """Per-call durations (or self times) of the spans named ``name``.

        ``window``, a ``(start, end)`` pair, keeps only spans that began
        inside it.
        """
        child_time: Dict[int, float] = defaultdict(float)
        if self_time:
            for sid, _, start, end, parent, _, _ in self.spans:
                if parent:
                    child_time[parent] += end - start
        low, high = window if window is not None else (-math.inf, math.inf)
        out = Samples("s")
        for sid, span_name, start, end, _, _, _ in self.spans:
            if span_name == name and low <= start <= high:
                out.add(end - start - child_time.get(sid, 0.0))
        return out

    def calls(self, name: str, tagged: Optional[str] = None) -> int:
        """Number of spans named ``name`` (with a tag prefix, if given)."""
        return sum(
            1 for span in self.spans
            if span[1] == name and (
                tagged is None
                or (span[5] is not None and str(span[5]).startswith(tagged))
            )
        )

    def dump(self, path, extra: dict) -> None:
        """Write every span as one JSON line, after a header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(extra) + "\n")
            for sid, name, start, end, parent, tag, link in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent or None, "id_in_flight": tag,
                    "answered_by": link,
                }) + "\n")


#: Per-layer metric name -> unit.  ``layer_metrics`` fills these in.
PER_LAYER = {
    "frontend.batch_size_p50": "count",
    "frontend.reads": "count",
    "frontend.wait_p50_s": "s",
    "frontend.rejected": "count",
    "frontend.expired": "count",
    "runtime.read_self_s": "s",
    "runtime.apply_s": "s",
    "runtime.retries": "count",
    "runtime.degraded": "count",
    "store.read_s": "s",
    "store.build_s": "s",
    "store.builds": "count",
    "service.init_s": "s",
    "service.stage_s": "s",
    "service.refresh_self_s": "s",
    "service.context_key_s": "s",
    "service.context_key_calls": "count",
    "drift.parse_s": "s",
    "drift.apply_s": "s",
    "drift.changes_p50": "count",
    "graph.validate_s": "s",
    "graph.validate_calls": "count",
    "csr.from_graph_s": "s",
    "csr.from_graph_calls": "count",
    "csr.from_graph_per_refresh": "calls/refresh",
    "csr.to_graph_s": "s",
    "context.digest_s": "s",
    "context.digest_calls": "count",
    "incremental.resolve_s": "s",
    "incremental.reuse_ratio": "ratio",
    "greedy.solve_s": "s",
    "greedy.first_sweep_s": "s",
    "greedy.steps": "count",
    "greedy.step_s": "s",
    "greedy.gain_evaluations": "count",
    "threshold.solve_s": "s",
    "threshold.size": "count",
    "cover.vector_s": "s",
    "cover.vector_calls": "count",
    "cover.vector_per_refresh": "calls/refresh",
    "gc.collections": "count",
    "gc.pause_total_s": "s",
    "loadgen.late_p99_s": "s",
    "loadgen.completed_ratio": "ratio",
}


#: The per-layer metrics of the JSON line: those every workload
#: measures.  The three workloads share the solver and coverage layers
#: (``core.greedy``, ``core.cover``, ``core.context``) and the
#: interpreter; the serving, drift, CSR-conversion and threshold layers
#: work in some workloads only, so their metrics are printed in the
#: report and kept in the run record but not carried by the JSON line.
PER_LAYER_RESULT = (
    "greedy.first_sweep_s",
    "greedy.step_s",
    "greedy.steps",
    "cover.vector_s",
    "cover.vector_calls",
    "context.digest_s",
    "context.digest_calls",
    "gc.collections",
    "gc.pause_total_s",
)


def layer_metrics(tracer: Tracer, report: Report, loadgen: dict,
                  runtime=None) -> None:
    """Reduce the recorded spans to the per-layer metrics.

    A time or ratio whose layer did no work in this workload is left
    out rather than reported as zero; counts are always reported.
    ``loadgen`` carries the benchmark's own facts about the fixed-rate
    phase: its time window, rejected and expired queries, lateness,
    completion and per-query waits.  Frontend and read metrics cover
    that phase only, not the ladder's overloaded rungs.
    """
    def median_of(metric, samples):
        if samples.n:
            report.put(metric, samples.median(), PER_LAYER[metric], samples.n)

    def values(metric, key):
        series = Samples(PER_LAYER[metric], tracer.values.get(key, []))
        median_of(metric, series)

    def count(metric, value):
        report.put(metric, value, "count", 1)

    window = loadgen.get("window")
    reads = tracer.durations("runtime.read", window=window)
    low, high = window if window is not None else (-math.inf, math.inf)
    median_of("frontend.batch_size_p50", Samples("count", [
        size for start, size in tracer.batches if low <= start <= high
    ]))
    count("frontend.reads", reads.n)
    median_of("frontend.wait_p50_s", loadgen.get("waits", Samples("s")))
    count("frontend.rejected", loadgen.get("rejected", 0))
    count("frontend.expired", loadgen.get("expired", 0))
    median_of("runtime.read_self_s",
              tracer.durations("runtime.read", True, window))
    median_of("runtime.apply_s", tracer.durations("runtime.apply"))
    retries = 0
    if runtime is not None:
        retries = runtime.metrics.counter("serving.retries").value
    count("runtime.retries", retries)
    count("runtime.degraded", tracer.counts.get("runtime.degraded", 0))
    median_of("store.read_s", tracer.durations("store.read", window=window))
    builds = tracer.durations("store.build")
    median_of("store.build_s", builds)
    count("store.builds", builds.n)
    median_of("service.init_s", tracer.durations("service.init"))
    median_of("service.stage_s", tracer.durations("service.stage"))
    median_of("service.refresh_self_s",
              tracer.durations("service.refresh", True))
    keys = tracer.durations("service.context_key")
    median_of("service.context_key_s", keys)
    count("service.context_key_calls", keys.n)
    median_of("drift.parse_s", tracer.durations("drift.parse"))
    median_of("drift.apply_s", tracer.durations("drift.apply"))
    values("drift.changes_p50", "drift.changes")
    validations = tracer.durations("graph.validate")
    median_of("graph.validate_s", validations)
    count("graph.validate_calls", validations.n)
    conversions = tracer.durations("csr.from_graph")
    median_of("csr.from_graph_s", conversions)
    count("csr.from_graph_calls", conversions.n)
    refreshes = tracer.calls("runtime.apply")
    if refreshes:
        report.put("csr.from_graph_per_refresh",
                   tracer.calls("csr.from_graph", "delta:") / refreshes,
                   "calls/refresh", refreshes)
        report.put("cover.vector_per_refresh",
                   tracer.calls("cover.vector", "delta:") / refreshes,
                   "calls/refresh", refreshes)
    median_of("csr.to_graph_s", tracer.durations("csr.to_graph"))
    digests = tracer.durations("context.digest")
    median_of("context.digest_s", digests)
    count("context.digest_calls", digests.n)
    median_of("incremental.resolve_s", tracer.durations("incremental.resolve"))
    values("incremental.reuse_ratio", "incremental.reuse_ratio")
    median_of("greedy.solve_s", tracer.durations("greedy.solve"))
    median_of("greedy.first_sweep_s", tracer.durations("greedy.first_sweep"))
    steps = tracer.durations("greedy.step")
    count("greedy.steps", steps.n)
    median_of("greedy.step_s", steps)
    values("greedy.gain_evaluations", "greedy.gain_evaluations")
    median_of("threshold.solve_s", tracer.durations("threshold.solve"))
    values("threshold.size", "threshold.size")
    vectors = tracer.durations("cover.vector")
    median_of("cover.vector_s", vectors)
    count("cover.vector_calls", vectors.n)
    count("gc.collections", len(tracer.gc_pauses))
    report.put("gc.pause_total_s", sum(tracer.gc_pauses), "s",
               len(tracer.gc_pauses))
    late = loadgen.get("late")
    if late is not None and late.percentile(99.0) is not None:
        report.put("loadgen.late_p99_s", late.percentile(99.0), "s", late.n)
    if loadgen.get("offered"):
        report.put("loadgen.completed_ratio",
                   loadgen["completed"] / loadgen["offered"], "ratio",
                   loadgen["offered"])
