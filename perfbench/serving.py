"""The serving workloads: ``serve-read`` and ``serve-churn``.

Both drive the production stack — ``AssortmentService`` under a
``ServingRuntime`` under a ``ServingFrontend`` with its default 2 ms
batch window — with open-loop point queries (``covered_probability``)
whose items follow the node-weight distribution, the paper's request
model.

* ``serve-read`` (200k items) sends queries at a fixed rate, then walks
  a fixed geometric rate ladder to find the highest rate the read path
  sustains.  No deltas arrive; the solver runs only before the first
  query, in set-up and in forced refreshes of the unchanged catalogue.
* ``serve-churn`` (10k items) sends queries at a fixed rate while an
  open-loop delta feed sends one JSON wire line every
  ``delta_interval_s`` through ``ServingFrontend.consume_deltas``.
  Every delta is a refresh: parse, stage, CSR rebuild, digest,
  incremental re-solve, coverage vector, snapshot build and hot swap,
  all sharing the interpreter with the reads.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from common import Report, Samples, peak_rss_mb
from feed import build_feed
from loadgen import EXPIRED, OK, REJECTED, OpenLoop, Phase
from tracing import CURRENT_ID, Tracer

_perf = time.perf_counter

#: Requests are drawn once per run into a pool this large and reused
#: cyclically by every phase.
POOL = 1 << 18

#: ``serve-read`` spends this share of the run at its fixed rate and the
#: rest on the rate ladder.
READ_SHARE = 0.5
#: Ladder grid: rung ``j`` offers ``read_qps * GRID_RATIO ** j``.
GRID_RATIO = 2.0 ** (1.0 / 12.0)
#: Independent ladder searches per run; the run reports their median.
SEARCHES = 3
#: A ladder rung passes only with its p99 from due time within this.
P99_LIMIT_S = 0.050
#: Window over which each p99 of ``query_p99_s`` is taken.
WINDOW_S = 2.0
#: How long the end of a run may wait for queries and the delta feed.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServingConfig:
    n_items: int
    read_qps: float
    k: int = 100
    churn: bool = False
    delta_interval_s: float = 0.5
    ladder: bool = False
    rung_s: float = 0.5
    top_rung: int = 60
    setup_reps: int = 3
    refresh_reps: int = 0


def prepare(cfg: ServingConfig, seed: int) -> dict:
    """Graph, request pool and (for churn) the delta feed from ``seed``."""
    from repro.workloads.graphs import random_preference_graph

    graph_seq, request_seq, feed_seq = np.random.SeedSequence(
        [seed, 2]
    ).spawn(3)
    csr = random_preference_graph(
        cfg.n_items, variant="normalized",
        seed=np.random.default_rng(graph_seq),
    )
    weights = np.asarray(csr.node_weight)
    picks = np.random.default_rng(request_seq).choice(
        csr.n_items, size=POOL, p=weights / weights.sum()
    )
    pool = [csr.items[i] for i in picks.tolist()]
    return {"csr": csr, "pool": pool, "feed_rng": feed_seq}


def _build(csr, k):
    """Service + runtime + cold ensure: what set-up costs a user.

    """
    from repro.serving import AssortmentService, ServingRuntime

    service = AssortmentService(csr, variant="normalized", k=k)
    runtime = ServingRuntime(service)
    runtime.ensure()
    return runtime


class _Run:
    """State of one serving run on the event loop."""

    def __init__(self, cfg, runtime, pool, tracer):
        self.cfg = cfg
        self.runtime = runtime
        self.pool = pool
        self.offset = 0
        self.tracer = tracer
        self.snapshots: Dict[int, object] = {}
        self.capture()

    def capture(self):
        snapshot = self.runtime.active_snapshot()
        if snapshot is not None:
            self.snapshots.setdefault(snapshot.sequence, snapshot)
        return snapshot

    def take(self, n: int):
        out = [self.pool[(self.offset + i) % len(self.pool)]
               for i in range(n)]
        self.offset += n
        return out


async def _feed(lines, due, fed):
    """The delta feed: each wire line is yielded at its due time."""
    for sequence, line in enumerate(lines, start=1):
        delay = due[sequence] - _perf()
        if delay > 0:
            await asyncio.sleep(delay)
        fed[sequence] = _perf()
        CURRENT_ID.set(f"delta:{sequence}")
        yield line


async def _poll_freshness(run: _Run, due, fresh, done: asyncio.Event):
    """Stamp the first moment each due delta is in the active snapshot.

    Polls every millisecond while a due delta is not yet reflected and
    sleeps until the next due time otherwise.  Once ``done`` is set the
    feed has finished applying, so one last look settles every delta.
    """
    while len(fresh) < len(due):
        now = _perf()
        outstanding = [s for s, t in due.items()
                       if t <= now and s not in fresh]
        if outstanding:
            snapshot = run.capture()
            sequence = snapshot.sequence if snapshot is not None else -1
            stamp = _perf()
            for s in outstanding:
                if s <= sequence:
                    fresh[s] = stamp
            if done.is_set():
                return
            await asyncio.sleep(0.001)
        elif done.is_set():
            return
        else:
            upcoming = min(t for s, t in due.items() if s not in fresh)
            await asyncio.sleep(min(max(upcoming - now, 0.0), 0.05))


def _rung_ok(phase: Phase):
    """Ladder rule: p99 within the limit, >= 99% done, no growing lag.

    A query that failed or was refused counts as missing the limit.
    """
    latency = np.full(phase.offered, 1e9)
    ok = phase.answered()
    latency[ok] = phase.done[ok] - phase.due[ok]
    p99 = float(np.percentile(latency, 99.0))
    completed = np.count_nonzero(ok) / phase.offered
    passed = (p99 <= P99_LIMIT_S and completed >= 0.99
              and not phase.fell_behind())
    return passed, p99, completed


async def _climb(run: _Run, load: OpenLoop, cfg: ServingConfig):
    """Find the highest passing rung of a fixed geometric rate grid.

    Grid rung ``j`` offers ``read_qps * GRID_RATIO ** j`` queries/s for
    ``rung_s`` seconds.  Rung 0 is the fixed-rate phase, which passed;
    rung ``top_rung`` is taken to fail.  Each search bisects the grid
    between them and lands on one rung (6% apart).  Near capacity a
    single host stall can sink a rung, so a failed rung is retried
    once, and the run reports the median of ``SEARCHES`` independent
    searches.

    Returns ``(tried, estimates)``: ``(rung, phase, passed)`` for every
    rung tried, in order, and each search's highest passing rung with
    its phase (``None`` when only rung 0 passed).
    """
    tried = []

    async def probe(j):
        rate = cfg.read_qps * GRID_RATIO ** j
        n = max(1, int(round(rate * cfg.rung_s)))
        for _ in range(2):  # a rung fails only when a retry fails too
            phase = await load.run(run.take(n), rate, _perf() + 0.05)
            if not await load.drain(5.0):
                await load.cancel()
            passed = _rung_ok(phase)[0]
            tried.append((j, phase, passed))
            if passed:
                return phase
        return None

    estimates = []
    for _ in range(SEARCHES):
        low, best, high = 0, None, cfg.top_rung
        while high - low > 1:
            middle = (low + high) // 2
            phase = await probe(middle)
            if phase is not None:
                low, best = middle, phase
            else:
                high = middle
        estimates.append((low, best))
    return tried, estimates


async def _serve(run: _Run, report: Report, seconds: float, feed):
    from repro.serving import ServingFrontend

    cfg = run.cfg
    frontend = ServingFrontend(run.runtime)
    frontend.start()
    load = OpenLoop(frontend, run.runtime.active_snapshot, run.tracer)
    phases = []
    ladder, estimates = [], []
    due: Dict[int, float] = {}
    fresh: Dict[int, float] = {}
    fed: Dict[int, float] = {}
    applied = None
    try:
        read_s = seconds * (READ_SHARE if cfg.ladder else 1.0)
        n_reads = max(1, int(round(cfg.read_qps * read_s)))
        t0 = _perf() + 0.05
        feed_task = poll_task = None
        feed_done = asyncio.Event()
        if feed is not None:
            for sequence in range(1, len(feed) + 1):
                due[sequence] = t0 + sequence * cfg.delta_interval_s
            feed_task = asyncio.get_running_loop().create_task(
                frontend.consume_deltas(_feed(feed, due, fed))
            )
            poll_task = asyncio.get_running_loop().create_task(
                _poll_freshness(run, due, fresh, feed_done)
            )
        phases.append(await load.run(run.take(n_reads), cfg.read_qps, t0))
        report.check(await load.drain(DRAIN_TIMEOUT_S),
                     "every fixed-rate query answered before the drain "
                     "timeout")
        if feed_task is not None:
            try:
                applied = await asyncio.wait_for(
                    feed_task, DRAIN_TIMEOUT_S
                )
            finally:
                feed_done.set()
                await asyncio.wait_for(poll_task, DRAIN_TIMEOUT_S)
        if cfg.ladder and _rung_ok(phases[0])[0]:
            ladder, estimates = await _climb(run, load, cfg)
    finally:
        await load.cancel()
        await frontend.aclose()
    return phases, ladder, estimates, due, fresh, fed, applied


def _check_answers(run: _Run, report: Report, phases, variant) -> int:
    """Answers must equal the snapshot that served them, bitwise.

    A query may have been answered by any snapshot active between its
    send and its answer; each such snapshot's coverage vector must in
    turn equal ``item_coverage`` recomputed from its retained set.
    """
    from repro.core.cover import item_coverage

    recomputed_ok = {}
    checked = 0
    for sequence, snapshot in run.snapshots.items():
        expected = item_coverage(snapshot.graph, snapshot.retained, variant)
        recomputed_ok[sequence] = np.array_equal(
            expected.view(np.int64),
            np.asarray(snapshot.conditional).view(np.int64),
        )
        report.check(recomputed_ok[sequence],
                     f"snapshot {sequence} conditional vector equals "
                     f"item_coverage recomputed from its retained set")
    wrong = 0
    for phase in phases:
        ok = np.flatnonzero(phase.answered())
        if not ok.size:
            continue
        base = run.snapshots[min(run.snapshots)]
        index = np.fromiter((base.index_of(phase.items[i]) for i in ok),
                            dtype=np.int64, count=ok.size)
        values = phase.value[ok].view(np.int64)
        matched = np.zeros(ok.size, dtype=bool)
        for sequence, snapshot in run.snapshots.items():
            window = (phase.seq_sent[ok] <= sequence) \
                & (sequence <= phase.seq_done[ok])
            if not window.any() or not recomputed_ok[sequence]:
                continue
            served = np.asarray(snapshot.conditional)[index].view(np.int64)
            matched |= window & (served == values)
        wrong += int(np.count_nonzero(~matched))
        checked += int(ok.size)
    report.check(wrong == 0,
                 f"{wrong} of {checked} answers differ from the snapshot "
                 f"that served them")
    return checked


def _throughput(phase: Phase) -> float:
    """Answers per second from the first due time to the last answer."""
    ok = phase.answered()
    return float(np.count_nonzero(ok)) / float(
        np.max(phase.done[ok]) - phase.due[0]
    )


def execute(cfg: ServingConfig, inputs: dict, seconds: float,
            report: Report, tracer: Optional[Tracer] = None) -> dict:
    """Set up, serve for ``seconds``, check; returns load-generator facts."""
    from repro.serving.runtime import Tier

    csr, pool = inputs["csr"], inputs["pool"]
    feed = None
    sizes = {}
    if cfg.churn:
        n_deltas = max(1, int(seconds / cfg.delta_interval_s))
        feed, sizes = build_feed(
            csr, n_deltas, np.random.default_rng(inputs["feed_rng"])
        )
    report.inputs.update(
        n_items=csr.n_items, n_edges=csr.n_edges, variant="normalized",
        k=cfg.k, read_qps=cfg.read_qps, batch_window_s=0.002,
        request_model="items drawn from the node-weight distribution",
        setup_reps=cfg.setup_reps, refresh_reps=cfg.refresh_reps,
    )
    if cfg.ladder:
        report.inputs.update(
            grid_ratio=GRID_RATIO, top_rung=cfg.top_rung,
            rung_s=cfg.rung_s, searches=SEARCHES,
            p99_limit_s=P99_LIMIT_S,
            read_phase_s=seconds * READ_SHARE,
        )
    if feed is not None:
        report.inputs.update(
            n_deltas=len(feed), delta_interval_s=cfg.delta_interval_s,
            delta_sizes=sizes,
        )

    setup = Samples("s")
    runtime = None
    for _ in range(cfg.setup_reps):
        runtime = None
        gc.collect()
        started = _perf()
        runtime = _build(csr, cfg.k)
        setup.add(_perf() - started)

    # Forced re-solves of the unchanged catalogue, before any query:
    # what an operator's refresh costs, with no delta to absorb.
    resolve = Samples("s")
    for _ in range(cfg.refresh_reps):
        started = _perf()
        refreshed = runtime.refresh()
        resolve.add(_perf() - started)
        report.operation(refreshed is not None, "forced refresh failed")

    run = _Run(cfg, runtime, pool, tracer)
    phases, ladder, estimates, due, fresh, fed, applied = asyncio.run(
        _serve(run, report, seconds, feed)
    )
    report.put_median("setup_s", setup, "median of service + runtime "
                      "construction and cold ensure()")

    read = phases[0]
    for i in range(read.offered):
        report.operation(read.status[i] == OK)
    latency = read.latencies()
    report.put("answer_p50_s", latency.median(), "s", latency.n,
               f"query_p50_s: point query from due time at "
               f"{cfg.read_qps:g} queries/s")
    windows = read.window_p99(WINDOW_S)
    report.put("query_p99_s", windows.median(), "s", latency.n,
               f"median over {windows.n} windows of {WINDOW_S:g} s of "
               f"each window's p99; whole-phase p99 "
               f"{latency.percentile(99.0)}")
    report.inputs.update(query_p99_windows_s=windows.values)
    late = read.lateness()
    if read.fell_behind():
        report.flag(f"load generator fell behind its schedule at "
                    f"{cfg.read_qps:g} queries/s (lateness p99 "
                    f"{late.percentile(99.0)} s)")

    if cfg.ladder:
        for j, phase, passed in ladder:
            _, p99, completed = _rung_ok(phase)
            report.inputs.setdefault("ladder", []).append({
                "rung": j, "rate": round(phase.rate, 3), "p99_s": p99,
                "completed": completed, "passed": passed,
                "fell_behind": phase.fell_behind(),
            })
            if passed:
                # Over-capacity rungs are excluded from fail_ratio.
                for i in range(phase.offered):
                    report.operation(phase.status[i] == OK)
        report.check(bool(estimates), "the fixed-rate phase meets the "
                     "ladder rule")
        if any(rung == cfg.top_rung - 1 for rung, _ in estimates):
            report.flag("a ladder search passed its highest rung: "
                        "query_max_qps is a lower bound")
        best = Samples("queries/s", [
            _throughput(phase if phase is not None else read)
            for _, phase in estimates
        ])
        report.inputs.update(ladder_estimates=best.values)
        report.put("query_max_qps", best.median(), "queries/s", best.n,
                   f"median over searches of the answered/s at the "
                   f"highest rung with p99 <= {P99_LIMIT_S:g} s")

    if feed is not None:
        freshness = Samples("s")
        for sequence, due_at in due.items():
            reflected = sequence in fresh
            report.operation(reflected, f"delta {sequence} never reflected")
            if reflected:
                freshness.add(fresh[sequence] - due_at)
        report.put_median("solve_p50_s", freshness,
                          "freshness_p50_s: delta due time until the "
                          "active snapshot carries it")
        q, value = freshness.tail()
        report.put("freshness_tail_s", value, "s", freshness.n,
                   f"p{q:g}, the highest percentile with >= 10 samples "
                   f"beyond it" if q is not None else "too few deltas")
        final = runtime.active_snapshot()
        report.check(applied == len(feed),
                     f"feed applied {applied} of {len(feed)} deltas")
        report.check(final is not None and final.sequence == len(feed),
                     "after the feed drains the active snapshot carries "
                     "the last delta's sequence")
        feed_late = Samples("s", [fed[s] - due[s] for s in fed])
        report.inputs.update(feed_lateness_p50_s=feed_late.median())

    else:
        report.put_median("solve_p50_s", resolve,
                          "forced ServingRuntime.refresh(): rebuild, "
                          "re-solve and hot-swap")

    if tracer is not None:
        tracer.uninstall()  # the checks below are not part of the trace
    report.check(runtime.tier == Tier.FRESH, "the runtime tier is fresh")
    report.put("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    all_phases = phases + [phase for _, phase, _ in ladder]
    checked = _check_answers(run, report, all_phases, "normalized")
    report.inputs.update(answers_checked=checked,
                         snapshots_checked=len(run.snapshots))

    return {
        "runtime": runtime, "window": (read.due[0], np.nanmax(read.done)),
        "waits": read.waits(), "rejected": read.count(REJECTED),
        "expired": read.count(EXPIRED), "late": late,
        "offered": read.offered,
        "completed": int(np.count_nonzero(read.answered())),
    }
