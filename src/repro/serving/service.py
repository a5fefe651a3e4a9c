"""The assortment query service: O(degree) answers, never a re-solve.

:class:`AssortmentService` owns one Preference Cover question — a graph,
a variant and a stopping rule — and keeps an *active*
:class:`~repro.serving.store.SolutionSnapshot` answering it.  Queries
(`query` / `covered_probability` / `top_alternatives`) read precomputed
coverage vectors from the snapshot: a point lookup is O(1), an
alternatives listing is O(out-degree).  Solving happens in exactly two
places — the first :meth:`ensure` (cold miss) and :meth:`refresh` after
a :class:`~repro.clickstream.drift.GraphDelta` invalidated the active
snapshot — and the refresh path reuses the stable greedy prefix through
:class:`~repro.extensions.incremental.IncrementalSolver` instead of
starting over.

Snapshot replacement is an atomic reference swap: a query thread reads
``self._active`` once and answers entirely from that immutable object,
so concurrent hot-swaps can never produce a torn view (half old
assortment, half new coverage).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from ..clickstream.drift import GraphDelta
from ..core.context import solve_context_digest
from ..core.csr import as_csr
from ..core.graph import PreferenceGraph
from ..core.variants import Variant
from ..errors import ReproError, ServingError
from ..extensions.incremental import IncrementalSolver
from ..observability import MetricsRegistry, logs
from ..resilience.faults import InjectedRefreshFailure, active_faults
from .store import SolutionSnapshot, SolutionStore

_LOG = logs.get_logger("service")


class AssortmentService:
    """Serves assortment queries from cached solve snapshots.

    Args:
        graph: the market's preference graph.  A mutable
            :class:`~repro.core.graph.PreferenceGraph` enables the
            incremental delta/refresh path; a ``CSRGraph`` is accepted
            for read-only serving.
        variant: Preference Cover variant (enum or plain string).
        k: retained-set size (mutually exclusive with ``threshold``).
        threshold: cover target for minimization-style serving.
        store: snapshot cache; a private 8-slot
            :class:`~repro.serving.store.SolutionStore` by default.
            Sharing one store across services deduplicates snapshots of
            identical questions.
        metrics: a :class:`~repro.observability.MetricsRegistry`
            receiving serving telemetry (``serving.*`` instruments).
        validate_deltas: re-validate the graph after every applied
            delta.  Off by default: the delta sources in this package
            preserve the model invariants by construction, and the
            whole point of the ``validated`` fast path is that a
            refresh does not pay an O(m) sweep per snapshot.
    """

    def __init__(
        self,
        graph,
        *,
        variant: "Variant | str",
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        store: Optional[SolutionStore] = None,
        metrics: Optional[MetricsRegistry] = None,
        validate_deltas: bool = False,
    ) -> None:
        if (k is None) == (threshold is None):
            raise ServingError(
                "provide exactly one stopping rule: k or threshold"
            )
        self.variant = Variant.coerce(variant)
        self.k = k
        self.threshold = threshold
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = store if store is not None else SolutionStore(
            metrics=self.metrics
        )
        self.validate_deltas = validate_deltas
        if isinstance(graph, PreferenceGraph):
            self._graph = graph
        else:
            # CSR input: materialize the mutable form so deltas apply.
            self._graph = as_csr(graph).to_preference_graph()
        self._graph.validate(self.variant)
        self._solver: Optional[IncrementalSolver] = None
        if k is not None:
            self._solver = IncrementalSolver(
                self._graph, k=k, variant=self.variant, validate=False
            )
        self._active: Optional[SolutionSnapshot] = None
        self._refresh_lock = threading.Lock()
        self._sequence = 0
        self.refresh_failures = 0

    # ------------------------------------------------------------------
    # Snapshot lifecycle
    # ------------------------------------------------------------------
    def current_csr(self):
        """CSR view of the current graph state.

        The graph caches it until its next mutation, so cache-hit
        lookups stay O(1) and one refresh builds at most one CSR.
        """
        return as_csr(self._graph)

    def context_key(self) -> str:
        """The active graph's full context digest (cache key)."""
        return solve_context_digest(
            self.current_csr(), self.variant,
            k=self.k, threshold=self.threshold,
        )

    def _solve_snapshot(self, key: str) -> SolutionSnapshot:
        """Run the solver and freeze its output into a snapshot."""
        injector = active_faults()
        if injector is not None:
            # The refresh loop is a supervised worker from the chaos
            # suite's perspective: give the injector its crash hook.
            injector.solver_round(self._sequence + 1)
            delay = injector.refresh_delay_s()
            if delay > 0:
                time.sleep(delay)
            if injector.refresh_fails():
                raise InjectedRefreshFailure(
                    f"injected refresh failure at sequence "
                    f"{self._sequence} (fault injection)"
                )
        csr = self.current_csr()
        if self._solver is not None:
            result = self._solver.resolve() \
                if self._solver.last_result is not None \
                else self._solver.solve()
        else:
            from .. import facade

            result = facade.solve(
                csr, variant=self.variant, threshold=self.threshold,
                validated=True,
            )
        return SolutionSnapshot.build(
            key, csr, self.variant, result,
            sequence=self._sequence,
            created_at=self.store.now(),
        )

    def ensure(self) -> SolutionSnapshot:
        """The active snapshot, solving on a cold cache miss.

        Cache hits are O(1); only one thread solves at a time (the
        refresh lock), and a concurrent ``ensure`` that lost the race
        picks up the winner's snapshot from the store.
        """
        key = self.context_key()
        snapshot = self.store.get(key)
        if snapshot is None:
            with self._refresh_lock:
                snapshot = self.store.get(key, record=False)
                if snapshot is None:
                    with self.metrics.time("serving.solve"):
                        snapshot = self._solve_snapshot(key)
                    self.store.put(snapshot)
        self._active = snapshot
        return snapshot

    @property
    def active(self) -> Optional[SolutionSnapshot]:
        """The snapshot queries are currently answered from."""
        return self._active

    @property
    def graph(self) -> PreferenceGraph:
        """The service's mutable market graph (delta-feed target)."""
        return self._graph

    def _snapshot(self) -> SolutionSnapshot:
        snapshot = self._active
        if snapshot is None:
            snapshot = self.ensure()
        return snapshot

    # ------------------------------------------------------------------
    # Queries — O(1) / O(degree), answered from the active snapshot
    # ------------------------------------------------------------------
    def covered_probability(self, request: Hashable) -> float:
        """Probability a request for this item is matched by the assortment."""
        self.metrics.incr("serving.queries")
        snapshot = self._snapshot()
        if logs._SINK is not None:  # zero-cost when logging is off
            _LOG.event(
                "read", items=1, sequence=snapshot.sequence,
                source=snapshot.key[:12],
            )
        return snapshot.covered_probability(request)

    def covered_probability_many(self, requests: Iterable[Hashable]) -> np.ndarray:
        """Vectorized :meth:`covered_probability` for one request batch.

        All answers come from a single snapshot reference, so a batch is
        internally consistent even if a hot-swap lands mid-call.
        """
        snapshot = self._snapshot()
        answers = snapshot.covered_probability_many(requests)
        self.metrics.incr("serving.queries", len(answers))
        if logs._SINK is not None:
            _LOG.event(
                "read", items=len(answers), sequence=snapshot.sequence,
                source=snapshot.key[:12],
            )
        return answers

    def query(self, item_ids: Iterable[Hashable]) -> List[Dict]:
        """Per-item assortment report for a batch of item ids.

        Each entry carries the item, whether it is retained, and its
        covered probability — the Figure 2 per-item percentage.
        """
        snapshot = self._snapshot()
        out = []
        for item in item_ids:
            index = snapshot.index_of(item)
            out.append({
                "item": item,
                "retained": bool(snapshot.retained_mask[index]),
                "covered_probability": float(snapshot.conditional[index]),
            })
        self.metrics.incr("serving.queries", len(out))
        return out

    def top_alternatives(
        self, item: Hashable, limit: int = 5
    ) -> List[Tuple[Hashable, float]]:
        """Retained substitutes for ``item``, best acceptance first."""
        self.metrics.incr("serving.queries")
        return self._snapshot().top_alternatives(item, limit)

    # ------------------------------------------------------------------
    # Invalidation — the only write path
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> SolutionSnapshot:
        """Apply a graph delta and refresh the active snapshot.

        Stale or duplicate deltas (``sequence`` at or below the last
        one incorporated) are dropped.  On a refresh failure the
        service *degrades instead of breaking*: the metric
        ``serving.refresh_failures`` is bumped, the last good snapshot
        stays active (queries keep working), and the error propagates
        so the caller can decide whether to retry.
        """
        with self._refresh_lock:
            if not self._stage_locked(delta):
                return self._active
            return self._refresh_locked()

    def stage_delta(self, delta: GraphDelta) -> bool:
        """Mutate the graph for ``delta`` *without* re-solving.

        Returns ``True`` when the delta was incorporated (the active
        snapshot is now stale and a :meth:`refresh` is owed), ``False``
        when the delta was a stale/duplicate drop.  This split exists
        for retrying callers: a graph mutation must happen exactly
        once, while the refresh that follows may be attempted many
        times — retrying :meth:`apply_delta` whole would hit the
        stale-sequence drop on the second attempt and "succeed"
        without ever re-solving.
        """
        with self._refresh_lock:
            return self._stage_locked(delta)

    def _stage_locked(self, delta: GraphDelta) -> bool:
        if delta.sequence <= self._sequence and self._active is not None:
            self.metrics.incr("serving.deltas_stale")
            return False
        delta.apply_to(self._graph)
        self._sequence = delta.sequence
        self.metrics.incr("serving.deltas_applied")
        if self.validate_deltas:
            self._graph.validate(self.variant)
        return True

    def adopt(self, snapshot: SolutionSnapshot) -> SolutionSnapshot:
        """Install an externally built snapshot as the active one.

        The warm-restart path: a persisted last-good snapshot is
        adopted on startup so queries are answerable before the first
        solve.  The snapshot must answer *this* service's question —
        its key is checked against :meth:`context_key` so a foreign or
        out-of-date snapshot is rejected rather than silently served.
        """
        with self._refresh_lock:
            expected = self.context_key()
            if snapshot.key != expected:
                raise ServingError(
                    f"snapshot key {snapshot.key[:12]}... does not match "
                    f"this service's context {expected[:12]}...; refusing "
                    f"to serve answers for a different question"
                )
            self.store.put(snapshot)
            self._active = snapshot
            self._sequence = max(self._sequence, snapshot.sequence)
            return snapshot

    def refresh(self) -> SolutionSnapshot:
        """Force a re-solve of the current graph and hot-swap the result.

        Also resynchronizes with any out-of-band mutation of
        :attr:`graph` (the delta path is the supported write channel,
        but a manual edit followed by ``refresh()`` works too).
        """
        with self._refresh_lock:
            return self._refresh_locked()

    def _refresh_locked(self) -> SolutionSnapshot:
        key = self.context_key()
        try:
            with self.metrics.time("serving.refresh"):
                snapshot = self._solve_snapshot(key)
        except ReproError as exc:
            self.refresh_failures += 1
            self.metrics.incr("serving.refresh_failures")
            _LOG.warning(
                "refresh_failed",
                sequence=self._sequence,
                error=f"{type(exc).__name__}: {exc}",
            )
            raise
        self.store.put(snapshot)
        self._active = snapshot  # atomic reference swap
        self.metrics.incr("serving.hot_swaps")
        _LOG.event(
            "hot_swap", sequence=snapshot.sequence, source=snapshot.key[:12],
        )
        return snapshot

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Store counters plus service-level refresh/sequence state."""
        payload = self.store.stats()
        payload.update(
            sequence=self._sequence,
            refresh_failures=self.refresh_failures,
            active_key=self._active.key if self._active else None,
        )
        return payload

    def __repr__(self) -> str:
        rule = f"k={self.k}" if self.k is not None \
            else f"threshold={self.threshold}"
        return (
            f"AssortmentService(variant={self.variant.value}, {rule}, "
            f"n_items={self._graph.n_items})"
        )
