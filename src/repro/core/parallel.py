"""The work-span parallel cost model (Figure 4e).

The paper (Performance Analysis, Sections 3.2 and 4.2) observes that the
greedy algorithm's per-iteration gain computations are independent across
candidates, giving a parallel complexity of ``O(k + n*k*D / N)`` for ``N``
workers.  :func:`calibrate_cost_model` / :func:`speedup_curve` reproduce
that claim with a deterministic cost model: it counts the exact
per-iteration edge-work the naive strategy performs and applies the
paper's parallel bound with a measured per-operation cost and a
per-iteration synchronization overhead.  This reproduces the *shape* of
the paper's Figure 4e (near-perfect scaling, ~20x on 32 cores) on hosts
that cannot run 32 hardware threads.  See DESIGN.md, substitution 3.

The solvers themselves run serially: the incremental ``accelerated``
strategy beats a process pool running the naive recomputation at every
instance size measured (see docs/performance.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import SolverError
from .csr import as_csr
from .variants import Variant


# ----------------------------------------------------------------------
# Work-span cost model (Figure 4e substitution)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelCostModel:
    """Calibrated cost model of one greedy run.

    Attributes:
        iteration_work: per-iteration serial work units (candidate self
            terms plus in-edge traversals), as actually incurred by the
            naive strategy on the given instance.
        per_op_seconds: measured cost of one work unit on this host.
        sync_seconds: per-iteration synchronization/merge overhead charged
            once per iteration per the paper's ``O(k + nkD/N)`` bound.
    """

    iteration_work: np.ndarray
    per_op_seconds: float
    sync_seconds: float

    def runtime(self, n_workers: int) -> float:
        """Modeled wall-clock seconds with ``n_workers`` workers."""
        if n_workers < 1:
            raise SolverError(f"n_workers must be >= 1, got {n_workers}")
        work = float(self.iteration_work.sum()) * self.per_op_seconds
        # One selection/merge step per iteration regardless of the worker
        # count (the paper's additive k term in O(k + nkD/N)).
        sync = len(self.iteration_work) * self.sync_seconds
        return work / n_workers + sync

    def speedup(self, n_workers: int) -> float:
        """Modeled speedup relative to one worker."""
        return self.runtime(1) / self.runtime(n_workers)


def calibrate_cost_model(
    graph,
    k: int,
    variant: "Variant | str",
    *,
    sync_seconds: float = 5e-5,
) -> ParallelCostModel:
    """Calibrate the cost model by running the naive greedy serially.

    The per-iteration work counts are exact (``n - |S|`` self terms plus
    all in-edges of live candidates — the quantity the paper bounds by
    ``n * D``); the per-op cost is the measured serial runtime divided by
    the total work.
    """
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    work_per_iteration = []

    def record(iteration, node, gain, cover):
        # The naive pass always touches every in-edge plus one self term
        # per candidate; retained nodes drop out of the candidate pool.
        work_per_iteration.append(csr.n_edges + csr.n_items - iteration)

    from .greedy import greedy_solve  # local import to avoid a cycle

    start = time.perf_counter()
    greedy_solve(csr, k=k, variant=variant, strategy="naive", callback=record)
    elapsed = time.perf_counter() - start
    work = np.asarray(work_per_iteration, dtype=np.float64)
    total = float(work.sum())
    per_op = elapsed / total if total else 0.0
    return ParallelCostModel(
        iteration_work=work,
        per_op_seconds=per_op,
        sync_seconds=sync_seconds,
    )


def speedup_curve(
    model: ParallelCostModel,
    workers: Sequence[int] = (1, 4, 8, 16, 32),
) -> List[dict]:
    """Modeled runtime/speedup rows for Figure 4e."""
    return [
        {
            "workers": w,
            "runtime_s": model.runtime(w),
            "speedup": model.speedup(w),
        }
        for w in workers
    ]
