"""Baseline selection algorithms from the paper's evaluation (Section 5.3).

* ``TopK-W`` — retain the ``k`` items with the highest node weight: the
  naive "keep the best sellers" policy the paper's introduction argues
  against, blind to alternatives.
* ``TopK-C`` — retain the ``k`` items with the highest *standalone
  coverage* (the item's weight plus everything it would cover as an
  alternative, i.e. its singleton gain).  Alternative-aware, but scores
  items in isolation and therefore double counts overlapping covers.
* ``Random`` — ``k`` uniformly random items (the paper reports the best
  of 10 random draws).

Each baseline also has a threshold-adapted version for the complementary
minimization problem (Figure 4f): the paper adapts them by binary search
over the prefix of the metric-sorted item list; with a monotone cover
function this is equivalent to — and implemented as — the shortest
qualifying prefix.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .._compat import keyword_only_shim
from .._rng import SeedLike, resolve_rng
from ..errors import SolverError
from .cover import cover as exact_cover
from .cover import coverage_vector
from .csr import as_csr
from .gain import GreedyState
from .result import SolveResult
from .variants import Variant


def _result_from_order(
    csr, order: np.ndarray, k: int, variant: Variant, strategy: str,
    elapsed: float,
) -> SolveResult:
    chosen = order[:k]
    retained = [csr.items[i] for i in chosen.tolist()]
    coverage = coverage_vector(csr, retained, variant)
    return SolveResult(
        variant=variant,
        k=k,
        retained=retained,
        retained_indices=np.asarray(chosen, dtype=np.int64),
        cover=float(coverage.sum()),
        coverage=coverage,
        item_ids=csr.items,
        prefix_covers=None,
        strategy=strategy,
        wall_time_s=elapsed,
    )


def _check_k(k: int, n: int) -> None:
    if k < 0 or k > n:
        raise SolverError(f"k={k} out of range [0, {n}]")


# ----------------------------------------------------------------------
# Rankings
# ----------------------------------------------------------------------
def top_k_weight_order(graph) -> np.ndarray:
    """All items sorted by descending node weight (TopK-W ranking)."""
    csr = as_csr(graph)
    # argsort of -weight is descending; stable sort keeps ties in index
    # order, matching the greedy's lowest-index tie-break.
    return np.argsort(-csr.node_weight, kind="stable")


def top_k_coverage_order(graph, variant: "Variant | str") -> np.ndarray:
    """All items sorted by descending standalone coverage (TopK-C ranking).

    An item's standalone coverage is its marginal gain with respect to the
    empty set: ``W(v) + sum_u W(u) * W(u, v)`` (identical under both
    variants when ``S`` is empty, but computed through the variant's gain
    rule for symmetry).
    """
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    state = GreedyState(csr, variant)
    singleton_gains = state.gains_all()
    return np.argsort(-singleton_gains, kind="stable")


# ----------------------------------------------------------------------
# Top-k solvers
# ----------------------------------------------------------------------
@keyword_only_shim("k", "variant")
def top_k_weight_solve(
    graph, *, k: int, variant: "Variant | str"
) -> SolveResult:
    """``TopK-W``: the ``k`` best-selling items."""
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    _check_k(k, csr.n_items)
    start = time.perf_counter()
    order = top_k_weight_order(csr)
    elapsed = time.perf_counter() - start
    return _result_from_order(csr, order, k, variant, "topk-weight", elapsed)


@keyword_only_shim("k", "variant")
def top_k_coverage_solve(
    graph, *, k: int, variant: "Variant | str"
) -> SolveResult:
    """``TopK-C``: the ``k`` items with highest standalone coverage."""
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    _check_k(k, csr.n_items)
    start = time.perf_counter()
    order = top_k_coverage_order(csr, variant)
    elapsed = time.perf_counter() - start
    return _result_from_order(csr, order, k, variant, "topk-coverage", elapsed)


@keyword_only_shim("k", "variant")
def random_solve(
    graph,
    *,
    k: int,
    variant: "Variant | str",
    seed: SeedLike = None,
    draws: int = 1,
) -> SolveResult:
    """``Random``: the best of ``draws`` uniformly random size-``k`` sets.

    The paper reports the best of 10 executions; pass ``draws=10`` for
    that protocol.
    """
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    _check_k(k, csr.n_items)
    if draws < 1:
        raise SolverError(f"draws must be >= 1, got {draws}")
    rng = resolve_rng(seed)
    start = time.perf_counter()
    best_cover = -1.0
    best_choice: Optional[np.ndarray] = None
    for _ in range(draws):
        choice = rng.choice(csr.n_items, size=k, replace=False)
        value = exact_cover(csr, choice, variant)
        if value > best_cover:
            best_cover = value
            best_choice = choice
    elapsed = time.perf_counter() - start
    assert best_choice is not None
    return _result_from_order(
        csr, np.asarray(best_choice), k, variant,
        f"random(best-of-{draws})", elapsed,
    )


# ----------------------------------------------------------------------
# Threshold-adapted baselines (complementary problem, Figure 4f)
# ----------------------------------------------------------------------
def _smallest_qualifying_prefix(
    csr, order: np.ndarray, threshold: float, variant: Variant
) -> int:
    """Binary search for the shortest prefix of ``order`` covering >= threshold.

    Monotonicity of the cover function makes prefix cover nondecreasing in
    the prefix length, so binary search applies — this mirrors the paper's
    adaptation of TopK-W / TopK-C to the minimization problem.
    """
    if not (0.0 <= threshold <= 1.0):
        raise SolverError(f"threshold must be in [0, 1], got {threshold}")
    lo, hi = 0, len(order)
    if exact_cover(csr, order, variant) < threshold - 1e-12:
        raise SolverError(
            f"threshold {threshold} unreachable even retaining all items"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_cover(csr, order[:mid], variant) >= threshold - 1e-12:
            hi = mid
        else:
            lo = mid + 1
    return lo


@keyword_only_shim("threshold", "variant")
def top_k_weight_threshold(
    graph, *, threshold: float, variant: "Variant | str"
) -> SolveResult:
    """TopK-W adapted to the minimization problem (smallest prefix)."""
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    start = time.perf_counter()
    order = top_k_weight_order(csr)
    size = _smallest_qualifying_prefix(csr, order, threshold, variant)
    elapsed = time.perf_counter() - start
    return _result_from_order(
        csr, order, size, variant, "topk-weight-threshold", elapsed
    )


@keyword_only_shim("threshold", "variant")
def top_k_coverage_threshold(
    graph, *, threshold: float, variant: "Variant | str"
) -> SolveResult:
    """TopK-C adapted to the minimization problem (smallest prefix)."""
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    start = time.perf_counter()
    order = top_k_coverage_order(csr, variant)
    size = _smallest_qualifying_prefix(csr, order, threshold, variant)
    elapsed = time.perf_counter() - start
    return _result_from_order(
        csr, order, size, variant, "topk-coverage-threshold", elapsed
    )
