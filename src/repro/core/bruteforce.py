"""Exact brute-force solver (the paper's ``BF`` baseline).

Enumerates every size-``k`` subset and returns one with maximum cover —
the only solver guaranteeing the optimum, used in the evaluation
(Figures 4a/4b) to measure the greedy algorithm's *actual* approximation
ratios and to demonstrate that exact solving is infeasible beyond toy
instances (n=30, k=15 already means 155M candidate subsets).
"""

from __future__ import annotations

import itertools
import time
from typing import Optional, Tuple

import numpy as np

from .._compat import keyword_only_shim
from ..errors import SolverError
from .cover import coverage_vector
from .csr import as_csr
from .result import SolveResult
from .variants import Variant


@keyword_only_shim("k", "variant")
def brute_force_solve(
    graph,
    *,
    k: int,
    variant: "Variant | str",
    max_subsets: Optional[int] = 20_000_000,
) -> SolveResult:
    """Find an optimal retained set by exhaustive enumeration.

    Args:
        graph: ``PreferenceGraph`` or ``CSRGraph``.
        k: retained-set size.
        variant: problem variant.
        max_subsets: safety valve — raise :class:`SolverError` instead of
            attempting an enumeration larger than this (pass ``None`` to
            disable; expect astronomical runtimes).

    Ties are broken toward the lexicographically smallest index tuple, so
    the result is deterministic.
    """
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    n = csr.n_items
    if k < 0 or k > n:
        raise SolverError(f"k={k} out of range [0, {n}]")
    total = _n_choose_k(n, k)
    if max_subsets is not None and total > max_subsets:
        raise SolverError(
            f"brute force over C({n},{k}) = {total} subsets exceeds the "
            f"max_subsets={max_subsets} safety limit"
        )

    node_weight = csr.node_weight
    # Precompute, for every node, its outgoing edges as index/weight
    # arrays: evaluating one subset is then a sweep over non-retained
    # nodes.
    out_edges = [csr.out_edges(v) for v in range(n)]

    best_cover = -1.0
    best_subset: Tuple[int, ...] = ()
    start = time.perf_counter()
    in_set = np.zeros(n, dtype=bool)
    for subset in itertools.combinations(range(n), k):
        in_set[:] = False
        in_set[list(subset)] = True
        value = float(node_weight[in_set].sum())
        for v in range(n):
            if in_set[v]:
                continue
            targets, weights = out_edges[v]
            mask = in_set[targets]
            if not mask.any():
                continue
            retained = weights[mask]
            if variant is Variant.INDEPENDENT:
                prob = 1.0 - float(np.prod(1.0 - retained))
            else:
                prob = min(1.0, float(retained.sum()))
            value += float(node_weight[v]) * prob
        if value > best_cover + 1e-15:
            best_cover = value
            best_subset = subset
    elapsed = time.perf_counter() - start

    retained = [csr.items[i] for i in best_subset]
    coverage = coverage_vector(csr, retained, variant)
    return SolveResult(
        variant=variant,
        k=k,
        retained=retained,
        retained_indices=np.asarray(best_subset, dtype=np.int64),
        cover=float(best_cover),
        coverage=coverage,
        item_ids=csr.items,
        prefix_covers=None,
        strategy="brute-force",
        wall_time_s=elapsed,
        gain_evaluations=int(total),
    )


def _n_choose_k(n: int, k: int) -> int:
    """Binomial coefficient (exact integer)."""
    import math

    return math.comb(n, k)
