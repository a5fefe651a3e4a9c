"""Exact ``NPC_k`` solving by mixed-integer programming.

Brute-force enumeration dies around n = 20–30 (Figure 4b).  Because the
Normalized cover is *linear* given the retained indicator vector (via
the Theorem 3.1 reduction to Max Vertex Cover), the exact optimum is
also the solution of a small MILP:

    maximize    sum_e w_e z_e
    subject to  z_e <= x_u + x_v     (z_e <= x_v for self-loops)
                z_e <= 1,  0 <= z
                sum_v x_v = k,   x binary

With binary ``x`` the optimal ``z_e = min(1, x_u + x_v)`` is automatic,
so ``z`` needs no integrality.  Solved with HiGHS branch-and-bound
through :func:`scipy.optimize.milp`, this pushes exact optima to
hundreds of items — used by the tests as a stronger optimality oracle
than brute force.  (The Independent variant's objective is genuinely
nonlinear in ``x``; no MILP formulation of this shape exists for it,
which is itself a finding the reduction makes precise.)
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .._compat import keyword_only_shim
from ..core.cover import coverage_vector
from ..core.csr import as_csr
from ..core.result import SolveResult
from ..core.variants import Variant
from ..errors import SolverError
from .vertex_cover import MaxVertexCoverInstance, npc_to_vc


def milp_solve_vc(
    instance: MaxVertexCoverInstance,
    k: int,
    *,
    time_limit: Optional[float] = None,
) -> tuple:
    """Exact ``VC_k`` via MILP; returns ``(selected_nodes, cover_weight)``."""
    n = instance.n
    m = len(instance.edges)
    if k < 0 or k > n:
        raise SolverError(f"k={k} out of range [0, {n}]")
    if m == 0:
        return list(range(k)), 0.0

    weights = np.asarray([w for _u, _v, w in instance.edges])
    c = np.concatenate([np.zeros(n), -weights])

    rows, cols, data = [], [], []
    for e, (u, v, _w) in enumerate(instance.edges):
        rows.append(e)
        cols.append(n + e)
        data.append(1.0)
        rows.append(e)
        cols.append(u)
        data.append(-1.0)
        if v != u:
            rows.append(e)
            cols.append(v)
            data.append(-1.0)
    edge_matrix = sparse.csr_matrix((data, (rows, cols)), shape=(m, n + m))
    edge_constraint = LinearConstraint(
        edge_matrix, -np.inf * np.ones(m), np.zeros(m)
    )
    cardinality_matrix = sparse.csr_matrix(
        (np.ones(n), (np.zeros(n, dtype=int), np.arange(n))),
        shape=(1, n + m),
    )
    cardinality = LinearConstraint(cardinality_matrix, [k], [k])

    integrality = np.concatenate([np.ones(n), np.zeros(m)])
    bounds = Bounds(np.zeros(n + m), np.ones(n + m))
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(
        c,
        constraints=[edge_constraint, cardinality],
        integrality=integrality,
        bounds=bounds,
        options=options,
    )
    if result.status not in (0,):  # 0 = optimal
        raise SolverError(f"MILP did not reach optimality: {result.message}")
    x = result.x[:n]
    selected = np.flatnonzero(x > 0.5)
    # Numerical safety: enforce exactly k.
    if selected.size != k:
        order = np.argsort(-x, kind="stable")
        selected = np.sort(order[:k])
    from .vertex_cover import vc_cover_weight

    return selected.tolist(), vc_cover_weight(instance, selected)


@keyword_only_shim("k")
def milp_solve_npc(
    graph,
    *,
    k: int,
    time_limit: Optional[float] = None,
) -> SolveResult:
    """Exact Normalized Preference Cover via the VC reduction + MILP."""
    csr = as_csr(graph)
    start = time.perf_counter()
    instance, items = npc_to_vc(csr)
    selected, _value = milp_solve_vc(instance, k, time_limit=time_limit)
    elapsed = time.perf_counter() - start
    indices = np.asarray(selected, dtype=np.int64)
    retained = [items[i] for i in selected]
    coverage = coverage_vector(csr, retained, Variant.NORMALIZED)
    return SolveResult(
        variant=Variant.NORMALIZED,
        k=k,
        retained=retained,
        retained_indices=indices,
        cover=float(coverage.sum()),
        coverage=coverage,
        item_ids=csr.items,
        prefix_covers=None,
        strategy="milp-exact",
        wall_time_s=elapsed,
    )
