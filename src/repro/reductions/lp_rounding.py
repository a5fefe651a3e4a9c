"""LP relaxation + pipage rounding for Max Vertex Cover (``VC_k``).

Section 3.2 of the paper surveys the algorithms with better worst-case
factors than the greedy — all LP/SDP based — and dismisses them for
scale ("impractical running time, even for medium sized programs").
This module implements the classic LP route so that claim can be
*measured* rather than cited: the Ageev–Sviridenko linear relaxation

    maximize    sum_e w_e z_e
    subject to  z_e <= x_u + x_v          for every edge e = {u, v}
                z_e <= x_v                for every self-loop e = (v, v)
                sum_v x_v  = k
                0 <= x, z <= 1

followed by **pipage rounding**: the smoothed objective
``F(x) = sum_e w_e (1 - (1 - x_u)(1 - x_v))`` satisfies
``F(x) >= (3/4) * LP(x)`` and is convex along any direction that raises
one fractional coordinate while lowering another, so repeatedly moving
to the better endpoint produces an integral solution with
``F(x_int) >= F(x*) >= (3/4) * OPT`` — the 0.75 guarantee of [2].

Solved with :func:`scipy.optimize.linprog` (HiGHS).  Through the
Theorem 3.1 reduction this yields an LP-based solver for ``NPC_k``,
used by the ablation benchmark to show the runtime gap to the greedy.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .._compat import keyword_only_shim
from ..core.cover import coverage_vector
from ..core.csr import as_csr
from ..core.result import SolveResult
from ..core.variants import Variant
from ..errors import SolverError
from .vertex_cover import MaxVertexCoverInstance, npc_to_vc, vc_cover_weight

#: The Ageev–Sviridenko guarantee.
LP_ROUNDING_FACTOR = 0.75


def solve_vc_lp(
    instance: MaxVertexCoverInstance, k: int
) -> Tuple[np.ndarray, float]:
    """Solve the LP relaxation; returns ``(x_fractional, lp_value)``.

    ``lp_value`` upper-bounds the integral optimum, which the tests use
    as a certificate.
    """
    n = instance.n
    m = len(instance.edges)
    if k < 0 or k > n:
        raise SolverError(f"k={k} out of range [0, {n}]")
    if m == 0:
        return np.zeros(n), 0.0

    weights = np.asarray([w for _u, _v, w in instance.edges])
    # Variables: x_0..x_{n-1}, z_0..z_{m-1}.  Objective: maximize w·z.
    c = np.concatenate([np.zeros(n), -weights])

    # z_e - x_u - x_v <= 0 (self-loop: z_e - x_v <= 0).
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
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
    a_ub = sparse.csr_matrix(
        (data, (rows, cols)), shape=(m, n + m)
    )
    b_ub = np.zeros(m)

    # sum x = k.
    a_eq = sparse.csr_matrix(
        (np.ones(n), (np.zeros(n, dtype=int), np.arange(n))),
        shape=(1, n + m),
    )
    b_eq = np.asarray([float(k)])

    result = linprog(
        c,
        A_ub=a_ub, b_ub=b_ub,
        A_eq=a_eq, b_eq=b_eq,
        bounds=[(0.0, 1.0)] * (n + m),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"LP solver failed: {result.message}")
    x = np.clip(result.x[:n], 0.0, 1.0)
    return x, float(-result.fun)


def smoothed_objective(
    instance: MaxVertexCoverInstance, x: np.ndarray
) -> float:
    """``F(x) = sum_e w_e (1 - (1 - x_u)(1 - x_v))`` (loops: ``w_e x_v``)."""
    total = 0.0
    for u, v, w in instance.edges:
        if u == v:
            total += w * x[u]
        else:
            total += w * (1.0 - (1.0 - x[u]) * (1.0 - x[v]))
    return float(total)


def pipage_round(
    instance: MaxVertexCoverInstance, x: np.ndarray, k: int,
    *,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Round a fractional LP solution to an integral one, de-randomized.

    Repeatedly picks two fractional coordinates and shifts mass between
    them (keeping the sum at ``k``) toward whichever endpoint does not
    decrease the smoothed objective ``F``; convexity of ``F`` along the
    shift direction guarantees one endpoint is at least as good.
    Returns a 0/1 vector with exactly ``k`` ones.
    """
    x = np.clip(np.asarray(x, dtype=np.float64).copy(), 0.0, 1.0)
    while True:
        fractional = np.flatnonzero(
            (x > tolerance) & (x < 1.0 - tolerance)
        )
        if fractional.size == 0:
            break
        if fractional.size == 1:
            # Total mass is integral, so a single fractional coordinate
            # can only be numerical noise: snap it.
            x[fractional[0]] = round(x[fractional[0]])
            break
        u, v = int(fractional[0]), int(fractional[1])
        # Feasible shift range for x_u += t, x_v -= t.
        t_up = min(1.0 - x[u], x[v])       # push u toward 1
        t_down = min(x[u], 1.0 - x[v])     # push u toward 0
        candidate_up = x.copy()
        candidate_up[u] += t_up
        candidate_up[v] -= t_up
        candidate_down = x.copy()
        candidate_down[u] -= t_down
        candidate_down[v] += t_down
        if (
            smoothed_objective(instance, candidate_up)
            >= smoothed_objective(instance, candidate_down)
        ):
            x = candidate_up
        else:
            x = candidate_down
        x = np.clip(x, 0.0, 1.0)

    selected = np.flatnonzero(x > 0.5)
    # Guard against accumulated drift: enforce exactly k selections.
    if selected.size != k:
        order = np.argsort(-x, kind="stable")
        x = np.zeros_like(x)
        x[order[:k]] = 1.0
        selected = order[:k]
    result = np.zeros(instance.n, dtype=np.float64)
    result[selected] = 1.0
    return result


def lp_round_vc(
    instance: MaxVertexCoverInstance, k: int
) -> Tuple[List[int], float, float]:
    """Full LP + pipage pipeline for ``VC_k``.

    Returns ``(selected_nodes, cover_weight, lp_upper_bound)``; the
    cover weight is guaranteed ``>= 0.75 * lp_upper_bound >= 0.75 * OPT``.
    """
    x_fractional, lp_value = solve_vc_lp(instance, k)
    x_integral = pipage_round(instance, x_fractional, k)
    selected = np.flatnonzero(x_integral > 0.5).tolist()
    return selected, vc_cover_weight(instance, selected), lp_value


@keyword_only_shim("k", "variant")
def lp_round_solve(
    graph, *, k: int, variant: "Variant | str" = Variant.NORMALIZED
) -> SolveResult:
    """LP-based ``NPC_k`` solver via the Theorem 3.1 reduction.

    Only the Normalized variant reduces to ``VC_k`` (Theorem 3.1), so
    this solver rejects the Independent variant.
    """
    variant = Variant.coerce(variant)
    if variant is not Variant.NORMALIZED:
        raise SolverError(
            "the LP/VC route applies to the Normalized variant only "
            "(Theorem 3.1)"
        )
    csr = as_csr(graph)
    start = time.perf_counter()
    instance, items = npc_to_vc(csr)
    selected, value, _lp_bound = lp_round_vc(instance, k)
    elapsed = time.perf_counter() - start
    indices = np.asarray(selected, dtype=np.int64)
    retained = [items[i] for i in selected]
    coverage = coverage_vector(csr, retained, variant)
    return SolveResult(
        variant=variant,
        k=k,
        retained=retained,
        retained_indices=indices,
        cover=float(coverage.sum()),
        coverage=coverage,
        item_ids=csr.items,
        prefix_covers=None,
        strategy="lp-pipage",
        wall_time_s=elapsed,
    )
