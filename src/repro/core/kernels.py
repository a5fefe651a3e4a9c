"""Pluggable hot-loop kernels: one registry, interchangeable backends.

The solver's inner loops — batch gain evaluation, the scalar ``Gain``
oracle, the ``AddNode`` scatter-update and the accelerated strategy's
two-hop delta propagation — all operate on the raw CSR arrays.  This
module extracts them behind a tiny dispatch layer so the *algorithm*
code (``gain.py``, ``greedy.py``, ``threshold.py``)
never needs to know how the arithmetic is executed:

* ``numpy`` — the reference backend; vectorized prefix-sum /
  scatter-update implementations identical to the historical inline
  code.  Always available.
* ``numba`` — optional JIT-compiled loops.  Registered only when the
  ``numba`` package is importable; requesting it on a host without
  numba silently degrades to ``numpy`` (so deployment images without a
  compiler toolchain keep working unchanged).

Backend selection, in priority order:

1. an explicit ``kernels=`` argument to ``solve()`` / ``greedy_solve()``
   / ``GreedyState`` (a name or a :class:`KernelBackend`);
2. the ``REPRO_KERNELS`` environment variable;
3. ``auto`` — ``numba`` when importable, else ``numpy``.

Every backend implements the same four functions over the same raw
arrays, and the parity test-suite (``tests/test_kernels.py``) pins them
to agree to 1e-12 on gains and *exactly* on greedy selections.

All kernels take ``independent: bool`` rather than the
:class:`~repro.core.variants.Variant` enum so compiled backends only see
plain scalars and arrays.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import SolverError

#: Environment variable consulted when no explicit backend is passed.
KERNELS_ENV_VAR = "REPRO_KERNELS"

#: Recognized backend names (``auto`` resolves at lookup time).
KERNEL_CHOICES = ("auto", "numpy", "numba")


class KernelBackend:
    """A named bundle of the four hot-loop kernels.

    Attributes:
        name: registry name (``"numpy"`` / ``"numba"``).
        gains_block: ``(lo, hi, in_ptr, in_src, in_weight, node_weight,
            in_set, deficit, independent) -> np.ndarray`` — marginal
            gains of the contiguous candidate block ``[lo, hi)``;
            retained entries come back as 0.  ``lo=0, hi=n`` is the
            full batch evaluation.
        gain_scalar: same arrays plus a single node ``v``; returns the
            scalar marginal gain (0 for retained nodes).
        add_node: commit ``v``: flips ``in_set[v]``, scatter-updates
            ``coverage``/``deficit`` over the in-edges, returns the
            *spill* — the cover gained through still-unretained
            in-neighbors.  The caller reads ``deficit[v]`` before the
            call and adds it for the total gain; keeping the two terms
            separate preserves the historical ``cover`` accumulation
            order bit-for-bit.
        fanout_update: the accelerated strategy's two-hop patch —
            subtracts ``W(u, x) * delta_u`` from ``gains[x]`` for every
            out-edge ``(u, x)`` of the affected in-neighbors ``u``;
            returns the number of edge updates applied.
    """

    __slots__ = ("name", "gains_block", "gain_scalar", "add_node",
                 "fanout_update")

    def __init__(
        self,
        name: str,
        *,
        gains_block: Callable,
        gain_scalar: Callable,
        add_node: Callable,
        fanout_update: Callable,
    ) -> None:
        self.name = name
        self.gains_block = gains_block
        self.gain_scalar = gain_scalar
        self.add_node = add_node
        self.fanout_update = fanout_update

    def __repr__(self) -> str:
        return f"KernelBackend({self.name!r})"


# ----------------------------------------------------------------------
# numpy reference backend
# ----------------------------------------------------------------------
def _np_gains_block(
    lo: int,
    hi: int,
    in_ptr: np.ndarray,
    in_src: np.ndarray,
    in_weight: np.ndarray,
    node_weight: np.ndarray,
    in_set: np.ndarray,
    deficit: np.ndarray,
    independent: bool,
) -> np.ndarray:
    """Vectorized block gains via prefix sums over the in-edge slices.

    Unlike ``reduceat`` the prefix-sum formulation handles empty slices
    (isolated nodes) exactly, including blocks past the last edge.
    """
    edge_lo, edge_hi = in_ptr[lo], in_ptr[hi]
    src = in_src[edge_lo:edge_hi]
    wgt = in_weight[edge_lo:edge_hi]
    source_outside = ~in_set[src]
    if independent:
        contrib = wgt * deficit[src]
    else:
        contrib = wgt * node_weight[src]
    contrib = np.where(source_outside, contrib, 0.0)
    prefix = np.concatenate(([0.0], np.cumsum(contrib)))
    starts = in_ptr[lo:hi] - edge_lo
    ends = in_ptr[lo + 1:hi + 1] - edge_lo
    sums = prefix[ends] - prefix[starts]
    gains = deficit[lo:hi] + sums
    gains[in_set[lo:hi]] = 0.0
    return gains


def _np_gain_scalar(
    v: int,
    in_ptr: np.ndarray,
    in_src: np.ndarray,
    in_weight: np.ndarray,
    node_weight: np.ndarray,
    in_set: np.ndarray,
    deficit: np.ndarray,
    independent: bool,
) -> float:
    """Algorithm 2 / 4: marginal gain of one candidate."""
    if in_set[v]:
        return 0.0
    g = deficit[v]
    edge_lo, edge_hi = in_ptr[v], in_ptr[v + 1]
    if edge_hi > edge_lo:
        sources = in_src[edge_lo:edge_hi]
        outside = ~in_set[sources]
        if outside.any():
            u = sources[outside]
            w = in_weight[edge_lo:edge_hi][outside]
            if independent:
                g += float(np.dot(w, deficit[u]))
            else:
                g += float(np.dot(w, node_weight[u]))
    return float(g)


def _np_add_node(
    v: int,
    in_ptr: np.ndarray,
    in_src: np.ndarray,
    in_weight: np.ndarray,
    node_weight: np.ndarray,
    in_set: np.ndarray,
    coverage: np.ndarray,
    deficit: np.ndarray,
    independent: bool,
) -> float:
    """Algorithm 3 / 5: commit ``v`` and scatter-update its in-neighbors.

    Returns the spill onto still-unretained in-neighbors; the direct
    term ``deficit[v]`` is the caller's to read before the call.
    """
    coverage[v] = node_weight[v]
    deficit[v] = 0.0
    in_set[v] = True
    spill = 0.0
    edge_lo, edge_hi = in_ptr[v], in_ptr[v + 1]
    if edge_hi > edge_lo:
        sources = in_src[edge_lo:edge_hi]
        outside = ~in_set[sources]
        if outside.any():
            u = sources[outside]
            w = in_weight[edge_lo:edge_hi][outside]
            if independent:
                delta = w * deficit[u]
            else:
                delta = w * node_weight[u]
            coverage[u] += delta
            deficit[u] -= delta
            spill = float(delta.sum())
    return spill


def _np_fanout_update(
    gains: np.ndarray,
    u_nodes: np.ndarray,
    delta: np.ndarray,
    out_ptr: np.ndarray,
    out_dst: np.ndarray,
    out_weight: np.ndarray,
) -> int:
    """Two-hop patch: ``gains[x] -= W(u, x) * delta_u`` for all out-edges."""
    starts = out_ptr[u_nodes]
    counts = out_ptr[u_nodes + 1] - starts
    total = int(counts.sum())
    if total:
        offsets = np.repeat(
            starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
            counts,
        )
        flat = np.arange(total, dtype=np.int64) + offsets
        x_dst = out_dst[flat]
        x_w = out_weight[flat]
        np.subtract.at(gains, x_dst, x_w * np.repeat(delta, counts))
    return total


NUMPY_KERNELS = KernelBackend(
    "numpy",
    gains_block=_np_gains_block,
    gain_scalar=_np_gain_scalar,
    add_node=_np_add_node,
    fanout_update=_np_fanout_update,
)


# ----------------------------------------------------------------------
# numba backend (built lazily; absent when numba is not importable)
# ----------------------------------------------------------------------
def _build_numba_backend() -> Optional[KernelBackend]:
    """JIT-compiled loop kernels, or ``None`` when numba is missing."""
    try:
        from numba import njit
    except ImportError:
        return None

    @njit(cache=True)
    def gains_block(lo, hi, in_ptr, in_src, in_weight, node_weight,
                    in_set, deficit, independent):
        out = np.empty(hi - lo, dtype=np.float64)
        for i in range(lo, hi):
            if in_set[i]:
                out[i - lo] = 0.0
                continue
            g = deficit[i]
            for e in range(in_ptr[i], in_ptr[i + 1]):
                u = in_src[e]
                if not in_set[u]:
                    if independent:
                        g += in_weight[e] * deficit[u]
                    else:
                        g += in_weight[e] * node_weight[u]
            out[i - lo] = g
        return out

    @njit(cache=True)
    def gain_scalar(v, in_ptr, in_src, in_weight, node_weight,
                    in_set, deficit, independent):
        if in_set[v]:
            return 0.0
        g = deficit[v]
        for e in range(in_ptr[v], in_ptr[v + 1]):
            u = in_src[e]
            if not in_set[u]:
                if independent:
                    g += in_weight[e] * deficit[u]
                else:
                    g += in_weight[e] * node_weight[u]
        return g

    @njit(cache=True)
    def add_node(v, in_ptr, in_src, in_weight, node_weight,
                 in_set, coverage, deficit, independent):
        coverage[v] = node_weight[v]
        deficit[v] = 0.0
        in_set[v] = True
        spill = 0.0
        for e in range(in_ptr[v], in_ptr[v + 1]):
            u = in_src[e]
            if not in_set[u]:
                if independent:
                    delta = in_weight[e] * deficit[u]
                else:
                    delta = in_weight[e] * node_weight[u]
                coverage[u] += delta
                deficit[u] -= delta
                spill += delta
        return spill

    @njit(cache=True)
    def fanout_update(gains, u_nodes, delta, out_ptr, out_dst, out_weight):
        total = 0
        for j in range(u_nodes.shape[0]):
            u = u_nodes[j]
            d = delta[j]
            for e in range(out_ptr[u], out_ptr[u + 1]):
                gains[out_dst[e]] -= out_weight[e] * d
                total += 1
        return total

    return KernelBackend(
        "numba",
        gains_block=gains_block,
        gain_scalar=gain_scalar,
        add_node=add_node,
        fanout_update=fanout_update,
    )


_BACKEND_CACHE: Dict[str, Optional[KernelBackend]] = {"numpy": NUMPY_KERNELS}


def _numba_backend() -> Optional[KernelBackend]:
    if "numba" not in _BACKEND_CACHE:
        _BACKEND_CACHE["numba"] = _build_numba_backend()
    return _BACKEND_CACHE["numba"]


def available_backends() -> tuple:
    """Names of the backends usable on this host (``numpy`` always)."""
    names = ["numpy"]
    if _numba_backend() is not None:
        names.append("numba")
    return tuple(names)


def get_kernels(
    kernels: "KernelBackend | str | None" = None,
) -> KernelBackend:
    """Resolve a backend name / instance / ``None`` to a backend.

    ``None`` consults the ``REPRO_KERNELS`` environment variable, then
    defaults to ``auto``.  ``auto`` prefers the compiled backend when
    available.  Requesting ``numba`` on a host without numba silently
    falls back to ``numpy`` (absence of the optional dependency must
    never change behavior, only speed).  Unrecognized names raise
    :class:`~repro.errors.SolverError`.
    """
    if isinstance(kernels, KernelBackend):
        return kernels
    name = kernels
    if name is None:
        name = os.environ.get(KERNELS_ENV_VAR) or "auto"
    name = str(name).strip().lower()
    if name not in KERNEL_CHOICES:
        raise SolverError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_CHOICES}"
        )
    if name in ("auto", "numba"):
        backend = _numba_backend()
        if backend is not None:
            return backend
        return NUMPY_KERNELS
    return NUMPY_KERNELS
