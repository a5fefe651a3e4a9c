"""Marginal-gain state: the paper's ``Gain`` and ``AddNode`` procedures.

:class:`GreedyState` holds the solver's mutable state — the retained-set
membership mask, the array ``I`` (per-item probability of being requested
and matched by the current set), and the running cover ``C(S)`` — and
implements Algorithms 2–5 on top of a :class:`repro.core.csr.CSRGraph`:

* :meth:`GreedyState.gain` — Algorithm 2 (Normalized) / Algorithm 4
  (Independent): the marginal increase in ``C(S)`` from adding a node,
  without mutating state;
* :meth:`GreedyState.add_node` — Algorithm 3 / Algorithm 5: commit a node,
  updating ``I`` and ``C(S)`` in ``O(in_degree)``.

The arithmetic itself lives in :mod:`repro.core.kernels`; the state
object binds the graph arrays once at construction and dispatches every
hot call through the selected kernel backend, so swapping the reference
``numpy`` kernels for compiled ones changes nothing here.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

import numpy as np

from ..errors import SolverError
from ..observability import NULL_TRACER
from .csr import CSRGraph
from .kernels import KernelBackend, get_kernels
from .variants import Variant


class GreedyState:
    """Incremental cover bookkeeping for one greedy run.

    The key identity, maintained after every :meth:`add_node`:
    ``self.cover == self.coverage.sum() == C(S)`` where ``S`` is the set
    of nodes with ``self.in_set`` true.  ``deficit[v] = W(v) - I[v]`` is
    kept alongside because the Independent gain rule (Algorithm 4, line 3)
    multiplies edge weights by exactly this quantity.

    ``kernels`` selects the arithmetic backend (see
    :mod:`repro.core.kernels`); the default resolves ``REPRO_KERNELS``.
    """

    def __init__(
        self,
        csr: CSRGraph,
        variant: "Variant | str",
        *,
        tracer=None,
        kernels: "KernelBackend | str | None" = None,
    ) -> None:
        self.csr = csr
        self.variant = Variant.coerce(variant)
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.kernels = get_kernels(kernels)
        n = csr.n_items
        self.in_set = np.zeros(n, dtype=bool)
        self.coverage = np.zeros(n, dtype=np.float64)  # the paper's I
        self.deficit = csr.node_weight.copy()          # W(v) - I[v]
        self.cover = 0.0
        self.size = 0
        self.order: list[int] = []
        # The epoch counts committed AddNode calls and the digest is the
        # CRC-32 of the selection order (``repro.resilience.checkpoint.
        # order_crc``), kept in O(1) per AddNode; checkpoints store both.
        self.epoch = 0
        self.order_digest = 0
        # Hot-path bindings: the scalar oracle runs once per CELF heap
        # re-evaluation, so the per-call constants — the read-only graph
        # arrays, the variant flag and whether tracing is live at all —
        # are resolved here instead of on every call.
        self._independent = self.variant is Variant.INDEPENDENT
        self._tracing = self.tracer is not NULL_TRACER and self.tracer.enabled
        self._graph_args = (csr.in_ptr, csr.in_src, csr.in_weight,
                            csr.node_weight)
        self._gain_kernel = self.kernels.gain_scalar
        self._add_kernel = self.kernels.add_node

    # ------------------------------------------------------------------
    def gain(self, v: int) -> float:
        """Marginal gain of adding node ``v`` (Algorithms 2 and 4)."""
        if self._tracing:
            self.tracer.incr("oracle.gain_calls")
        return float(
            self._gain_kernel(
                v, *self._graph_args, self.in_set, self.deficit,
                self._independent,
            )
        )

    def add_node(self, v: int) -> float:
        """Commit node ``v`` to the retained set (Algorithms 3 and 5).

        Returns the realized marginal gain (equal to what :meth:`gain`
        would have returned immediately before the call).
        """
        if self.in_set[v]:
            raise SolverError(f"node {v} is already retained")
        # The kernel returns only the spill through in-neighbors; the
        # direct term and the spill are accumulated into ``cover`` as
        # two separate additions to keep rounding identical to the
        # pre-kernel implementation.
        direct = float(self.deficit[v])
        spill = float(
            self._add_kernel(
                v, *self._graph_args, self.in_set, self.coverage,
                self.deficit, self._independent,
            )
        )
        self.cover += direct
        self.cover += spill
        self.size += 1
        self.order.append(int(v))
        self.epoch += 1
        self.order_digest = zlib.crc32(
            struct.pack("<q", int(v)), self.order_digest
        )
        return direct + spill

    # ------------------------------------------------------------------
    def gains_all(self, candidates: Optional[np.ndarray] = None) -> np.ndarray:
        """Marginal gains of many candidates in one pass.

        Semantically ``[self.gain(v) for v in candidates]`` but computed
        by the batch kernel in a single sweep over the in-edge arrays,
        which is what makes the naive strategy's per-iteration ``O(n D)``
        work tolerable in Python.
        """
        csr = self.csr
        if self._tracing:
            self.tracer.incr(
                "oracle.batch_evaluations", csr.n_items - self.size
            )
        gains = self.kernels.gains_block(
            0, csr.n_items, *self._graph_args, self.in_set, self.deficit,
            self._independent,
        )
        if candidates is not None:
            return gains[candidates]
        return gains

    def retained_indices(self) -> np.ndarray:
        """Retained nodes in selection order."""
        return np.asarray(self.order, dtype=np.int64)
