"""Exact evaluation of the cover function ``C(S)`` (Definitions 2.1, 2.2).

Given a retained set ``S``, the cover is the probability that a request
drawn from the node-weight distribution is matched:

* retained items are matched with probability one;
* a non-retained ``v`` is matched with the variant-specific probability
  computed from the edges into its retained neighbors
  (:meth:`repro.core.variants.Variant.match_probability`).

These functions recompute ``C(S)`` from scratch; the solvers maintain it
incrementally, and the test-suite cross-checks the two at every step.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from ..errors import UnknownItemError
from .csr import CSRGraph, as_csr
from .variants import Variant

GraphLike = Union[CSRGraph, "PreferenceGraph"]  # noqa: F821 - doc alias


def resolve_indices(csr: CSRGraph, retained: Iterable) -> np.ndarray:
    """Map an iterable of item ids (or dense indices) to an index array.

    Resolution is **id-first**: every element is looked up through the
    graph's item table, and only an integer that is *not* an item id is
    interpreted as a dense index (when in ``[0, n_items)``; anything
    else raises :class:`~repro.errors.UnknownItemError`).  Id-first
    ordering matters for graphs whose item ids are non-identity
    integers — e.g. shuffled product ids — where an id and an index
    with the same value name *different* nodes; ids always win.  On the
    common default table (``items == range(n)``) the two semantics
    coincide, so dense indices keep working everywhere.  Duplicates are
    removed while preserving first-occurrence order (the greedy order).
    """
    seen = set()
    out = []
    for item in retained:
        try:
            idx = csr.index_of(item)
        except (UnknownItemError, TypeError):
            # Not an item id: fall back to dense-index semantics for
            # plain integers (TypeError covers unhashable inputs, which
            # can never be ids).
            if isinstance(item, (int, np.integer)) \
                    and 0 <= int(item) < csr.n_items:
                idx = int(item)
            else:
                raise UnknownItemError(item) from None
        if idx not in seen:
            seen.add(idx)
            out.append(idx)
    return np.asarray(out, dtype=np.int64)


def _retained_mask(csr: CSRGraph, retained) -> np.ndarray:
    """Boolean membership vector of ``S`` over the dense indices.

    A boolean array of length ``n_items`` is taken as the vector
    itself; anything else goes through :func:`resolve_indices`.
    """
    if isinstance(retained, np.ndarray) and retained.dtype == bool \
            and retained.shape == (csr.n_items,):
        return retained
    in_set = np.zeros(csr.n_items, dtype=bool)
    in_set[resolve_indices(csr, retained)] = True
    return in_set


def coverage_vector(
    graph: GraphLike,
    retained: Iterable,
    variant: "Variant | str",
) -> np.ndarray:
    """The paper's array ``I``: per-item probability of request-and-match.

    ``I[v] = W(v) * P(request for v is matched by S)``; the sum of the
    entries equals ``C(S)``.  Retained items have ``I[v] = W(v)``.
    ``retained`` is an iterable of item ids (see :func:`resolve_indices`)
    or a boolean membership vector of length ``n_items``, which lets a
    caller that already resolved ``S`` skip resolving it again.

    The match probabilities are segment reductions over the out-CSR:
    the edges into ``S`` whose source is not in ``S`` are taken in
    out-CSR order, grouped by source, and each group is reduced in that
    order — ``1 - prod(1 - w)`` for Independent, ``min(1, sum(w))``
    for Normalized.  The Normalized sum accumulates left to right
    (``np.add.reduceat``), not pairwise as ``np.sum`` would; this order
    is the reference that offline ``cover()`` and served answers share.
    """
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    in_set = _retained_mask(csr, retained)
    cover_prob = in_set.astype(np.float64)

    # Out-CSR positions of the edges into S, then the source of each.
    positions = np.flatnonzero(in_set[csr.out_dst])
    sources = np.searchsorted(csr.out_ptr, positions, side="right") - 1
    outside = ~in_set[sources]
    positions, sources = positions[outside], sources[outside]
    if positions.size:
        starts = np.flatnonzero(
            np.concatenate(([True], sources[1:] != sources[:-1]))
        )
        weights = csr.out_weight[positions]
        if variant is Variant.INDEPENDENT:
            prob = 1.0 - np.multiply.reduceat(1.0 - weights, starts)
        else:
            prob = np.minimum(1.0, np.add.reduceat(weights, starts))
        cover_prob[sources[starts]] = prob
    return csr.node_weight * cover_prob


def cover(
    graph: GraphLike,
    retained: Iterable,
    variant: "Variant | str",
) -> float:
    """Compute ``C(S)`` exactly for a retained set ``S``."""
    return float(coverage_vector(graph, retained, variant).sum())


def item_coverage(
    graph: GraphLike,
    retained: Iterable,
    variant: "Variant | str",
) -> np.ndarray:
    """Per-item *conditional* coverage: ``I[v] / W(v)``.

    This is the per-item percentage the system of Figure 2 reports
    (retained items show 100%).  Items with zero request probability are
    reported as fully covered when retained and zero otherwise, to avoid
    0/0.
    """
    csr = as_csr(graph)
    in_set = _retained_mask(csr, retained)
    vector = coverage_vector(csr, in_set, variant)
    weights = csr.node_weight
    out = np.zeros(csr.n_items, dtype=np.float64)
    positive = weights > 0
    out[positive] = vector[positive] / weights[positive]
    out[~positive & in_set] = 1.0
    return out
