"""Business-facing audit of a retained-inventory decision.

The Figure 2 system's raw output (retained list + coverage array) needs
interpretation before an analyst signs off on removing items.  This
module answers the operational questions:

* how much demand is lost outright, and which items lose the most;
* which *retained* items carry the most substitute demand (the
  "load-bearing" items whose removal would be costly);
* which dropped items are fully absorbed by alternatives vs orphaned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

import numpy as np

from ..core.cover import coverage_vector
from ..core.csr import as_csr
from ..core.variants import Variant
from ..errors import SolverError


@dataclass(frozen=True)
class LostDemandRow:
    """One non-retained item's demand accounting."""

    item: Hashable
    request_probability: float
    covered: float       # probability requested AND matched
    lost: float          # probability requested AND NOT matched
    coverage_ratio: float  # covered / requested (0 when never requested)


@dataclass(frozen=True)
class LoadBearingRow:
    """One retained item's contribution accounting."""

    item: Hashable
    own_demand: float         # its own request probability
    absorbed_demand: float    # marginal cover it adds for *other* items
    total_contribution: float


@dataclass(frozen=True)
class InventoryAudit:
    """Full audit of a retained set on a preference graph."""

    variant: Variant
    total_cover: float
    total_lost: float
    lost_demand: List[LostDemandRow]       # worst-covered items first
    load_bearing: List[LoadBearingRow]     # highest contribution first
    orphaned_items: List[Hashable]         # dropped, with zero coverage

    def summary(self) -> str:
        """Short human-readable digest."""
        lines = [
            f"cover {self.total_cover:.4f}, lost demand "
            f"{self.total_lost:.4f}",
            f"orphaned items (dropped, no alternative retained): "
            f"{len(self.orphaned_items)}",
        ]
        if self.lost_demand:
            worst = self.lost_demand[0]
            lines.append(
                f"largest single loss: {worst.item!r} "
                f"({worst.lost:.4f} of demand)"
            )
        if self.load_bearing:
            top = self.load_bearing[0]
            lines.append(
                f"most load-bearing retained item: {top.item!r} "
                f"(absorbs {top.absorbed_demand:.4f} of others' demand)"
            )
        return "\n".join(lines)


def audit_retained_set(
    graph,
    retained,
    variant: "Variant | str",
    *,
    top: Optional[int] = None,
) -> InventoryAudit:
    """Audit a retained set (any iterable of item ids or indices).

    ``top`` truncates the per-item tables to the heaviest entries
    (both tables are sorted most-important-first regardless).
    """
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    from ..core.cover import resolve_indices

    indices = resolve_indices(csr, retained)
    in_set = np.zeros(csr.n_items, dtype=bool)
    in_set[indices] = True

    # The mask, not ``indices``: dense indices passed back as ids would
    # be re-resolved id-first and name the wrong nodes on integer ids.
    coverage = coverage_vector(csr, in_set, variant)
    weights = csr.node_weight
    lost = weights - coverage
    total_cover = float(coverage.sum())
    total_lost = float(lost.sum())

    lost_rows = []
    orphaned = []
    for v in np.flatnonzero(~in_set):
        w = float(weights[v])
        c = float(coverage[v])
        ratio = c / w if w > 0 else 0.0
        lost_rows.append(
            LostDemandRow(
                item=csr.items[v],
                request_probability=w,
                covered=c,
                lost=w - c,
                coverage_ratio=ratio,
            )
        )
        if c == 0.0 and w > 0.0:
            orphaned.append(csr.items[v])
    lost_rows.sort(key=lambda row: -row.lost)

    # Load-bearing analysis: each retained item's marginal contribution
    # relative to S - {r}, computed directly from the cover formulas
    # without rebuilding state per item:
    #   own term    = W(r) - (cover of r by its *other* retained
    #                 neighbors, from r's out-edges);
    #   absorbed    = sum over non-retained in-neighbors u of the
    #                 marginal r adds on u given the rest of S
    #                 (Normalized: W(u) * W(u, r); Independent:
    #                 W(u) * W(u, r) * prod over u's other retained
    #                 neighbors of (1 - w)).
    load_rows = []
    for r in indices.tolist():
        targets, target_weights = csr.out_edges(r)
        retained_out = in_set[targets]
        retained_out[targets == r] = False
        self_cover_prob = variant.match_probability(
            target_weights[retained_out].tolist()
        )
        own_term = float(weights[r]) * (1.0 - self_cover_prob)

        absorbed = 0.0
        sources, source_weights = csr.in_edges(r)
        for u, w_ur in zip(sources.tolist(), source_weights.tolist()):
            if in_set[u]:
                continue
            if variant is Variant.NORMALIZED:
                absorbed += float(weights[u]) * w_ur
            else:
                u_targets, u_weights = csr.out_edges(u)
                mask = in_set[u_targets] & (u_targets != r)
                survive = float(np.prod(1.0 - u_weights[mask]))
                absorbed += float(weights[u]) * w_ur * survive
        load_rows.append(
            LoadBearingRow(
                item=csr.items[r],
                own_demand=float(weights[r]),
                absorbed_demand=absorbed,
                total_contribution=own_term + absorbed,
            )
        )
    load_rows.sort(key=lambda row: -row.total_contribution)

    if top is not None:
        if top < 0:
            raise SolverError(f"top must be nonnegative, got {top}")
        lost_rows = lost_rows[:top]
        load_rows = load_rows[:top]

    return InventoryAudit(
        variant=variant,
        total_cover=total_cover,
        total_lost=total_lost,
        lost_demand=lost_rows,
        load_bearing=load_rows,
        orphaned_items=orphaned,
    )
