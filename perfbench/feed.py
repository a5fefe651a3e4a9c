"""The delta feed of ``serve-churn``: seeded JSON wire lines.

Each delta is built from a local mirror of the served graph, so the
whole feed exists before the run starts and the program only ever sees
finished ``GraphDelta`` JSON lines.  One delta:

* moves request mass between 1% of the items (half give, half
  receive), keeping the total;
* scales ~0.5% of the edges down by a factor in [0.5, 1), which keeps
  every Normalized out-weight budget;
* adds two new items, funded from the moved mass, each with three
  alternatives whose weights sum below 0.9.
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

NEW_ITEMS = 2
NEW_ITEM_EDGES = 3


def build_feed(csr, n_deltas: int, rng: np.random.Generator,
               move_share: float = 0.01, edge_share: float = 0.005):
    """``n_deltas`` wire lines (sequences 1..n) and their sizes."""
    weights = np.asarray(csr.node_weight, dtype=np.float64).copy()
    src = np.repeat(np.arange(csr.n_items, dtype=np.int64),
                    np.diff(np.asarray(csr.out_ptr)))
    dst = np.asarray(csr.out_dst, dtype=np.int64).copy()
    edge_w = np.asarray(csr.out_weight, dtype=np.float64).copy()
    if list(csr.items) != list(range(csr.n_items)):
        raise ValueError("the feed mirrors graphs whose item ids are 0..n-1")
    lines: List[str] = []
    sizes = {"moved_items": 0, "scaled_edges": 0, "new_items": NEW_ITEMS,
             "new_edges": NEW_ITEMS * NEW_ITEM_EDGES}
    for sequence in range(1, n_deltas + 1):
        n = weights.size
        moved = max(2, int(round(move_share * n)))
        chosen = rng.choice(n, size=moved, replace=False)
        donors, receivers = chosen[: moved // 2], chosen[moved // 2:]
        given = weights[donors] * rng.uniform(0.1, 0.5, size=donors.size)
        weights[donors] -= given
        pool = float(given.sum())
        new_share = pool * rng.uniform(0.02, 0.1, size=NEW_ITEMS)
        shares = rng.uniform(0.5, 1.5, size=receivers.size)
        weights[receivers] += (pool - new_share.sum()) * shares / shares.sum()
        node_weights = [[i, float(weights[i])] for i in chosen.tolist()]

        scaled = rng.choice(edge_w.size,
                            size=max(1, int(round(edge_share * edge_w.size))),
                            replace=False)
        edge_w[scaled] *= rng.uniform(0.5, 1.0, size=scaled.size)
        updates = [
            [s, d, float(w)] for s, d, w in zip(
                src[scaled].tolist(), dst[scaled].tolist(),
                edge_w[scaled].tolist(),
            )
        ]

        new_index = np.arange(n, n + NEW_ITEMS, dtype=np.int64)
        weights = np.concatenate([weights, new_share])
        for index in new_index.tolist():
            node_weights.append([index, float(weights[index])])
            targets = rng.choice(n, size=NEW_ITEM_EDGES, replace=False)
            raw = rng.uniform(0.05, 1.0, size=NEW_ITEM_EDGES)
            out = raw / raw.sum() * rng.uniform(0.4, 0.9)
            for target, weight in zip(targets.tolist(), out.tolist()):
                updates.append([index, target, weight])
            src = np.append(src, np.full(NEW_ITEM_EDGES, index))
            dst = np.append(dst, targets)
            edge_w = np.append(edge_w, out)

        sizes["moved_items"] = moved
        sizes["scaled_edges"] = int(scaled.size)
        lines.append(json.dumps({
            "sequence": sequence,
            "node_weights": node_weights,
            "edge_updates": updates,
            "edge_removals": [],
        }, separators=(",", ":")))
    return lines, sizes
