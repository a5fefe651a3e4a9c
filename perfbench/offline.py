"""The ``offline`` workload: the paper's scalability claim at 1M items.

A retailer solving the assortment question once over its whole
catalogue waits for ``repro.solve`` and ``repro.cover``.  This workload
times exactly those calls on an ``xlarge`` Independent graph: the
k-solve, the threshold solve and a cover evaluation of a fixed
candidate (the 1,000 items with the highest request weight).  Serving,
drift and CSR conversion do no work here, so it is the control for
read-path and refresh-path changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from common import Report, Samples, peak_rss_mb

_perf = time.perf_counter


#: Cover target of the threshold solve (tau).
THRESHOLD = 0.5


@dataclass(frozen=True)
class OfflineConfig:
    n_items: int = 1_000_000
    k: int = 1000
    candidate: int = 1000
    setup_reps: int = 3
    min_cycles: int = 3


def prepare(cfg: OfflineConfig, seed: int) -> dict:
    """Generate the graph and the candidate from ``seed``."""
    from repro.workloads.graphs import random_preference_graph

    graph_seed = np.random.SeedSequence([seed, 1])
    csr = random_preference_graph(
        cfg.n_items, variant="independent",
        seed=np.random.default_rng(graph_seed),
    )
    order = np.argsort(-np.asarray(csr.node_weight), kind="stable")
    candidate = [csr.items[i] for i in order[: cfg.candidate].tolist()]
    return {"csr": csr, "candidate": candidate}


def _fresh(csr):
    """A new CSRGraph over the same arrays: nothing validated or cached."""
    from repro.core.csr import CSRGraph

    return CSRGraph(
        csr.node_weight, csr.in_ptr, csr.in_src, csr.in_weight,
        csr.out_ptr, csr.out_dst, csr.out_weight, list(csr.items),
    )


def execute(cfg: OfflineConfig, inputs: dict, seconds: float,
            report: Report, tracer=None) -> None:
    """Set up, measure for ``seconds``, then check the outputs."""
    import repro
    from repro.evaluation.invariants import NOISE

    variant = "independent"
    csr, candidate = inputs["csr"], inputs["candidate"]
    report.inputs.update(
        n_items=csr.n_items, n_edges=csr.n_edges, variant=variant,
        k=cfg.k, threshold=THRESHOLD, candidate_size=len(candidate),
        candidate_rule="top items by request weight",
        setup_reps=cfg.setup_reps,
    )

    setup = Samples("s")
    k_lists = []
    for _ in range(cfg.setup_reps):
        graph = None
        graph = _fresh(csr)
        started = _perf()
        result = repro.solve(graph, variant=variant, k=cfg.k)
        setup.add(_perf() - started)
        k_lists.append(list(result.selected))
        report.operation(True)

    solve, threshold, cover_eval = (Samples("s") for _ in range(3))
    k_result = t_result = None
    covers = []
    deadline = _perf() + seconds
    cycles = 0
    while cycles < cfg.min_cycles or _perf() < deadline:
        started = _perf()
        k_result = repro.solve(graph, variant=variant, k=cfg.k)
        solve.add(_perf() - started)
        k_lists.append(list(k_result.selected))

        started = _perf()
        t_result = repro.solve(graph, variant=variant,
                               threshold=THRESHOLD)
        threshold.add(_perf() - started)

        started = _perf()
        covers.append(repro.cover(graph, candidate, variant))
        cover_eval.add(_perf() - started)
        report.operation(True)
        report.operation(True)
        report.operation(True)
        cycles += 1

    report.put_median("setup_s", setup,
                      "median of validate + first cold repro.solve(k)")
    report.put_median("solve_p50_s", solve, f"repro.solve(k={cfg.k})")
    report.put_median("threshold_p50_s", threshold,
                      f"repro.solve(threshold={THRESHOLD:g})")
    report.put_median("answer_p50_s", cover_eval,
                      "cover_eval_p50_s: repro.cover() of the "
                      "candidate")
    report.put("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    report.inputs.update(threshold_size=len(t_result.selected))

    # Output checks, outside every timed region and the trace.
    if tracer is not None:
        tracer.uninstall()
    report.check(all(len(order) == cfg.k for order in k_lists),
                 "k-solve returns exactly k items")
    report.check(all(order == k_lists[0] for order in k_lists),
                 "k-solve returns the same list on every repeat")
    report.check(len(set(covers)) == 1,
                 "cover() of the candidate is the same on every repeat")
    recomputed = repro.cover(graph, k_result.selected, variant)
    report.check(abs(recomputed - k_result.cover) <= NOISE,
                 f"k-solve cover {k_result.cover!r} vs recomputed "
                 f"{recomputed!r}")
    recomputed = repro.cover(graph, t_result.selected, variant)
    report.check(abs(recomputed - t_result.cover) <= NOISE,
                 f"threshold cover {t_result.cover!r} vs recomputed "
                 f"{recomputed!r}")
    report.check(recomputed >= THRESHOLD,
                 f"threshold result reaches tau ({recomputed!r})")
    shorter = repro.cover(graph, t_result.selected[:-1], variant)
    report.check(shorter < THRESHOLD,
                 f"threshold prefix one item shorter stays below tau "
                 f"({shorter!r})")
