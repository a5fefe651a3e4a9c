"""Differential proof of crash/resume equivalence.

The checkpoint subsystem's correctness claim is sharp: a solve killed
at an arbitrary round and resumed from its checkpoints selects exactly
what the uninterrupted solve would have.  This harness proves it the
same way :mod:`repro.evaluation.differential` proves strategy
equivalence — by running both sides on random instances and comparing
with :func:`~repro.evaluation.differential.compare_results`:

* **kill/resume** — for every ``{naive, lazy, accelerated}`` strategy,
  the solve is killed (via the deterministic ``kill_round`` fault) at a
  random round, then resumed from disk; the resumed result must match
  the clean run of the same strategy.
* **corrupt-latest** — before one resume per instance the newest
  snapshot is truncated mid-file; the loader must fall back to an
  older snapshot (or restart from scratch) and still match.
* **guard-partial** — a deadline-interrupted solve must return a
  flagged, valid prefix of the clean selection.
* **threshold-resume** — the complementary threshold solver resumed
  from a killed run must match its clean counterpart.

Exposed on the CLI as ``repro check --resilience`` and run in CI at
smoke size by the chaos-smoke job.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.greedy import greedy_solve
from ..core.threshold import greedy_threshold_solve
from ..errors import SolverError
from ..resilience import Checkpointer, FaultInjector, RunGuard, inject_faults
from ..resilience.faults import InjectedCrash
from .differential import (
    _GENERATORS,
    DifferentialFailure,
    DifferentialReport,
    STRATEGIES,
    compare_results,
)


def run_resilience_differential(
    *,
    instances: int = 25,
    min_items: int = 24,
    max_items: int = 96,
    seed: int = 0,
    variants: Sequence[str] = ("independent", "normalized"),
    strategies: Sequence[str] = STRATEGIES,
    log: Optional[Callable[[str], None]] = None,
) -> DifferentialReport:
    """Prove interrupted+resumed ≡ uninterrupted on random instances.

    Args:
        instances: random instances *per variant*.
        min_items / max_items: instance-size range (sampled uniformly).
        seed: base RNG seed; the sweep (including every kill round and
            checkpoint cadence) is fully deterministic given it.
        variants: problem variants to cover.
        strategies: greedy strategies to kill and resume.
        log: optional progress sink (one line per instance).

    Returns:
        A :class:`~repro.evaluation.differential.DifferentialReport`;
        ``report.ok`` is the verdict.
    """
    min_items = max(6, min(min_items, max_items))
    rng = np.random.default_rng(seed)
    report = DifferentialReport(
        instances=instances, variants=tuple(variants)
    )
    start = time.perf_counter()

    def record(variant, instance, combo, detail):
        report.checks += 1
        if detail is not None:
            report.failures.append(
                DifferentialFailure(
                    variant=variant, instance=instance, combo=combo,
                    detail=detail,
                )
            )

    for variant in variants:
        for index in range(instances):
            name, generator = _GENERATORS[index % len(_GENERATORS)]
            n = int(rng.integers(min_items, max_items + 1))
            case_seed = int(rng.integers(0, 2**31 - 1))
            instance = f"{name}#{index} n={n} seed={case_seed}"
            graph = generator(n, variant, case_seed)
            k = int(rng.integers(4, max(5, n // 2)))
            kill_round = int(rng.integers(1, k))
            cadence = int(rng.integers(1, 4))
            corrupt_combo = int(rng.integers(0, len(strategies)))

            clean_reference = greedy_solve(
                graph, k=k, variant=variant, strategy="naive",
            )

            for combo_no, strategy in enumerate(strategies):
                clean = greedy_solve(
                    graph, k=k, variant=variant, strategy=strategy,
                )
                with tempfile.TemporaryDirectory() as ckpt_dir:
                    crashed = False
                    try:
                        with inject_faults(
                            FaultInjector(kill_round=kill_round)
                        ):
                            greedy_solve(
                                graph, k=k, variant=variant, strategy=strategy,
                                checkpoint=Checkpointer(
                                    ckpt_dir, every_rounds=cadence,
                                ),
                            )
                    except InjectedCrash:
                        crashed = True
                    record(
                        variant, instance, f"{strategy} kill@{kill_round}",
                        None if crashed else "injected crash did not fire",
                    )
                    if combo_no == corrupt_combo:
                        # Truncate the newest snapshot: the loader must
                        # fall back instead of poisoning the resume.
                        snapshots = sorted(Path(ckpt_dir).glob("ckpt-*"))
                        if snapshots:
                            raw = snapshots[-1].read_bytes()
                            snapshots[-1].write_bytes(raw[: len(raw) // 2])
                    resumed = greedy_solve(
                        graph, k=k, variant=variant, strategy=strategy,
                        checkpoint=Checkpointer(
                            ckpt_dir, every_rounds=cadence,
                        ),
                    )
                    leftovers = list(Path(ckpt_dir).glob(".tmp-*"))
                    record(
                        variant, instance, f"{strategy} tmp-files",
                        f"leaked temp checkpoints: {leftovers}"
                        if leftovers else None,
                    )
                record(
                    variant, instance, f"{strategy} resume==clean",
                    compare_results(clean, resumed),
                )
                record(
                    variant, instance, f"{strategy} clean==reference",
                    compare_results(clean_reference, clean),
                )

            # Guard degradation: a deadline-interrupted solve returns a
            # flagged prefix of the clean selection.
            partial = greedy_solve(
                graph, k=k, variant=variant, strategy="accelerated",
                guard=RunGuard(deadline_s=0, on_trigger="partial"),
            )
            prefix_ok = (
                partial.interrupted
                and 0 < len(partial.retained) < k
                and list(partial.retained)
                == list(clean_reference.retained[: len(partial.retained)])
            )
            record(
                variant, instance, "guard-partial-prefix",
                None if prefix_ok else (
                    f"partial not a flagged clean prefix: "
                    f"interrupted={partial.interrupted} "
                    f"len={len(partial.retained)}"
                ),
            )

            # Threshold solver: killed + resumed must match clean.
            threshold = float(
                min(1.0, clean_reference.prefix_covers[max(2, k // 2)])
            )
            try:
                t_clean = greedy_threshold_solve(
                    graph, threshold=threshold, variant=variant,
                )
            except SolverError:
                t_clean = None  # threshold numerically unreachable
            if t_clean is not None and t_clean.k > 1:
                with tempfile.TemporaryDirectory() as ckpt_dir:
                    try:
                        with inject_faults(
                            FaultInjector(
                                kill_round=max(1, t_clean.k - 1)
                            )
                        ):
                            greedy_threshold_solve(
                                graph, threshold=threshold,
                                variant=variant,
                                checkpoint=Checkpointer(
                                    ckpt_dir, every_rounds=1,
                                ),
                            )
                    except InjectedCrash:
                        pass
                    t_resumed = greedy_threshold_solve(
                        graph, threshold=threshold, variant=variant,
                        checkpoint=Checkpointer(ckpt_dir),
                    )
                record(
                    variant, instance, "threshold-resume",
                    compare_results(t_clean, t_resumed),
                )
            if log is not None:
                log(
                    f"{variant} {instance}: "
                    f"{len(report.failures)} failure(s) so far"
                )

    report.wall_time_s = time.perf_counter() - start
    return report
