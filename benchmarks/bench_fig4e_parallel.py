"""Figure 4e: parallelizability of Greedy across cores {1, 4, 8, 16, 32}.

The paper measures near-perfect scaling (about 20x on 32 cores) on a
32-core server.  This container has one core, so the figure is
reproduced with the calibrated work-span cost model of
``repro.core.parallel`` (DESIGN.md, substitution 3): per-iteration work
is counted exactly from the naive strategy's execution, the per-op cost
is measured on this host, and the paper's ``O(k + nkD/N)`` bound is
applied.  The solvers themselves run serially (docs/performance.md
records why the process pool was removed).
"""

import pytest

from _reporting import register_report
from repro.core.parallel import calibrate_cost_model, speedup_curve
from repro.evaluation.metrics import format_table
from repro.workloads.graphs import random_preference_graph

WORKERS = (1, 4, 8, 16, 32)
N_ITEMS = 200_000
K = 100


@pytest.fixture(scope="module")
def graph():
    return random_preference_graph(N_ITEMS, seed=60)


def test_fig4e_parallel_speedup_model(benchmark, graph):
    model = benchmark.pedantic(
        lambda: calibrate_cost_model(graph, K, "independent"),
        rounds=3, iterations=1,
    )
    rows = speedup_curve(model, workers=WORKERS)
    # (repro.experiments.fig4e_rows produces the same series standalone.)
    display = [
        {
            "cores": row["workers"],
            "modeled_runtime_s": row["runtime_s"],
            "modeled_speedup": row["speedup"],
        }
        for row in rows
    ]
    text = format_table(
        display,
        title=(
            f"Figure 4e: parallelizability (work-span cost model, "
            f"n={N_ITEMS}, k={K}; single-core host — see DESIGN.md "
            f"substitution 3)"
        ),
    )
    register_report("Figure 4e", text, filename="fig4e_parallel.txt")

    by_workers = {row["workers"]: row["speedup"] for row in rows}
    # The paper's shape: near-perfect scaling, ~20x at 32 cores.
    assert by_workers[4] > 3.0
    assert by_workers[8] > 6.0
    assert 10.0 < by_workers[32] < 32.0
    # Monotone in the worker count.
    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups)

