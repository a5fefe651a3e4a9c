"""Tests for the work-span parallel cost model (Figure 4e)."""

import numpy as np
import pytest

from repro.core.csr import as_csr
from repro.core.parallel import (
    ParallelCostModel,
    calibrate_cost_model,
    speedup_curve,
)
from repro.errors import SolverError


class TestCostModel:
    def test_calibration_counts_work(self, medium_graph, variant):
        model = calibrate_cost_model(medium_graph, 10, variant)
        assert len(model.iteration_work) == 10
        csr = as_csr(medium_graph)
        # Iteration i touches all edges + (n - i) live self terms.
        expected0 = csr.n_edges + csr.n_items
        assert model.iteration_work[0] == expected0
        assert model.per_op_seconds > 0

    def test_runtime_decreases_with_workers(self, medium_graph):
        model = calibrate_cost_model(medium_graph, 10, "independent")
        times = [model.runtime(n) for n in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_speedup_saturates_with_sync_overhead(self):
        work = np.full(100, 10_000.0)
        model = ParallelCostModel(
            iteration_work=work, per_op_seconds=1e-6, sync_seconds=1e-4
        )
        # Ideal would be 32x; sync overhead keeps it below.
        assert model.speedup(32) < 32
        assert model.speedup(32) > 10  # but still "almost perfect"

    def test_speedup_curve_rows(self):
        work = np.full(10, 1000.0)
        model = ParallelCostModel(
            iteration_work=work, per_op_seconds=1e-6, sync_seconds=0.0
        )
        rows = speedup_curve(model, workers=(1, 2, 4))
        assert [r["workers"] for r in rows] == [1, 2, 4]
        assert rows[2]["speedup"] == pytest.approx(4.0)

    def test_invalid_worker_count(self):
        model = ParallelCostModel(
            iteration_work=np.ones(1), per_op_seconds=1.0, sync_seconds=0.0
        )
        with pytest.raises(SolverError):
            model.runtime(0)
