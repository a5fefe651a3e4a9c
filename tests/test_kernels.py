"""Kernel registry resolution and numpy-vs-compiled parity.

The dispatch layer must be invisible: every backend computes identical
gains (to 1e-12) and *identical selections* for all three strategies and
both variants.  The compiled-backend half of the suite runs only where
numba is importable; its absence must silently resolve to numpy.
"""

import numpy as np
import pytest

from repro.core.csr import as_csr
from repro.core.gain import GreedyState
from repro.core.greedy import greedy_solve
from repro.core.kernels import (
    KERNELS_ENV_VAR,
    KernelBackend,
    NUMPY_KERNELS,
    available_backends,
    get_kernels,
)
from repro.core.threshold import greedy_threshold_solve
from repro.core.variants import Variant
from repro.errors import SolverError

HAS_NUMBA = "numba" in available_backends()
needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert get_kernels("numpy") is NUMPY_KERNELS

    def test_default_resolves(self):
        backend = get_kernels()
        assert backend.name in available_backends()

    def test_auto_prefers_compiled_when_present(self):
        backend = get_kernels("auto")
        assert backend.name == ("numba" if HAS_NUMBA else "numpy")

    def test_missing_numba_degrades_silently(self):
        # Requesting the compiled backend must never fail: hosts without
        # numba get the numpy reference implementation with no warning.
        backend = get_kernels("numba")
        assert backend.name == ("numba" if HAS_NUMBA else "numpy")

    def test_env_var_is_consulted(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "numpy")
        assert get_kernels().name == "numpy"
        monkeypatch.setenv(KERNELS_ENV_VAR, "definitely-not-a-backend")
        with pytest.raises(SolverError, match="kernel backend"):
            get_kernels()

    def test_explicit_instance_passes_through(self):
        assert isinstance(NUMPY_KERNELS, KernelBackend)
        assert get_kernels(NUMPY_KERNELS) is NUMPY_KERNELS

    def test_unknown_name_rejected(self):
        with pytest.raises(SolverError, match="kernel backend"):
            get_kernels("fortran")

    def test_greedy_state_accepts_backend_objects(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant,
                            kernels=NUMPY_KERNELS)
        assert state.kernels is NUMPY_KERNELS


class TestNumpyKernelInternals:
    """The numpy backend is the reference; pin its block/scalar laws."""

    def test_block_matches_scalar(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        state = GreedyState(csr, variant, kernels="numpy")
        for v in (1, 50, 200):
            state.add_node(v)
        gains = state.gains_all()
        for v in range(0, csr.n_items, 37):
            assert gains[v] == pytest.approx(state.gain(v), abs=1e-12)

    def test_add_node_matches_gain(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        state = GreedyState(csr, variant, kernels="numpy")
        for v in (3, 9, 400):
            predicted = state.gain(v)
            assert state.add_node(v) == pytest.approx(predicted, abs=1e-12)

    def test_fanout_update_counts_edges(self, variant):
        from repro.core.kernels import _np_fanout_update
        from repro.workloads.graphs import random_preference_graph

        csr = as_csr(random_preference_graph(60, variant=variant, seed=5))
        gains = np.zeros(csr.n_items)
        u_nodes = np.array([0, 1, 2], dtype=np.int64)
        delta = np.array([0.1, 0.2, 0.3])
        total = _np_fanout_update(
            gains, u_nodes, delta, csr.out_ptr, csr.out_dst, csr.out_weight
        )
        expected = int(
            (csr.out_ptr[u_nodes + 1] - csr.out_ptr[u_nodes]).sum()
        )
        assert total == expected


@needs_numba
class TestCompiledParity:
    """numpy vs numba: gains to 1e-12, selections exactly."""

    def test_gains_all_parity(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        ref = GreedyState(csr, variant, kernels="numpy")
        jit = GreedyState(csr, variant, kernels="numba")
        for v in (0, 25, 111):
            ref.add_node(v)
            jit.add_node(v)
        np.testing.assert_allclose(
            ref.gains_all(), jit.gains_all(), atol=1e-12
        )

    def test_gains_range_parity(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        ref = GreedyState(csr, variant, kernels="numpy")
        jit = GreedyState(csr, variant, kernels="numba")
        args = (csr.in_ptr, csr.in_src, csr.in_weight, csr.node_weight,
                ref.in_set, ref.deficit, ref.variant is Variant.INDEPENDENT)
        np.testing.assert_allclose(
            ref.kernels.gains_block(100, 400, *args),
            jit.kernels.gains_block(100, 400, *args), atol=1e-12,
        )

    @pytest.mark.parametrize("strategy", ["naive", "lazy", "accelerated"])
    def test_selections_identical(self, medium_graph, variant, strategy):
        ref = greedy_solve(medium_graph, k=25, variant=variant,
                           strategy=strategy, kernels="numpy")
        jit = greedy_solve(medium_graph, k=25, variant=variant,
                           strategy=strategy, kernels="numba")
        assert jit.retained == ref.retained
        assert jit.cover == pytest.approx(ref.cover, abs=1e-12)

    def test_threshold_selections_identical(self, medium_graph, variant):
        ref = greedy_threshold_solve(medium_graph, threshold=0.5,
                                     variant=variant, kernels="numpy")
        jit = greedy_threshold_solve(medium_graph, threshold=0.5,
                                     variant=variant, kernels="numba")
        assert jit.retained == ref.retained


class TestStrategyAgreementUnderExplicitKernels:
    """All three strategies agree regardless of the kernel backend name."""

    @pytest.mark.parametrize("name", ["numpy", "auto"])
    def test_strategies_agree(self, medium_graph, variant, name):
        results = {
            strategy: greedy_solve(
                medium_graph, k=15, variant=variant, strategy=strategy,
                kernels=name,
            )
            for strategy in ("naive", "lazy", "accelerated")
        }
        naive = results["naive"]
        for strategy, result in results.items():
            assert result.retained == naive.retained, strategy
            assert result.cover == pytest.approx(naive.cover, abs=1e-9)
