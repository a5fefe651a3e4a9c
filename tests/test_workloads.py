"""Tests for workload generators and dataset stand-ins."""

import numpy as np
import pytest

from repro.errors import GraphValidationError, ReproError
from repro.workloads.datasets import (
    PAPER_DATASETS,
    build_dataset,
    dataset_table,
)
from repro.workloads.graphs import (
    SyntheticGraphConfig,
    random_preference_graph,
    small_dense_graph,
    synthetic_graph,
)


class TestSyntheticGraph:
    def test_valid_for_variant(self):
        for variant in ("independent", "normalized"):
            config = SyntheticGraphConfig(
                n_items=500, variant=__import__(
                    "repro.core.variants", fromlist=["Variant"]
                ).Variant.coerce(variant),
            )
            graph = synthetic_graph(config, seed=0)
            graph.validate(variant)

    def test_deterministic(self):
        a = random_preference_graph(200, seed=5)
        b = random_preference_graph(200, seed=5)
        np.testing.assert_array_equal(a.node_weight, b.node_weight)
        np.testing.assert_array_equal(a.in_src, b.in_src)

    def test_degree_close_to_target(self):
        graph = random_preference_graph(5000, avg_out_degree=4.0, seed=1)
        # Dedup and span-capping trim a little; stay in the ballpark.
        assert 2.0 < graph.n_edges / graph.n_items < 4.5

    def test_no_self_edges(self):
        graph = random_preference_graph(1000, seed=2)
        sources = np.repeat(
            np.arange(graph.n_items), np.diff(graph.out_ptr)
        )
        assert not np.any(sources == graph.out_dst)

    def test_no_duplicate_edges(self):
        graph = random_preference_graph(1000, seed=3)
        sources = np.repeat(
            np.arange(graph.n_items), np.diff(graph.out_ptr)
        )
        keys = sources * graph.n_items + graph.out_dst
        assert len(np.unique(keys)) == len(keys)

    def test_too_small_rejected(self):
        with pytest.raises(GraphValidationError):
            synthetic_graph(SyntheticGraphConfig(n_items=1))

    def test_zipf_skew(self):
        graph = random_preference_graph(2000, seed=4)
        weights = np.sort(graph.node_weight)[::-1]
        # Top 10% of items carry well over 10% of the mass.
        assert weights[:200].sum() > 0.3


class TestSmallDenseGraph:
    def test_valid(self, variant):
        graph = small_dense_graph(10, variant=variant, seed=0)
        graph.validate(variant)

    def test_density(self):
        graph = small_dense_graph(20, edge_probability=0.5, seed=1)
        possible = 20 * 19
        assert 0.35 < graph.n_edges / possible < 0.65

    def test_too_small_rejected(self):
        with pytest.raises(GraphValidationError):
            small_dense_graph(1)


class TestDatasets:
    def test_registry_contents(self):
        assert set(PAPER_DATASETS) == {"PE", "PF", "PM", "YC"}
        assert PAPER_DATASETS["PM"].variant().value == "normalized"
        assert PAPER_DATASETS["YC"].browse_only_rate > 0.9

    def test_paper_stats_match_table2(self):
        yc = PAPER_DATASETS["YC"].paper
        assert yc.sessions == 9_249_729
        assert yc.purchases == 259_579
        assert yc.items == 52_739
        assert yc.edges == 249_008
        pe = PAPER_DATASETS["PE"].paper
        assert pe.items == 1_921_701

    def test_build_dataset(self):
        clickstream, model = build_dataset("PM", scale=0.0005, seed=0)
        stats = clickstream.stats()
        assert stats["sessions"] > 0
        assert stats["purchases"] == stats["sessions"]  # no browse-only

    def test_yc_mostly_browse_only(self):
        clickstream, _ = build_dataset("YC", scale=0.001, seed=0)
        rate = clickstream.n_purchases / clickstream.n_sessions
        assert rate < 0.1

    def test_unknown_dataset(self):
        with pytest.raises(ReproError, match="unknown dataset"):
            build_dataset("XX")

    def test_scale_validation(self):
        with pytest.raises(ReproError, match="scale"):
            PAPER_DATASETS["PE"].scaled_counts(0)

    def test_case_insensitive(self):
        clickstream, _ = build_dataset("yc", scale=0.001, seed=0)
        assert clickstream.n_sessions > 0

    def test_dataset_table_rows(self):
        rows = dataset_table(scale=0.0005, seed=1)
        assert [r["dataset"] for r in rows] == ["PE", "PF", "PM", "YC"]
        for row in rows:
            assert row["generated_items"] > 0
            assert row["generated_edges"] > 0
            assert row["paper_items"] > row["generated_items"]

    def test_pm_fits_normalized(self):
        from repro.adaptation import recommend_variant

        clickstream, _ = build_dataset("PM", scale=0.001, seed=2)
        rec = recommend_variant(clickstream)
        assert rec.variant.value == "normalized"
        assert rec.normalized_fit >= 0.9


class TestBoundedDegreeGraph:
    def test_degree_bound_respected(self):
        from repro.workloads.graphs import bounded_degree_graph

        graph = bounded_degree_graph(200, max_degree=3, seed=0)
        total_degree = graph.in_degrees() + graph.out_degrees()
        assert total_degree.max() <= 3
        assert graph.n_edges > 50  # budget reasonably saturated

    def test_valid_for_variant(self):
        from repro.workloads.graphs import bounded_degree_graph

        for variant in ("independent", "normalized"):
            graph = bounded_degree_graph(
                50, max_degree=3, variant=variant, seed=1
            )
            graph.validate(variant)

    def test_reduction_preserves_degree(self):
        # Theorem 3.1: the NPC->VC reduction keeps the maximal degree
        # (self-loops aside), so hardness carries to degree-3 instances.
        from repro.reductions.vertex_cover import npc_to_vc
        from repro.workloads.graphs import bounded_degree_graph

        graph = bounded_degree_graph(
            100, max_degree=3, variant="normalized", seed=2
        )
        instance, _items = npc_to_vc(graph)
        degree = [0] * instance.n
        for u, v, _w in instance.edges:
            if u != v:  # self-loops excluded, as in the theorem
                degree[u] += 1
                degree[v] += 1
        assert max(degree) <= 3

    def test_validation(self):
        from repro.errors import GraphValidationError
        from repro.workloads.graphs import bounded_degree_graph

        import pytest as _pytest
        with _pytest.raises(GraphValidationError):
            bounded_degree_graph(1)
        with _pytest.raises(GraphValidationError):
            bounded_degree_graph(10, max_degree=0)

    def test_solvable(self):
        from repro.core.greedy import greedy_solve
        from repro.workloads.graphs import bounded_degree_graph

        graph = bounded_degree_graph(100, seed=3)
        result = greedy_solve(graph, k=20, variant="normalized")
        assert 0 < result.cover <= 1
