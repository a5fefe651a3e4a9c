"""Tests for the analysis curves and the inventory audit."""

import numpy as np
import pytest

from repro.core.cover import cover
from repro.core.csr import as_csr
from repro.core.greedy import greedy_solve
from repro.errors import SolverError
from repro.evaluation.audit import audit_retained_set
from repro.evaluation.curves import (
    coverage_curve,
    marginal_gain_profile,
    threshold_curve,
)


class TestCoverageCurve:
    def test_rows_and_dominance(self, medium_graph, variant):
        rows = coverage_curve(
            medium_graph, variant, fractions=(0.1, 0.5, 0.9), seed=1
        )
        assert [row["k/n"] for row in rows] == [0.1, 0.5, 0.9]
        for row in rows:
            assert row["greedy"] >= row["topk-weight"] - 1e-9
            assert row["greedy"] >= row["topk-coverage"] - 1e-9
            assert row["greedy"] >= row["random"] - 1e-9

    def test_matches_direct_solves(self, small_graph, variant):
        rows = coverage_curve(
            small_graph, variant, fractions=(0.5,),
            algorithms=("greedy", "topk-weight"),
        )
        k = rows[0]["k"]
        direct = greedy_solve(small_graph, k=k, variant=variant)
        assert rows[0]["greedy"] == pytest.approx(direct.cover, abs=1e-9)

    def test_monotone_in_fraction(self, medium_graph, variant):
        rows = coverage_curve(
            medium_graph, variant, fractions=(0.1, 0.3, 0.5, 0.7),
            algorithms=("greedy",),
        )
        covers = [row["greedy"] for row in rows]
        assert covers == sorted(covers)

    def test_algorithm_subset(self, small_graph, variant):
        rows = coverage_curve(
            small_graph, variant, fractions=(0.5,), algorithms=("random",),
        )
        assert set(rows[0]) == {"k/n", "k", "random"}

    def test_invalid_fraction(self, small_graph):
        with pytest.raises(SolverError, match="fraction"):
            coverage_curve(small_graph, "independent", fractions=(0.0,))

    def test_unknown_algorithm(self, small_graph):
        with pytest.raises(SolverError, match="unknown algorithms"):
            coverage_curve(
                small_graph, "independent", algorithms=("greedy", "magic"),
            )


class TestThresholdCurve:
    def test_rows(self, medium_graph, variant):
        rows = threshold_curve(
            medium_graph, variant, thresholds=(0.4, 0.6, 0.8)
        )
        sizes = [row["greedy"] for row in rows]
        assert sizes == sorted(sizes)
        for row in rows:
            assert row["greedy_cover"] >= row["threshold"] - 1e-9
            assert row["greedy"] <= row["topk-weight"]
            assert row["greedy"] <= row["topk-coverage"]

    def test_without_baselines(self, small_graph, variant):
        rows = threshold_curve(
            small_graph, variant, thresholds=(0.5,),
            include_baselines=False,
        )
        assert "topk-weight" not in rows[0]


class TestMarginalGainProfile:
    def test_diminishing_returns(self, medium_graph, variant):
        gains = marginal_gain_profile(medium_graph, variant)
        assert gains.shape == (as_csr(medium_graph).n_items,)
        # Greedy gains are nonincreasing (submodularity).
        assert np.all(np.diff(gains) <= 1e-9)
        assert gains.sum() == pytest.approx(1.0)

    def test_truncation(self, small_graph, variant):
        gains = marginal_gain_profile(small_graph, variant, k=5)
        assert gains.shape == (5,)


class TestAudit:
    def test_figure1_audit(self, figure1, variant):
        audit = audit_retained_set(figure1, ["B", "D"], variant)
        assert audit.total_cover == pytest.approx(0.873)
        assert audit.total_lost == pytest.approx(0.127)
        # Worst loss is A (0.33 * 1/3 = 0.11 lost).
        assert audit.lost_demand[0].item == "A"
        assert audit.lost_demand[0].lost == pytest.approx(0.11)
        assert audit.lost_demand[0].coverage_ratio == pytest.approx(2 / 3)
        # No orphans: every dropped item has a retained alternative.
        assert audit.orphaned_items == []

    def test_orphans_detected(self, figure1, variant):
        audit = audit_retained_set(figure1, ["A"], variant)
        # With only A retained, no dropped item has a retained
        # alternative (nothing points at A except A's own demand).
        assert set(audit.orphaned_items) == {"B", "C", "D", "E"}

    def test_load_bearing_contribution_is_removal_delta(
        self, medium_graph, variant
    ):
        result = greedy_solve(medium_graph, k=12, variant=variant)
        audit = audit_retained_set(medium_graph, result.retained, variant)
        full_cover = cover(medium_graph, result.retained, variant)
        for row in audit.load_bearing:
            without = [i for i in result.retained if i != row.item]
            reduced = cover(medium_graph, without, variant)
            assert row.total_contribution == pytest.approx(
                full_cover - reduced, abs=1e-9
            )

    def test_figure1_load_bearing(self, figure1, variant):
        audit = audit_retained_set(figure1, ["B", "D"], variant)
        by_item = {row.item: row for row in audit.load_bearing}
        # B absorbs C fully (0.22) and 2/3 of A (0.22) = 0.44.
        assert by_item["B"].absorbed_demand == pytest.approx(0.44)
        assert by_item["B"].total_contribution == pytest.approx(0.66)
        # D absorbs 0.9 of E.
        assert by_item["D"].absorbed_demand == pytest.approx(0.153)
        assert audit.load_bearing[0].item == "B"

    def test_top_truncation(self, medium_graph, variant):
        audit = audit_retained_set(
            medium_graph, list(range(20)), variant, top=5
        )
        assert len(audit.lost_demand) == 5
        assert len(audit.load_bearing) == 5

    def test_negative_top_rejected(self, figure1):
        with pytest.raises(SolverError, match="top"):
            audit_retained_set(figure1, ["A"], "independent", top=-1)

    def test_summary_text(self, figure1, variant):
        audit = audit_retained_set(figure1, ["B", "D"], variant)
        text = audit.summary()
        assert "cover 0.8730" in text
        assert "orphaned" in text

    def test_retained_items_mutually_covering(self, variant):
        # Two retained items that cover each other: own_term shrinks
        # but removal delta stays exact.
        from repro.core.graph import PreferenceGraph

        g = PreferenceGraph.from_weights(
            {"x": 0.5, "y": 0.5},
            edges=[("x", "y", 0.8), ("y", "x", 0.6)],
        )
        audit = audit_retained_set(g, ["x", "y"], variant)
        full = cover(g, ["x", "y"], variant)
        for row in audit.load_bearing:
            other = "y" if row.item == "x" else "x"
            assert row.total_contribution == pytest.approx(
                full - cover(g, [other], variant), abs=1e-12
            )

    def test_shuffled_integer_ids_resolve_id_first(self, variant):
        # Regression: the audit resolved ids to dense indices and then
        # handed the indices to coverage_vector, which resolves id-first
        # again; on integer ids that are a permutation of the index
        # range that named other nodes.
        from repro.core.csr import CSRGraph

        csr = CSRGraph.from_arrays(
            np.array([0.2, 0.3, 0.5]), np.array([0]), np.array([1]),
            np.array([0.4]), items=[2, 0, 1],
        )
        audit = audit_retained_set(csr, [1], variant)
        assert audit.total_cover == cover(csr, [1], variant)
