"""Tests for the exact cover function (Definitions 2.1 and 2.2)."""

import numpy as np
import pytest

from repro.core.cover import cover, coverage_vector, item_coverage, resolve_indices
from repro.core.csr import CSRGraph, as_csr
from repro.core.graph import PreferenceGraph
from repro.errors import UnknownItemError
from repro.workloads.graphs import random_preference_graph, small_dense_graph


class TestBasicProperties:
    def test_empty_set_covers_nothing(self, figure1, variant):
        assert cover(figure1, [], variant) == 0.0

    def test_full_set_covers_everything(self, figure1, variant):
        items = list(figure1.items())
        assert cover(figure1, items, variant) == pytest.approx(1.0)

    def test_retained_mass_is_lower_bound(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        retained = list(range(0, 50))
        got = cover(csr, retained, variant)
        assert got >= float(csr.node_weight[retained].sum()) - 1e-12

    def test_monotone_in_set(self, small_graph, variant):
        small = cover(small_graph, [0, 1], variant)
        bigger = cover(small_graph, [0, 1, 2, 3], variant)
        assert bigger >= small - 1e-12

    def test_cover_bounded_by_one(self, medium_graph, variant):
        got = cover(medium_graph, range(100), variant)
        assert 0.0 <= got <= 1.0 + 1e-12


class TestSemantics:
    def test_independent_noisy_or(self):
        g = PreferenceGraph.from_weights(
            {"v": 0.5, "a": 0.25, "b": 0.25},
            edges=[("v", "a", 0.5), ("v", "b", 0.5)],
        )
        got = cover(g, ["a", "b"], "independent")
        # a + b retained mass 0.5, v covered 1-(0.5*0.5)=0.75 -> 0.375
        assert got == pytest.approx(0.5 + 0.5 * 0.75)

    def test_normalized_sum(self):
        g = PreferenceGraph.from_weights(
            {"v": 0.5, "a": 0.25, "b": 0.25},
            edges=[("v", "a", 0.5), ("v", "b", 0.5)],
        )
        got = cover(g, ["a", "b"], "normalized")
        assert got == pytest.approx(0.5 + 0.5 * 1.0)

    def test_variants_agree_with_single_retained_neighbor(self):
        g = PreferenceGraph.from_weights(
            {"v": 0.6, "a": 0.4},
            edges=[("v", "a", 0.3)],
        )
        indep = cover(g, ["a"], "independent")
        norm = cover(g, ["a"], "normalized")
        assert indep == pytest.approx(norm) == pytest.approx(0.4 + 0.6 * 0.3)

    def test_figure1_quoted_values(self, figure1):
        # Values quoted in Example 1.1 of the paper.
        assert cover(figure1, ["A", "B"], "normalized") == pytest.approx(0.77)
        assert cover(figure1, ["B", "D"], "normalized") == pytest.approx(0.873)


class TestCoverageVector:
    def test_sums_to_cover(self, medium_graph, variant):
        retained = list(range(40))
        vec = coverage_vector(medium_graph, retained, variant)
        assert vec.sum() == pytest.approx(cover(medium_graph, retained, variant))

    def test_retained_fully_covered(self, small_graph, variant):
        csr = as_csr(small_graph)
        vec = coverage_vector(csr, [3, 5], variant)
        assert vec[3] == pytest.approx(float(csr.node_weight[3]))
        assert vec[5] == pytest.approx(float(csr.node_weight[5]))

    def test_entries_bounded_by_node_weight(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        vec = coverage_vector(csr, range(60), variant)
        assert np.all(vec <= csr.node_weight + 1e-12)
        assert np.all(vec >= 0)


def _reference_vector(csr, retained, variant):
    """Per-node loop form of ``coverage_vector`` (the original kernel)."""
    in_set = np.zeros(csr.n_items, dtype=bool)
    in_set[resolve_indices(csr, retained)] = True
    cover_prob = np.zeros(csr.n_items, dtype=np.float64)
    cover_prob[in_set] = 1.0
    for v in np.flatnonzero(~in_set):
        targets, weights = csr.out_edges(v)
        retained_weights = weights[in_set[targets]]
        if not retained_weights.size:
            continue
        if variant == "independent":
            cover_prob[v] = 1.0 - np.prod(1.0 - retained_weights)
        else:
            cover_prob[v] = min(1.0, float(retained_weights.sum()))
    return csr.node_weight * cover_prob


def _assert_matches_reference(csr, retained, variant):
    got = coverage_vector(csr, retained, variant)
    expected = _reference_vector(csr, retained, variant)
    if variant == "independent":
        # Same products in the same order: bitwise equal.
        assert np.array_equal(got, expected)
    else:
        # add.reduceat sums left to right, np.sum pairwise.
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
    return got


class TestVectorizedKernel:
    """The segment-reduction kernel against the per-node loop."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, variant, seed):
        csr = random_preference_graph(400, variant=variant, seed=seed)
        rng = np.random.default_rng(seed)
        for size in (1, 7, 60, 250):
            retained = rng.choice(csr.n_items, size=size, replace=False)
            _assert_matches_reference(csr, retained.tolist(), variant)

    def test_dense_graph(self, variant):
        csr = small_dense_graph(40, variant=variant, edge_probability=0.6,
                                seed=3)
        _assert_matches_reference(csr, range(0, 40, 3), variant)

    def test_empty_set(self, medium_graph, variant):
        got = _assert_matches_reference(medium_graph, [], variant)
        assert not got.any()

    def test_all_items(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        got = _assert_matches_reference(csr, range(csr.n_items), variant)
        assert np.array_equal(got, csr.node_weight)

    def test_retained_to_retained_edges_keep_node_weight(self, variant):
        # 0 -> 1 -> 2 -> 0, all retained, plus 3 -> {0, 1} outside.
        csr = CSRGraph.from_arrays(
            np.array([0.1, 0.2, 0.3, 0.4]),
            np.array([0, 1, 2, 3, 3]), np.array([1, 2, 0, 0, 1]),
            np.array([0.5, 0.5, 0.5, 0.3, 0.4]),
        )
        got = _assert_matches_reference(csr, [0, 1, 2], variant)
        assert np.array_equal(got[:3], csr.node_weight[:3])
        assert got[3] > 0

    def test_nodes_without_out_edges(self, variant):
        csr = CSRGraph.from_arrays(
            np.array([0.25, 0.25, 0.25, 0.25]),
            np.array([2]), np.array([0]), np.array([0.6]),
        )
        got = _assert_matches_reference(csr, [0], variant)
        assert got[1] == 0.0 and got[3] == 0.0
        assert got[2] == 0.25 * 0.6

    def test_zero_weight_items(self, variant):
        csr = CSRGraph.from_arrays(
            np.array([0.5, 0.0, 0.5, 0.0]),
            np.array([1, 3, 2]), np.array([0, 0, 1]),
            np.array([0.5, 0.9, 0.4]),
        )
        for retained in ([0], [1], [0, 1], [0, 3]):
            got = _assert_matches_reference(csr, retained, variant)
            assert got[1] == 0.0 and got[3] == 0.0

    def test_duplicate_and_shuffled_integer_ids(self, variant):
        base = random_preference_graph(200, variant=variant, seed=11)
        ids = np.random.default_rng(5).permutation(base.n_items).tolist()
        csr = CSRGraph.from_arrays(
            base.node_weight, np.repeat(np.arange(base.n_items),
                                        base.out_degrees()),
            base.out_dst, base.out_weight, items=ids,
        )
        retained = [ids[3], ids[3], ids[50], 17, ids[50], 150]
        got = _assert_matches_reference(csr, retained, variant)
        # Ids win: 17 and 150 name the nodes whose *id* they are.
        for item in (ids[3], ids[50], 17, 150):
            index = csr.index_of(item)
            assert got[index] == csr.node_weight[index]

    def test_high_out_degree(self, variant):
        n = 130
        src = np.zeros(n - 1, dtype=np.int64)
        dst = np.arange(1, n)
        weight = np.random.default_rng(2).uniform(0.001, 1.0 / n, n - 1)
        csr = CSRGraph.from_arrays(np.full(n, 1.0 / n), src, dst, weight)
        for retained in (range(1, 90), range(2, n, 2), [n - 1]):
            got = _assert_matches_reference(csr, retained, variant)
            assert got[0] > 0

    def test_boolean_mask_equals_id_form(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        mask = np.zeros(csr.n_items, dtype=bool)
        mask[::7] = True
        assert np.array_equal(
            coverage_vector(csr, mask, variant),
            coverage_vector(csr, np.flatnonzero(mask).tolist(), variant),
        )


class TestItemCoverage:
    def test_conditional_values(self, figure1):
        csr = as_csr(figure1)
        conditional = item_coverage(csr, ["B", "D"], "normalized")
        by_item = {csr.items[i]: conditional[i] for i in range(5)}
        # Figure 2 walkthrough: A 67%, C 100%, E 90%.
        assert by_item["A"] == pytest.approx(2 / 3)
        assert by_item["C"] == pytest.approx(1.0)
        assert by_item["E"] == pytest.approx(0.9)
        assert by_item["B"] == pytest.approx(1.0)
        assert by_item["D"] == pytest.approx(1.0)

    def test_zero_weight_items(self):
        g = PreferenceGraph.from_weights(
            {"a": 1.0, "zero": 0.0},
            edges=[("zero", "a", 0.5)],
        )
        conditional = item_coverage(g, ["a"], "independent")
        csr = as_csr(g)
        assert conditional[csr.index_of("zero")] == 0.0
        conditional_retained = item_coverage(g, ["a", "zero"], "independent")
        assert conditional_retained[csr.index_of("zero")] == 1.0


class TestResolveIndices:
    def test_accepts_ids_and_indices(self, figure1):
        csr = as_csr(figure1)
        mixed = resolve_indices(csr, ["A", 1, "D"])
        assert list(mixed) == [csr.index_of("A"), 1, csr.index_of("D")]

    def test_deduplicates_preserving_order(self, figure1):
        csr = as_csr(figure1)
        indices = resolve_indices(csr, ["B", "B", "A"])
        assert list(indices) == [csr.index_of("B"), csr.index_of("A")]

    def test_unknown_item_raises(self, figure1):
        csr = as_csr(figure1)
        with pytest.raises(UnknownItemError):
            resolve_indices(csr, ["nope"])

    def test_integer_item_ids_resolve_as_ids_first(self):
        csr = CSRGraph.from_arrays(
            np.array([0.5, 0.5]), np.array([0]), np.array([1]),
            np.array([0.4]), items=[10, 20],
        )
        # 10 is an item id, so it resolves through the item table.
        assert list(resolve_indices(csr, [10])) == [0]
        # 0 and 1 are not ids here; integers in [0, n) fall back to
        # dense-index semantics so positional call sites keep working.
        assert list(resolve_indices(csr, [0, 1])) == [0, 1]

    def test_id_wins_when_id_and_index_collide(self):
        # Regression: item ids are a non-identity permutation of the
        # index range, so the same integer names different nodes under
        # id vs index semantics.  Ids must win — the old index-first
        # rule silently resolved every element positionally.
        csr = CSRGraph.from_arrays(
            np.array([0.2, 0.3, 0.5]), np.array([0]), np.array([1]),
            np.array([0.4]), items=[2, 0, 1],
        )
        assert list(resolve_indices(csr, [2, 0, 1])) == [0, 1, 2]
        # Cover/coverage recomputation follows the same rule: retaining
        # item 1 (index 2) keeps that node's mass, not node 1's.
        vector = coverage_vector(csr, [1], "independent")
        assert vector[2] == pytest.approx(0.5)
        assert vector[1] == 0.0

    def test_unhashable_input_raises_unknown_item(self, figure1):
        csr = as_csr(figure1)
        with pytest.raises(UnknownItemError):
            resolve_indices(csr, [["not", "an", "id"]])


class TestSolverCoverageOnIntegerIds:
    """Solvers that pick dense indices report the cover of those nodes.

    Regression: four solvers handed their dense indices to
    ``coverage_vector``, which resolves id-first; on integer ids that
    permute the index range the reported cover was that of other nodes.
    """

    @staticmethod
    def _shuffled_ids_graph():
        base = small_dense_graph(9, variant="normalized", seed=4)
        ids = [3, 7, 0, 8, 1, 5, 2, 6, 4]
        return CSRGraph.from_arrays(
            base.node_weight,
            np.repeat(np.arange(base.n_items), base.out_degrees()),
            base.out_dst, base.out_weight, items=ids,
        )

    @pytest.mark.parametrize("solver", [
        "top_k_weight", "random", "brute_force", "lp_round", "milp",
    ])
    def test_reported_cover_is_cover_of_retained(self, solver):
        from repro.core.baselines import random_solve, top_k_weight_solve
        from repro.core.bruteforce import brute_force_solve
        from repro.reductions import lp_round_solve, milp_solve_npc

        csr = self._shuffled_ids_graph()
        run = {
            "top_k_weight": lambda: top_k_weight_solve(
                csr, k=3, variant="normalized"),
            "random": lambda: random_solve(
                csr, k=3, variant="normalized", seed=1),
            "brute_force": lambda: brute_force_solve(
                csr, k=3, variant="normalized"),
            "lp_round": lambda: lp_round_solve(csr, k=3),
            "milp": lambda: milp_solve_npc(csr, k=3),
        }[solver]
        result = run()
        expected = coverage_vector(csr, result.retained, "normalized")
        assert np.array_equal(result.coverage, expected)
        assert result.cover == cover(csr, result.retained, "normalized")
