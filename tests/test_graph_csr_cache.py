"""The CSR view a PreferenceGraph caches per graph version."""

import numpy as np
import pytest

from repro.clickstream.drift import random_delta
from repro.core.csr import CSRGraph, as_csr
from repro.core.graph import PreferenceGraph
from repro.serving import AssortmentService
from repro.workloads.graphs import random_preference_graph


@pytest.fixture
def graph():
    return PreferenceGraph.from_weights(
        {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1},
        edges=[("a", "b", 0.5), ("b", "c", 0.4), ("d", "a", 0.7)],
    )


@pytest.fixture
def build_counter(monkeypatch):
    """Counts ``CSRGraph.from_preference_graph`` calls."""
    calls = []
    original = CSRGraph.from_preference_graph.__func__

    def counting(cls, graph):
        calls.append(graph)
        return original(cls, graph)

    monkeypatch.setattr(CSRGraph, "from_preference_graph",
                        classmethod(counting))
    return calls


class TestMemo:
    def test_same_object_until_mutation(self, graph, build_counter):
        first = graph.to_csr()
        assert graph.to_csr() is first
        assert as_csr(graph) is first
        assert len(build_counter) == 1

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_item("e", 0.0),
        lambda g: g.add_item("a", 0.4),
        lambda g: g.add_edge("c", "d", 0.3),
        lambda g: g.remove_edge("a", "b"),
        lambda g: g.normalize_node_weights(),
    ], ids=["add_item", "reweigh_item", "add_edge", "remove_edge",
            "normalize_node_weights"])
    def test_each_mutator_invalidates(self, graph, mutate):
        before = graph.to_csr()
        mutate(graph)
        after = graph.to_csr()
        assert after is not before
        assert after.n_items == graph.n_items
        assert after.n_edges == graph.n_edges

    def test_mutation_leaves_earlier_csr_unchanged(self, graph):
        before = graph.to_csr()
        digest = before.content_digest()
        graph.add_edge("c", "d", 0.3)
        assert before.n_edges == 3
        assert before.content_digest() == digest
        assert graph.to_csr().content_digest() != digest

    def test_copy_does_not_share(self, graph):
        original = graph.to_csr()
        clone = graph.copy()
        assert clone.to_csr() is not original
        clone.add_edge("c", "d", 0.3)
        assert graph.to_csr() is original


class TestServiceRefresh:
    def _service(self):
        csr = random_preference_graph(120, variant="independent", seed=4)
        return AssortmentService(
            csr.to_preference_graph(), variant="independent", k=10
        )

    def test_snapshot_keeps_its_csr_across_a_delta(self):
        service = self._service()
        before = service.ensure()
        weights = np.array(before.graph.node_weight)
        service.stage_delta(
            random_delta(service.graph, sigma=0.2, seed=1, sequence=1)
        )
        after = service.refresh()
        assert after.graph is not before.graph
        assert np.array_equal(before.graph.node_weight, weights)
        assert not np.array_equal(after.graph.node_weight, weights)

    def test_delta_refresh_builds_one_csr(self, build_counter):
        service = self._service()
        service.ensure()
        build_counter.clear()
        assert service.stage_delta(
            random_delta(service.graph, sigma=0.1, seed=2, sequence=1)
        )
        service.refresh()
        assert len(build_counter) == 1

    def test_forced_refresh_of_unchanged_graph_builds_none(
            self, build_counter):
        service = self._service()
        first = service.ensure()
        build_counter.clear()
        again = service.refresh()
        assert len(build_counter) == 0
        assert again.graph is first.graph
