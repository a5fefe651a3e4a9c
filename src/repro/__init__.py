"""repro — Preference Cover: inventory reduction via maximal coverage.

A complete reproduction of "Inventory Reduction via Maximal Coverage in
E-Commerce" (EDBT 2020): the preference-graph model, the Independent and
Normalized Preference Cover problems, the scalable greedy solver with its
approximation guarantees, the clickstream-to-graph Data Adaptation
Engine, baselines, reductions, evaluation tooling and the end-to-end
inventory-reduction pipeline.

Quickstart::

    from repro import PreferenceGraph, greedy_solve

    graph = PreferenceGraph.from_weights(
        {"A": 0.33, "B": 0.22, "C": 0.22, "D": 0.06, "E": 0.17},
        edges=[("A", "B", 2/3), ("A", "C", 1/3), ("B", "C", 1.0),
               ("C", "B", 1.0), ("E", "D", 0.9)],
    )
    result = greedy_solve(graph, k=2, variant="normalized")
    print(result.retained, result.cover)   # ['B', 'D'] 0.873
"""

from .core import (
    CSRGraph,
    GreedyState,
    INDEPENDENT,
    KernelBackend,
    NORMALIZED,
    PreferenceGraph,
    SolveResult,
    Variant,
    as_csr,
    available_backends,
    get_kernels,
    brute_force_solve,
    cover,
    coverage_vector,
    greedy_order,
    greedy_solve,
    greedy_threshold_solve,
    item_coverage,
    random_solve,
    top_k_coverage_solve,
    top_k_coverage_threshold,
    top_k_weight_solve,
    top_k_weight_threshold,
)
from .adaptation import (
    DataAdaptationEngine,
    build_preference_graph,
    recommend_variant,
)
from .clickstream import Clickstream, ConsumerModel, Session, ShopperConfig
from .errors import (
    AdaptationError,
    ClickstreamFormatError,
    GraphValidationError,
    ReproError,
    ServingError,
    SolverError,
    UnknownItemError,
    VariantError,
)
from .facade import solve
from .observability import (
    MetricsRegistry,
    NullTracer,
    SolverTrace,
    Telemetry,
)
from .pipeline import InventoryReducer, RetainedInventoryReport
from .serving import (
    AssortmentService,
    ServingFrontend,
    SolutionSnapshot,
    SolutionStore,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptationError",
    "AssortmentService",
    "Clickstream",
    "ConsumerModel",
    "DataAdaptationEngine",
    "InventoryReducer",
    "RetainedInventoryReport",
    "Session",
    "ShopperConfig",
    "build_preference_graph",
    "recommend_variant",
    "CSRGraph",
    "ClickstreamFormatError",
    "GraphValidationError",
    "GreedyState",
    "INDEPENDENT",
    "KernelBackend",
    "MetricsRegistry",
    "NORMALIZED",
    "NullTracer",
    "PreferenceGraph",
    "ReproError",
    "ServingError",
    "ServingFrontend",
    "SolutionSnapshot",
    "SolutionStore",
    "SolveResult",
    "SolverError",
    "SolverTrace",
    "Telemetry",
    "UnknownItemError",
    "Variant",
    "VariantError",
    "as_csr",
    "available_backends",
    "brute_force_solve",
    "cover",
    "coverage_vector",
    "get_kernels",
    "greedy_order",
    "greedy_solve",
    "greedy_threshold_solve",
    "item_coverage",
    "random_solve",
    "solve",
    "top_k_coverage_solve",
    "top_k_coverage_threshold",
    "top_k_weight_solve",
    "top_k_weight_threshold",
    "__version__",
]
