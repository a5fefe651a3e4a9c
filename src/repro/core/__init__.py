"""Core Preference Cover machinery: graphs, cover functions, solvers."""

from .baselines import (
    random_solve,
    top_k_coverage_order,
    top_k_coverage_solve,
    top_k_coverage_threshold,
    top_k_weight_order,
    top_k_weight_solve,
    top_k_weight_threshold,
)
from .bruteforce import brute_force_solve
from .cover import cover, coverage_vector, item_coverage, resolve_indices
from .csr import CSRGraph, as_csr
from .gain import GreedyState
from .graph import PreferenceGraph
from .greedy import STRATEGIES, greedy_order, greedy_solve
from .kernels import (
    KERNEL_CHOICES,
    KernelBackend,
    available_backends,
    get_kernels,
)
from .parallel import (
    ParallelCostModel,
    calibrate_cost_model,
    speedup_curve,
)
from .result import SolveResult
from .stats import GraphStats, gini_coefficient, graph_stats
from .submodular import (
    ONE_MINUS_INV_E,
    check_monotone,
    check_submodular,
    greedy_maximize,
)
from .threshold import greedy_threshold_solve
from .variants import INDEPENDENT, NORMALIZED, Variant

__all__ = [
    "CSRGraph",
    "GreedyState",
    "INDEPENDENT",
    "KERNEL_CHOICES",
    "KernelBackend",
    "NORMALIZED",
    "ONE_MINUS_INV_E",
    "ParallelCostModel",
    "PreferenceGraph",
    "STRATEGIES",
    "GraphStats",
    "SolveResult",
    "Variant",
    "as_csr",
    "available_backends",
    "get_kernels",
    "brute_force_solve",
    "calibrate_cost_model",
    "check_monotone",
    "check_submodular",
    "cover",
    "gini_coefficient",
    "graph_stats",
    "coverage_vector",
    "greedy_maximize",
    "greedy_order",
    "greedy_solve",
    "greedy_threshold_solve",
    "item_coverage",
    "random_solve",
    "resolve_indices",
    "speedup_curve",
    "top_k_coverage_order",
    "top_k_coverage_solve",
    "top_k_coverage_threshold",
    "top_k_weight_order",
    "top_k_weight_solve",
    "top_k_weight_threshold",
]
