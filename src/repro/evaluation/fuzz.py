"""Seeded metamorphic fuzzer over the solver execution matrix.

The differential harness (:mod:`repro.evaluation.differential`) proves
that every execution path makes the *same* selections on well-behaved
random instances.  This module attacks the complementary blind spot:
instances and configurations that well-behaved generators never emit —
zero-weight items, duplicate edge records, near-tie gains, disconnected
nodes, integer item ids that are *not* dense indices, probability-one
edges — combined with random solver configurations across strategies,
extensions and ambient fault injection.  Every run is checked against
the invariant registry (:mod:`repro.evaluation.invariants`); the
oracles recompute the paper's cover function from scratch, so they need
no reference implementation to disagree with.

Failing cases are shrunk delta-debugging style (drop items, then drop
edges, keeping the failure alive) down to a minimal reproduction and
dumped as a replayable JSON artifact::

    repro check --fuzz --rounds 200 --seed 7 --artifact-dir out/
    repro check --fuzz --replay out/fuzz-7-0042.json

Everything is a pure function of ``(seed, rounds)`` — a failure found
in CI replays locally from either the artifact or the seed alone.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.graph import PreferenceGraph
from ..core.greedy import greedy_solve
from ..core.variants import Variant
from ..resilience.faults import FaultInjector, inject_faults
from .invariants import (
    InvariantViolation,
    SolveRecord,
    applicable_invariants,
    check_record,
)

#: Artifact schema version (bump on incompatible FuzzCase changes).
ARTIFACT_VERSION = 1

#: Solve modes the generator samples, with selection weights.  Plain
#: ``k`` dominates because it exercises the widest oracle set (prefix
#: property + marginals + digest stability).
_MODES: Tuple[Tuple[str, int], ...] = (
    ("k", 7),
    ("threshold", 4),
    ("capacity", 2),
    ("quotas", 2),
    ("revenue", 2),
    ("incremental", 2),
    ("serving", 1),
)

_STRATEGIES = ("auto", "naive", "lazy", "accelerated")


@dataclass
class FuzzCase:
    """One fully-specified fuzzed instance + solver configuration.

    JSON-serializable by construction so every failure is a replayable
    artifact: per-item mappings (costs, categories, revenues) are kept
    as ``[item, value]`` pair lists, which survive a JSON round-trip
    even when item ids are integers (JSON object keys are strings).
    """

    items: List
    node_weights: List[float]
    edges: List[List]  # [src, dst, weight]; duplicates upsert in order
    variant: str
    mode: str
    strategy: str = "auto"
    k: Optional[int] = None
    threshold: Optional[float] = None
    budget: Optional[float] = None
    costs: Optional[List[List]] = None
    categories: Optional[List[List]] = None
    quotas: Optional[List[List]] = None
    revenues: Optional[List[List]] = None
    must_retain: Optional[List] = None
    exclude: Optional[List] = None
    faults: Optional[str] = None  # REPRO_FAULTS-style spec
    delta_seed: Optional[int] = None  # serving-mode churn seed

    def build_graph(self) -> PreferenceGraph:
        """Materialize the mutable graph (duplicate edges upsert)."""
        graph = PreferenceGraph()
        for item, weight in zip(self.items, self.node_weights):
            graph.add_item(item, weight=weight)
        for src, dst, weight in self.edges:
            graph.add_edge(src, dst, weight=weight)
        return graph

    def to_dict(self) -> Dict:
        out = {
            "items": list(self.items),
            "node_weights": [float(w) for w in self.node_weights],
            "edges": [[s, d, float(w)] for s, d, w in self.edges],
            "variant": self.variant,
            "mode": self.mode,
            "strategy": self.strategy,
        }
        for key in (
            "k", "threshold", "budget", "costs", "categories",
            "quotas", "revenues", "must_retain", "exclude", "faults",
            "delta_seed",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, payload: Dict) -> "FuzzCase":
        kwargs = dict(payload)
        # Artifacts written while solves could run on a worker pool carry
        # these keys; pooled selections were byte-identical to serial
        # ones, so such cases replay serially.
        kwargs.pop("workers", None)
        kwargs.pop("backend", None)
        return cls(**kwargs)


@dataclass(frozen=True)
class FuzzFailure:
    """One invariant violation (or crash) with its shrunken repro."""

    round_no: int
    invariant: str
    detail: str
    case: FuzzCase
    artifact: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" [{self.artifact}]" if self.artifact else ""
        return (
            f"round {self.round_no} ({self.case.mode}/"
            f"{self.case.variant}, n={len(self.case.items)}): "
            f"{self.invariant}: {self.detail}{where}"
        )


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` sweep."""

    rounds: int
    seed: int
    checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every round satisfied every applicable oracle."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable one-paragraph verdict."""
        head = (
            f"fuzz: {self.rounds} round(s) @ seed {self.seed}, "
            f"{self.checks} invariant check(s) in "
            f"{self.wall_time_s:.1f}s -> "
            f"{'OK' if self.ok else f'{len(self.failures)} FAILURE(S)'}"
        )
        if self.ok:
            return head
        lines = [head]
        for failure in self.failures[:20]:
            lines.append(f"  {failure}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def _weighted_choice(rng: random.Random, table) -> str:
    total = sum(weight for _, weight in table)
    pick = rng.random() * total
    for value, weight in table:
        pick -= weight
        if pick <= 0:
            return value
    return table[-1][0]


def _generate_items(rng: random.Random, n: int) -> List:
    """Item ids in one of three styles; the shuffled-integer style is
    the adversarial one where id and dense index collide but disagree."""
    style = rng.randrange(3)
    if style == 0:
        return list(range(n))
    if style == 1:
        ids = list(range(n))
        rng.shuffle(ids)
        # Shift occasionally so some ids fall outside [0, n) entirely.
        if rng.random() < 0.5:
            offset = rng.randrange(1, 4)
            ids = [i + offset for i in ids]
        return ids
    return [f"it{i:03d}" for i in range(n)]


def _generate_weights(rng: random.Random, n: int) -> List[float]:
    """Node weights summing to one, with zero-weight and tied items."""
    weights = [rng.random() for _ in range(n)]
    if rng.random() < 0.4:  # zero-weight items (never all of them)
        for i in rng.sample(range(n), rng.randrange(1, max(2, n // 3))):
            weights[i] = 0.0
    if rng.random() < 0.4:  # near/exact ties via coarse rounding
        weights = [round(w, 1) for w in weights]
    if sum(weights) <= 0:
        weights[rng.randrange(n)] = 1.0
    total = sum(weights)
    return [w / total for w in weights]


def _generate_edges(rng: random.Random, items: List) -> List[List]:
    """Out-edges with out-sums <= 1, duplicates, and p=1 edges.

    Disconnected nodes arise naturally from zero out-degree draws.
    """
    n = len(items)
    edges: List[List] = []
    for src_pos in range(n):
        degree = rng.randrange(0, min(4, n))
        if degree == 0:
            continue
        targets = rng.sample(
            [p for p in range(n) if p != src_pos], min(degree, n - 1)
        )
        if len(targets) == 1 and rng.random() < 0.25:
            weights = [1.0]  # probability-one sole out-edge
        else:
            raw = [rng.uniform(0.05, 1.0) for _ in targets]
            # Keep the out-sum strictly below 1 so per-weight rounding
            # can never push it past the validator's tolerance.
            scale = min(1.0, rng.uniform(0.3, 0.999) / sum(raw))
            weights = [max(1e-6, w * scale) for w in raw]
        for dst_pos, weight in zip(targets, weights):
            if rng.random() < 0.15:
                # A stale duplicate record; the later upsert wins.
                edges.append(
                    [items[src_pos], items[dst_pos],
                     min(1.0, round(rng.uniform(0.05, 1.0), 3))]
                )
            edges.append(
                [items[src_pos], items[dst_pos], min(1.0, round(weight, 6))]
            )
    return edges


def generate_case(rng: random.Random, *, max_items: int = 48) -> FuzzCase:
    """One random adversarial instance + solver configuration."""
    n = rng.randrange(4, max_items + 1)
    items = _generate_items(rng, n)
    case = FuzzCase(
        items=items,
        node_weights=_generate_weights(rng, n),
        edges=_generate_edges(rng, items),
        variant=rng.choice(("independent", "normalized")),
        mode=_weighted_choice(rng, _MODES),
    )
    k = rng.randrange(1, n + 1)
    if case.mode == "k":
        case.k = k
        case.strategy = rng.choice(_STRATEGIES)
        if rng.random() < 0.25 and k >= 2:
            pool = rng.sample(items, min(len(items), k))
            if rng.random() < 0.5:
                case.must_retain = pool[: rng.randrange(1, k)]
            elif n - k >= 1:
                case.exclude = rng.sample(
                    [i for i in items if i not in pool], 1
                )
    elif case.mode == "threshold":
        case.threshold = round(rng.uniform(0.05, 0.9), 3)
    elif case.mode == "capacity":
        case.costs = [
            [item, round(rng.uniform(0.1, 1.0), 3)] for item in items
        ]
        case.budget = round(rng.uniform(0.5, max(1.0, n * 0.2)), 3)
    elif case.mode == "quotas":
        labels = ["a", "b", "c"][: rng.randrange(2, 4)]
        case.categories = [[item, rng.choice(labels)] for item in items]
        case.quotas = [
            [label, rng.randrange(1, 4)] for label in labels
        ]
        case.k = k
    elif case.mode == "revenue":
        case.revenues = [
            [item, round(rng.uniform(0.1, 2.0), 3)] for item in items
        ]
        case.k = k
    elif case.mode == "incremental":
        case.k = k
    elif case.mode == "serving":
        case.k = k
        case.delta_seed = rng.randrange(1 << 16)

    plain = (
        case.mode in ("k", "threshold")
        and not case.must_retain and not case.exclude
    )
    if plain and rng.random() < 0.2:
        # Cooperative stop with NO run guard configured — the
        # stop-reason-without-a-guard path of the guard-deref bugfix.
        case.faults = f"stop_round={rng.randrange(1, max(2, k))}"
    return case


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _pairs(value: Optional[List[List]]) -> Optional[Dict]:
    if value is None:
        return None
    return {item: v for item, v in value}


def run_case(case: FuzzCase) -> Tuple[List[InvariantViolation], int]:
    """Execute one case and check every applicable oracle.

    Returns ``(violations, checks)``.  A crash anywhere in the solve is
    reported as a ``no-crash`` violation — generated configurations are
    valid by construction, so *any* exception is a defect (this is the
    oracle that catches e.g. a stop-reason path dereferencing an absent
    run guard).
    """
    from .. import facade

    graph = case.build_graph()
    variant = Variant.coerce(case.variant)
    injector = (
        FaultInjector.from_spec(case.faults) if case.faults else None
    )
    records: List[SolveRecord] = []
    try:
        if case.mode == "incremental":
            from ..extensions.incremental import IncrementalSolver

            solver = IncrementalSolver(
                graph, k=case.k, variant=variant, validate=False
            )
            result = solver.solve()
            records.append(SolveRecord(
                graph=graph, variant=variant, mode=case.mode,
                result=result, params={"k": case.k},
            ))
            resolved = solver.resolve()
            if list(resolved.retained) != list(result.retained):
                return [InvariantViolation(
                    "digest-stability",
                    "IncrementalSolver.resolve() on an unchanged graph "
                    "selected a different retained set",
                )], 1
        elif case.mode == "serving":
            from ..clickstream.drift import random_delta
            from ..serving import AssortmentService

            service = AssortmentService(
                graph, variant=variant, k=case.k
            )
            snapshot = service.ensure()
            records.append(SolveRecord(
                graph=snapshot.graph, variant=variant, mode=case.mode,
                result=snapshot.result, params={"k": case.k},
                snapshot=snapshot,
            ))
            delta = random_delta(
                service.graph, sigma=0.2, edge_churn=0.05,
                seed=case.delta_seed,
                sequence=service.stats()["sequence"] + 1,
            )
            churned = service.apply_delta(delta)
            records.append(SolveRecord(
                graph=churned.graph, variant=variant, mode=case.mode,
                result=churned.result, params={"k": case.k},
                snapshot=churned,
            ))
        else:
            constraints = {}
            if case.must_retain is not None:
                constraints["must_retain"] = case.must_retain
            if case.exclude is not None:
                constraints["exclude"] = case.exclude
            if case.budget is not None:
                constraints["budget"] = case.budget
                constraints["costs"] = _pairs(case.costs)
            if case.categories is not None:
                constraints["categories"] = _pairs(case.categories)
                constraints["quotas"] = _pairs(case.quotas)
            objective = (
                {"revenue": _pairs(case.revenues)}
                if case.revenues is not None else None
            )
            kwargs = dict(
                variant=variant,
                k=case.k,
                threshold=case.threshold,
                strategy=case.strategy,
                constraints=constraints or None,
                objective=objective,
            )
            with inject_faults(injector):
                result = facade.solve(graph, **kwargs)
            params = {
                "k": case.k, "threshold": case.threshold,
                "must_retain": case.must_retain, "exclude": case.exclude,
            }
            record = SolveRecord(
                graph=graph, variant=variant, mode=case.mode,
                result=result, params=params,
            )
            # The exhaustive ordering backs the prefix-property and
            # threshold-boundary oracles; computed OUTSIDE the fault
            # context so an injected stop cannot truncate the reference.
            if case.mode in ("k", "threshold"):
                record.order = greedy_solve(
                    graph, k=graph.n_items, variant=variant,
                    strategy="accelerated",
                )
            if injector is None and case.mode in ("k", "threshold"):
                record.replay = facade.solve(graph, **kwargs)
            records.append(record)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return [InvariantViolation(
            "no-crash",
            f"solve crashed: {type(exc).__name__}: {exc}",
        )], 1

    violations: List[InvariantViolation] = []
    checks = 0
    for record in records:
        checks += len(applicable_invariants(record))
        violations.extend(check_record(record))
    return violations, max(checks, 1)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _still_fails(case: FuzzCase, invariant: str) -> bool:
    violations, _ = run_case(case)
    return any(v.invariant == invariant for v in violations)


def _drop_item(case: FuzzCase, position: int) -> Optional[FuzzCase]:
    """The case with one item removed, or ``None`` when not droppable."""
    item = case.items[position]
    items = case.items[:position] + case.items[position + 1:]
    if not items:
        return None
    weights = (
        case.node_weights[:position] + case.node_weights[position + 1:]
    )
    if sum(weights) <= 0:
        weights = list(weights)
        weights[0] = 1.0
    total = sum(weights)
    weights = [w / total for w in weights]
    n = len(items)

    def prune_pairs(pairs):
        if pairs is None:
            return None
        return [[i, v] for i, v in pairs if i != item]

    shrunk = FuzzCase(
        items=items,
        node_weights=weights,
        edges=[e for e in case.edges if e[0] != item and e[1] != item],
        variant=case.variant,
        mode=case.mode,
        strategy=case.strategy,
        k=min(case.k, n) if case.k is not None else None,
        threshold=case.threshold,
        budget=case.budget,
        costs=prune_pairs(case.costs),
        categories=prune_pairs(case.categories),
        quotas=case.quotas,
        revenues=prune_pairs(case.revenues),
        must_retain=(
            [i for i in case.must_retain if i != item]
            if case.must_retain else None
        ) or None,
        exclude=(
            [i for i in case.exclude if i != item]
            if case.exclude else None
        ) or None,
        faults=case.faults,
        delta_seed=case.delta_seed,
    )
    if shrunk.k is not None and shrunk.exclude:
        shrunk.k = min(shrunk.k, n - len(shrunk.exclude))
        if shrunk.k < 1:
            return None
    if shrunk.must_retain and shrunk.k is not None \
            and len(shrunk.must_retain) > shrunk.k:
        return None
    return shrunk


def shrink_case(
    case: FuzzCase, invariant: str, *, max_attempts: int = 400
) -> FuzzCase:
    """Delta-debug ``case`` to a smaller one failing the same oracle.

    Greedy one-at-a-time reduction: repeatedly try dropping each item
    (with its incident edges, renormalizing weights and clamping the
    configuration), then each surviving edge.  Every candidate is
    re-executed; a reduction is kept only when the *same* invariant
    still fails.  Bounded by ``max_attempts`` re-executions.
    """
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for position in range(len(case.items) - 1, -1, -1):
            if attempts >= max_attempts:
                break
            candidate = _drop_item(case, position)
            if candidate is None:
                continue
            attempts += 1
            if _still_fails(candidate, invariant):
                case = candidate
                improved = True
        for edge_pos in range(len(case.edges) - 1, -1, -1):
            if attempts >= max_attempts:
                break
            candidate = FuzzCase(**{
                **case.to_dict(),
                "edges": case.edges[:edge_pos] + case.edges[edge_pos + 1:],
            })
            attempts += 1
            if _still_fails(candidate, invariant):
                case = candidate
                improved = True
    return case


# ----------------------------------------------------------------------
# Artifacts & replay
# ----------------------------------------------------------------------
def write_artifact(
    directory, *, seed: int, round_no: int,
    failure: InvariantViolation, case: FuzzCase,
) -> str:
    """Dump one failure as a replayable JSON artifact; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fuzz-{seed}-{round_no:04d}.json"
    payload = {
        "version": ARTIFACT_VERSION,
        "seed": seed,
        "round": round_no,
        "invariant": failure.invariant,
        "detail": failure.detail,
        "case": case.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def load_artifact(path) -> Tuple[FuzzCase, Dict]:
    """Parse a fuzz artifact into its case and raw payload."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported fuzz artifact version {version!r} "
            f"(expected {ARTIFACT_VERSION})"
        )
    return FuzzCase.from_dict(payload["case"]), payload


def replay_artifact(path) -> List[InvariantViolation]:
    """Re-execute a dumped failure case; returns current violations.

    An empty list means the recorded bug no longer reproduces (fixed);
    CI treats a non-empty list as failure.
    """
    case, _ = load_artifact(path)
    violations, _ = run_case(case)
    return violations


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def run_fuzz(
    *,
    rounds: int = 50,
    seed: int = 0,
    max_items: int = 48,
    artifact_dir=None,
    shrink: bool = True,
    log=None,
) -> FuzzReport:
    """Run ``rounds`` fuzzed solves and check every applicable oracle.

    Args:
        rounds: number of generated cases.
        seed: master seed; the whole sweep is a pure function of
            ``(seed, rounds, max_items)``.
        max_items: catalog-size ceiling per generated instance.
        artifact_dir: where to dump replayable failure artifacts
            (``None`` skips dumping).
        shrink: delta-debug failures to minimal repros before dumping.
        log: optional ``callable(str)`` receiving progress lines.
    """
    rng = random.Random(seed)
    report = FuzzReport(rounds=rounds, seed=seed)
    start = time.perf_counter()
    for round_no in range(rounds):
        case = generate_case(rng, max_items=max_items)
        violations, checks = run_case(case)
        report.checks += checks
        for violation in violations:
            shrunk = case
            if shrink:
                shrunk = shrink_case(case, violation.invariant)
                # Re-derive the detail from the minimal case when the
                # same oracle still speaks (it should, by construction).
                reruns, _ = run_case(shrunk)
                for rerun in reruns:
                    if rerun.invariant == violation.invariant:
                        violation = rerun
                        break
            artifact = None
            if artifact_dir is not None:
                artifact = write_artifact(
                    artifact_dir, seed=seed, round_no=round_no,
                    failure=violation, case=shrunk,
                )
            failure = FuzzFailure(
                round_no=round_no,
                invariant=violation.invariant,
                detail=violation.detail,
                case=shrunk,
                artifact=artifact,
            )
            report.failures.append(failure)
            if log is not None:
                log(f"FAIL {failure}")
        if log is not None and (round_no + 1) % 25 == 0:
            log(
                f"fuzz: {round_no + 1}/{rounds} rounds, "
                f"{report.checks} checks, "
                f"{len(report.failures)} failure(s)"
            )
    report.wall_time_s = time.perf_counter() - start
    return report
