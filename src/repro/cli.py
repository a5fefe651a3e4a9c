"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands mirror the system architecture:

* ``generate``   — synthesize a clickstream from a dataset spec or a
  custom consumer model, writing JSONL (optionally YooChoose CSV).
* ``build-graph`` — run the Data Adaptation Engine on a clickstream file
  and write the preference graph as JSON.
* ``solve``       — run the Preference Cover Solver on a graph file
  (fixed ``k`` or coverage ``--threshold``).
* ``pipeline``    — the end-to-end Figure 2 flow from a clickstream file.
* ``stats``       — dataset/graph statistics (Table 2-style).
* ``check``       — correctness harnesses; ``--differential`` proves the
  naive, lazy and accelerated strategies select identical sets on random
  instances, ``--resilience`` proves killed+resumed solves match clean
  ones, ``--serving`` proves served answers equal offline recomputation,
  ``--fuzz`` runs the metamorphic fuzzer (adversarial instances checked
  against the invariant registry, failures shrunk to replayable JSON
  artifacts that ``--replay`` re-executes).  CI runs all of them at
  ``--smoke`` size.
* ``serve``       — the assortment serving layer: solve once, then
  answer a synthetic async query workload from the cached snapshot with
  micro-batching, optional drift periods and a telemetry report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .adaptation.engine import build_preference_graph
from .adaptation.variant_selection import recommend_variant
from .clickstream.io import read_jsonl, write_jsonl, write_yoochoose
from .facade import solve
from .graphio import read_graph_json, write_graph_json
from .core.variants import Variant
from .errors import ReproError
from .observability import SolverTrace
from .pipeline import InventoryReducer
from .workloads.datasets import PAPER_DATASETS, build_dataset


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset:
        clickstream, _model = build_dataset(
            args.dataset, scale=args.scale, seed=args.seed
        )
    else:
        from .clickstream.generator import ConsumerModel, ShopperConfig

        model = ConsumerModel(
            ShopperConfig(n_items=args.items, behavior=args.behavior),
            seed=args.seed,
        )
        clickstream = model.generate(args.sessions, seed=args.seed + 1)
    write_jsonl(clickstream, args.output)
    if args.yoochoose_prefix:
        write_yoochoose(
            clickstream,
            f"{args.yoochoose_prefix}-clicks.dat",
            f"{args.yoochoose_prefix}-buys.dat",
        )
    stats = clickstream.stats()
    print(
        f"wrote {stats['sessions']} sessions "
        f"({stats['purchases']} purchases, {stats['items']} items) "
        f"to {args.output}"
    )
    return 0


def _read_clickstream(args: argparse.Namespace):
    """Read the clickstream honoring the --lenient ingestion flags."""
    clickstream = read_jsonl(
        args.clickstream,
        on_error="quarantine" if args.lenient else "raise",
        error_budget=args.error_budget,
    )
    report = getattr(clickstream, "quarantine", None)
    if report is not None and report.quarantined:
        print(f"warning: {report.summary()}", file=sys.stderr)
    return clickstream


def _cmd_build_graph(args: argparse.Namespace) -> int:
    clickstream = _read_clickstream(args)
    if args.variant == "auto":
        recommendation = recommend_variant(clickstream)
        variant = recommendation.variant
        print(f"variant selected from data: {variant.value}")
    else:
        variant = Variant.coerce(args.variant)
    graph = build_preference_graph(
        clickstream, variant,
        min_edge_sessions=args.min_edge_sessions,
    )
    write_graph_json(graph, args.output)
    print(
        f"wrote graph with {graph.n_items} items / {graph.n_edges} edges "
        f"to {args.output}"
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = read_graph_json(args.graph)
    variant = Variant.coerce(args.variant)
    graph.validate(variant)
    if args.k is None and args.threshold is None:
        print("error: provide -k or --threshold", file=sys.stderr)
        return 2
    tracer = SolverTrace() if (args.trace or args.metrics) else None
    constraints = {}
    if args.must_retain:
        constraints["must_retain"] = args.must_retain
    if args.exclude:
        constraints["exclude"] = args.exclude
    checkpoint = None
    if args.checkpoint_dir:
        from .resilience import Checkpointer

        checkpoint = Checkpointer(
            args.checkpoint_dir,
            every_rounds=args.checkpoint_every,
            resume=args.resume,
        )
    guard = None
    if args.deadline_s is not None or args.max_rss_mb is not None:
        from .resilience import RunGuard

        guard = RunGuard(
            deadline_s=args.deadline_s,
            max_rss_mb=args.max_rss_mb,
            on_trigger="partial" if args.on_partial == "keep" else "raise",
        )
    result = solve(
        graph,
        variant=variant,
        k=args.k,
        threshold=args.threshold,
        strategy=args.strategy,
        constraints=constraints or None,
        tracer=tracer,
        kernels=args.kernels,
        checkpoint=checkpoint,
        guard=guard,
    )
    if result.interrupted:
        print(
            f"warning: solve interrupted ({result.interrupted_reason}); "
            f"the retained set below is the valid partial prefix",
            file=sys.stderr,
        )
    print(f"cover C(S) = {result.cover:.6f} with {len(result.retained)} items")
    for rank, item in enumerate(result.retained[: args.show], start=1):
        print(f"  {rank:4d}. {item}")
    if args.trace:
        try:
            tracer.write_jsonl(args.trace)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return 1
        iterations = len(tracer.events_of("iteration"))
        print(
            f"trace with {len(tracer)} events ({iterations} iterations) "
            f"written to {args.trace}"
        )
    if args.metrics:
        print(result.telemetry.summary())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle)
        print(f"full result written to {args.output}")
    # Exit 3 distinguishes a valid-but-partial result from success (0)
    # and errors (1/2) so batch schedulers can tell the cases apart.
    return 3 if result.interrupted else 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    clickstream = _read_clickstream(args)
    reducer = InventoryReducer(
        k=args.k,
        threshold=args.threshold,
        variant=args.variant,
        min_edge_sessions=args.min_edge_sessions,
    )
    report = reducer.run(clickstream)
    print(report.summary())
    print()
    print("top retained items:")
    for rank, item in enumerate(report.retained[: args.show], start=1):
        print(f"  {rank:4d}. {item}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.result.to_dict(), handle)
        print(f"full result written to {args.output}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .evaluation.audit import audit_retained_set
    from .evaluation.metrics import format_table

    graph = read_graph_json(args.graph)
    variant = Variant.coerce(args.variant)
    graph.validate(variant)
    if args.result:
        with open(args.result, "r", encoding="utf-8") as handle:
            retained = json.load(handle)["retained"]
    else:
        retained = args.items
    if not retained:
        print("error: provide --result or --items", file=sys.stderr)
        return 2
    audit = audit_retained_set(graph, retained, variant, top=args.top)
    print(audit.summary())
    print()
    print(format_table(
        [
            {
                "item": str(row.item),
                "requested": row.request_probability,
                "covered": row.covered,
                "lost": row.lost,
            }
            for row in audit.lost_demand
        ],
        title="largest demand losses",
    ))
    print()
    print(format_table(
        [
            {
                "item": str(row.item),
                "own_demand": row.own_demand,
                "absorbed": row.absorbed_demand,
                "contribution": row.total_contribution,
            }
            for row in audit.load_bearing
        ],
        title="load-bearing retained items",
    ))
    return 0


#: ``repro serve`` exit codes: 0 healthy (tier fresh), 3 finished on a
#: degraded tier (stale/static), 4 shed or unrecoverable.
SERVE_EXIT_DEGRADED = 3
SERVE_EXIT_SHED = 4


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import time as _time

    import numpy as np

    from .clickstream.drift import random_delta
    from .errors import DeadlineExceeded, ServingError
    from .serving import (
        AssortmentService, RetryPolicy, ServingFrontend, ServingRuntime,
        Tier,
    )

    if args.graph:
        graph = read_graph_json(args.graph)
    else:
        from .workloads.graphs import random_preference_graph

        graph = random_preference_graph(
            args.items, variant=args.variant, seed=args.seed
        )
    if args.k is None and args.threshold is None:
        args.k = min(50, max(1, graph.n_items // 2))
    service = AssortmentService(
        graph,
        variant=args.variant,
        k=args.k,
        threshold=args.threshold,
    )
    runtime = ServingRuntime(
        service,
        retry=RetryPolicy(max_attempts=args.retries, seed=args.seed),
        persist_dir=args.persist_dir,
        static_fallback=not args.no_static_fallback,
    )
    frontend = ServingFrontend(
        runtime,
        batch_window_s=args.batch_window_ms / 1000.0,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        default_deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms else None
        ),
    )
    if args.log:
        from .observability import configure_logging

        configure_logging(args.log)
    exporter = None
    if args.metrics_port is not None:
        from .observability import MetricsExporter

        exporter = MetricsExporter(
            service.metrics,
            port=args.metrics_port,
            readiness=runtime.readiness,
        )
        exporter.start()
        # Announced on stderr so stdout stays a single JSON report;
        # harnesses scrape this line to learn the ephemeral port.
        print(f"metrics: {exporter.url}/metrics", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    item_ids = list(service.graph.items())
    periods = args.drift_periods + 1
    per_period = max(1, args.requests // periods)

    async def run() -> dict:
        rejected = 0
        answered = 0
        expired = 0
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, runtime.ensure)  # warm start
        start = _time.perf_counter()
        async with frontend:
            for period in range(periods):
                sent = 0
                while sent < per_period:
                    wave = min(args.concurrency, per_period - sent)
                    picks = rng.choice(len(item_ids), size=wave)
                    coros = []
                    for index in picks.tolist():
                        try:
                            coros.append(
                                frontend.covered_probability(
                                    item_ids[index]
                                )
                            )
                        except ReproError:
                            rejected += 1
                    answers = await asyncio.gather(
                        *coros, return_exceptions=True
                    )
                    answered += sum(
                        1 for a in answers if not isinstance(a, Exception)
                    )
                    expired += sum(
                        1 for a in answers
                        if isinstance(a, DeadlineExceeded)
                    )
                    rejected += sum(
                        1 for a in answers
                        if isinstance(a, Exception)
                        and not isinstance(a, DeadlineExceeded)
                    )
                    sent += wave
                if period < args.drift_periods:
                    delta = random_delta(
                        service.graph, sigma=args.drift_sigma,
                        seed=int(rng.integers(0, 2**31 - 1)),
                        sequence=period + 1,
                    )
                    await frontend._apply_delta(delta)
        elapsed = _time.perf_counter() - start
        return {
            "answered": answered,
            "rejected": rejected,
            "deadline_exceeded": expired,
            "elapsed_s": elapsed,
            "throughput_rps": answered / elapsed if elapsed > 0 else 0.0,
        }

    def _linger() -> None:
        # Keep the exporter scrapeable after the workload so harnesses
        # (CI obs-smoke, `repro top`) can observe the final state.
        if exporter is not None and args.linger_s > 0:
            _time.sleep(args.linger_s)

    try:
        try:
            workload = asyncio.run(run())
        except ServingError as exc:
            print(f"error: serving unrecoverable: {exc}", file=sys.stderr)
            _linger()
            return SERVE_EXIT_SHED
        return _serve_report(args, service, runtime, workload, _linger)
    finally:
        if exporter is not None:
            exporter.close()


def _serve_report(args, service, runtime, workload, linger) -> int:
    from .serving import Tier

    metrics = service.metrics
    latency = metrics.histogram("serving.request_latency_s")
    batches = metrics.histogram("serving.batch_size")
    report = {
        "variant": Variant.coerce(args.variant).value,
        "k": args.k,
        "threshold": args.threshold,
        "n_items": service.graph.n_items,
        "workload": workload,
        "latency_s": {"p50": latency.p50, "p99": latency.p99,
                      "mean": latency.mean},
        "batch_size": {"p50": batches.p50, "p99": batches.p99,
                       "mean": batches.mean, "max": batches.max},
        "store": service.stats(),
        "refresh_failures": service.refresh_failures,
        "runtime": {
            "tier": runtime.tier.label,
            "tier_transitions": runtime.tier_transitions,
            "breaker": runtime.breaker.snapshot(),
            "restored": runtime.restored,
            "shed_count": runtime.shed_count,
        },
    }
    payload = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    print(payload)
    sys.stdout.flush()
    linger()
    if runtime.tier is Tier.SHED or (
        workload["answered"] == 0 and args.requests > 0
    ):
        return SERVE_EXIT_SHED
    if runtime.tier is not Tier.FRESH:
        return SERVE_EXIT_DEGRADED
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .observability.console import top

    return top(
        args.url,
        interval_s=args.interval_s,
        iterations=args.iterations,
        color=not args.no_color,
    )


def _cmd_events(args: argparse.Namespace) -> int:
    from .observability.console import tail_events

    return tail_events(
        args.path,
        follow=args.follow,
        trace_id=args.trace_id,
        component=args.component,
        color=not args.no_color,
    )


def _cmd_check(args: argparse.Namespace) -> int:
    if args.replay is not None:
        from .evaluation.fuzz import replay_artifact

        violations = replay_artifact(args.replay)
        if violations:
            print(f"replay {args.replay}: still failing")
            for violation in violations:
                print(f"  {violation}")
            return 1
        print(f"replay {args.replay}: no longer reproduces")
        return 0
    if not (
        args.differential or args.resilience or args.serving
        or args.serving_chaos or args.fuzz
    ):
        print(
            "error: nothing to check; pass --differential, --resilience, "
            "--serving, --serving-chaos and/or --fuzz "
            "(or --replay ARTIFACT)",
            file=sys.stderr,
        )
        return 2
    instances = args.instances
    max_items = args.max_items
    ok = True
    if args.differential:
        from .evaluation.differential import run_differential

        if args.smoke:
            d_instances = instances if instances is not None else 6
            d_max_items = max_items if max_items is not None else 60
        else:
            d_instances = instances if instances is not None else 50
            d_max_items = max_items if max_items is not None else 140
        report = run_differential(
            instances=d_instances,
            max_items=d_max_items,
            seed=args.seed,
            kernels=args.kernels,
            log=print if args.verbose else None,
        )
        print(report.summary())
        ok = ok and report.ok
    if args.resilience:
        from .evaluation.resilience import run_resilience_differential

        if args.smoke:
            r_instances = instances if instances is not None else 3
            r_max_items = max_items if max_items is not None else 48
        else:
            r_instances = instances if instances is not None else 25
            r_max_items = max_items if max_items is not None else 96
        report = run_resilience_differential(
            instances=r_instances,
            max_items=r_max_items,
            seed=args.seed,
            log=print if args.verbose else None,
        )
        print("resilience " + report.summary())
        ok = ok and report.ok
    if args.serving:
        from .evaluation.serving_check import run_serving_differential

        if args.smoke:
            s_instances = instances if instances is not None else 8
            s_max_items = max_items if max_items is not None else 60
        else:
            s_instances = instances if instances is not None else 50
            s_max_items = max_items if max_items is not None else 140
        report = run_serving_differential(
            instances=s_instances,
            max_items=s_max_items,
            seed=args.seed,
            log=print if args.verbose else None,
        )
        print(report.summary())
        ok = ok and report.ok
    if args.serving_chaos:
        from .evaluation.serving_chaos import run_serving_chaos

        if args.smoke:
            c_instances = instances if instances is not None else 4
            c_max_items = max_items if max_items is not None else 48
        else:
            c_instances = instances if instances is not None else 20
            c_max_items = max_items if max_items is not None else 96
        report = run_serving_chaos(
            instances=c_instances,
            max_items=c_max_items,
            seed=args.seed,
            log=print if args.verbose else None,
        )
        print(report.summary())
        ok = ok and report.ok
    if args.fuzz:
        from .evaluation.fuzz import run_fuzz

        if args.smoke:
            f_rounds = args.rounds if args.rounds is not None else 25
            f_max_items = max_items if max_items is not None else 32
        else:
            f_rounds = args.rounds if args.rounds is not None else 50
            f_max_items = max_items if max_items is not None else 48
        report = run_fuzz(
            rounds=f_rounds,
            seed=args.seed,
            max_items=f_max_items,
            artifact_dir=args.artifact_dir,
            log=print if args.verbose else None,
        )
        print(report.summary())
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.graph:
        from .core.stats import graph_stats

        graph = read_graph_json(args.graph)
        print(json.dumps(graph_stats(graph).to_dict(), indent=2))
    elif args.clickstream:
        clickstream = read_jsonl(args.clickstream)
        stats = clickstream.stats()
        recommendation = recommend_variant(clickstream)
        print(json.dumps(
            {
                **stats,
                "recommended_variant": recommendation.variant.value,
                "normalized_fit": recommendation.normalized_fit,
                "independence_score": recommendation.independence_score,
            },
            indent=2,
        ))
    else:
        print("known dataset specs (paper Table 2):")
        for name, spec in PAPER_DATASETS.items():
            print(
                f"  {name}: sessions={spec.paper.sessions:,} "
                f"purchases={spec.paper.purchases:,} "
                f"items={spec.paper.items:,} edges={spec.paper.edges:,} "
                f"variant={spec.variant().value}"
            )
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Preference Cover inventory reduction (EDBT 2020)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="synthesize a clickstream")
    generate.add_argument("--dataset", choices=sorted(PAPER_DATASETS),
                          help="paper dataset spec to emulate")
    generate.add_argument("--scale", type=float, default=0.002,
                          help="scale factor for dataset specs")
    generate.add_argument("--items", type=int, default=1000)
    generate.add_argument("--sessions", type=int, default=20000)
    generate.add_argument("--behavior",
                          choices=["independent", "normalized"],
                          default="independent")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--yoochoose-prefix", default=None,
                          help="also write YooChoose-format CSVs")
    generate.add_argument("-o", "--output", required=True)
    generate.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build-graph",
                           help="clickstream -> preference graph")
    build.add_argument("clickstream")
    build.add_argument("--variant",
                       choices=["independent", "normalized", "auto"],
                       default="auto")
    build.add_argument("--min-edge-sessions", type=int, default=1)
    build.add_argument("--lenient", action="store_true",
                       help="quarantine malformed clickstream records "
                            "instead of failing on the first one")
    build.add_argument("--error-budget", type=float, default=0.05,
                       metavar="FRAC",
                       help="with --lenient, abort when more than this "
                            "fraction of records is bad (default: 0.05)")
    build.add_argument("-o", "--output", required=True)
    build.set_defaults(func=_cmd_build_graph)

    solve_cmd = sub.add_parser("solve", help="solve a preference graph")
    solve_cmd.add_argument("graph")
    solve_cmd.add_argument("--variant",
                           choices=["independent", "normalized"],
                           required=True)
    solve_cmd.add_argument("-k", type=int, default=None)
    solve_cmd.add_argument("--threshold", type=float, default=None)
    solve_cmd.add_argument("--strategy", default="auto")
    solve_cmd.add_argument("--kernels",
                           choices=["auto", "numpy", "numba"],
                           default=None,
                           help="arithmetic backend for the solver hot "
                                "loops (default: REPRO_KERNELS or auto)")
    solve_cmd.add_argument("--must-retain", nargs="*", default=[],
                           help="items that must stay in the assortment")
    solve_cmd.add_argument("--exclude", nargs="*", default=[],
                           help="items that may never be retained")
    solve_cmd.add_argument("--show", type=int, default=10,
                           help="how many retained items to print")
    solve_cmd.add_argument("--trace", default=None, metavar="PATH",
                           help="write the solver event stream (one JSONL "
                                "event per greedy iteration) to PATH")
    solve_cmd.add_argument("--metrics", action="store_true",
                           help="print the run's metrics summary")
    solve_cmd.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                           help="snapshot greedy state into DIR and resume "
                                "an interrupted solve from the longest "
                                "valid prefix")
    solve_cmd.add_argument("--checkpoint-every", type=int, default=8,
                           metavar="N",
                           help="snapshot cadence in committed selections "
                                "(default: 8)")
    solve_cmd.add_argument("--resume", dest="resume", action="store_true",
                           default=True,
                           help="resume from existing checkpoints "
                                "(default)")
    solve_cmd.add_argument("--no-resume", dest="resume",
                           action="store_false",
                           help="ignore existing checkpoints; write only")
    solve_cmd.add_argument("--deadline-s", type=float, default=None,
                           metavar="S",
                           help="wall-clock budget; the solve stops after "
                                "the round that crosses it")
    solve_cmd.add_argument("--max-rss-mb", type=float, default=None,
                           metavar="MB",
                           help="peak-RSS ceiling for the solve")
    solve_cmd.add_argument("--on-partial", choices=["keep", "error"],
                           default="keep",
                           help="tripped deadline/RSS guard: 'keep' prints "
                                "the valid partial prefix and exits 3, "
                                "'error' fails the run (default: keep)")
    solve_cmd.add_argument("-o", "--output", default=None)
    solve_cmd.set_defaults(func=_cmd_solve)

    pipe = sub.add_parser("pipeline", help="end-to-end Figure 2 flow")
    pipe.add_argument("clickstream")
    pipe.add_argument("--variant",
                      choices=["independent", "normalized", "auto"],
                      default="auto")
    pipe.add_argument("-k", type=int, default=None)
    pipe.add_argument("--threshold", type=float, default=None)
    pipe.add_argument("--min-edge-sessions", type=int, default=1)
    pipe.add_argument("--lenient", action="store_true",
                      help="quarantine malformed clickstream records "
                           "instead of failing on the first one")
    pipe.add_argument("--error-budget", type=float, default=0.05,
                      metavar="FRAC",
                      help="with --lenient, abort when more than this "
                           "fraction of records is bad (default: 0.05)")
    pipe.add_argument("--show", type=int, default=10)
    pipe.add_argument("-o", "--output", default=None)
    pipe.set_defaults(func=_cmd_pipeline)

    audit = sub.add_parser(
        "audit", help="lost-demand / load-bearing audit of a retained set"
    )
    audit.add_argument("graph")
    audit.add_argument("--variant",
                       choices=["independent", "normalized"],
                       required=True)
    audit.add_argument("--result", default=None,
                       help="result JSON from 'repro solve -o'")
    audit.add_argument("--items", nargs="*", default=[],
                       help="retained item ids (alternative to --result)")
    audit.add_argument("--top", type=int, default=10)
    audit.set_defaults(func=_cmd_audit)

    check = sub.add_parser(
        "check",
        help="correctness harnesses (differential strategies)",
    )
    check.add_argument("--differential", action="store_true",
                       help="run the differential correctness harness")
    check.add_argument("--resilience", action="store_true",
                       help="run the crash/resume differential harness "
                            "(kill at a random round, resume from "
                            "checkpoints, compare with the clean solve)")
    check.add_argument("--serving", action="store_true",
                       help="run the serving differential harness "
                            "(served answers must equal offline "
                            "cover recomputation exactly)")
    check.add_argument("--serving-chaos", action="store_true",
                       help="run the serving chaos harness (runtime "
                            "invariants — bitwise answers, monotone "
                            "degradation, recovery, warm restart — "
                            "under injected refresh crashes/latency)")
    check.add_argument("--fuzz", action="store_true",
                       help="run the metamorphic fuzzer (adversarial "
                            "instances checked against the invariant "
                            "registry; failures shrink to minimal "
                            "replayable JSON artifacts)")
    check.add_argument("--rounds", type=int, default=None,
                       help="fuzz rounds (default: 50, or 25 with "
                            "--smoke)")
    check.add_argument("--replay", default=None, metavar="PATH",
                       help="re-execute one dumped fuzz artifact "
                            "instead of sweeping")
    check.add_argument("--artifact-dir", default=None, metavar="DIR",
                       help="where --fuzz dumps shrunken failure "
                            "artifacts (default: no dumping)")
    check.add_argument("--smoke", action="store_true",
                       help="CI-sized sweep (fewer/smaller instances)")
    check.add_argument("--instances", type=int, default=None,
                       help="random instances per variant "
                            "(default: 50, or 6 with --smoke)")
    check.add_argument("--max-items", type=int, default=None,
                       help="largest instance size "
                            "(default: 140, or 60 with --smoke)")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--kernels",
                       choices=["auto", "numpy", "numba"],
                       default=None,
                       help="kernel backend forwarded to every solver")
    check.add_argument("--verbose", action="store_true",
                       help="print one progress line per instance")
    check.set_defaults(func=_cmd_check)

    serve = sub.add_parser(
        "serve",
        help="serve assortment queries from a cached solve snapshot",
    )
    serve.add_argument("graph", nargs="?", default=None,
                       help="preference-graph JSON (omit for a synthetic "
                            "instance)")
    serve.add_argument("--variant",
                       choices=["independent", "normalized"],
                       default="independent")
    serve.add_argument("-k", type=int, default=None,
                       help="retained-set size (default 50 when neither "
                            "-k nor --threshold is given)")
    serve.add_argument("--threshold", type=float, default=None,
                       help="cover target instead of -k")
    serve.add_argument("--items", type=int, default=500,
                       help="synthetic instance size (no graph file)")
    serve.add_argument("--requests", type=int, default=2000,
                       help="total queries in the synthetic workload")
    serve.add_argument("--concurrency", type=int, default=64,
                       help="concurrent in-flight queries per wave")
    serve.add_argument("--batch-window-ms", type=float, default=2.0,
                       help="micro-batching window in milliseconds")
    serve.add_argument("--max-batch", type=int, default=256,
                       help="max queries answered per vectorized call")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="admission-control queue ceiling")
    serve.add_argument("--persist-dir", default=None, metavar="DIR",
                       help="persist the last good snapshot into DIR "
                            "(and warm-restart from it on startup)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="per-query deadline; expired queries fail "
                            "fast with DeadlineExceeded")
    serve.add_argument("--retries", type=int, default=4,
                       help="refresh attempts per episode (exponential "
                            "backoff with seeded jitter; default: 4)")
    serve.add_argument("--no-static-fallback", action="store_true",
                       help="shed load instead of serving the static "
                            "top-K-by-weight fallback when no solved "
                            "snapshot exists")
    serve.add_argument("--drift-periods", type=int, default=0,
                       help="apply this many graph deltas mid-workload "
                            "(exercises incremental refresh + hot swap)")
    serve.add_argument("--drift-sigma", type=float, default=0.15,
                       help="popularity shock size per drift period")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="N",
                       help="expose /metrics, /healthz and /readyz on "
                            "127.0.0.1:N (0 picks an ephemeral port, "
                            "announced on stderr)")
    serve.add_argument("--log", default=None, metavar="PATH",
                       help="write JSON-lines structured events to PATH "
                            "('-' for stderr); also honours $REPRO_LOG")
    serve.add_argument("--linger-s", type=float, default=0.0,
                       metavar="S",
                       help="after the workload, keep the metrics "
                            "exporter scrapeable for S seconds")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("-o", "--output", default=None,
                       help="also write the JSON report to this file")
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live serving dashboard polling a /metrics endpoint",
    )
    top.add_argument("url", help="exporter base URL, e.g. "
                                 "http://127.0.0.1:9464")
    top.add_argument("--interval-s", type=float, default=2.0,
                     help="refresh period (default 2s)")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after N frames (default: until Ctrl-C)")
    top.add_argument("--no-color", action="store_true",
                     help="plain ASCII output (no ANSI escapes)")
    top.set_defaults(func=_cmd_top)

    events = sub.add_parser(
        "events",
        help="pretty-print a structured event log (JSON lines)",
    )
    events.add_argument("path", help="event log file written via --log "
                                     "or $REPRO_LOG")
    events.add_argument("--follow", "-f", action="store_true",
                        help="keep reading as the file grows (tail -f)")
    events.add_argument("--trace-id", default=None,
                        help="only events belonging to this trace "
                             "(matches fan-in batch groups too)")
    events.add_argument("--component", default=None,
                        help="only events from this component")
    events.add_argument("--no-color", action="store_true",
                        help="plain ASCII output (no ANSI escapes)")
    events.set_defaults(func=_cmd_events)

    stats = sub.add_parser("stats", help="dataset statistics")
    stats.add_argument("--clickstream", default=None)
    stats.add_argument("--graph", default=None,
                       help="preference-graph JSON to summarize")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
