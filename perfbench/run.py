"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20
    python3 perfbench/run.py --workload serve-read --seed 1 --trace 1

Workloads: ``offline``, ``serve-read``, ``serve-churn`` (see
``perfbench/README.md``).  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` the workload runs
twice with the same inputs — untraced, then with timing shims on every
layer boundary — and the line carries the per-layer metrics, while the
difference between the two passes is printed as the tracing overhead.
Each run also writes its inputs, host, every metric with its sample
count, and (traced) every span to ``perfbench/out/``.

The program under test is imported from ``src/`` of the checkout the
script sits in, never from anywhere else; without it the command exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("offline", "serve-read", "serve-churn")

#: End-to-end metrics of the JSON line.  Every workload measures every
#: one of them, each on its own path (see README.md):
#:
#: * ``answer_p50_s``: the median time to answer a coverage question —
#:   ``repro.cover()`` of the candidate (offline), one point query from
#:   its due time (serving);
#: * ``solve_p50_s``: the median time until a newly asked-for solution
#:   is available — a warm ``repro.solve(k)`` (offline), a forced
#:   ``ServingRuntime.refresh()`` (serve-read), a delta's freshness
#:   (serve-churn).
#:
#: The report prints more (``threshold_p50_s``, ``query_p99_s``,
#: ``query_max_qps``, ``freshness_tail_s``), unbounded.
END_TO_END = ("setup_s", "answer_p50_s", "solve_p50_s", "peak_rss_mb")


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing "
              f"(run from a full checkout)", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        sys.exit(2)


def configs(smoke: bool = False) -> dict:
    """Workload configurations; ``smoke`` shrinks every input."""
    from offline import OfflineConfig
    from serving import ServingConfig

    if smoke:
        return {
            "offline": OfflineConfig(n_items=3000, k=30, candidate=30,
                                     setup_reps=2, min_cycles=2),
            "serve-read": ServingConfig(
                n_items=3000, read_qps=400, k=20, ladder=True,
                rung_s=0.3, top_rung=4, setup_reps=2, refresh_reps=2,
            ),
            "serve-churn": ServingConfig(
                n_items=2000, read_qps=300, k=20, churn=True,
                delta_interval_s=0.25, setup_reps=2,
            ),
        }
    return {
        "offline": OfflineConfig(),
        "serve-read": ServingConfig(n_items=200_000, read_qps=2000,
                                    ladder=True, refresh_reps=8),
        "serve-churn": ServingConfig(n_items=10_000, read_qps=1000,
                                     churn=True, setup_reps=9),
    }


def run_pass(workload: str, cfg, inputs, seconds: float, tracer=None):
    """One untraced or traced pass; returns ``(report, loadgen facts)``."""
    import offline
    import serving
    from common import Report

    report = Report(workload)
    if tracer is not None:
        tracer.install()
    try:
        if workload == "offline":
            offline.execute(cfg, inputs, seconds, report, tracer)
            facts = {}
        else:
            facts = serving.execute(cfg, inputs, seconds, report, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return report, facts


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, out_dir: Path = HERE / "out") -> dict:
    """Prepare inputs, run the pass(es), print and record the result."""
    import offline
    import serving
    from common import Report, fmt, host_facts
    from tracing import PER_LAYER, PER_LAYER_RESULT, Tracer, layer_metrics

    cfg = configs(smoke)[workload]
    module = offline if workload == "offline" else serving
    started = time.perf_counter()
    inputs = module.prepare(cfg, seed)
    prepare_s = time.perf_counter() - started

    untraced, _ = run_pass(workload, cfg, inputs, seconds)
    gc.collect()  # the traced pass starts from a clean heap as well
    reports = [untraced]
    tracer = None
    result_report = untraced
    overhead = {}
    if trace:
        tracer = Tracer()
        traced, facts = run_pass(workload, cfg, inputs, seconds, tracer)
        reports.append(traced)
        result_report = Report(workload)
        layer_metrics(tracer, result_report, facts, facts.get("runtime"))
        # Peak RSS is a process-wide high-water mark, so the second pass
        # cannot be compared with the first.
        for name in END_TO_END:
            if name == "peak_rss_mb":
                continue
            a = untraced.metrics.get(name)
            b = traced.metrics.get(name)
            if a and b and a.value is not None and b.value is not None:
                overhead[name] = b.value - a.value

    for name in END_TO_END:
        metric = untraced.metrics.get(name)
        untraced.check(metric is not None and metric.value is not None,
                       f"end-to-end metric {name} measured")
    if trace:
        for name in PER_LAYER_RESULT:
            metric = result_report.metrics.get(name)
            result_report.check(
                metric is not None and metric.value is not None,
                f"per-layer metric {name} measured",
            )
        reports.append(result_report)
    attempted = sum(r.attempted for r in reports)
    failed = sum(r.failed for r in reports)
    host = host_facts()

    print(f"# workload {workload}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}")
    print(f"# host nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']}")
    print(f"# inputs {json.dumps(untraced.inputs, default=str)}")
    print(f"# input generation took {prepare_s:.3f} s (not measured)")
    for name, metric in untraced.metrics.items():
        note = f"  ({metric.note})" if metric.note else ""
        print(f"{name:<28} {fmt(metric.value):>14} {metric.unit:<10} "
              f"n={metric.n}{note}")
    print(f"{'fail_ratio':<28} {fmt(untraced.fail_ratio):>14} "
          f"{'ratio':<10} n={untraced.attempted}  "
          f"({untraced.failed} failed of {untraced.attempted} attempted)")
    if trace:
        print("# per-layer metrics (traced pass)")
        for name, unit in PER_LAYER.items():
            metric = result_report.metrics.get(name)
            if metric is None:  # the layer did no work in this workload
                print(f"{name:<28} {fmt(None):>14} {unit:<13} n=0")
            else:
                print(f"{name:<28} {fmt(metric.value):>14} "
                      f"{metric.unit:<13} n={metric.n}")
        print("# tracing overhead (traced minus untraced)")
        for name, delta in overhead.items():
            print(f"overhead.{name:<19} {fmt(delta):>14} "
                  f"{untraced.metrics[name].unit}")
    for report in reports:
        for message in report.flags:
            print(f"FLAG: {message}")
        for message in report.failures:
            print(f"FAIL: {message}")

    source, names = ((result_report, PER_LAYER_RESULT) if trace
                     else (untraced, END_TO_END))
    metrics = {
        name: {"value": source.metrics[name].value,
               "unit": source.metrics[name].unit}
        for name in names
        if name in source.metrics
        and source.metrics[name].value is not None
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host, "inputs": untraced.inputs,
        "metrics": {
            name: vars(metric) for name, metric in untraced.metrics.items()
        },
        "per_layer": {
            name: vars(metric)
            for name, metric in result_report.metrics.items()
        } if trace else None,
        "samples": untraced.samples,
        "tracing_overhead": overhead or None,
        "fail_ratio": untraced.fail_ratio,
        "flags": [m for r in reports for m in r.flags],
        "failures": [m for r in reports for m in r.failures],
        "result": result,
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}-spans.jsonl",
                    {"workload": workload, "seed": seed, "host": host})
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
