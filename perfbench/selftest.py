"""Smoke-size self-test of the benchmark: every workload, end to end.

Runs ``offline``, ``serve-read`` and ``serve-churn`` at tiny sizes, each
untraced and traced, including every output check, and fails when any
run reports a failure or misses a metric it must produce::

    python3 perfbench/selftest.py            # about half a minute

Results go to ``perfbench/out/selftest/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

#: Per-layer metrics each workload must report when traced, beyond the
#: ones of the JSON line (they are read from the run record).
LAYERS = {
    "offline": ("greedy.solve_s", "greedy.first_sweep_s", "greedy.steps",
                "threshold.solve_s", "cover.vector_s", "context.digest_s",
                "gc.collections"),
    "serve-read": ("frontend.batch_size_p50", "frontend.wait_p50_s",
                   "runtime.read_self_s", "store.read_s", "service.init_s",
                   "csr.from_graph_calls", "csr.to_graph_s",
                   "loadgen.completed_ratio"),
    "serve-churn": ("runtime.apply_s", "service.stage_s",
                    "service.refresh_self_s", "drift.parse_s",
                    "drift.apply_s", "incremental.resolve_s",
                    "incremental.reuse_ratio", "csr.from_graph_per_refresh",
                    "cover.vector_per_refresh"),
}


def main() -> int:
    run.bootstrap()
    from tracing import PER_LAYER_RESULT

    out_dir = Path(run.HERE) / "out" / "selftest"
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, seed=7, seconds=1.5, trace=trace,
                             smoke=True, out_dir=out_dir)
            label = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failures")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            wanted = PER_LAYER_RESULT if trace else run.END_TO_END
            if set(result["metrics"]) != set(wanted):
                problems.append(f"{label}: JSON line carries "
                                f"{sorted(result['metrics'])}, not "
                                f"{sorted(wanted)}")
            if not trace and any(
                m["value"] <= 0 for m in result["metrics"].values()
            ):
                problems.append(f"{label}: an end-to-end metric is not "
                                f"positive")
            if not trace:
                continue
            record = json.loads(
                (out_dir / f"{workload}-seed7-trace1.json").read_text()
            )
            layers = record["per_layer"]
            for name in LAYERS[workload]:
                if layers.get(name, {}).get("value") is None:
                    problems.append(f"{label}: metric {name} missing")
            if workload == "serve-churn" and layers.get(
                "csr.from_graph_per_refresh", {}
            ).get("value") is None:
                problems.append(f"{label}: no refresh was traced")
    for problem in problems:
        print(f"SELFTEST FAIL: {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
