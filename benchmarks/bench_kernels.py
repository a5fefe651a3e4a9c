"""Perf-regression harness for the solver hot paths.

Times the three perf-critical surfaces on seeded synthetic graphs at two
sizes and appends the medians to the machine-readable trajectory file
``BENCH_core.json`` at the repository root (see ``benchmarks/_perf.py``
for the schema):

* ``batch_gain.<kernels>.<size>`` — one full ``gains_all`` sweep;
* ``add_node.<kernels>.<size>`` — committing a block of nodes;
* ``strategy.<name>.<kernels>.<size>`` — full greedy solves with the
  naive / lazy / accelerated strategies.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # tiny
    PYTHONPATH=src python benchmarks/bench_kernels.py --check    # verify

``--smoke`` uses tiny graphs and one repeat so CI can exercise the
harness end-to-end in seconds; ``--check`` validates that the trajectory
file parses and that its newest run contains every expected series —
the guard that keeps the harness itself from rotting.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
# Allow running straight from a checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.append(str(_SRC))

from _perf import (  # noqa: E402
    BENCH_CORE_PATH,
    append_run,
    load_trajectory,
    time_median,
)

VARIANT = "independent"

#: (label, n_items, k) for the two measured scales.
FULL_SIZES = {"small": (2_000, 30), "large": (20_000, 60)}
SMOKE_SIZES = {"small": (300, 8), "large": (800, 10)}

STRATEGIES = ("naive", "lazy", "accelerated")


def _build_graphs(sizes):
    from repro.workloads.graphs import random_preference_graph

    return {
        label: (random_preference_graph(n, variant=VARIANT, seed=1234), k)
        for label, (n, k) in sizes.items()
    }


def run_benchmarks(args) -> dict:
    from repro.core.gain import GreedyState
    from repro.core.greedy import greedy_solve
    from repro.core.kernels import available_backends, get_kernels

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    repeats = 1 if args.smoke else args.repeats
    graphs = _build_graphs(sizes)
    backends = available_backends()
    series: dict = {}

    def record(name, fn):
        series[name] = time_median(fn, repeats=repeats,
                                   warmup=0 if args.smoke else 1)
        print(f"  {name:40s} {series[name]['median_s'] * 1e3:10.3f} ms")

    for label, (graph, k) in graphs.items():
        n = graph.n_items
        print(f"[{label}] n_items={n} n_edges={graph.n_edges} k={k}")
        add_block = list(range(0, n, max(1, n // min(n, 300))))

        for backend_name in backends:
            kernels = get_kernels(backend_name)

            def batch(graph=graph, kernels=kernels):
                GreedyState(graph, VARIANT, kernels=kernels).gains_all()

            record(f"batch_gain.{backend_name}.{label}", batch)

            def add_nodes(graph=graph, kernels=kernels):
                state = GreedyState(graph, VARIANT, kernels=kernels)
                for v in add_block:
                    state.add_node(v)

            record(f"add_node.{backend_name}.{label}", add_nodes)

            for strategy in STRATEGIES:
                def solve(graph=graph, k=k, strategy=strategy,
                          kernels=kernels):
                    greedy_solve(graph, k=k, variant=VARIANT,
                                 strategy=strategy, kernels=kernels)

                record(f"strategy.{strategy}.{backend_name}.{label}", solve)

    size_meta = {
        label: {"n_items": graph.n_items, "n_edges": graph.n_edges, "k": k}
        for label, (graph, k) in graphs.items()
    }
    append_run(
        series,
        sizes=size_meta,
        kernel_backends=backends,
        label=args.label,
        smoke=args.smoke,
        path=args.out,
    )
    print(f"appended {len(series)} series to {args.out}")
    return series


def expected_series_keys(run: dict) -> list:
    """Series every valid run must contain (numpy backend is mandatory;
    compiled-backend series, and the ``parallel.*`` series older runs
    recorded, are welcome extras)."""
    sizes = list(run.get("sizes", {}))
    required = []
    for label in sizes:
        required.append(f"batch_gain.numpy.{label}")
        required.append(f"add_node.numpy.{label}")
        for strategy in STRATEGIES:
            required.append(f"strategy.{strategy}.numpy.{label}")
    return required


def check_trajectory(path: Path) -> int:
    """Validate the trajectory file; return a process exit code."""
    try:
        data = load_trajectory(path)
    except (ValueError, OSError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    if not data["runs"]:
        print(f"FAIL: {path} contains no runs", file=sys.stderr)
        return 1
    run = data["runs"][-1]
    missing = []
    for key in expected_series_keys(run):
        entry = run.get("series", {}).get(key)
        if not isinstance(entry, dict) or not (
            isinstance(entry.get("median_s"), (int, float))
            and entry["median_s"] > 0
        ):
            missing.append(key)
    if missing:
        print(
            f"FAIL: newest run in {path} is missing/invalid series: "
            f"{missing}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {path} — {len(data['runs'])} run(s), newest has "
        f"{len(run['series'])} series, all expected keys present"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat (CI harness check)")
    parser.add_argument("--check", action="store_true",
                        help="validate the trajectory file and exit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--label", default="",
                        help="free-form tag recorded with the run")
    parser.add_argument("--out", type=Path, default=BENCH_CORE_PATH,
                        help="trajectory file (default: repo BENCH_core.json)")
    args = parser.parse_args(argv)

    if args.check:
        return check_trajectory(args.out)
    run_benchmarks(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
