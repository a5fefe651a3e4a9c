"""Shared pieces of the benchmark: statistics, run records, host facts.

Every timing the benchmark reports is a :class:`Samples` series.  A
series knows its unit and how many samples it holds, and it only
answers a percentile when at least ten samples lie beyond it — the
rule that keeps a "p99" from being the single worst of a few hundred
calls.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first (see :func:`tail`).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supports(n: int, percentile: float) -> bool:
    """Whether ``n`` samples put at least MIN_BEYOND beyond ``percentile``."""
    return n * (100.0 - percentile) / 100.0 >= MIN_BEYOND


@dataclass
class Samples:
    """One measured series with its unit."""

    unit: str
    values: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def n(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile, or ``None`` when too few samples."""
        if not self.values or (q > 50.0 and not supports(self.n, q)):
            return None
        return float(np.percentile(np.asarray(self.values), q))

    def median(self) -> Optional[float]:
        if not self.values:
            return None
        return float(np.median(np.asarray(self.values)))

    def tail(self):
        """``(percentile, value)`` for the highest supported tail."""
        for q in TAIL_LADDER:
            if supports(self.n, q):
                return q, self.percentile(q)
        return None, None


@dataclass
class Metric:
    """One reported number: value, unit, sample count and a note."""

    value: Optional[float]
    unit: str
    n: int
    note: str = ""


class Report:
    """What one workload run measured and checked.

    ``attempted`` / ``failed`` count user-visible operations (queries,
    deltas, solves) plus every output check; a failed check is a
    failure like any other.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Metric] = {}
        self.inputs: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.flags: List[str] = []
        self.samples: Dict[str, List[float]] = {}

    def put(self, name: str, value, unit: str, n: int, note: str = "") -> None:
        if value is not None:
            value = float(value)
        self.metrics[name] = Metric(value, unit, int(n), note)

    def put_median(self, name: str, samples: Samples, note: str = "") -> None:
        self.put(name, samples.median(), samples.unit, samples.n, note)
        if samples.n <= 200:
            self.samples[name] = list(samples.values)

    def operation(self, ok: bool, what: str = "") -> None:
        """Count one attempted operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.failures) < 50:
                self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """An output check: attempted once, failed when ``ok`` is false."""
        self.operation(bool(ok), f"check failed: {what}")
        return bool(ok)

    def flag(self, message: str) -> None:
        """A validity warning printed with the result (not a failure)."""
        self.flags.append(message)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def host_facts() -> Dict[str, object]:
    """The host a run measured on, recorded next to its numbers."""
    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
    }


def fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value == 0 or math.isfinite(value) and abs(value) >= 0.01:
        return f"{value:.6g}"
    return f"{value:.4e}"
