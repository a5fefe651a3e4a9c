"""Open-loop query load on one asyncio loop.

Queries are sent on a fixed schedule whatever the system's state, as
independent shoppers would send them: query ``i`` of a phase at rate
``r`` is *due* at ``t0 + i / r``.  Each query is timed from its due
time, so a stall that delays the generator itself shows up in the
latency of every query it delayed.  How late the generator sent each
query is kept too; a phase whose lateness grows from its first to its
last quarter fell behind its schedule and is flagged.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from common import Samples
from tracing import CURRENT_ID, Tracer

_perf = time.perf_counter

OK, REJECTED, EXPIRED, ERROR, PENDING = 0, 1, 2, 3, 4

#: A phase fell behind when its median lateness over the last quarter
#: exceeds that over the first quarter by more than this.
LATE_SLACK_S = 0.010


@dataclass
class Phase:
    """The record of one open-loop phase (arrays indexed by query)."""

    rate: float
    items: List[int]
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    value: np.ndarray
    status: np.ndarray
    seq_sent: np.ndarray
    seq_done: np.ndarray
    read_start: np.ndarray

    @property
    def offered(self) -> int:
        return len(self.items)

    def answered(self) -> np.ndarray:
        return self.status == OK

    def latencies(self) -> Samples:
        ok = self.answered()
        return Samples("s", (self.done[ok] - self.due[ok]).tolist())

    def window_p99(self, window_s: float) -> Samples:
        """p99 latency of each full ``window_s`` slice of the schedule.

        Only windows holding enough answered queries to support a p99
        (ten beyond it) count.  The median of these is steady where
        one whole-phase p99 is decided by the run's worst stall.
        """
        out = Samples("s")
        ok = self.answered()
        slot = np.floor((self.due - self.due[0]) / window_s).astype(np.int64)
        for w in range(int(slot.max()) + 1 if slot.size else 0):
            mine = ok & (slot == w)
            latency = Samples("s", (self.done[mine] - self.due[mine]).tolist())
            value = latency.percentile(99.0)
            if value is not None:
                out.add(value)
        return out

    def lateness(self) -> Samples:
        return Samples("s", (self.sent - self.due).tolist())

    def waits(self) -> Samples:
        ok = self.answered() & ~np.isnan(self.read_start)
        return Samples("s", (self.read_start[ok] - self.due[ok]).tolist())

    def count(self, status: int) -> int:
        return int(np.count_nonzero(self.status == status))

    def fell_behind(self) -> bool:
        """Whether generator lateness grew across the phase."""
        late = self.sent - self.due
        if late.size < 8:
            return False
        quarter = late.size // 4
        return float(np.median(late[-quarter:])) \
            > float(np.median(late[:quarter])) + LATE_SLACK_S


class OpenLoop:
    """Sends point queries to a ``ServingFrontend`` on a schedule.

    ``active`` returns the runtime's active snapshot; its sequence is
    recorded at send and at answer time so every answer can later be
    checked against the snapshots that could have produced it.
    """

    def __init__(self, frontend, active, tracer: Optional[Tracer] = None):
        self.frontend = frontend
        self.active = active
        self.tracer = tracer
        self._tasks = set()
        self._next_id = 0

    def _sequence(self) -> int:
        snapshot = self.active()
        return snapshot.sequence if snapshot is not None else -1

    async def _query(self, phase: Phase, i: int, qid: int) -> None:
        from repro.errors import DeadlineExceeded, ReproError, ServingError

        try:
            value = await self.frontend.covered_probability(phase.items[i])
        except DeadlineExceeded:
            phase.status[i] = EXPIRED
        except ServingError:
            phase.status[i] = REJECTED
        except ReproError:
            phase.status[i] = ERROR
        else:
            phase.value[i] = value
            phase.status[i] = OK
        done = _perf()
        phase.done[i] = done
        phase.seq_done[i] = self._sequence()
        tracer = self.tracer
        if tracer is not None:
            # The answering read is the newest one started before this
            # coroutine resumed: the frontend resolves a batch's futures
            # and yields to the loop before it can start another read.
            latest = tracer.latest.get("runtime.read")
            link = None
            if latest is not None:
                link, phase.read_start[i] = latest
            tracer.record("query", phase.due[i], done, f"q{qid}", link)

    async def run(self, items: List[int], rate: float, t0: float) -> Phase:
        """Send ``items`` at ``rate`` per second from ``t0``; await all."""
        n = len(items)
        due = t0 + np.arange(n, dtype=np.float64) / rate
        phase = Phase(
            rate=rate, items=items, due=due,
            sent=np.full(n, np.nan), done=np.full(n, np.nan),
            value=np.full(n, np.nan),
            status=np.full(n, PENDING, dtype=np.int8),
            seq_sent=np.zeros(n, dtype=np.int64),
            seq_done=np.zeros(n, dtype=np.int64),
            read_start=np.full(n, np.nan),
        )
        loop = asyncio.get_running_loop()
        tasks = self._tasks
        i = 0
        while i < n:
            now = _perf()
            if due[i] > now:
                await asyncio.sleep(due[i] - now)
                continue
            while i < n and due[i] <= now:
                phase.sent[i] = now
                phase.seq_sent[i] = self._sequence()
                token = CURRENT_ID.set(f"q{self._next_id}")
                task = loop.create_task(self._query(phase, i, self._next_id))
                CURRENT_ID.reset(token)
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                self._next_id += 1
                i += 1
        return phase

    async def drain(self, timeout_s: float) -> bool:
        """Wait for every outstanding query; False on timeout."""
        if not self._tasks:
            return True
        done, pending = await asyncio.wait(
            set(self._tasks), timeout=timeout_s
        )
        for task in done:
            task.result()
        return not pending

    async def cancel(self) -> None:
        """Cancel and await whatever is still outstanding."""
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
