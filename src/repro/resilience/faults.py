"""Deterministic fault injection for chaos testing.

Production resilience claims are only as good as the failures they have
actually been tested against.  :class:`FaultInjector` is a seeded source
of synthetic faults that the runtime consults at well-defined hook
points:

* ``kill_round=N`` — the solver raises :class:`InjectedCrash` right
  after committing its ``N``-th selection, emulating a process killed
  mid-solve (checkpoints written so far survive on disk, exactly as
  they would after a real ``SIGKILL``);
* ``stop_round=N`` — the solver stops *gracefully* after committing
  its ``N``-th selection and returns the partial result flagged
  ``interrupted=True``, emulating any hook that asks a solve to halt
  without a run guard being configured;
* ``checkpoint_write=p`` — a checkpoint write fails (before the atomic
  rename, so no partial file becomes visible) with probability ``p``;
* ``malformed_record=p`` — each ingested clickstream line is corrupted
  with probability ``p``, exercising the lenient-ingestion path;
* ``refresh_crash=p`` — a serving-layer snapshot solve (cold ``ensure``
  or delta-triggered refresh) fails with probability ``p``, emulating
  an intermittently poisoned refresh path — the fault the serving
  runtime's retry/breaker/degradation machinery exists to absorb;
* ``refresh_delay=s`` — every serving-layer snapshot solve stalls ``s``
  seconds first, emulating a slow backing solver (latency fault).

Injectors are activated either explicitly (``with inject_faults(inj):``)
or ambiently through the ``REPRO_FAULTS`` environment variable, whose
value is a ``key=value`` spec joined by ``:``, e.g.::

    REPRO_FAULTS="checkpoint_write=0.2:refresh_delay=0.001:seed=7"

Everything is driven by one seeded :class:`random.Random`, so a given
spec replays the identical fault sequence for the identical call
sequence — which is what lets the chaos suite assert *equality* with
un-faulted runs instead of merely "it did not crash".
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from ..errors import ReproError


class InjectedCrash(ReproError):
    """A synthetic mid-solve crash requested by a :class:`FaultInjector`.

    Raised from the solver's per-round hook when ``kill_round`` fires;
    chaos harnesses catch exactly this type so a *real* defect
    (``SolverError`` etc.) still fails the test.
    """

    def __init__(self, round_no: int) -> None:
        super().__init__(
            f"injected crash at solver round {round_no} (fault injection)"
        )
        self.round_no = round_no


class InjectedRefreshFailure(ReproError):
    """A synthetic serving-refresh failure requested by an injector.

    Raised from the serving layer's snapshot-solve hook when a
    ``refresh_crash`` draw fires; the runtime's retry/breaker path and
    the chaos harness treat it exactly like a real transient refresh
    failure, while its distinct type keeps genuine defects
    (``SolverError`` etc.) visible.
    """


#: Recognized spec keys and their parsers.
_SPEC_KEYS = {
    "seed": int,
    "kill_round": int,
    "stop_round": int,
    "checkpoint_write": float,
    "malformed_record": float,
    "refresh_crash": float,
    "refresh_delay": float,
}


class FaultInjector:
    """Seeded synthetic-fault source consulted by the runtime hooks.

    Args:
        seed: RNG seed; the injected fault sequence is a pure function
            of the seed and the order of hook calls.
        kill_round: raise :class:`InjectedCrash` after the solver
            commits this many selections (``None`` disables).
        stop_round: ask the solver to stop cooperatively after this
            many committed selections; the solve returns its partial
            result flagged ``interrupted=True`` (``None`` disables).
        checkpoint_write: per-write probability of a simulated
            checkpoint write failure.
        malformed_record: per-line probability of corrupting an
            ingested clickstream record.
        refresh_crash: per-solve probability that a serving snapshot
            refresh fails (:class:`InjectedRefreshFailure`) —
            intermittent by construction, so retries can succeed.
        refresh_delay: seconds every serving snapshot solve stalls
            before running (``0`` disables) — the latency fault.

    ``fired`` tallies every fault actually injected, keyed by kind, so
    tests can assert the chaos they asked for really happened.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        kill_round: Optional[int] = None,
        stop_round: Optional[int] = None,
        checkpoint_write: float = 0.0,
        malformed_record: float = 0.0,
        refresh_crash: float = 0.0,
        refresh_delay: float = 0.0,
    ) -> None:
        for name, value in (
            ("checkpoint_write", checkpoint_write),
            ("malformed_record", malformed_record),
            ("refresh_crash", refresh_crash),
        ):
            if not (0.0 <= value <= 1.0):
                raise ReproError(
                    f"fault probability {name} must be in [0, 1], "
                    f"got {value}"
                )
        if refresh_delay < 0:
            raise ReproError(
                f"refresh_delay must be >= 0, got {refresh_delay}"
            )
        if kill_round is not None and kill_round < 1:
            raise ReproError(
                f"kill_round must be >= 1, got {kill_round}"
            )
        if stop_round is not None and stop_round < 1:
            raise ReproError(
                f"stop_round must be >= 1, got {stop_round}"
            )
        self.seed = seed
        self.kill_round = kill_round
        self.stop_round = stop_round
        self.checkpoint_write = checkpoint_write
        self.malformed_record = malformed_record
        self.refresh_crash = refresh_crash
        self.refresh_delay = refresh_delay
        self.rng = random.Random(seed)
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Parse a ``key=value:key=value`` spec (the ``REPRO_FAULTS`` form)."""
        kwargs = {}
        for part in spec.split(":"):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in _SPEC_KEYS:
                raise ReproError(
                    f"invalid REPRO_FAULTS entry {part!r}; expected "
                    f"key=value with key in {sorted(_SPEC_KEYS)}"
                )
            try:
                kwargs[key] = _SPEC_KEYS[key](raw.strip())
            except ValueError as exc:
                raise ReproError(
                    f"invalid REPRO_FAULTS value {part!r}: {exc}"
                ) from exc
        return cls(**kwargs)

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        """Injector described by ``REPRO_FAULTS``, or ``None`` when unset."""
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        return cls.from_spec(spec) if spec else None

    # ------------------------------------------------------------------
    def _count(self, kind: str) -> None:
        self.fired[kind] = self.fired.get(kind, 0) + 1

    def fire(self, kind: str, probability: float) -> bool:
        """One Bernoulli draw for fault ``kind`` (tallied when it fires)."""
        if probability <= 0.0:
            return False
        if self.rng.random() < probability:
            self._count(kind)
            return True
        return False

    # -- hook points ----------------------------------------------------
    def solver_round(self, round_no: int) -> None:
        """Per-round solver hook: raise when ``kill_round`` is reached."""
        if self.kill_round is not None and round_no >= self.kill_round:
            self._count("kill_round")
            raise InjectedCrash(round_no)

    def solver_stop(self, round_no: int) -> Optional[str]:
        """Cooperative-stop hook: a reason to halt the solve, or ``None``.

        Unlike ``kill_round`` (which raises, emulating a dead process),
        ``stop_round`` asks the solver to stop *gracefully*: the solver
        treats the returned reason exactly like a tripped run guard and
        returns the partial result flagged ``interrupted=True`` — the
        stop-reason-without-a-guard path the fuzzer exercises.
        """
        if self.stop_round is not None and round_no >= self.stop_round:
            self._count("stop_round")
            return (
                f"injected cooperative stop at solver round {round_no} "
                f"(fault injection)"
            )
        return None

    def checkpoint_write_fails(self) -> bool:
        """Whether the next checkpoint write should fail."""
        return self.fire("checkpoint_write", self.checkpoint_write)

    def refresh_fails(self) -> bool:
        """Whether this serving snapshot solve should fail."""
        return self.fire("refresh_crash", self.refresh_crash)

    def refresh_delay_s(self) -> float:
        """Seconds to stall before this serving snapshot solve."""
        if self.refresh_delay > 0:
            self._count("refresh_delay")
        return self.refresh_delay

    def corrupt_record(self, line: str) -> str:
        """Possibly mangle one ingested line (malformed-record fault)."""
        if not self.fire("malformed_record", self.malformed_record):
            return line
        # Three representative corruption shapes: truncation (invalid
        # JSON), a schema violation (string "clicks"), and binary noise.
        shape = self.rng.randrange(3)
        if shape == 0:
            return line[: max(1, len(line) // 2)]
        if shape == 1:
            return '{"session_id": "injected", "clicks": "oops"}'
        return "\x00garbled\x00" + line[:8]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        live = {
            key: getattr(self, key)
            for key in _SPEC_KEYS
            if key != "seed" and getattr(self, key)
        }
        return f"FaultInjector(seed={self.seed}, {live})"


# ----------------------------------------------------------------------
# Ambient activation
# ----------------------------------------------------------------------
#: Sentinel distinguishing "no explicit context" from an explicit
#: ``inject_faults(None)``, which *suppresses* ambient faults.
_UNSET = object()

_ACTIVE = _UNSET
_ENV_SPEC: Optional[str] = None
_ENV_INJECTOR: Optional[FaultInjector] = None


def active_faults() -> Optional[FaultInjector]:
    """The injector the runtime should consult right now, if any.

    An explicitly activated injector (:func:`inject_faults`) wins —
    including ``inject_faults(None)``, which suppresses ambient faults
    for its block; otherwise the ``REPRO_FAULTS`` environment variable
    is consulted.  The env-derived injector is cached per spec string
    so one process draws from a single deterministic stream rather
    than re-seeding on every hook.
    """
    if _ACTIVE is not _UNSET:
        return _ACTIVE
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    global _ENV_SPEC, _ENV_INJECTOR
    if spec != _ENV_SPEC:
        # Parse before publishing: a spec that fails to parse must not
        # leave the previous spec's injector cached under the new key.
        injector = FaultInjector.from_spec(spec)
        _ENV_SPEC = spec
        _ENV_INJECTOR = injector
    return _ENV_INJECTOR


@contextmanager
def inject_faults(injector: Optional[FaultInjector]) -> Iterator[
    Optional[FaultInjector]
]:
    """Activate ``injector`` for the enclosed block (re-entrant).

    ``inject_faults(None)`` explicitly *disables* fault injection for
    the block, shadowing any ambient ``REPRO_FAULTS`` spec — the way a
    chaos test computes its un-faulted reference run.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
