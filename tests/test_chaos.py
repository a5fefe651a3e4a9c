"""Chaos suite: the runtime under injected faults must stay correct.

Every test here asserts *equality* with an un-faulted run (the fault
sequences are seeded and deterministic), plus the zero-leak guarantee:
no stray temp checkpoint files.
"""

import os

import pytest

from repro.core.greedy import greedy_solve
from repro.errors import ReproError
from repro.resilience import Checkpointer, FaultInjector, inject_faults
from repro.resilience.faults import InjectedCrash
from repro.workloads.graphs import random_preference_graph


@pytest.fixture
def graph():
    return random_preference_graph(48, variant="independent", seed=21)


@pytest.fixture(autouse=True)
def _suppress_ambient(request):
    """Shield deterministic chaos tests from ambient ``REPRO_FAULTS``.

    CI's chaos-smoke job exports an ambient spec for the whole run;
    every test here builds its own explicit injector (which shadows the
    ambient one anyway), so the suppression only protects the clean
    reference solves.  Tests marked ``ambient_chaos`` opt out — they
    exist to observe the ambient injector itself.
    """
    if request.node.get_closest_marker("ambient_chaos"):
        yield
        return
    with inject_faults(None):
        yield


@pytest.mark.ambient_chaos
class TestEnvActivation:
    def test_env_kill_round_reaches_solver(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill_round=3")
        with pytest.raises(InjectedCrash) as excinfo:
            greedy_solve(graph, k=10, variant="independent")
        assert excinfo.value.round_no == 3

    def test_env_spec_errors_are_loud(self, graph, monkeypatch):
        # A bad value, and a retired fault kind (the worker pool is gone).
        for spec in ("kill_round=soon", "worker_crash=0.1"):
            monkeypatch.setenv("REPRO_FAULTS", spec)
            with pytest.raises(ReproError, match="REPRO_FAULTS"):
                greedy_solve(graph, k=10, variant="independent")

    def test_env_checkpoint_chaos(self, graph, tmp_path, monkeypatch):
        # Every write fails, yet the solve itself must succeed.
        monkeypatch.setenv("REPRO_FAULTS", "checkpoint_write=1.0")
        ckpt = Checkpointer(tmp_path, every_rounds=1)
        result = greedy_solve(
            graph, k=8, variant="independent", checkpoint=ckpt
        )
        assert len(result.retained) == 8
        assert ckpt.write_failures > 0
        assert list(tmp_path.glob("ckpt-*")) == []
        assert list(tmp_path.glob(".tmp-*")) == []


class TestCrashResumeChaos:
    def test_kill_with_failing_checkpoints_still_resumes(
        self, graph, tmp_path
    ):
        # Flaky checkpoint writes AND a mid-solve kill: resume falls
        # back to whatever snapshot survived and still matches clean.
        clean = greedy_solve(graph, k=14, variant="independent")
        with pytest.raises(InjectedCrash):
            with inject_faults(
                FaultInjector(
                    seed=11, kill_round=9, checkpoint_write=0.5
                )
            ):
                greedy_solve(
                    graph, k=14, variant="independent",
                    checkpoint=Checkpointer(tmp_path, every_rounds=1),
                )
        assert list(tmp_path.glob(".tmp-*")) == []
        resumed = greedy_solve(
            graph, k=14, variant="independent",
            checkpoint=Checkpointer(tmp_path),
        )
        assert resumed.retained == clean.retained
        assert resumed.cover == clean.cover

    def test_repeated_kills_make_progress(self, graph, tmp_path):
        # A solve that dies every 3 rounds still converges through
        # resume — the crash-restart loop a batch scheduler produces.
        clean = greedy_solve(graph, k=12, variant="independent")
        attempts = 0
        while True:
            attempts += 1
            assert attempts < 20, "crash-resume loop made no progress"
            try:
                with inject_faults(FaultInjector(kill_round=3)):
                    result = greedy_solve(
                        graph, k=12, variant="independent",
                        checkpoint=Checkpointer(
                            tmp_path, every_rounds=1
                        ),
                    )
                break
            except InjectedCrash:
                continue
        # kill_round=3 counts rounds *executed this run*; each attempt
        # replays the checkpoint prefix then adds up to 3 fresh rounds.
        assert attempts >= 4
        assert result.retained == clean.retained
        assert result.cover == clean.cover


class TestIngestionChaos:
    def test_corrupted_lines_are_quarantined(self, tmp_path):
        from repro.clickstream.io import read_jsonl

        path = tmp_path / "stream.jsonl"
        path.write_text(
            "".join(
                '{"session_id": "s%d", "clicks": ["a"]}\n' % i
                for i in range(40)
            )
        )
        faults = FaultInjector(seed=13, malformed_record=0.3)
        with inject_faults(faults):
            loaded = read_jsonl(
                path, on_error="quarantine", error_budget=None
            )
        corrupted = faults.fired.get("malformed_record", 0)
        assert corrupted > 0
        assert loaded.quarantine.quarantined == corrupted
        assert loaded.n_sessions == 40 - corrupted

    def test_clean_read_without_faults(self, tmp_path):
        from repro.clickstream.io import read_jsonl

        path = tmp_path / "stream.jsonl"
        path.write_text('{"session_id": "s", "clicks": ["a"]}\n')
        loaded = read_jsonl(path, on_error="quarantine")
        assert loaded.quarantine.quarantined == 0


class TestFullChaosLeakFreedom:
    def test_chaos_sweep_leaves_nothing_behind(self, graph, tmp_path):
        # The combined scenario: kill + flaky checkpoints under every
        # strategy, then a final leak sweep.
        clean = greedy_solve(
            graph, k=10, variant="independent", strategy="naive"
        )
        for strategy in ("naive", "lazy", "accelerated"):
            ckpt_dir = tmp_path / strategy
            with pytest.raises(InjectedCrash):
                with inject_faults(
                    FaultInjector(
                        seed=7, kill_round=6, checkpoint_write=0.3,
                    )
                ):
                    greedy_solve(
                        graph, k=10, variant="independent",
                        strategy=strategy,
                        checkpoint=Checkpointer(ckpt_dir, every_rounds=1),
                    )
            resumed = greedy_solve(
                graph, k=10, variant="independent", strategy=strategy,
                checkpoint=Checkpointer(ckpt_dir),
            )
            assert resumed.retained == clean.retained
            assert list(ckpt_dir.glob(".tmp-*")) == []


@pytest.mark.ambient_chaos
@pytest.mark.skipif(
    os.environ.get("REPRO_FAULTS", "") == "",
    reason="ambient chaos smoke; enable by exporting REPRO_FAULTS",
)
class TestAmbientChaosSmoke:
    """CI's chaos-smoke job runs the suite with REPRO_FAULTS exported.

    This class is the only part that *requires* the ambient spec: it
    proves a solve under whatever ambient chaos is configured either
    completes with a correct prefix or dies with the injected error —
    never a wrong answer.
    """

    def test_ambient_faults_respected(self, graph):
        with inject_faults(None):  # clean reference, chaos suppressed
            clean = greedy_solve(graph, k=10, variant="independent")
        try:
            chaotic = greedy_solve(graph, k=10, variant="independent")
        except InjectedCrash:
            return
        size = len(chaotic.retained)
        assert chaotic.retained == clean.retained[:size]
