"""End-to-end determinism: same seed ⇒ byte-identical trace digest.

Runs a whole paper figure (fig8 = fig8a + fig8b, every system variant)
under full observability — trace, metrics and all five invariant
checkers live — twice with the same seed and once with a different one.
This is the regression net for "any PR that silently changes scheduling
order, drop accounting or clock behaviour changes the digest".
"""

import pytest

from repro.experiments.config import RunConfig
from repro.experiments.runner import resolve_experiments, run_experiment
from repro.obs import (
    Observability,
    TraceRecorder,
    default_checkers,
    run_checkers,
)

SCALE = 0.02


def traced_run(figure: str, seed: int) -> Observability:
    obs = Observability(trace=TraceRecorder(), checkers=default_checkers())
    run_experiment(figure, scale=SCALE, seed=seed, obs=obs)
    return obs


@pytest.fixture(scope="module")
def fig8_runs():
    """fig8 traced three times: seed 5 twice, seed 6 once."""
    return (traced_run("fig8", 5), traced_run("fig8", 5),
            traced_run("fig8", 6))


class TestExperimentDeterminism:
    def test_fig8_prefix_resolves_to_both_panels(self):
        assert resolve_experiments("fig8") == ["fig8a", "fig8b"]

    def test_same_seed_identical_digest(self, fig8_runs):
        a, b, _ = fig8_runs
        assert a.digest() == b.digest()
        assert len(a.trace) == len(b.trace)

    def test_different_seed_different_digest(self, fig8_runs):
        a, _, c = fig8_runs
        assert a.digest() != c.digest()

    def test_live_checkers_saw_a_real_run(self, fig8_runs):
        # The live checkers passed (traced_run would have raised); make
        # sure they actually had material to chew on.
        a, _, _ = fig8_runs
        kinds = {e.kind for e in a.trace}
        assert "session.start" in kinds
        assert "buffer.enqueue" in kinds
        assert "buffer.dequeue" in kinds
        assert "playback.arrival" in kinds

    def test_offline_replay_passes_too(self, fig8_runs):
        # The pytest-fixture mode: replay the recorded trace through
        # fresh checkers, as a post-mortem on a saved JSONL would.
        a, _, _ = fig8_runs
        run_checkers(a.trace)

    def test_metrics_snapshot_reproducible(self, fig8_runs):
        a, b, _ = fig8_runs
        assert a.metrics.snapshot() == b.metrics.snapshot()

    def test_core_counters_populated(self, fig8_runs):
        a, _, _ = fig8_runs
        snap = a.metrics.snapshot()
        assert snap["sender.segments_enqueued"]["value"] > 0
        assert snap["server.segments_sent"]["value"] > 0
        assert snap["playback.response_latency_s"]["count"] > 0


class TestParallelExecutionDeterminism:
    """jobs=4 must be indistinguishable from jobs=1 — series, trace
    digest and merged metrics alike (PR acceptance criterion)."""

    @pytest.fixture(scope="class")
    def parity_runs(self):
        def run(jobs):
            obs = Observability(trace=TraceRecorder(),
                                checkers=default_checkers())
            series = run_experiment("fig8", scale=SCALE, seed=5, obs=obs,
                                    config=RunConfig(jobs=jobs))
            return series, obs

        return run(1), run(4)

    def test_series_byte_identical(self, parity_runs):
        (serial, _), (parallel, _) = parity_runs
        assert ([s.to_dict() for s in serial]
                == [s.to_dict() for s in parallel])

    def test_trace_digest_identical(self, parity_runs):
        (_, obs1), (_, obs4) = parity_runs
        assert obs1.digest() == obs4.digest()
        assert len(obs1.trace) == len(obs4.trace) > 0

    def test_metrics_snapshot_identical(self, parity_runs):
        (_, obs1), (_, obs4) = parity_runs
        assert obs1.metrics.snapshot() == obs4.metrics.snapshot()


class TestChaosParallelDeterminism:
    """The chaos figure (seeded fault injection + failover) must keep
    the jobs=1/jobs=4 parity guarantee: faults fire, players migrate,
    and the merged result is still byte-identical."""

    @pytest.fixture(scope="class")
    def chaos_parity_runs(self):
        def run(jobs):
            obs = Observability(trace=TraceRecorder(),
                                checkers=default_checkers())
            series = run_experiment("chaos", scale=SCALE, seed=5,
                                    obs=obs, config=RunConfig(jobs=jobs))
            return series, obs

        return run(1), run(4)

    def test_series_byte_identical(self, chaos_parity_runs):
        (serial, _), (parallel, _) = chaos_parity_runs
        assert ([s.to_dict() for s in serial]
                == [s.to_dict() for s in parallel])

    def test_trace_digest_identical(self, chaos_parity_runs):
        (_, obs1), (_, obs4) = chaos_parity_runs
        assert obs1.digest() == obs4.digest()
        assert len(obs1.trace) == len(obs4.trace) > 0

    def test_metrics_snapshot_identical(self, chaos_parity_runs):
        (_, obs1), (_, obs4) = chaos_parity_runs
        assert obs1.metrics.snapshot() == obs4.metrics.snapshot()

    def test_faults_actually_fired(self, chaos_parity_runs):
        (_, obs1), _ = chaos_parity_runs
        kinds = {e.kind for e in obs1.trace}
        assert "fault.inject" in kinds
        assert "failover.recover" in kinds


class TestObservabilityIsOptIn:
    def test_unobserved_run_matches_observed_series(self):
        plain = run_experiment("fig8a", scale=SCALE, seed=5)
        obs = Observability(trace=TraceRecorder(),
                            checkers=default_checkers())
        traced = run_experiment("fig8a", scale=SCALE, seed=5, obs=obs)
        # Telemetry must be a pure observer: attaching it cannot change
        # the simulated results.
        assert [s.to_dict() for s in plain] == [s.to_dict() for s in traced]
