"""Kernel-level determinism: probed runs fingerprint identically.

The DES kernel's event ordering is the root of every reproducibility
claim downstream; these tests pin it with the kernel probes' trace
digest before any CloudFog component gets involved.
"""

from repro.core.infrastructure import (
    GamingSession,
    SessionConfig,
    SystemVariant,
)
from repro.experiments.scenarios import peersim_scenario
from repro.obs import (
    Observability,
    TraceRecorder,
    attach_kernel_probes,
    count_kernel_events,
)
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry


def probed_run(seed: int) -> tuple[str, int, int]:
    """A small stochastic workload, fully traced at the kernel level."""
    obs = Observability(trace=TraceRecorder(), trace_kernel=True)
    env = Environment()
    attach_kernel_probes(env, obs)
    rng = RngRegistry(seed).stream("workload")

    def worker(env, rng):
        for _ in range(200):
            yield env.timeout(float(rng.exponential(0.01)))

    env.process(worker(env, rng))
    env.process(worker(env, rng))
    env.run()
    count_kernel_events(env, obs)
    snap = obs.metrics.snapshot()
    return (obs.digest(), snap["sim.events_scheduled"]["value"],
            snap["sim.events_processed"]["value"])


class TestKernelDeterminism:
    def test_same_seed_identical_digest(self):
        assert probed_run(11) == probed_run(11)

    def test_different_seed_different_digest(self):
        d1, _, _ = probed_run(11)
        d2, _, _ = probed_run(12)
        assert d1 != d2

    def test_probes_count_every_event(self):
        _, scheduled, processed = probed_run(11)
        assert scheduled > 0
        # Every scheduled event is processed (nothing left at exit).
        assert processed == scheduled


class TestZeroOverheadContract:
    def test_no_hooks_by_default(self):
        env = Environment()
        assert env.on_schedule == []
        assert env.on_step == []

    def test_unprobed_env_traces_nothing(self):
        obs = Observability(trace=TraceRecorder())
        env = Environment()

        def worker(env):
            yield env.timeout(1.0)

        env.process(worker(env))
        env.run()
        assert len(obs.trace) == 0

    def test_probe_hooks_fire(self):
        obs = Observability(trace=TraceRecorder(), trace_kernel=True)
        env = Environment()
        attach_kernel_probes(env, obs)

        def worker(env):
            yield env.timeout(1.0)

        env.process(worker(env))
        env.run()
        kinds = {e.kind for e in obs.trace}
        assert "sim.schedule" in kinds
        assert "sim.step" in kinds


def session_run(obs: Observability) -> tuple[Environment, int, int]:
    """One short packet-level session under ``obs``."""
    scen = peersim_scenario(scale=0.02, seed=3)
    pop = scen.build()
    session = GamingSession(
        pop, SystemVariant.CLOUDFOG_A, scen.online_sample(pop),
        SessionConfig(duration_s=3.0, warmup_s=1.0),
        edge_server_host_ids=pop.edge_server_host_ids, obs=obs)
    session.run()
    snap = obs.metrics.snapshot()
    return (session.env, snap["sim.events_scheduled"]["value"],
            snap["sim.events_processed"]["value"])


class TestSessionEventCounts:
    def test_untraced_session_counts_without_hooks(self):
        env, scheduled, processed = session_run(Observability())
        # No per-event hooks: the class's own schedule/step run.
        assert "schedule" not in vars(env) and "step" not in vars(env)
        assert env.on_schedule == [] and env.on_step == []

        traced = Observability(trace=TraceRecorder(), trace_kernel=True)
        traced_env, t_scheduled, t_processed = session_run(traced)
        assert "schedule" in vars(traced_env)
        kinds = [e.kind for e in traced.trace]
        assert scheduled == t_scheduled == kinds.count("sim.schedule")
        assert processed == t_processed == kinds.count("sim.step")
        assert 0 < processed <= scheduled
