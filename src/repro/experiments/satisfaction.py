"""Supernode-load experiments — Figures 10 and 11.

Both figures stress a single supernode with a growing number of supported
players (5–25) and report the fraction of satisfied players:

* Figure 10: CloudFog-adapt vs CloudFog/B — the encoding rate adaptation
  lowers bitrates under congestion so segments keep meeting deadlines
  ("the increase rate reaches 27 % when the number of supported players
  of a supernode is 25");
* Figure 11: CloudFog-schedule vs CloudFog/B — EDF ordering plus
  tolerance-weighted packet dropping keeps tight-deadline segments on
  time when the uplink saturates.

The harness builds the microcosm directly from core classes: one
supernode with a fixed uplink, ``k`` same-metro players with the paper's
workload mix, and the standard segment cadence.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.adaptation import AdaptationParams
from repro.core.player import PlayerEndpoint
from repro.core.scheduling import SchedulingParams
from repro.core.supernode import SupernodeServer
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.streaming.encoder import SegmentEncoder
from repro.streaming.video import SEGMENT_DURATION_S
from repro.workload.games import GAMES


@dataclass(frozen=True)
class SupernodeLoadConfig:
    """Microcosm parameters for the Figure 10/11 sweeps."""

    #: C_j of the stressed supernode (uplink = slots × 1800 kbps).
    #: The sweep pushes to 25 supported players, which only an
    #: above-average supernode would be assigned; 10 slots (18 Mbps)
    #: puts the FIFO baseline's saturation knee inside the sweep range
    #: while leaving the adaptation floor (25 × 300 kbps) feasible.
    capacity_slots: int = 10
    #: Simulated session length.
    duration_s: float = 30.0
    #: Warmup before QoE accounting starts (convergence transient).
    warmup_s: float = 8.0
    #: l_r — action-to-supernode delay (player→cloud→supernode), mean.
    server_receive_mean_s: float = 0.045
    #: Same-metro downstream one-way latency: median and log-sigma.
    downstream_median_s: float = 0.006
    downstream_sigma: float = 0.5
    #: Render delay at the supernode.
    render_delay_s: float = 0.005
    #: Strategy constants.
    adaptation: AdaptationParams = AdaptationParams()
    scheduling: SchedulingParams = SchedulingParams()


def simulate_supernode_load(
    n_players: int,
    use_adaptation: bool,
    use_scheduling: bool,
    seed: int = 0,
    config: SupernodeLoadConfig | None = None,
) -> dict[str, float]:
    """Stress one supernode with ``n_players`` and measure QoE.

    Returns a dict with ``satisfied`` (fraction), ``continuity`` (mean),
    ``latency_s`` (mean response), and ``dropped_packets``.
    """
    if n_players < 1:
        raise ValueError("need at least one player")
    cfg = config or SupernodeLoadConfig()
    rngs = RngRegistry(seed)
    rng = rngs.stream("supernode-load")
    env = Environment()

    server = SupernodeServer(
        env, host_id=0,
        capacity_slots=cfg.capacity_slots,
        render_delay_s=cfg.render_delay_s,
        use_deadline_scheduling=use_scheduling,
        server_receive_delay_s=cfg.server_receive_mean_s,
        scheduling_params=cfg.scheduling,
    )

    endpoints: list[PlayerEndpoint] = []
    for pid in range(n_players):
        game = GAMES[int(rng.integers(len(GAMES)))]
        downstream = float(rng.lognormal(
            np.log(cfg.downstream_median_s), cfg.downstream_sigma))
        l_r = float(max(0.005, rng.normal(
            cfg.server_receive_mean_s, cfg.server_receive_mean_s * 0.2)))
        encoder = SegmentEncoder(pid, game.latency_req_s, game.loss_tolerance)
        endpoint = PlayerEndpoint(
            env, pid, game, server,
            feedback_delay_s=downstream,
            use_adaptation=use_adaptation,
            adaptation_params=cfg.adaptation,
            stats_after_s=cfg.warmup_s,
        )
        # Same-metro paths are short: throughput effectively unbounded.
        server.attach_player(pid, encoder, endpoint.deliver, downstream)
        endpoints.append(endpoint)
        env.process(_player_loop(env, server, pid, l_r, cfg, rng))

    env.run(until=cfg.duration_s + 2.0)

    continuities = [e.stats.continuity for e in endpoints]
    latencies = [e.stats.mean_latency_s for e in endpoints
                 if e.stats.latency_count > 0]
    return {
        "satisfied": float(np.mean([e.is_satisfied() for e in endpoints])),
        "continuity": float(np.mean(continuities)),
        "latency_s": float(np.mean(latencies)) if latencies else 0.0,
        "dropped_packets": float(
            getattr(server.buffer, "packets_dropped", 0)),
    }


def _player_loop(env, server, player_id, l_r, cfg, rng):
    """Generate one segment per cadence tick (phase-shifted)."""
    yield env.timeout(float(rng.uniform(0, SEGMENT_DURATION_S)))
    while env.now < cfg.duration_s:
        action_time = env.now

        def start_render(_ev, action_time=action_time):
            server.render_and_send(player_id, action_time)

        ev = env.timeout(l_r)
        ev.callbacks.append(start_render)
        yield env.timeout(SEGMENT_DURATION_S)


#: (label, use_adaptation, use_scheduling) for the paper's comparisons.
FIG10_STRATEGIES = (("CloudFog/B", False, False),
                    ("CloudFog-adapt", True, False))
FIG11_STRATEGIES = (("CloudFog/B", False, False),
                    ("CloudFog-schedule", False, True))
