"""Supernode cooperation (extension: the paper's §V future work).

"In our future work, we will study the cooperation among supernodes in
rendering and transmiting game videos to further reduce response
latency." This experiment implements the natural first design: supernodes
in one neighbourhood monitor their uplink demand, and an overloaded
supernode *offloads* players to an under-loaded neighbour (which also
holds the virtual world via the cloud's update fan-out, so it can render
for any player). Offloaded players pay a small extra downstream latency —
the cooperating supernode is a few km farther — in exchange for escaping
the hot node's queue.

Setup: a skewed initial placement (popular supernodes happen — e.g. the
first one listed by the cloud fills first). Without cooperation the hot
supernode saturates while its neighbours idle; with cooperation the
neighbourhood behaves like one pooled uplink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.player import PlayerEndpoint
from repro.core.supernode import SupernodeServer
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.streaming.encoder import SegmentEncoder
from repro.streaming.video import SEGMENT_DURATION_S
from repro.workload.games import GAMES


@dataclass(frozen=True)
class CooperationConfig:
    """Microcosm parameters for the cooperation experiment."""

    n_supernodes: int = 4
    capacity_slots: int = 5
    duration_s: float = 40.0
    warmup_s: float = 8.0
    #: How often supernodes exchange load reports and rebalance.
    rebalance_interval_s: float = 1.0
    #: Offload when demand exceeds this fraction of the uplink...
    high_watermark: float = 0.9
    #: ...and only onto neighbours below this fraction.
    low_watermark: float = 0.7
    #: Extra one-way downstream latency after offloading (the
    #: cooperating supernode is farther from the player).
    offload_extra_latency_s: float = 0.004
    server_receive_mean_s: float = 0.045
    downstream_median_s: float = 0.006
    downstream_sigma: float = 0.5
    render_delay_s: float = 0.005


@dataclass
class _Placement:
    endpoint: PlayerEndpoint
    encoder: SegmentEncoder
    server: SupernodeServer
    downstream_s: float
    l_r: float


def simulate_cooperation(
    n_players: int,
    hot_fraction: float,
    use_cooperation: bool,
    seed: int = 0,
    config: CooperationConfig | None = None,
) -> dict[str, float]:
    """Run the cooperation microcosm.

    Parameters
    ----------
    n_players:
        Total players in the neighbourhood.
    hot_fraction:
        Fraction initially assigned to the first ("hot") supernode;
        the rest spread evenly over the neighbours.
    use_cooperation:
        Enable the load-report/offload protocol.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must lie in [0, 1]")
    cfg = config or CooperationConfig()
    rngs = RngRegistry(seed)
    rng = rngs.stream("cooperation")
    env = Environment()

    supernodes = [
        SupernodeServer(env, host_id=i, capacity_slots=cfg.capacity_slots,
                        render_delay_s=cfg.render_delay_s)
        for i in range(cfg.n_supernodes)
    ]
    placements: dict[int, _Placement] = {}
    stats = {"offloads": 0}

    n_hot = int(round(hot_fraction * n_players))
    assignment = [0] * n_hot
    others = list(range(1, cfg.n_supernodes)) or [0]
    for k in range(n_players - n_hot):
        assignment.append(others[k % len(others)])

    for pid in range(n_players):
        sn = supernodes[assignment[pid]]
        game = GAMES[int(rng.integers(len(GAMES)))]
        downstream = float(rng.lognormal(
            np.log(cfg.downstream_median_s), cfg.downstream_sigma))
        l_r = float(max(0.005, rng.normal(
            cfg.server_receive_mean_s, cfg.server_receive_mean_s * 0.2)))
        encoder = SegmentEncoder(pid, game.latency_req_s,
                                 game.loss_tolerance)
        endpoint = PlayerEndpoint(
            env, pid, game, sn, feedback_delay_s=downstream,
            use_adaptation=False, stats_after_s=cfg.warmup_s)
        sn.attach_player(pid, encoder, endpoint.deliver, downstream)
        placements[pid] = _Placement(endpoint, encoder, sn, downstream, l_r)
        env.process(_segment_loop(env, cfg, placements, pid))

    def demand_bps(sn: SupernodeServer) -> float:
        return sum(enc.bitrate_bps for enc in sn.encoders.values())

    def rebalance_proc():
        while env.now < cfg.duration_s:
            yield env.timeout(cfg.rebalance_interval_s)
            for sn in supernodes:
                while demand_bps(sn) > cfg.high_watermark * sn.uplink_rate_bps:
                    # Coolest neighbour with headroom takes one player.
                    neighbours = sorted(
                        (n for n in supernodes if n is not sn),
                        key=lambda n: demand_bps(n) / n.uplink_rate_bps)
                    if not neighbours:
                        break
                    target = neighbours[0]
                    headroom = (cfg.low_watermark * target.uplink_rate_bps
                                - demand_bps(target))
                    movable = [p for p, pl in placements.items()
                               if pl.server is sn
                               and pl.encoder.bitrate_bps <= headroom]
                    if not movable:
                        break
                    pid = movable[0]
                    pl = placements[pid]
                    sn.detach_player(pid)
                    new_down = pl.downstream_s + cfg.offload_extra_latency_s
                    pl.server = target
                    pl.downstream_s = new_down
                    pl.endpoint.server = target
                    target.attach_player(pid, pl.encoder,
                                         pl.endpoint.deliver, new_down)
                    stats["offloads"] += 1

    if use_cooperation:
        env.process(rebalance_proc())
    env.run(until=cfg.duration_s + 2.0)

    endpoints = [p.endpoint for p in placements.values()]
    return {
        "continuity": float(np.mean(
            [e.stats.continuity for e in endpoints])),
        "satisfied": float(np.mean(
            [e.is_satisfied() for e in endpoints])),
        "latency_s": float(np.mean(
            [e.stats.mean_latency_s for e in endpoints
             if e.stats.latency_count > 0] or [0.0])),
        "offloads": float(stats["offloads"]),
    }


def _segment_loop(env, cfg, placements, player_id):
    rng = np.random.default_rng(player_id + 101)
    yield env.timeout(float(rng.uniform(0, SEGMENT_DURATION_S)))
    while env.now < cfg.duration_s:
        pl = placements[player_id]
        action_time = env.now

        def start_render(_ev, action_time=action_time):
            current = placements[player_id].server
            if player_id in current.encoders:
                current.render_and_send(player_id, action_time)

        ev = env.timeout(pl.l_r)
        ev.callbacks.append(start_render)
        yield env.timeout(SEGMENT_DURATION_S)
