"""Supernode churn and backup failover (extension experiment).

The paper requires supernodes to be *stable* and to "notify the central
server of game service providers before leaving the system" (§III-A-1),
and has each player record backup supernodes at assignment time
(§III-A-3). This experiment exercises that machinery: supernodes depart
at a configurable rate (with notice), their players fail over — to their
recorded backup supernode when the strategy is on, or all the way back to
the cloud when it is off — and QoE is measured against the churn rate.

The expected result (and the reason the paper records backups): with
backups, a departure costs one switch gap; without, the affected players
inherit the full cloud path for the rest of the session.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.player import PlayerEndpoint
from repro.core.server import StreamingServer
from repro.core.supernode import SupernodeServer
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.streaming.encoder import SegmentEncoder
from repro.streaming.video import SEGMENT_DURATION_S
from repro.workload.games import GAMES


@dataclass(frozen=True)
class ChurnConfig:
    """Microcosm parameters for the churn experiment."""

    #: Number of supernodes in the neighbourhood (primary + backups).
    n_supernodes: int = 6
    #: Players per supernode at the start.
    players_per_supernode: int = 4
    #: C_j per supernode.
    capacity_slots: int = 8
    #: Simulated session length and warmup.
    duration_s: float = 60.0
    warmup_s: float = 5.0
    #: Notice a departing supernode gives before going dark (§III-A-1).
    notice_s: float = 1.0
    #: Time for a player to switch to its new serving site.
    switch_delay_s: float = 0.3
    #: l_r via the cloud for fog-served players.
    server_receive_mean_s: float = 0.045
    #: Same-metro downstream one-way latency (median, log-sigma).
    downstream_median_s: float = 0.006
    downstream_sigma: float = 0.5
    #: Cloud-path downstream latency and throughput for fallback players.
    cloud_one_way_s: float = 0.045
    cloud_path_rate_bps: float = 4e6
    render_delay_s: float = 0.005


@dataclass
class _PlayerState:
    endpoint: PlayerEndpoint
    encoder: SegmentEncoder
    server: StreamingServer
    downstream_s: float
    l_r: float


def simulate_churn(
    departures_per_minute: float,
    use_backups: bool = True,
    seed: int = 0,
    config: ChurnConfig | None = None,
) -> dict[str, float]:
    """Run the churn microcosm; returns QoE aggregates.

    Supernodes depart with exponential gaps at ``departures_per_minute``.
    Returns a dict with ``continuity``, ``satisfied``, ``departures``
    (count actually executed) and ``failovers_to_cloud``.
    """
    if departures_per_minute < 0:
        raise ValueError("departure rate must be nonnegative")
    cfg = config or ChurnConfig()
    rngs = RngRegistry(seed)
    rng = rngs.stream("churn")
    env = Environment()

    supernodes = [
        SupernodeServer(env, host_id=i, capacity_slots=cfg.capacity_slots,
                        render_delay_s=cfg.render_delay_s)
        for i in range(cfg.n_supernodes)
    ]
    alive = {sn.host_id: sn for sn in supernodes}
    cloud = StreamingServer(
        env, host_id=10_000, uplink_rate_bps=200e6,
        render_delay_s=cfg.render_delay_s)
    stats = {"departures": 0, "failovers_to_cloud": 0}

    players: dict[int, _PlayerState] = {}
    pid = 0
    for sn in supernodes:
        for _ in range(cfg.players_per_supernode):
            game = GAMES[int(rng.integers(len(GAMES)))]
            downstream = float(rng.lognormal(
                np.log(cfg.downstream_median_s), cfg.downstream_sigma))
            l_r = float(max(0.005, rng.normal(
                cfg.server_receive_mean_s, cfg.server_receive_mean_s * 0.2)))
            encoder = SegmentEncoder(
                pid, game.latency_req_s, game.loss_tolerance)
            endpoint = PlayerEndpoint(
                env, pid, game, sn, feedback_delay_s=downstream,
                use_adaptation=False, stats_after_s=cfg.warmup_s)
            sn.attach_player(pid, encoder, endpoint.deliver, downstream)
            players[pid] = _PlayerState(endpoint, encoder, sn, downstream,
                                        l_r)
            env.process(_segment_loop(env, cfg, players, pid))
            pid += 1

    def relocate(player_id: int) -> None:
        state = players[player_id]
        target: StreamingServer
        if use_backups:
            candidates = [sn for sn in alive.values()
                          if sn.n_players < sn.capacity_slots]
            target = candidates[0] if candidates else cloud
        else:
            target = cloud
        if target is cloud:
            stats["failovers_to_cloud"] += 1
            downstream = cfg.cloud_one_way_s
            path_rate = cfg.cloud_path_rate_bps
        else:
            downstream = state.downstream_s
            path_rate = float("inf")
        state.server = target
        state.endpoint.server = target
        target.attach_player(player_id, state.encoder,
                             state.endpoint.deliver, downstream, path_rate)

    def churn_proc():
        if departures_per_minute == 0:
            return
            yield  # pragma: no cover
        while env.now < cfg.duration_s:
            gap = rng.exponential(60.0 / departures_per_minute)
            yield env.timeout(gap)
            if env.now >= cfg.duration_s or len(alive) <= 1:
                continue
            victim_id = int(rng.choice(sorted(alive)))
            victim = alive.pop(victim_id)
            stats["departures"] += 1
            # Notice period: the supernode keeps serving while its
            # players are migrated.
            yield env.timeout(cfg.notice_s)
            moved = [p for p, s in players.items() if s.server is victim]
            for p in moved:
                victim.detach_player(p)

            def do_moves(_ev, moved=tuple(moved)):
                for p in moved:
                    relocate(p)

            ev = env.timeout(cfg.switch_delay_s)
            ev.callbacks.append(do_moves)

    env.process(churn_proc())
    env.run(until=cfg.duration_s + 2.0)

    endpoints = [s.endpoint for s in players.values()]
    return {
        "continuity": float(np.mean(
            [e.stats.continuity for e in endpoints])),
        "satisfied": float(np.mean(
            [e.is_satisfied() for e in endpoints])),
        "departures": float(stats["departures"]),
        "failovers_to_cloud": float(stats["failovers_to_cloud"]),
    }


def _segment_loop(env, cfg, players, player_id):
    """Generate segments toward whatever server currently holds the
    player (the indirection that makes failover possible)."""
    rng = np.random.default_rng(player_id + 1)
    yield env.timeout(float(rng.uniform(0, SEGMENT_DURATION_S)))
    while env.now < cfg.duration_s:
        state = players[player_id]
        action_time = env.now

        def start_render(_ev, action_time=action_time):
            st = players[player_id]
            current = st.server
            if player_id in current.encoders:
                current.render_and_send(player_id, action_time)
            else:
                # Mid-switch: nobody can render this action's video.
                seg = st.encoder.encode_segment(
                    action_time, env.now, state_ready_s=env.now)
                seg.drop_all()
                st.endpoint.deliver(seg, env.now)

        ev = env.timeout(state.l_r)
        ev.callbacks.append(start_render)
        yield env.timeout(SEGMENT_DURATION_S)
