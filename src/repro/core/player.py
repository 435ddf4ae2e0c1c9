"""Player endpoint: playback, QoE accounting, adaptation feedback.

A :class:`PlayerEndpoint` owns the receive side of one gaming session: the
playback buffer (continuity and satisfaction accounting), the
receiver-driven rate adaptation controller, and the feedback channel back
to the serving server's encoder.

For population-scale runs the per-object endpoint is replaced by
:class:`PlayerCohort` — a structure-of-arrays batch holding the *same*
per-player state (playback position, buffer level, quality tier) for
every player at once, advanced in vectorised ticks. Its scalar mirror
``_advance_one`` advances one player with the same operations in the
same order, which is what makes cohort and per-player execution
byte-identical (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.adaptation import (
    AdaptationParams,
    Adjustment,
    RateAdaptationController,
)
from repro.core.server import StreamingServer
from repro.network.latency import RegionalLatency
from repro.network.packet import VideoSegment
from repro.sim.engine import Environment
from repro.sim.rng import counter_u01, counter_u01_one
from repro.streaming.playback import PlaybackBuffer
from repro.streaming.video import SEGMENT_DURATION_S
from repro.workload.games import Game

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


class PlayerEndpoint:
    """The receive side of one player's session.

    Parameters
    ----------
    env:
        Simulation environment.
    player_id:
        Player identity (also the encoder key at the server).
    game:
        The game being played (latency requirement, tolerances).
    server:
        The serving :class:`StreamingServer`.
    feedback_delay_s:
        One-way latency of the player-to-server feedback path.
    use_adaptation:
        Enable the §III-B receiver-driven rate adaptation.
    adaptation_params:
        Constants for the adaptation controller.
    """

    def __init__(
        self,
        env: Environment,
        player_id: int,
        game: Game,
        server: StreamingServer,
        feedback_delay_s: float,
        use_adaptation: bool = False,
        adaptation_params: AdaptationParams | None = None,
        stats_after_s: float = 0.0,
        obs: "Observability | None" = None,
    ):
        self.env = env
        self.player_id = player_id
        self.game = game
        self.server = server
        self.feedback_delay_s = feedback_delay_s
        #: Warmup horizon: segments for actions before this time drive
        #: adaptation but are excluded from the QoE counters, so the
        #: reported steady state is not polluted by the convergence
        #: transient (the paper's sessions run for hours).
        self.stats_after_s = stats_after_s
        self._obs = obs
        self.component = f"player:{player_id}"
        self.playback = PlaybackBuffer(
            segment_duration_s=SEGMENT_DURATION_S,
            obs=obs, component=self.component)
        self.controller: Optional[RateAdaptationController] = None
        if use_adaptation:
            self.controller = RateAdaptationController(
                game.latency_tolerance, adaptation_params,
                obs=obs, component=self.component)
        #: Pending feedback in flight (debounces duplicate requests).
        self._feedback_pending = False

    # -- delivery path ---------------------------------------------------------
    def deliver(self, segment: VideoSegment, now_s: float) -> None:
        """Receive one segment from the server (the server's callback)."""
        in_window = segment.action_time_s >= self.stats_after_s
        if segment.remaining_packets == 0:
            if in_window:
                self.playback.on_segment_lost(segment, now_s)
            return
        if in_window:
            self.playback.on_segment_arrival(segment, now_s)
        if self.controller is not None:
            r = self.playback.buffered_segments(now_s)
            missed = now_s > segment.deadline_s + 1e-12
            decision = self.controller.observe(
                r, deadline_missed=missed, now_s=now_s)
            if decision is not Adjustment.NONE:
                self._send_feedback(decision)

    def _send_feedback(self, decision: Adjustment) -> None:
        """Ship an encoder adjustment request upstream (one-way delay)."""
        if self._feedback_pending:
            return
        self._feedback_pending = True

        def apply(_ev, decision=decision):
            self._feedback_pending = False
            encoder = self.server.encoders.get(self.player_id)
            if encoder is None:
                return
            if decision is Adjustment.UP:
                encoder.adjust_up()
            else:
                encoder.adjust_down()
            if self._obs is not None:
                self._obs.emit(
                    self.env.now, self.component, "encoder.level",
                    level=encoder.level, direction=(
                        "up" if decision is Adjustment.UP else "down"))
            if self.controller is not None:
                self.controller.reset()

        ev = self.env.timeout(self.feedback_delay_s)
        ev.callbacks.append(apply)

    # -- reporting ---------------------------------------------------------------
    @property
    def stats(self):
        """The playback QoE counters."""
        return self.playback.stats

    def is_satisfied(self) -> bool:
        """Paper §IV: within loss tolerance and ≥95 % of received
        packets inside the latency requirement."""
        return self.playback.stats.is_satisfied(
            loss_tolerance=self.game.loss_tolerance)


# ---------------------------------------------------------------------------
# Cohort execution (population scale)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohortParams:
    """Constants of the cohort tick dynamics (DESIGN.md §11).

    Every per-tick computation built on these sticks to IEEE-exact
    elementwise operations (``+ - * / min max`` and comparisons): no
    transcendentals, no reductions inside the advance kernel, so a
    vectorised batch advance and a one-player advance produce
    bit-identical state.
    """

    #: Simulation tick — one representative frame group per tick.
    tick_s: float = 0.5
    #: Delivered video per on-time tick, as a multiple of ``tick_s``
    #: (>1 so buffers can recover after a loss).
    fill_rate: float = 1.25
    #: Initial playback buffer level.
    init_buffer_s: float = 2.0
    #: Playback buffer cap.
    max_buffer_s: float = 8.0
    #: Buffer level above which an on-time player upgrades its tier.
    up_buffer_s: float = 6.0
    #: Quality tiers ``0 .. n_tiers-1``; everyone starts at the top.
    n_tiers: int = 5
    #: Minimum ticks between two tier switches of one player.
    switch_cooldown_ticks: int = 16
    #: Frame deadline at the top tier.
    frame_deadline_s: float = 0.1
    #: Deadline slack added per tier below the top (lower bitrate is
    #: easier to deliver — the §III-B adaptation escape valve). At the
    #: bottom tier the deadline exceeds the worst access latency the
    #: scale sampler produces, so every player can stabilise.
    tier_deadline_step_s: float = 0.05
    #: Extra headroom an upgrade must clear below the next tier's
    #: deadline. At the full jitter amplitude (2 × jitter scale) a
    #: player whose base latency rides a deadline boundary can never
    #: up-switch into a tier it will occasionally miss, so nobody
    #: oscillates between tiers on jitter noise — the property that
    #: keeps the divergence mask small and re-absorbable.
    up_margin_s: float = 0.004
    #: Per-player crash probability per tick.
    crash_rate_per_tick: float = 2e-5
    #: Scale of the per-(player, tick) uniform jitter; the draw is
    #: ``2·scale·u`` so its mean matches an exponential of this scale.
    jitter_scale_s: float = 0.002
    #: Added latency per unit of overload at the serving region.
    congestion_gain_s: float = 0.02
    #: Serving capacity per region, relative to its home population.
    capacity_factor: float = 1.25
    #: Latency histogram bin width and bin count (the last bin absorbs
    #: the tail). 512 × 1 ms covers every sane frame latency.
    latency_bin_s: float = 0.001
    n_latency_bins: int = 512
    #: A player in the divergence mask that goes this many ticks without
    #: a new divergence leaves it (cohort mode only). Two cooldown
    #: periods: long enough to see any residual instability, short
    #: enough that a one-off divergence is soon forgotten.
    reabsorb_ticks: int = 32
    #: Loss tolerance for the §IV satisfaction criterion.
    loss_tolerance: float = 0.2

    def __post_init__(self) -> None:
        if self.tick_s <= 0 or self.fill_rate <= 0:
            raise ValueError("tick_s and fill_rate must be positive")
        if self.n_tiers < 1 or self.n_latency_bins < 2:
            raise ValueError("need at least 1 tier and 2 latency bins")
        if not 0.0 <= self.crash_rate_per_tick <= 1.0:
            raise ValueError("crash_rate_per_tick must be a probability")


class PlayerCohort:
    """All players' state as a structure of arrays, advanced in ticks.

    The arrays are the single source of truth for every player.
    :meth:`advance` is the one state-transition kernel: the cohort-mode
    tick loop calls it once per tick over every active player.
    :meth:`_advance_one` is its scalar mirror, which per-player mode
    calls player by player. Both run the same IEEE-exact elementwise
    steps over the same arrays, so the mode never changes a trajectory
    — the equivalence the digest tests pin down.

    Cross-player aggregates (`tick_load`, the latency histogram) are
    int64 accumulators, so contributions commute exactly regardless of
    the order players are advanced in within a tick.
    """

    def __init__(
        self,
        region_of_player: np.ndarray,
        access_s: np.ndarray,
        latency: RegionalLatency,
        params: CohortParams,
        seed: int,
    ):
        region = np.asarray(region_of_player)
        n = region.shape[0]
        if np.asarray(access_s).shape[0] != n:
            raise ValueError("access_s must align with region_of_player")
        self.params = params
        self.latency = latency
        n_regions = latency.n_regions
        self.n_regions = n_regions
        self.n_players = n
        self._salt_jitter = 2 * seed + 1
        self._salt_crash = 2 * seed + 2
        # Derived constants, precomputed once so advance stays lean.
        self._fill_s = params.fill_rate * params.tick_s
        self._inv_bin = 1.0 / params.latency_bin_s
        self._top_tier = params.n_tiers - 1
        # Per-tier deadlines, computed with the scalar mirror's operations.
        self._deadline_s = (
            params.frame_deadline_s + params.tier_deadline_step_s
            * (self._top_tier - np.arange(params.n_tiers)).astype(np.float64))
        self._up_deadline_s = (self._deadline_s - params.tier_deadline_step_s
                               - params.up_margin_s)

        # -- per-player state (player id is the array index) ----------------
        self.player_id = np.arange(n, dtype=np.int64)
        self.region = region.astype(np.int64)
        self.access_s = np.asarray(access_s, dtype=np.float64).copy()
        self.served_by = self.region.copy()
        self.buffer_s = np.full(n, params.init_buffer_s, dtype=np.float64)
        self.position_s = np.zeros(n, dtype=np.float64)
        self.tier = np.full(n, self._top_tier, dtype=np.int64)
        self.last_switch = np.full(
            n, -params.switch_cooldown_ticks, dtype=np.int64)
        #: Population-dynamics membership: inactive players are parked in
        #: the join pool and not advanced. All-true outside
        #: ``repro.dynamics`` (the base kernel never edits it).
        self.active = np.ones(n, dtype=bool)
        self.rebuffer_ticks = np.zeros(n, dtype=np.int64)
        self.crashes = np.zeros(n, dtype=np.int64)
        self.switches = np.zeros(n, dtype=np.int64)
        self.reconnects = np.zeros(n, dtype=np.int64)
        self.migrations = np.zeros(n, dtype=np.int64)
        self.on_time_frames = np.zeros(n, dtype=np.int64)
        self.frames = np.zeros(n, dtype=np.int64)

        # -- tick-level shared inputs (written by the kernel, before any
        # advance at that tick, identically in both modes) -------------------
        self.region_offline = np.zeros(n_regions, dtype=bool)
        self.failover_to = np.arange(n_regions, dtype=np.int64)
        self.congestion_s = np.zeros(n_regions, dtype=np.float64)

        # -- integer aggregates (order-free accumulators) --------------------
        self.tick_load = np.zeros(n_regions, dtype=np.int64)
        self.lat_hist = np.zeros(
            n_regions * params.n_latency_bins, dtype=np.int64)

    # -- the one state-transition kernel ------------------------------------
    def advance(self, idx: np.ndarray, tick: int) -> np.ndarray:
        """Advance the players in ``idx`` through tick ``tick``.

        ``idx`` is sorted and unique (``np.flatnonzero`` of the active
        mask). Returns the divergence mask (crashed or down-switched)
        aligned with ``idx``. Restricted to IEEE-exact elementwise
        operations — see :class:`CohortParams`.

        When every player is active, ``idx`` is exactly ``arange(n)``,
        so the per-player arrays are indexed with a whole slice: reads
        are views and updates land in place, with no fancy-index gather
        or scatter. Because ``served``, ``tier`` and ``last`` may then
        be views of the state, every quantity that reads the old state
        is computed before the write that overwrites it.
        """
        p = self.params
        full = idx.size == self.n_players
        sel = slice(None) if full else idx
        region = self.region[sel]
        served = self.served_by[sel]
        pid = self.player_id[sel]

        # 1) This tick's frame latency: access + propagation + congestion
        #    + uniform jitter from the counter generator.
        lat = self.access_s[sel] + self.latency.gather_s(served, region)
        lat += self.congestion_s.take(served)
        jitter = counter_u01(pid, tick, self._salt_jitter)
        jitter *= 2.0 * p.jitter_scale_s
        lat += jitter

        # 2) Crash draw (independent counter stream).
        crashed = counter_u01(pid, tick, self._salt_crash) \
            < p.crash_rate_per_tick

        # 3) Delivery against the tier-dependent deadline.
        tier = self.tier[sel]
        on_time = lat <= self._deadline_s.take(tier)
        ok = on_time & ~crashed

        # 4) Playback buffer: fill on delivery, drain by playing.
        buf = self.buffer_s[sel]
        buf += np.where(ok, self._fill_s, 0.0)
        playing = buf >= p.tick_s
        consumed = np.where(playing, p.tick_s, 0.0)
        self.position_s[sel] += consumed
        buf -= consumed
        np.minimum(buf, p.max_buffer_s, out=buf)

        # 5) Adaptation: down on a missed deadline, up on a full buffer —
        #    both rate-limited by the cooldown. An upgrade additionally
        #    requires this tick's latency to fit the *next* tier's
        #    tighter deadline, otherwise a player whose latency sits
        #    between two tier deadlines would oscillate up and down
        #    forever (and in cohort mode never re-converge).
        last = self.last_switch[sel]
        can = last <= tick - p.switch_cooldown_ticks
        down = can & ~on_time & (tier > 0)
        up = (can
              & (lat <= self._up_deadline_s.take(tier))
              & (buf > p.up_buffer_s) & (tier < self._top_tier))
        switched = up ^ down  # both at once cancel out
        tier += up
        tier -= down

        # 6) Crash effects: buffer wiped, restart at the bottom tier,
        #    reconnect home (or to the failover target if home is down).
        hit = np.flatnonzero(crashed)
        home = region[hit]
        reconnect_to = np.where(
            self.region_offline[home], self.failover_to[home], home)
        moved = reconnect_to != served[hit]
        buf[hit] = 0.0
        tier[hit] = 0
        last[switched | crashed] = tick

        # 7) Order-free integer aggregates: integer addition commutes
        #    exactly, so these match the scalar mirror's one-by-one adds
        #    (which it makes after its write-back). Here they come first
        #    because ``served`` may be a view the write-back overwrites.
        bins = (lat * self._inv_bin).astype(np.int64)
        np.minimum(bins, p.n_latency_bins - 1, out=bins)
        bins += region * p.n_latency_bins
        self.tick_load += np.bincount(served, minlength=self.n_regions)
        self.lat_hist += np.bincount(bins, minlength=self.lat_hist.shape[0])

        # 8) Write back: a subset's reads are copies, so scatter them.
        if not full:
            self.buffer_s[idx] = buf
            self.tier[idx] = tier
            self.last_switch[idx] = last
        rows = hit if full else idx[hit]
        self.served_by[rows] = reconnect_to
        self.crashes[rows] += 1
        self.reconnects[rows] += moved
        self.rebuffer_ticks[sel] += ~playing
        self.switches[sel] += switched
        self.on_time_frames[sel] += on_time
        self.frames[sel] += 1

        # Divergence = crash or down-switch: the events that push a
        # player *away* from the cohort's homogeneous state. An
        # up-switch is re-convergence toward it, so it neither marks a
        # player nor resets the re-absorption clock.
        return crashed | down

    def _advance_one(self, i: int, tick: int) -> bool:
        """Scalar mirror of :meth:`advance` for one player.

        Every arithmetic step repeats the vector path's operation in the
        vector path's order on Python doubles (IEEE binary64, like
        numpy's float64), so the state written here is bit-identical to
        what the batch would have written for index ``i``. Any edit to
        :meth:`advance` must be mirrored here — the cohort-equivalence
        digest suite fails loudly if the two drift.
        """
        p = self.params
        region = int(self.region[i])
        served = int(self.served_by[i])

        # 1) Frame latency.
        u_jit = counter_u01_one(i, tick, self._salt_jitter)
        lat = (float(self.access_s[i])
               + float(self.latency.propagation_row_s(served)[region])
               + float(self.congestion_s[served])
               + (2.0 * p.jitter_scale_s) * u_jit)

        # 2) Crash draw.
        crashed = counter_u01_one(i, tick, self._salt_crash) \
            < p.crash_rate_per_tick

        # 3) Delivery.
        tier = int(self.tier[i])
        deadline = (p.frame_deadline_s
                    + p.tier_deadline_step_s * float(self._top_tier - tier))
        on_time = lat <= deadline
        ok = on_time and not crashed

        # 4) Buffer.
        buf = float(self.buffer_s[i]) + (self._fill_s if ok else 0.0)
        playing = buf >= p.tick_s
        consumed = p.tick_s if playing else 0.0
        self.position_s[i] = float(self.position_s[i]) + consumed
        buf = min(buf - consumed, p.max_buffer_s)

        # 5) Adaptation.
        can = tick - int(self.last_switch[i]) >= p.switch_cooldown_ticks
        down = can and not on_time and tier > 0
        up = (can
              and lat <= deadline - p.tier_deadline_step_s - p.up_margin_s
              and buf > p.up_buffer_s and tier < self._top_tier)
        new_tier = tier + (1 if up else 0) - (1 if down else 0)
        switched = new_tier != tier

        # 6) Crash effects.
        if crashed:
            reconnect_to = (int(self.failover_to[region])
                            if self.region_offline[region] else region)
            buf = 0.0
            new_tier = 0

        # 7) Write back.
        self.buffer_s[i] = buf
        self.tier[i] = new_tier
        if switched or crashed:
            self.last_switch[i] = tick
        if not playing:
            self.rebuffer_ticks[i] += 1
        if crashed:
            self.served_by[i] = reconnect_to
            self.crashes[i] += 1
            if reconnect_to != served:
                self.reconnects[i] += 1
        if switched:
            self.switches[i] += 1
        if on_time:
            self.on_time_frames[i] += 1
        self.frames[i] += 1

        # 8) Aggregates.
        self.tick_load[served] += 1
        b = int(lat * self._inv_bin)
        if b > p.n_latency_bins - 1:
            b = p.n_latency_bins - 1
        self.lat_hist[region * p.n_latency_bins + b] += 1

        # Same divergence rule as the vector path: crash or down-switch.
        return crashed or down
