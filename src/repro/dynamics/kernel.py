"""Population dynamics on the cohort tick kernel (DESIGN.md §14).

:class:`DynamicsKernel` extends :class:`~repro.core.cohort.CohortKernel`
with membership: a compiled :class:`~repro.dynamics.plan.DynamicsPlan`
turns into per-tick joins (pool pops), leaves (counter-hash draws
against the compiled hazard), inter-region mobility (live migration
through a :class:`~repro.faults.failover.FailoverController`) and an
overload-graceful degradation ladder sharing
:class:`~repro.core.overload.OverloadParams` with the supernode session
layer.

Determinism contract (same as the base kernel, extended):

* every membership edit is a **tick input**, applied before any
  advance of that tick, identically in both execution modes;
* who leaves, who is shed and who moves are **counter-hash** draws —
  pure functions of ``(player_id, tick, salt)`` — never functions of
  the divergence mask (which is the one thing the modes disagree on);
* join counts and mobility batch sizes are **compile-time Poisson
  realisations** from the plan's own seeded stream;
* a migration runs on the kernel's one simulation
  :class:`~repro.sim.engine.Environment`, which is run up to each tick
  boundary before that tick's inputs, so its per-player side effects
  land between the same two advances in both modes.

Hence cohort ≡ per-player under any plan, and the empty plan (with
``initial_fraction=1.0``) is byte-identical to the static baseline:
no pools are touched, no draws are made, no events are added.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.cohort import (
    CohortKernel,
    ScaleReport,
    ScaleSpec,
    run_scale,
)
from repro.core.overload import OVERLOAD_BUCKETS, OverloadParams
from repro.dynamics.plan import CompiledDynamics, DynamicsPlan, compile_plan
from repro.faults.failover import FailoverController, FailoverParams
from repro.network.latency import LatencyParams
from repro.sim.engine import Environment
from repro.sim.rng import counter_u01

#: Pluggable overload strategies: graceful degradation vs legacy
#: fall-over (admit everything, shed nothing — congestion does the
#: punishing).
DYNAMICS_STRATEGIES = ("graceful", "none")


@dataclass(frozen=True)
class DynamicsSpec:
    """Configuration of one population-dynamics run."""

    base: ScaleSpec = field(default_factory=ScaleSpec)
    plan: DynamicsPlan = field(default_factory=DynamicsPlan)
    #: Fraction of the population online at tick 0 (counter-hash
    #: selected). 1.0 starts everyone, exactly like the static kernel.
    initial_fraction: float = 1.0
    strategy: str = "graceful"
    overload: OverloadParams = field(default_factory=OverloadParams)

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ValueError("initial fraction must lie in (0, 1]")
        if self.strategy not in DYNAMICS_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"expected one of {DYNAMICS_STRATEGIES}")


@dataclass
class DynamicsReport:
    """A :class:`ScaleReport` plus the membership/overload story."""

    scale: ScaleReport
    plan_sources: int
    strategy: str
    initial_active: int
    final_active: int
    joins: int
    leaves: int
    refused: int
    shed: int
    evicted: int
    pool_exhausted: int
    moves: int
    migration_mean_s: float | None
    migration_max_s: float | None
    overload_episodes: int
    overload_mean_recovery_s: float | None
    satisfied_active_fraction: float
    invariants: list[str]

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["scale"] = self.scale.to_dict()
        return d

    def format_text(self) -> str:
        lines = [self.scale.format_text()]
        lines.append(
            f"  dynamics  [{self.plan_sources} sources · "
            f"strategy={self.strategy}]  "
            f"{self.initial_active:,} -> {self.final_active:,} active")
        lines.append(
            f"  membership: {self.joins:,} joins · {self.leaves:,} leaves "
            f"· {self.refused:,} refused · {self.shed:,} shed · "
            f"{self.evicted:,} evicted")
        mig = ("-" if self.migration_mean_s is None
               else f"mean {1e3 * self.migration_mean_s:.1f} ms / "
                    f"max {1e3 * self.migration_max_s:.1f} ms")
        lines.append(f"  mobility:   {self.moves:,} migrations ({mig})")
        rec = ("-" if self.overload_mean_recovery_s is None
               else f"mean recovery {self.overload_mean_recovery_s:.2f} s")
        lines.append(
            f"  overload:   {self.overload_episodes} episodes ({rec}) · "
            f"satisfied (participants) "
            f"{100.0 * self.satisfied_active_fraction:.1f}%")
        lines.append("  invariants:  "
                     + ("passed" if not self.invariants
                        else "; ".join(self.invariants)))
        return "\n".join(lines)


class DynamicsKernel(CohortKernel):
    """Cohort kernel with seed-deterministic population dynamics."""

    def __init__(self, dspec: DynamicsSpec,
                 latency_params: LatencyParams | None = None,
                 obs=None):
        super().__init__(dspec.base, latency_params)
        self.dspec = dspec
        self._obs = obs
        base = dspec.base
        self.compiled: CompiledDynamics = compile_plan(
            dspec.plan, base.n_ticks, self.params.tick_s, base.n_regions)
        # Salt numbering continues the base kernel's 2s+1..2s+3.
        seed = base.seed
        self._salt_member = 2 * seed + 4
        self._salt_leave = 2 * seed + 5
        self._salt_shed = 2 * seed + 6
        self._salt_evict = 2 * seed + 7
        self._salt_move = 2 * seed + 8

        c = self.cohort
        # counter_u01 lands in [0, 1), so fraction 1.0 keeps everyone —
        # exactly, not probabilistically.
        c.active[:] = counter_u01(
            c.player_id, 0, self._salt_member) < dspec.initial_fraction
        self.initial_active = int(np.count_nonzero(c.active))
        #: Per-region FIFO pools of offline players (ascending ids).
        self._pools: list[deque] = [
            deque(int(p) for p in np.flatnonzero(~c.active & (c.region == r)))
            for r in range(base.n_regions)]

        # Tallies (python ints/lists: never hashed, mode-independent).
        self.joins = 0
        self.leaves = 0
        self.refused = 0
        self.shed = 0
        self.evicted = 0
        self.pool_exhausted = 0
        self.moves_done = 0
        self.shed_events: list[tuple[int, int]] = []
        self.overload_episode_s: list[float] = []
        self._over_prev = np.zeros(base.n_regions, dtype=bool)
        self._episode_start = np.zeros(base.n_regions, dtype=np.int64)
        self._inst: dict | None = None

        # Live migration runs through the standard failover path with
        # timings scaled to land strictly inside a tick (detection at
        # 0.22·tick, switch 0.14·tick later) so no controller event ever
        # collides with a tick boundary.
        tick_s = self.params.tick_s
        self.env = Environment()
        self._move_target: dict[int, int] = {}
        self.mobility = FailoverController(
            self.env,
            FailoverParams(detection_timeout_s=0.22 * tick_s,
                           base_backoff_s=0.1 * tick_s,
                           max_retries=0,
                           switch_delay_s=0.14 * tick_s),
            is_up=lambda host: False,
            reattach=lambda pid, host: False,
            migrate=self._migrate_player,
            obs=obs,
            component="dynamics.mobility")

    # -- lazy overload instruments ------------------------------------------
    def _instruments(self) -> dict | None:
        if self._obs is None:
            return None
        if self._inst is None:
            m = self._obs.metrics
            self._inst = {
                "refused": m.counter("overload.refused"),
                "shed": m.counter("overload.shed"),
                "evicted": m.counter("overload.evicted"),
                "recovery_time": m.histogram(
                    "overload.recovery_time_s", bounds=OVERLOAD_BUCKETS),
            }
        return self._inst

    def _count(self, key: str, n: int = 1) -> None:
        if n <= 0:
            return
        inst = self._instruments()
        if inst is not None:
            inst[key].inc(n)

    # -- tick inputs ---------------------------------------------------------
    def _tick_inputs(self, tick: int) -> np.ndarray:
        # Mid-tick migrations of the previous tick land first; the
        # clock then sits on this tick's boundary.
        if tick:
            self.env.run(until=self.env.now + self.params.tick_s)
        self._hash_tick(tick)
        self._apply_fault_transitions(tick)
        # Previous tick's utilisation, captured before the congestion
        # update zeroes the load counters.
        util = self.cohort.tick_load / self._capacity
        self._update_congestion()
        self._apply_overload(tick, util)
        self._apply_membership(tick, util)
        return self._apply_mobility(tick)

    def _finish(self) -> int:
        self.env.run()
        return self.env._seq

    # -- overload ladder -----------------------------------------------------
    def _apply_overload(self, tick: int, util: np.ndarray) -> None:
        ov = self.dspec.overload
        # Episode tracking is observability, not strategy: both
        # strategies report how long regions stayed over the watermark.
        over = util > ov.admit_watermark
        started = over & ~self._over_prev
        ended = ~over & self._over_prev
        self._episode_start[started] = tick
        for r in np.flatnonzero(ended):
            dur = float(tick - self._episode_start[r]) * self.params.tick_s
            self.overload_episode_s.append(dur)
            inst = self._instruments()
            if inst is not None:
                inst["recovery_time"].observe(dur)
        self._over_prev = over
        if self.dspec.strategy != "graceful":
            return
        c = self.cohort
        shed_regions = np.flatnonzero(util > ov.shed_watermark)
        if shed_regions.size:
            u = counter_u01(c.player_id, tick, self._salt_shed)
            for r in shed_regions:
                m = (c.active & (c.served_by == r) & (c.tier > 0)
                     & (u < ov.shed_fraction))
                ids = np.flatnonzero(m)
                if ids.size:
                    c.tier[ids] -= 1
                    c.last_switch[ids] = tick
                    c.switches[ids] += 1
                    self.shed += int(ids.size)
                    self._count("shed", int(ids.size))
                    self.shed_events.extend(
                        (tick, int(p)) for p in ids)
        evict_regions = np.flatnonzero(util > ov.evict_watermark)
        if evict_regions.size:
            u = counter_u01(c.player_id, tick, self._salt_evict)
            for r in evict_regions:
                m = (c.active & (c.served_by == r) & (c.tier == 0)
                     & (u < ov.shed_fraction))
                ids = np.flatnonzero(m)
                for pid in ids:
                    self._deactivate(int(pid))
                self.evicted += int(ids.size)
                self._count("evicted", int(ids.size))

    # -- membership ----------------------------------------------------------
    def _deactivate(self, pid: int) -> None:
        c = self.cohort
        c.active[pid] = False
        self._pools[int(c.region[pid])].append(pid)

    def _pop_join(self, region: int) -> int | None:
        """Pop one offline player for a join targeted at ``region``,
        falling back to other regions' pools (ascending) and re-homing
        the player when the target pool is dry."""
        pool = self._pools[region]
        if pool:
            return pool.popleft()
        for r in range(len(self._pools)):
            if self._pools[r]:
                pid = self._pools[r].popleft()
                self.cohort.region[pid] = region
                return pid
        return None

    def _join_player(self, pid: int, region: int, tick: int) -> None:
        c = self.cohort
        p = self.params
        c.active[pid] = True
        c.served_by[pid] = int(c.failover_to[region])
        c.buffer_s[pid] = p.init_buffer_s
        c.tier[pid] = p.n_tiers - 1
        c.last_switch[pid] = tick
        self.joins += 1
        if not self._cohort_mode and not self.materialised[pid]:
            # Per-player mode marks every joiner, even one that leaves
            # again within this tick.
            self.materialised[pid] = True
            self.materialisations += 1

    def _apply_membership(self, tick: int, util: np.ndarray) -> None:
        comp = self.compiled
        if comp.is_empty:
            return
        c = self.cohort
        graceful = self.dspec.strategy == "graceful"
        admit_wm = self.dspec.overload.admit_watermark
        # Joins first (pools as of the previous tick), so a same-tick
        # leave can never be popped straight back in.
        for r in np.flatnonzero(comp.region_joins[tick]):
            want = int(comp.region_joins[tick, r])
            if graceful and util[r] > admit_wm:
                # Refused to direct-cloud fallback: these sessions are
                # served outside the fog and never enter the cohort.
                self.refused += want
                self._count("refused", want)
                continue
            for _ in range(want):
                pid = self._pop_join(int(r))
                if pid is None:
                    self.pool_exhausted += 1
                    continue
                self._join_player(pid, int(r), tick)
        want_home = int(comp.home_joins[tick])
        for i in range(want_home):
            # Spread home joins over the deepest pools (deterministic
            # tie-break: lowest region index).
            sizes = [len(p) for p in self._pools]
            r = int(np.argmax(sizes))
            if sizes[r] == 0:
                self.pool_exhausted += want_home - i
                break
            if graceful and util[r] > admit_wm:
                self.refused += 1
                self._count("refused")
                continue
            self._join_player(self._pools[r].popleft(), r, tick)
        # Then leaves: counter-hash draw against the compiled hazard.
        lp = comp.leave_prob[tick]
        if lp.any():
            u = counter_u01(c.player_id, tick, self._salt_leave)
            mask = c.active & (u < lp[c.region])
            ids = np.flatnonzero(mask)
            for pid in ids:
                self._deactivate(int(pid))
            self.leaves += int(ids.size)

    # -- mobility ------------------------------------------------------------
    def _apply_mobility(self, tick: int) -> np.ndarray:
        """Start this tick's migrations; return the movers, which enter
        the divergence mask like a diverging player."""
        c = self.cohort
        movers = []
        for from_r, to_r, count in self.compiled.moves.get(tick, ()):
            cand = np.flatnonzero(c.active & (c.region == from_r))
            if self._move_target:
                cand = cand[~np.isin(cand, list(self._move_target))]
            if cand.size == 0:
                continue
            u = counter_u01(c.player_id[cand], tick, self._salt_move)
            take = cand[np.argsort(u, kind="stable")[:count]]
            for pid in take:
                pid = int(pid)
                self._move_target[pid] = int(to_r)
                self.mobility.on_server_down(
                    pid, int(c.served_by[pid]), self.env.now)
                movers.append(pid)
        return np.array(movers, dtype=np.int64)

    def _migrate_player(self, pid: int) -> str | None:
        to_r = self._move_target.pop(pid, None)
        if to_r is None:  # pragma: no cover - defensive
            return None
        c = self.cohort
        c.region[pid] = to_r
        c.served_by[pid] = int(c.failover_to[to_r])
        c.migrations[pid] += 1
        self.moves_done += 1
        return "supernode"

    # -- run -----------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Membership-conservation and state-sanity checks (run after
        :meth:`run`); an empty list means every invariant held."""
        c = self.cohort
        out = []
        active_now = int(np.count_nonzero(c.active))
        expected = self.initial_active + self.joins - self.leaves \
            - self.evicted
        if active_now != expected:
            out.append(
                f"membership not conserved: {active_now} active, expected "
                f"{self.initial_active} + {self.joins} - {self.leaves} - "
                f"{self.evicted} = {expected}")
        pooled = sum(len(p) for p in self._pools)
        if pooled + active_now != self.spec.n_players:
            out.append(
                f"population leak: {pooled} pooled + {active_now} active "
                f"!= {self.spec.n_players}")
        if np.any(self.materialised & ~c.active):
            out.append("inactive player still materialised")
        if np.any((c.served_by < 0) | (c.served_by >= self.spec.n_regions)):
            out.append("served_by out of range")
        if np.any((c.tier < 0) | (c.tier >= self.params.n_tiers)):
            out.append("tier out of range")
        if self._move_target:
            out.append(f"{len(self._move_target)} migrations never landed")
        return out

    def run_dynamics(self) -> DynamicsReport:
        scale = self.run()
        # Close overload episodes still open at the horizon.
        for r in np.flatnonzero(self._over_prev):
            dur = float(self.spec.n_ticks
                        - self._episode_start[r]) * self.params.tick_s
            self.overload_episode_s.append(dur)
            inst = self._instruments()
            if inst is not None:
                inst["recovery_time"].observe(dur)
        self._over_prev[:] = False
        c = self.cohort
        participants = c.frames > 0
        n_part = int(np.count_nonzero(participants))
        ok = participants & (
            c.on_time_frames
            >= (1.0 - self.params.loss_tolerance) * c.frames)
        rec = self.mobility.recovery_times_s

        def _mean(vals):
            return float(sum(vals) / len(vals)) if vals else None

        return DynamicsReport(
            scale=scale,
            plan_sources=len(self.dspec.plan),
            strategy=self.dspec.strategy,
            initial_active=self.initial_active,
            final_active=int(np.count_nonzero(c.active)),
            joins=self.joins, leaves=self.leaves, refused=self.refused,
            shed=self.shed, evicted=self.evicted,
            pool_exhausted=self.pool_exhausted,
            moves=self.moves_done,
            migration_mean_s=_mean(rec),
            migration_max_s=(max(rec) if rec else None),
            overload_episodes=len(self.overload_episode_s),
            overload_mean_recovery_s=_mean(self.overload_episode_s),
            satisfied_active_fraction=(
                float(np.count_nonzero(ok) / n_part) if n_part else 0.0),
            invariants=self.check_invariants())


def run_dynamics(dspec: DynamicsSpec,
                 latency_params: LatencyParams | None = None,
                 obs=None) -> DynamicsReport:
    """Build and run one population-dynamics simulation."""
    return DynamicsKernel(dspec, latency_params, obs).run_dynamics()


__all__ = [
    "DYNAMICS_STRATEGIES",
    "DynamicsKernel",
    "DynamicsReport",
    "DynamicsSpec",
    "run_dynamics",
    "run_scale",
]
