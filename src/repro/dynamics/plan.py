"""Declarative, seed-deterministic population-dynamics plans.

The population analogue of the chaos DSL (:mod:`repro.faults.plan`): a
:class:`DynamicsPlan` is an immutable, JSON-roundtrippable description of
*who arrives, leaves and moves, and when* in one simulated run —
Poisson join/leave churn, regional flash crowds, diurnal arrival
modulation, inter-region mobility, and the §IV supernode-departure
scenario. Plans are pure values: building one touches no RNG and no
simulation state, so the same plan plus the same master seed always
produces the same run, byte for byte. The empty plan is the explicit
no-op — arming it leaves a run byte-identical to the static baseline.

Compilation (:func:`compile_plan`) resolves a plan against one kernel
configuration into per-tick Poisson join counts, per-tick/per-region
leave hazards and mobility batches, drawing from the plan's own
``default_rng(seed)`` stream. The compiled form is what both execution
modes consume, which is why cohort and per-player runs see exactly the
same arrivals.

The :class:`DynamicsBuilder` provides the fluent spelling::

    plan = (DynamicsBuilder(seed=7)
            .churn(join_rate_per_s=12.0, mean_session_s=45.0)
            .flash_crowd(at_s=10.0, duration_s=8.0, region=0,
                         arrivals_per_s=200.0)
            .build())

and :func:`preset_dynamics` names the canned scenarios the CLI, the
``dynamics`` experiment spec and the CI smoke job use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

from repro.workload.sessions import (
    DIURNAL_AMPLITUDE,
    DIURNAL_PEAK_HOUR,
    diurnal_multiplier,
)


@dataclass(frozen=True, slots=True)
class ChurnSource:
    """Poisson join/leave churn over a window.

    Joins arrive at ``join_rate_per_s`` (Poisson); while the source is
    active, every online player sessions out with hazard
    ``tick / mean_session_s`` per tick — together a Chord-style
    join-leave churn process in equilibrium around
    ``join_rate × mean_session`` concurrent players. ``region`` pins
    both joins and leaves to one region; ``None`` spreads joins across
    home regions and drains the whole population.
    """

    join_rate_per_s: float
    mean_session_s: float
    start_s: float = 0.0
    duration_s: Optional[float] = None  # None = until the run ends
    region: Optional[int] = None

    kind = "churn"

    def __post_init__(self) -> None:
        if self.join_rate_per_s < 0:
            raise ValueError("join rate must be nonnegative")
        if self.mean_session_s <= 0:
            raise ValueError("mean session must be positive")
        if self.start_s < 0:
            raise ValueError("start time must be nonnegative")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("churn duration must be positive")
        if self.region is not None and self.region < 0:
            raise ValueError("region must be nonnegative")


@dataclass(frozen=True, slots=True)
class FlashCrowd:
    """A launch-day arrival surge concentrated on one region.

    ``shape="step"`` holds ``arrivals_per_s`` flat over the window;
    ``shape="spike"`` ramps linearly from twice that rate down to zero
    (same total arrivals, front-loaded). Surge sessions drain at hazard
    ``tick / mean_session_s`` from the surge onset, so the crowd
    dissipates instead of staying forever.
    """

    at_s: float
    duration_s: float
    region: int
    arrivals_per_s: float
    mean_session_s: float = 120.0
    shape: str = "step"

    kind = "flash-crowd"

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("surge time must be nonnegative")
        if self.duration_s <= 0:
            raise ValueError("surge duration must be positive")
        if self.region < 0:
            raise ValueError("region must be nonnegative")
        if self.arrivals_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if self.mean_session_s <= 0:
            raise ValueError("mean session must be positive")
        if self.shape not in ("step", "spike"):
            raise ValueError("shape must be 'step' or 'spike'")


@dataclass(frozen=True, slots=True)
class DiurnalLoad:
    """Sinusoidal modulation of every join rate in the plan.

    Maps the run horizon onto ``day_length_s`` simulated seconds of
    wall-clock day and multiplies churn/home join rates by the raised
    cosine of :func:`repro.workload.sessions.diurnal_multiplier` (mean
    1.0 over a full day, peak at ``peak_hour``).
    """

    amplitude: float = DIURNAL_AMPLITUDE
    peak_hour: float = DIURNAL_PEAK_HOUR
    day_length_s: float = 86_400.0

    kind = "diurnal"

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must lie in [0, 1)")
        if not 0.0 <= self.peak_hour < 24.0:
            raise ValueError("peak hour must lie in [0, 24)")
        if self.day_length_s <= 0:
            raise ValueError("day length must be positive")

    def multiplier(self, t_s: float) -> float:
        """Rate multiplier at simulated time ``t_s``."""
        day_s = t_s / self.day_length_s * 86_400.0
        return float(diurnal_multiplier(
            day_s, peak_hour=self.peak_hour, amplitude=self.amplitude))

    @property
    def peak_multiplier(self) -> float:
        return 1.0 + self.amplitude


@dataclass(frozen=True, slots=True)
class Mobility:
    """Inter-region player movement at a Poisson rate.

    Each move picks an online player of ``from_region`` (counter-hash
    ranked, so the set is a pure function of seed and tick), migrates it
    live through the :class:`~repro.faults.failover.FailoverController`
    path and re-homes it in ``to_region``.
    """

    rate_per_s: float
    from_region: int
    to_region: int
    start_s: float = 0.0
    duration_s: Optional[float] = None

    kind = "mobility"

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("mobility rate must be positive")
        if self.from_region < 0 or self.to_region < 0:
            raise ValueError("regions must be nonnegative")
        if self.from_region == self.to_region:
            raise ValueError("mobility needs two distinct regions")
        if self.start_s < 0:
            raise ValueError("start time must be nonnegative")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("mobility duration must be positive")


@dataclass(frozen=True, slots=True)
class SupernodeDepartures:
    """The §IV churn scenario: supernodes leave at a Poisson rate.

    Consumed by the session-level churn experiment
    (:mod:`repro.experiments.churn`), not the cohort compiler — the
    cohort kernel models server loss through the fault DSL instead.
    """

    rate_per_minute: float

    kind = "departures"

    def __post_init__(self) -> None:
        if self.rate_per_minute < 0:
            raise ValueError("departure rate must be nonnegative")


#: Every dynamics kind the DSL knows, keyed by its ``kind`` tag.
DYNAMICS_KINDS = {
    cls.kind: cls
    for cls in (ChurnSource, FlashCrowd, DiurnalLoad, Mobility,
                SupernodeDepartures)
}

Source = Any  # any of the classes above (structural; no common base)


def _start_of(source: Source) -> float:
    return getattr(source, "at_s", getattr(source, "start_s", 0.0))


@dataclass(frozen=True)
class DynamicsPlan:
    """An ordered, immutable set of population-event sources plus the
    seed of the plan's private Poisson stream.

    The empty plan is the explicit no-op: compiling it yields no joins,
    no leaves and no moves, and a run with it armed is byte-identical
    (digest, metrics) to the static baseline — the regression tests
    guard exactly that.
    """

    sources: tuple[Source, ...] = ()
    #: Seeds the compile-time Poisson draws (consumed only by non-empty
    #: plans; compiling the empty plan touches no RNG).
    seed: int = 0

    def __post_init__(self) -> None:
        for s in self.sources:
            if type(s).__name__ not in {c.__name__
                                        for c in DYNAMICS_KINDS.values()}:
                raise TypeError(f"not a dynamics source: {s!r}")
        object.__setattr__(
            self, "sources",
            tuple(sorted(self.sources, key=lambda s: (_start_of(s), s.kind))))

    @property
    def is_empty(self) -> bool:
        return not self.sources

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        return iter(self.sources)

    def horizon_s(self) -> float:
        """Time of the last bounded source edge (0.0 when empty or when
        every source is open-ended)."""
        edges = []
        for s in self.sources:
            start = _start_of(s)
            dur = getattr(s, "duration_s", None)
            if dur is not None:
                edges.append(start + dur)
            elif s.kind not in ("diurnal", "departures"):
                edges.append(start)
        return max(edges, default=0.0)

    # -- diurnal helpers (shared with the session-level experiments) --------
    def rate_multiplier(self, t_s: float) -> float:
        """Product of every diurnal source's multiplier at ``t_s``."""
        m = 1.0
        for s in self.sources:
            if s.kind == "diurnal":
                m *= s.multiplier(t_s)
        return m

    def peak_rate_multiplier(self) -> float:
        """Upper bound of :meth:`rate_multiplier` (thinning envelope)."""
        m = 1.0
        for s in self.sources:
            if s.kind == "diurnal":
                m *= s.peak_multiplier
        return m

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Stable JSON-able form (kind-tagged source records)."""
        records = []
        for s in self.sources:
            rec = {"kind": s.kind}
            for name in s.__dataclass_fields__:
                value = getattr(s, name)
                if value is not None:
                    rec[name] = value
            records.append(rec)
        return {"seed": self.seed, "sources": records}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DynamicsPlan":
        """Inverse of :meth:`to_dict` (unknown kinds raise)."""
        sources = []
        for rec in payload.get("sources", ()):
            rec = dict(rec)
            kind = rec.pop("kind", None)
            source_cls = DYNAMICS_KINDS.get(kind)
            if source_cls is None:
                raise ValueError(f"unknown dynamics kind {kind!r}")
            sources.append(source_cls(**rec))
        return cls(sources=tuple(sources), seed=int(payload.get("seed", 0)))

    # -- generators ---------------------------------------------------------
    @classmethod
    def random(cls, seed: int, horizon_s: float = 20.0,
               n_sources: int = 3, n_regions: int = 4,
               kinds: Iterable[str] = ("churn", "flash-crowd", "diurnal",
                                       "mobility"),
               ) -> "DynamicsPlan":
        """A reproducible random plan: same arguments ⇒ same plan.

        Draws from its own ``default_rng(seed)`` stream, so generating
        a plan never perturbs any simulation RNG.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if n_sources < 0:
            raise ValueError("source count must be nonnegative")
        if n_regions < 2:
            raise ValueError("need at least two regions")
        kinds = tuple(kinds)
        for k in kinds:
            if k not in DYNAMICS_KINDS:
                raise ValueError(f"unknown dynamics kind {k!r}")
        rng = np.random.default_rng(seed)
        sources: list[Source] = []
        for _ in range(n_sources):
            kind = kinds[int(rng.integers(len(kinds)))]
            at = float(rng.uniform(0.1, 0.6) * horizon_s)
            dur = float(rng.uniform(0.1, 0.3) * horizon_s)
            if kind == "churn":
                sources.append(ChurnSource(
                    join_rate_per_s=float(rng.uniform(1.0, 20.0)),
                    mean_session_s=float(rng.uniform(0.2, 0.6) * horizon_s),
                    start_s=at, duration_s=dur))
            elif kind == "flash-crowd":
                sources.append(FlashCrowd(
                    at_s=at, duration_s=dur,
                    region=int(rng.integers(n_regions)),
                    arrivals_per_s=float(rng.uniform(10.0, 100.0)),
                    shape="spike" if rng.uniform() < 0.5 else "step"))
            elif kind == "diurnal":
                sources.append(DiurnalLoad(
                    amplitude=float(rng.uniform(0.2, 0.9)),
                    peak_hour=float(rng.uniform(0.0, 24.0)),
                    day_length_s=horizon_s))
            elif kind == "mobility":
                fr = int(rng.integers(n_regions))
                to = int((fr + 1 + rng.integers(n_regions - 1)) % n_regions)
                sources.append(Mobility(
                    rate_per_s=float(rng.uniform(0.5, 5.0)),
                    from_region=fr, to_region=to,
                    start_s=at, duration_s=dur))
            else:
                sources.append(SupernodeDepartures(
                    rate_per_minute=float(rng.uniform(1.0, 30.0))))
        return cls(sources=tuple(sources), seed=seed)


class DynamicsBuilder:
    """Fluent construction of a :class:`DynamicsPlan`."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._sources: list[Source] = []

    def churn(self, join_rate_per_s: float, mean_session_s: float,
              start_s: float = 0.0, duration_s: Optional[float] = None,
              region: Optional[int] = None) -> "DynamicsBuilder":
        self._sources.append(ChurnSource(
            join_rate_per_s=join_rate_per_s, mean_session_s=mean_session_s,
            start_s=start_s, duration_s=duration_s, region=region))
        return self

    def flash_crowd(self, at_s: float, duration_s: float, region: int,
                    arrivals_per_s: float, mean_session_s: float = 120.0,
                    shape: str = "step") -> "DynamicsBuilder":
        self._sources.append(FlashCrowd(
            at_s=at_s, duration_s=duration_s, region=region,
            arrivals_per_s=arrivals_per_s, mean_session_s=mean_session_s,
            shape=shape))
        return self

    def diurnal(self, amplitude: float = DIURNAL_AMPLITUDE,
                peak_hour: float = DIURNAL_PEAK_HOUR,
                day_length_s: float = 86_400.0) -> "DynamicsBuilder":
        self._sources.append(DiurnalLoad(
            amplitude=amplitude, peak_hour=peak_hour,
            day_length_s=day_length_s))
        return self

    def mobility(self, rate_per_s: float, from_region: int, to_region: int,
                 start_s: float = 0.0,
                 duration_s: Optional[float] = None) -> "DynamicsBuilder":
        self._sources.append(Mobility(
            rate_per_s=rate_per_s, from_region=from_region,
            to_region=to_region, start_s=start_s, duration_s=duration_s))
        return self

    def departures(self, rate_per_minute: float) -> "DynamicsBuilder":
        self._sources.append(SupernodeDepartures(
            rate_per_minute=rate_per_minute))
        return self

    def build(self) -> DynamicsPlan:
        return DynamicsPlan(sources=tuple(self._sources), seed=self._seed)


#: Preset names understood by :func:`preset_dynamics` (CLI ``--preset``).
DYNAMICS_PRESETS = ("none", "churn", "flash-crowd", "diurnal", "mobility",
                    "launch-day")


def preset_dynamics(name: str, horizon_s: float, n_players: int,
                    n_regions: int = 8, intensity: int = 1,
                    seed: int = 0) -> DynamicsPlan:
    """A canned plan scaled to one run's horizon and population.

    Unlike fault presets, dynamics presets need the population size:
    churn and surge rates are meaningful only relative to how many
    players exist. ``intensity`` scales the rates; a flash crowd at
    intensity ``k`` pushes roughly ``k ×`` one region's share of the
    population onto that region.
    """
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    if n_players <= 0 or n_regions <= 0:
        raise ValueError("population and regions must be positive")
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    b = DynamicsBuilder(seed=seed)
    if name == "none" or intensity == 0:
        return b.build()
    churn_rate = 0.002 * intensity * n_players
    session_s = 0.3 * horizon_s
    surge_window = 0.2 * horizon_s
    # ~1.5 × intensity × one region's population over the window, with a
    # slow drain: intensity 2 overloads the Zipf-heaviest region past
    # the shed watermark even from a half-offline start.
    surge_rate = (1.5 * intensity * (n_players / n_regions)) / surge_window
    move_rate = 0.001 * intensity * n_players
    if name == "churn":
        b.churn(join_rate_per_s=churn_rate, mean_session_s=session_s)
    elif name == "flash-crowd":
        b.flash_crowd(at_s=0.25 * horizon_s, duration_s=surge_window,
                      region=0, arrivals_per_s=surge_rate,
                      mean_session_s=horizon_s)
    elif name == "diurnal":
        b.churn(join_rate_per_s=churn_rate, mean_session_s=session_s)
        b.diurnal(day_length_s=horizon_s)
    elif name == "mobility":
        b.mobility(rate_per_s=move_rate, from_region=0,
                   to_region=1 % n_regions,
                   start_s=0.2 * horizon_s, duration_s=0.4 * horizon_s)
    elif name == "launch-day":
        b.churn(join_rate_per_s=churn_rate, mean_session_s=session_s)
        b.flash_crowd(at_s=0.25 * horizon_s, duration_s=surge_window,
                      region=0, arrivals_per_s=surge_rate,
                      mean_session_s=0.4 * horizon_s, shape="spike")
        b.mobility(rate_per_s=move_rate, from_region=0,
                   to_region=1 % n_regions,
                   start_s=0.5 * horizon_s, duration_s=0.3 * horizon_s)
        b.diurnal(day_length_s=horizon_s)
    else:
        raise ValueError(
            f"unknown preset {name!r}; choose from {DYNAMICS_PRESETS}")
    return b.build()


@dataclass(frozen=True)
class CompiledDynamics:
    """A plan resolved against one kernel configuration.

    Everything the tick driver needs, fully drawn: join counts are
    Poisson realisations (from the plan's own seeded stream), leave
    hazards are per-tick probabilities fed to the counter-hash draw, and
    mobility is a per-tick batch size. Identical in both execution modes
    by construction.
    """

    n_ticks: int
    tick_s: float
    n_regions: int
    #: (n_ticks,) joins into players' home regions (pool-balanced).
    home_joins: np.ndarray
    #: (n_ticks, n_regions) joins targeted at a specific region.
    region_joins: np.ndarray
    #: (n_ticks, n_regions) per-active-player leave probability.
    leave_prob: np.ndarray
    #: tick -> ((from_region, to_region, count), ...)
    moves: dict[int, tuple[tuple[int, int, int], ...]] = field(
        default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return (not self.moves
                and not self.home_joins.any()
                and not self.region_joins.any()
                and not self.leave_prob.any())

    def total_joins(self) -> int:
        return int(self.home_joins.sum() + self.region_joins.sum())


def compile_plan(plan: DynamicsPlan, n_ticks: int, tick_s: float,
                 n_regions: int) -> CompiledDynamics:
    """Resolve ``plan`` into per-tick realisations.

    Pure function of ``(plan, n_ticks, tick_s, n_regions)``: all Poisson
    draws come from ``default_rng(plan.seed)``, consumed source by
    source in the plan's canonical order. The empty plan compiles to
    all-zeros without touching the RNG.
    """
    if n_ticks <= 0 or tick_s <= 0 or n_regions <= 0:
        raise ValueError("ticks, tick length and regions must be positive")
    home_joins = np.zeros(n_ticks, dtype=np.int64)
    region_joins = np.zeros((n_ticks, n_regions), dtype=np.int64)
    keep_prob = np.ones((n_ticks, n_regions), dtype=np.float64)
    moves: dict[int, list[tuple[int, int, int]]] = {}
    if plan.is_empty:
        return CompiledDynamics(
            n_ticks=n_ticks, tick_s=tick_s, n_regions=n_regions,
            home_joins=home_joins, region_joins=region_joins,
            leave_prob=1.0 - keep_prob, moves={})

    rng = np.random.default_rng(plan.seed)
    times = np.arange(n_ticks, dtype=np.float64) * tick_s
    diurnal = np.ones(n_ticks, dtype=np.float64)
    for s in plan.sources:
        if s.kind == "diurnal":
            diurnal *= np.array([s.multiplier(t) for t in times])

    def window_mask(start_s: float, duration_s: Optional[float]):
        end_s = np.inf if duration_s is None else start_s + duration_s
        return (times >= start_s) & (times < end_s)

    for s in plan.sources:
        if s.kind == "churn":
            w = window_mask(s.start_s, s.duration_s)
            lam = np.where(w, s.join_rate_per_s * tick_s * diurnal, 0.0)
            joins = rng.poisson(lam)
            if s.region is None:
                home_joins += joins
            else:
                if s.region >= n_regions:
                    raise ValueError(
                        f"churn region {s.region} out of range")
                region_joins[:, s.region] += joins
            hazard = min(1.0, tick_s / s.mean_session_s)
            cols = (slice(None) if s.region is None else s.region)
            keep_prob[w, cols] *= 1.0 - hazard
        elif s.kind == "flash-crowd":
            if s.region >= n_regions:
                raise ValueError(
                    f"flash-crowd region {s.region} out of range")
            w = window_mask(s.at_s, s.duration_s)
            if s.shape == "spike":
                frac = np.clip((times - s.at_s) / s.duration_s, 0.0, 1.0)
                shape = 2.0 * (1.0 - frac)
            else:
                shape = np.ones(n_ticks)
            lam = np.where(w, s.arrivals_per_s * tick_s * shape, 0.0)
            region_joins[:, s.region] += rng.poisson(lam)
            # The crowd drains: surge-region sessions end at the churn
            # hazard from surge onset to the end of the run.
            drain = times >= s.at_s
            hazard = min(1.0, tick_s / s.mean_session_s)
            keep_prob[drain, s.region] *= 1.0 - hazard
        elif s.kind == "mobility":
            if s.from_region >= n_regions or s.to_region >= n_regions:
                raise ValueError("mobility region out of range")
            w = window_mask(s.start_s, s.duration_s)
            counts = rng.poisson(np.where(w, s.rate_per_s * tick_s, 0.0))
            for t in np.flatnonzero(counts):
                moves.setdefault(int(t), []).append(
                    (s.from_region, s.to_region, int(counts[t])))
        # "diurnal" folded into the join lambdas; "departures" is a
        # session-layer scenario with no cohort realisation.

    return CompiledDynamics(
        n_ticks=n_ticks, tick_s=tick_s, n_regions=n_regions,
        home_joins=home_joins, region_joins=region_joins,
        leave_prob=1.0 - keep_prob,
        moves={t: tuple(v) for t, v in sorted(moves.items())})
