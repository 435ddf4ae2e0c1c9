"""The experiment catalogue: one typed spec per paper figure/extension.

Each :class:`~repro.experiments.api.ExperimentSpec` here is the one
definition of its figure's sweep: point grid, series labels and seed
averaging. The experiment modules only provide the per-point
simulations its task runners call. A spec decomposes its figure into
independent sweep tasks — one per sweep point × system variant × seed
wherever each point derives its own randomness (almost everywhere:
populations are rebuilt from the scenario seed at every point, and the
per-seed microcosms seed their own registries). Two sweeps thread RNG
state *across* points and therefore stay single tasks: Figure 7's
game-choice stream
(:func:`repro.experiments.bandwidth.bandwidth_vs_players`) and the
gameworld partition-balance sweep.

Task runners are module-level functions registered in
:data:`TASK_RUNNERS`; a :class:`~repro.experiments.api.SweepTask`
references its runner by name, so tasks stay picklable and their cache
keys content-addressed. Merges consume ``[(task_key, payload), ...]``
in decompose order — never completion order — which is what makes a
parallel run byte-identical to a serial one.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.core.infrastructure import SessionConfig, SystemVariant
from repro.experiments import bandwidth as bw
from repro.experiments import coverage as cov
from repro.experiments import economics_exp as econ
from repro.experiments import qoe
from repro.experiments import satisfaction as sat
from repro.experiments.api import ExperimentSpec, SweepTask, TaskKey
from repro.experiments.resilience import flaky_probe
from repro.experiments.scenarios import (
    Scenario,
    peersim_scenario,
    planetlab_scenario,
)
from repro.metrics.series import FigureSeries

_SCENARIOS = {
    "peersim": peersim_scenario,
    "planetlab": planetlab_scenario,
}

OrderedResults = "list[tuple[TaskKey, Any]]"


def _scenario(name: str, scale: float, seed: int) -> Scenario:
    return _SCENARIOS[name](scale, seed)


def _session_duration_s(scale: float) -> float:
    # Shorter horizons at smaller scales keep benchmark runtimes sane
    # without touching the steady-state numbers (warmup is excluded).
    return 15.0 if scale < 0.5 else 30.0


def _fragments(series: Sequence[FigureSeries]) -> dict[str, Any]:
    """Encode series (or one-point series fragments) as task payload."""
    return {"series": [s.to_dict() for s in series]}


def merge_series_fragments(ordered) -> list[FigureSeries]:
    """Concatenate per-task series fragments by identity, task order.

    Fragments with the same (label, x_label, y_label) are one logical
    line; their points concatenate in task order, which decompose
    guarantees is the serial sweep order.
    """
    by_ident: dict[tuple, FigureSeries] = {}
    order: list[tuple] = []
    for _key, data in ordered:
        for frag in data["series"]:
            ident = (frag["label"], frag["x_label"], frag["y_label"])
            s = by_ident.get(ident)
            if s is None:
                s = FigureSeries(label=frag["label"],
                                 x_label=frag["x_label"],
                                 y_label=frag["y_label"])
                by_ident[ident] = s
                order.append(ident)
            for xv, yv in zip(frag["x"], frag["y"]):
                s.add(xv, yv)
    return [by_ident[i] for i in order]


def _merge_fragments(scale: float, seed: int, ordered) -> list[FigureSeries]:
    return merge_series_fragments(ordered)


# --------------------------------------------------------------------------
# Task runners (referenced by name; run in worker processes)
# --------------------------------------------------------------------------

def _run_coverage_dc(scale: float, seed: int, p: dict) -> dict:
    scen = _scenario(p["scenario"], scale, seed)
    return _fragments(
        cov.coverage_vs_datacenters(scen, dc_counts=(int(p["n_dc"]),)))


def _run_coverage_sn(scale: float, seed: int, p: dict) -> dict:
    scen = _scenario(p["scenario"], scale, seed)
    return _fragments(
        cov.coverage_vs_supernodes(scen, sn_counts=(int(p["n_sn"]),)))


def _run_bandwidth(scale: float, seed: int, p: dict) -> dict:
    scen = _scenario(p["scenario"], scale, seed)
    return _fragments(bw.bandwidth_vs_players(scen, p["counts"]))


def _point_fragment(label: str, x_label: str, y_label: str,
                    x: float, y: float) -> dict:
    """Payload of a one-point series fragment."""
    s = FigureSeries(label=label, x_label=x_label, y_label=y_label)
    s.add(x, y)
    return _fragments([s])


def _run_latency_variant(scale: float, seed: int, p: dict) -> dict:
    scen = _scenario(p["scenario"], scale, seed)
    cfg = SessionConfig(duration_s=p["duration_s"])
    return _point_fragment(
        p["label"], "system (index)", "avg response latency (ms)",
        p["index"],
        qoe.latency_point(scen, SystemVariant(p["variant"]), config=cfg))


def _run_continuity_point(scale: float, seed: int, p: dict) -> dict:
    scen = _scenario(p["scenario"], scale, seed)
    cfg = SessionConfig(duration_s=p["duration_s"])
    n = int(p["n_players"])
    return _point_fragment(
        p["variant"], "# players", "playback continuity", n,
        qoe.continuity_point(scen, n, SystemVariant(p["variant"]),
                             config=cfg))


def _run_supernode_load(scale: float, seed: int, p: dict) -> dict:
    out = sat.simulate_supernode_load(
        int(p["load"]), p["adapt"], p["sched"], seed=int(p["task_seed"]))
    return {"value": out["satisfied"]}


def _run_econ_incentive(scale: float, seed: int, p: dict) -> dict:
    scen = peersim_scenario(scale, seed)
    participation, saved = econ.incentive_sweep(scen)
    return _fragments([participation, saved])


def _run_econ_frontier(scale: float, seed: int, p: dict) -> dict:
    scen = peersim_scenario(scale, seed)
    return _fragments([econ.deployment_frontier(scen)])


def _run_churn_point(scale: float, seed: int, p: dict) -> dict:
    from repro.experiments.churn import ChurnConfig, simulate_churn
    cfg = ChurnConfig(duration_s=p["duration_s"])
    out = simulate_churn(p["rate"], p["with_backups"],
                         seed=int(p["task_seed"]), config=cfg)
    return {"value": out["continuity"]}


def _run_cooperation_point(scale: float, seed: int, p: dict) -> dict:
    from repro.experiments.cooperation import (
        CooperationConfig,
        simulate_cooperation,
    )
    cfg = CooperationConfig(duration_s=p["duration_s"])
    out = simulate_cooperation(int(p["n_players"]), p["hot_fraction"],
                               p["cooperate"], seed=int(p["task_seed"]),
                               config=cfg)
    return {"value": out["satisfied"]}


def _run_security_point(scale: float, seed: int, p: dict) -> dict:
    from repro.experiments.security import SecurityConfig, simulate_security
    cfg = SecurityConfig(n_sessions=int(p["n_sessions"]),
                         malicious_fraction=float(p["malicious_fraction"]))
    out = simulate_security(p["use_reputation"], seed=int(p["task_seed"]),
                            config=cfg)
    return {"value": out["tampered_rate"]}


def _run_gameworld_update(scale: float, seed: int, p: dict) -> dict:
    from repro.experiments import gameworld_exp as gw
    return _fragments(gw.update_size_sweep(
        avatar_counts=(int(p["n_avatars"]),), aoi_radii=(p["aoi_radius"],),
        seed=int(p["task_seed"])))


def _run_gameworld_partition(scale: float, seed: int, p: dict) -> dict:
    from repro.experiments import gameworld_exp as gw
    return _fragments(gw.partition_balance_sweep(seed=int(p["task_seed"])))


def _run_dynamic(scale: float, seed: int, p: dict) -> dict:
    from repro.experiments.dynamic import run_dynamic
    scen = peersim_scenario(max(scale, 0.05), seed)
    pop = scen.build()
    result = run_dynamic(pop, SystemVariant.CLOUDFOG_A, horizon_s=90.0,
                         config=SessionConfig(duration_s=p["duration_s"]))
    return _fragments(result.series())


def _run_chaos_point(scale: float, seed: int, p: dict) -> dict:
    from repro.experiments.chaos import ChaosConfig, run_chaos
    cfg = ChaosConfig(duration_s=p["duration_s"])
    out = run_chaos(scale, int(p["task_seed"]), preset=p["preset"],
                    intensity=int(p["intensity"]), config=cfg)
    fs = out["fault_stats"] or {}
    return {"value": out["continuity"],
            "recoveries": fs.get("recoveries", 0),
            "mean_recovery_time_s": fs.get("mean_recovery_time_s")}


def _run_orchestration_point(scale: float, seed: int, p: dict) -> dict:
    from repro.experiments.orchestration import (
        OrchestrationConfig,
        run_orchestration,
    )
    cfg = OrchestrationConfig(duration_s=p["duration_s"])
    out = run_orchestration(scale, int(p["task_seed"]),
                            strategy=p["strategy"], skew=p["skew"],
                            churn=p["churn"], config=cfg)
    li = out["load_indices"] or {}
    return {
        "continuity": out["continuity"],
        "satisfied": out["satisfied"],
        "gini_users": li.get("gini_users"),
        "herfindahl_users": li.get("herfindahl_users"),
        "cv_users": li.get("cv_users"),
        "gini_utilisation": li.get("gini_utilisation"),
        "negotiation": li.get("negotiation"),
    }


def _run_scale_point(scale: float, seed: int, p: dict) -> dict:
    from repro.core.cohort import ScaleSpec, run_scale

    spec = ScaleSpec(
        n_players=int(p["n_players"]), n_regions=int(p["n_regions"]),
        n_ticks=int(p["n_ticks"]), seed=int(p["task_seed"]),
        mode=p["mode"], faults=p.get("faults", "outage"))
    report = run_scale(spec)
    return {
        "digest": report.digest,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
        "satisfied": report.satisfied_fraction,
        "materialisations": report.materialisations,
    }


def _run_dynamics_point(scale: float, seed: int, p: dict) -> dict:
    from repro.core.cohort import ScaleSpec
    from repro.dynamics import DynamicsSpec, preset_dynamics, run_dynamics

    base = ScaleSpec(
        n_players=int(p["n_players"]), n_regions=int(p["n_regions"]),
        n_ticks=int(p["n_ticks"]), seed=int(p["task_seed"]),
        mode=p.get("mode", "cohort"), faults="none")
    horizon = base.n_ticks * base.params.tick_s
    intensity = int(p["intensity"])
    plan = preset_dynamics(
        p["scenario"], horizon_s=horizon, n_players=base.n_players,
        n_regions=base.n_regions, intensity=intensity,
        seed=int(p["task_seed"]))
    spec = DynamicsSpec(
        base=base, plan=plan,
        # Intensity 0 is the armed-but-empty anchor: full static
        # population, byte-identical to the plain scale baseline.
        initial_fraction=1.0 if intensity == 0
        else float(p.get("initial_fraction", 0.5)),
        strategy=p["strategy"])
    report = run_dynamics(spec)
    if report.invariants:
        raise AssertionError(
            "dynamics invariants violated: " + "; ".join(report.invariants))
    return {
        "digest": report.scale.digest,
        "satisfied": report.satisfied_active_fraction,
        "p99_ms": report.scale.p99_ms,
        "joins": report.joins,
        "leaves": report.leaves,
        "refused": report.refused,
        "shed": report.shed,
        "evicted": report.evicted,
        "moves": report.moves,
    }


#: Picklable dispatch table: runner name -> fn(scale, seed, params).
TASK_RUNNERS = {
    "coverage_dc": _run_coverage_dc,
    "coverage_sn": _run_coverage_sn,
    "bandwidth": _run_bandwidth,
    "latency_variant": _run_latency_variant,
    "continuity_point": _run_continuity_point,
    "supernode_load": _run_supernode_load,
    "econ_incentive": _run_econ_incentive,
    "econ_frontier": _run_econ_frontier,
    "churn_point": _run_churn_point,
    "cooperation_point": _run_cooperation_point,
    "security_point": _run_security_point,
    "gameworld_update": _run_gameworld_update,
    "gameworld_partition": _run_gameworld_partition,
    "dynamic": _run_dynamic,
    "chaos_point": _run_chaos_point,
    "orchestration_point": _run_orchestration_point,
    "scale_point": _run_scale_point,
    "dynamics_point": _run_dynamics_point,
    # Fault-injection hook (crashes/hangs/raises on the Nth attempt):
    # referenced by the resilience test-suite and the CI smoke, kept in
    # the registry so such tasks resolve inside worker processes.
    "flaky_probe": flaky_probe,
}


# --------------------------------------------------------------------------
# Decompositions and merges
# --------------------------------------------------------------------------

def _decompose_coverage_dc(name, scenario, dc_counts, scale, seed):
    return [
        SweepTask(name, (int(n),), "coverage_dc",
                  {"scenario": scenario, "n_dc": int(n)})
        for n in dc_counts
    ]


def _sn_counts(scale: float, bases: Sequence[int]) -> list[int]:
    return sorted(set(int(round(c * scale)) for c in bases))


def _decompose_coverage_sn(name, scenario, bases, scale, seed):
    return [
        SweepTask(name, (int(n),), "coverage_sn",
                  {"scenario": scenario, "n_sn": int(n)})
        for n in _sn_counts(scale, bases)
    ]


def _decompose_bandwidth(name, scenario, min_count, scale, seed):
    scen = _scenario(scenario, scale, seed)
    counts = [max(min_count, int(scen.n_online * f))
              for f in (0.25, 0.5, 0.75, 1.0)]
    # One task: the per-count game-choice draws share one RNG stream, so
    # the sweep is not point-decomposable without changing its numbers.
    return [SweepTask(name, ("sweep",), "bandwidth",
                      {"scenario": scenario, "counts": counts})]


def _decompose_latency(name, scenario, scale, seed):
    label = " | ".join(v.value for v in qoe.ALL_SYSTEMS)
    duration = _session_duration_s(scale)
    return [
        SweepTask(name, (i, v.value), "latency_variant",
                  {"scenario": scenario, "variant": v.value, "index": i,
                   "label": label, "duration_s": duration})
        for i, v in enumerate(qoe.ALL_SYSTEMS)
    ]


def _decompose_continuity(name, scenario, min_count, scale, seed):
    scen = _scenario(scenario, scale, seed)
    counts = [max(min_count, int(scen.n_online * f))
              for f in (0.5, 0.75, 1.0)]
    duration = _session_duration_s(scale)
    return [
        SweepTask(name, (int(n), v.value), "continuity_point",
                  {"scenario": scenario, "n_players": int(n),
                   "variant": v.value, "duration_s": duration})
        for n in counts
        for v in qoe.ALL_SYSTEMS
    ]


def seed_mean_series(labels, xs, seeds, point, x_label, y_label
                     ) -> list[FigureSeries]:
    """One series per label whose value at ``x`` is the mean of
    ``point(x, label_index, seed)`` over ``seeds``."""
    series = [FigureSeries(label=label, x_label=x_label, y_label=y_label)
              for label in labels]
    for x in xs:
        for i, s in enumerate(series):
            s.add(x, float(np.mean([point(x, i, sv) for sv in seeds])))
    return series


def _seed_averaged(name, runner, xs, flags, params, x_label, y_label,
                   n_seeds=lambda scale: 2):
    """Decompose/merge pair for a sweep averaged over seeds.

    ``flags`` is ``((flag, series label), ...)`` in series order. The
    decomposition is one task per ``(x, flag index, seed)``, in that
    nesting, running ``runner`` on ``params(scale, x, flag, seed)``;
    the seeds are ``seed, seed + 1, ...``, ``n_seeds(scale)`` of them.
    The merge makes one series per flag whose point at ``x`` is the
    mean of its tasks' ``"value"`` over the seeds.
    """
    def seeds(scale, seed):
        return range(int(seed), int(seed) + n_seeds(scale))

    def decompose(scale, seed):
        return [
            SweepTask(name, (x, fi, sv), runner, params(scale, x, flag, sv))
            for x in xs
            for fi, (flag, _label) in enumerate(flags)
            for sv in seeds(scale, seed)
        ]

    def merge(scale, seed, ordered):
        res = dict(ordered)
        return seed_mean_series(
            [label for _flag, label in flags], xs, seeds(scale, seed),
            lambda x, fi, sv: res[(x, fi, sv)]["value"], x_label, y_label)

    return decompose, merge


_SAT_LOADS = (5, 10, 15, 20, 25)


def _sat_params(scale, load, strategy, task_seed):
    adapt, sched = strategy
    return {"load": load, "adapt": adapt, "sched": sched,
            "task_seed": task_seed}


def _satisfaction(name, strategies):
    return _seed_averaged(
        name, "supernode_load", _SAT_LOADS,
        [((adapt, sched), label) for label, adapt, sched in strategies],
        _sat_params, "players per supernode", "satisfied players",
        n_seeds=lambda scale: max(1, int(3 * scale)))


def _decompose_economics(scale, seed):
    return [
        SweepTask("economics", (0, "incentive"), "econ_incentive", {}),
        SweepTask("economics", (1, "frontier"), "econ_frontier", {}),
    ]


_CHURN_RATES = (0.0, 1.0, 2.0, 4.0, 8.0)


def _churn_params(scale, rate, with_backups, task_seed):
    return {"rate": rate, "with_backups": with_backups,
            "task_seed": task_seed,
            "duration_s": 30.0 + 30.0 * min(1.0, scale * 5)}


_COOP_FRACTIONS = (0.25, 0.4, 0.55, 0.7, 0.85)
_COOP_PLAYERS = 16


def _coop_params(scale, frac, cooperate, task_seed):
    return {"hot_fraction": frac, "cooperate": cooperate,
            "n_players": _COOP_PLAYERS, "task_seed": task_seed,
            "duration_s": 20.0 + 20.0 * min(1.0, scale * 5)}


_SECURITY_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4)


def _security_params(scale, frac, use_reputation, task_seed):
    return {"malicious_fraction": frac, "use_reputation": use_reputation,
            "n_sessions": max(500, int(3000 * scale / 0.08)),
            "task_seed": task_seed}


_GAMEWORLD_RADII = (50.0, 100.0, 200.0)


def _gameworld_counts(scale: float) -> list[int]:
    return sorted(set(max(20, int(round(c * max(scale, 0.05) / 0.08)))
                      for c in (50, 100, 200, 400)))


def _decompose_gameworld(scale, seed):
    tasks = [
        SweepTask("gameworld", (int(n), radius), "gameworld_update",
                  {"n_avatars": int(n), "aoi_radius": radius,
                   "task_seed": int(seed)})
        for n in _gameworld_counts(scale)
        for radius in _GAMEWORLD_RADII
    ]
    # Single task: the partition sweep threads one RNG across points.
    tasks.append(SweepTask("gameworld", ("partition",),
                           "gameworld_partition", {"task_seed": int(seed)}))
    return tasks


def _decompose_dynamic(scale, seed):
    return [SweepTask("dynamic", ("run",), "dynamic",
                      {"duration_s": _session_duration_s(scale)})]


#: Fault presets swept by the chaos figure (``none`` is covered by the
#: zero-intensity point of every preset).
_CHAOS_PRESETS = ("crash", "crash-recover", "partition", "storm")
#: Intensity 0 is the armed-but-empty baseline — byte-identical to a
#: fault-free run, anchoring each preset's curve at the no-fault QoE.
_CHAOS_INTENSITIES = (0, 1, 2)


def _chaos_duration_s(scale: float) -> float:
    # Long enough that a mid-run crash has room to detect + recover.
    return 12.0 if scale < 0.5 else 30.0


def _decompose_chaos(scale, seed):
    duration = _chaos_duration_s(scale)
    return [
        SweepTask("chaos", (preset, intensity), "chaos_point",
                  {"preset": preset, "intensity": intensity,
                   "task_seed": int(seed), "duration_s": duration})
        for preset in _CHAOS_PRESETS
        for intensity in _CHAOS_INTENSITIES
    ]


def _merge_chaos(scale, seed, ordered):
    res = dict(ordered)
    series = []
    for preset in _CHAOS_PRESETS:
        s = FigureSeries(label=preset, x_label="fault intensity",
                         y_label="playback continuity")
        for intensity in _CHAOS_INTENSITIES:
            s.add(intensity, res[(preset, intensity)]["value"])
        series.append(s)
    return series


#: The orchestration grid: strategy × load-skew × churn (DESIGN.md §13).
_ORCH_STRATEGIES = ("greedy", "distributed")
_ORCH_SCENARIOS = (("uniform", "none"), ("uniform", "churn"),
                   ("skewed", "none"), ("skewed", "churn"))
_ORCH_METRICS = (("gini_users", "Gini (users/node)"),
                 ("herfindahl_users", "Herfindahl (users/node)"),
                 ("cv_users", "coeff. of variation (users/node)"),
                 ("continuity", "playback continuity"))


def _decompose_orchestration(scale, seed):
    duration = _chaos_duration_s(scale)
    return [
        SweepTask("orchestration", (strategy, skew, churn),
                  "orchestration_point",
                  {"strategy": strategy, "skew": skew, "churn": churn,
                   "task_seed": int(seed), "duration_s": duration})
        for strategy in _ORCH_STRATEGIES
        for skew, churn in _ORCH_SCENARIOS
    ]


def _merge_orchestration(scale, seed, ordered):
    res = dict(ordered)
    series = []
    for metric, y_label in _ORCH_METRICS:
        for strategy in _ORCH_STRATEGIES:
            s = FigureSeries(label=strategy,
                             x_label="scenario (0=uniform 1=uniform+churn "
                                     "2=skewed 3=skewed+churn)",
                             y_label=y_label)
            for i, (skew, churn) in enumerate(_ORCH_SCENARIOS):
                s.add(i, res[(strategy, skew, churn)][metric])
            series.append(s)
    return series


#: Population points of the ``scale`` experiment at scale factor 1.0.
_SCALE_POINTS = (20_000, 50_000, 100_000)
_SCALE_REGIONS = 8
_SCALE_TICKS = 120


def _scale_players(scale: float) -> list[int]:
    # The 1000-player floor can collapse points at tiny scales; dedupe
    # so task keys stay unique.
    return sorted({max(1000, int(round(n * scale)))
                   for n in _SCALE_POINTS})


def _decompose_scale(scale, seed):
    """Cohort-mode latency sweep + a per-player digest cross-check.

    The smallest population runs in *both* execution modes; the merge
    refuses to produce series if their trace digests differ, so every
    ``cloudfog`` run of this experiment re-proves the cohort kernel's
    equivalence before reporting its numbers.
    """
    base = {"n_regions": _SCALE_REGIONS, "n_ticks": _SCALE_TICKS,
            "task_seed": seed}
    players = _scale_players(scale)
    tasks = [
        SweepTask("scale", (n, "cohort"), "scale_point",
                  {**base, "n_players": n, "mode": "cohort"})
        for n in players
    ]
    tasks.append(SweepTask(
        "scale", (players[0], "per-player"), "scale_point",
        {**base, "n_players": players[0], "mode": "per-player"}))
    return tasks


def _merge_scale(scale, seed, ordered):
    res = dict(ordered)
    players = _scale_players(scale)
    check = res[(players[0], "cohort")]
    cross = res[(players[0], "per-player")]
    if check["digest"] != cross["digest"]:
        raise AssertionError(
            f"cohort/per-player digest mismatch at n={players[0]}: "
            f"{check['digest']} != {cross['digest']}")
    series = []
    for q in ("p50_ms", "p95_ms", "p99_ms"):
        s = FigureSeries(label=q[:3].upper(), x_label="players",
                         y_label="response latency (ms)")
        for n in players:
            s.add(n, res[(n, "cohort")][q])
        series.append(s)
    sat_series = FigureSeries(label="satisfied", x_label="players",
                              y_label="fraction of players")
    for n in players:
        sat_series.add(n, res[(n, "cohort")]["satisfied"])
    series.append(sat_series)
    return series


#: The dynamics grid: population scenario × intensity × overload
#: strategy (DESIGN.md §14). Intensity 0 is the armed-but-empty anchor;
#: the merge refuses to report if any anchor's digest deviates from the
#: static-baseline cross-check task.
_DYNAMICS_SCENARIOS = ("churn", "flash-crowd", "diurnal")
_DYNAMICS_INTENSITIES = (0, 1, 2)
_DYNAMICS_STRATEGIES = ("graceful", "none")
_DYNAMICS_REGIONS = 4
_DYNAMICS_TICKS = 80


def _dynamics_players(scale: float) -> int:
    return max(600, int(round(8000 * scale)))


def _decompose_dynamics(scale, seed):
    base = {"n_players": _dynamics_players(scale),
            "n_regions": _DYNAMICS_REGIONS, "n_ticks": _DYNAMICS_TICKS,
            "task_seed": int(seed)}
    tasks = [
        SweepTask("dynamics", (scenario, intensity, strategy),
                  "dynamics_point",
                  {**base, "scenario": scenario, "intensity": intensity,
                   "strategy": strategy})
        for scenario in _DYNAMICS_SCENARIOS
        for intensity in _DYNAMICS_INTENSITIES
        for strategy in _DYNAMICS_STRATEGIES
    ]
    # Static baseline the empty-plan anchors must match byte for byte.
    tasks.append(SweepTask(
        "dynamics", ("baseline",), "scale_point",
        {**base, "mode": "cohort", "faults": "none"}))
    return tasks


def _merge_dynamics(scale, seed, ordered):
    res = dict(ordered)
    baseline = res[("baseline",)]["digest"]
    for scenario in _DYNAMICS_SCENARIOS:
        for strategy in _DYNAMICS_STRATEGIES:
            anchor = res[(scenario, 0, strategy)]["digest"]
            if anchor != baseline:
                raise AssertionError(
                    f"empty-plan anchor ({scenario}, {strategy}) deviates "
                    f"from the static baseline: {anchor} != {baseline}")
    series = []
    for metric, y_label in (("satisfied", "fraction satisfied "
                                          "(participants)"),
                            ("p99_ms", "P99 response latency (ms)")):
        for scenario in _DYNAMICS_SCENARIOS:
            for strategy in _DYNAMICS_STRATEGIES:
                s = FigureSeries(label=f"{scenario}/{strategy}",
                                 x_label="dynamics intensity",
                                 y_label=y_label)
                for intensity in _DYNAMICS_INTENSITIES:
                    s.add(intensity,
                          res[(scenario, intensity, strategy)][metric])
                series.append(s)
    shed = FigureSeries(label="refused+shed+evicted (graceful)",
                        x_label="dynamics intensity",
                        y_label="sessions degraded")
    for intensity in _DYNAMICS_INTENSITIES:
        total = sum(
            res[(scenario, intensity, "graceful")][k]
            for scenario in _DYNAMICS_SCENARIOS
            for k in ("refused", "shed", "evicted"))
        shed.add(intensity, total)
    series.append(shed)
    return series


def _spec(name: str, description: str, tags: tuple[str, ...],
          decompose, merge=_merge_fragments) -> ExperimentSpec:
    return ExperimentSpec(name=name, description=description, tags=tags,
                          decompose=decompose, merge=merge)


SPECS: dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> None:
    SPECS[spec.name] = spec


_register(_spec(
    "fig5a", "user coverage vs datacenters (PeerSim)", ("paper", "peersim"),
    partial(_decompose_coverage_dc, "fig5a", "peersim", (5, 10, 15, 20, 25))))
_register(_spec(
    "fig5b", "user coverage vs supernodes (PeerSim)", ("paper", "peersim"),
    partial(_decompose_coverage_sn, "fig5b", "peersim",
            (0, 100, 200, 300, 400, 500, 600))))
_register(_spec(
    "fig6a", "user coverage vs datacenters (PlanetLab)",
    ("paper", "planetlab"),
    partial(_decompose_coverage_dc, "fig6a", "planetlab", (1, 2, 3, 4))))
_register(_spec(
    "fig6b", "user coverage vs supernodes (PlanetLab)",
    ("paper", "planetlab"),
    partial(_decompose_coverage_sn, "fig6b", "planetlab",
            (0, 50, 100, 150, 200, 250, 300))))
_register(_spec(
    "fig7a", "cloud bandwidth vs players (PeerSim)", ("paper", "peersim"),
    partial(_decompose_bandwidth, "fig7a", "peersim", 10)))
_register(_spec(
    "fig7b", "cloud bandwidth vs players (PlanetLab)",
    ("paper", "planetlab"),
    partial(_decompose_bandwidth, "fig7b", "planetlab", 5)))
_register(_spec(
    "fig8a", "response latency by system (PeerSim)", ("paper", "peersim"),
    partial(_decompose_latency, "fig8a", "peersim")))
_register(_spec(
    "fig8b", "response latency by system (PlanetLab)",
    ("paper", "planetlab"),
    partial(_decompose_latency, "fig8b", "planetlab")))
_register(_spec(
    "fig9a", "playback continuity vs players (PeerSim)",
    ("paper", "peersim"),
    partial(_decompose_continuity, "fig9a", "peersim", 10)))
_register(_spec(
    "fig9b", "playback continuity vs players (PlanetLab)",
    ("paper", "planetlab"),
    partial(_decompose_continuity, "fig9b", "planetlab", 5)))
_register(_spec(
    "fig10", "rate-adaptation satisfaction sweep", ("paper",),
    *_satisfaction("fig10", sat.FIG10_STRATEGIES)))
_register(_spec(
    "fig11", "deadline-scheduling satisfaction sweep", ("paper",),
    *_satisfaction("fig11", sat.FIG11_STRATEGIES)))
_register(_spec(
    "economics", "incentive sweep + deployment frontier (§III-A)",
    ("paper", "economics"), _decompose_economics))
# Extensions beyond the paper's figures (DESIGN.md §5b).
_register(_spec(
    "churn", "supernode churn and backup failover", ("extension",),
    *_seed_averaged(
        "churn", "churn_point", _CHURN_RATES,
        ((True, "with backups"), (False, "without backups (cloud fallback)")),
        _churn_params, "supernode departures per minute",
        "playback continuity")))
_register(_spec(
    "cooperation", "supernode load cooperation", ("extension",),
    *_seed_averaged(
        "cooperation", "cooperation_point", _COOP_FRACTIONS,
        ((False, "no cooperation"), (True, "with cooperation")),
        _coop_params, "fraction on the hot supernode", "satisfied players")))
_register(_spec(
    "gameworld", "update size + partition balance", ("extension",),
    _decompose_gameworld))
_register(_spec(
    "security", "reputation + eviction vs tampering", ("extension",),
    *_seed_averaged(
        "security", "security_point", _SECURITY_FRACTIONS,
        ((False, "no reputation system"),
         (True, "with reputation + eviction")),
        _security_params, "malicious supernode fraction",
        "tampered session rate")))
_register(_spec(
    "dynamic", "join/leave-driven CloudFog time series", ("extension",),
    _decompose_dynamic))
_register(_spec(
    "chaos", "QoE under deterministic fault injection", ("extension", "chaos"),
    _decompose_chaos, _merge_chaos))
_register(_spec(
    "orchestration",
    "assignment strategies head to head: QoE + load-distribution indices",
    ("extension", "orchestration"),
    _decompose_orchestration, _merge_orchestration))
_register(_spec(
    "scale", "latency percentiles vs population (cohort kernel)",
    ("extension", "scale"),
    _decompose_scale, _merge_scale))
_register(_spec(
    "dynamics",
    "QoE under churn, flash crowds and diurnal load (overload strategies)",
    ("extension", "dynamics"),
    _decompose_dynamics, _merge_dynamics))


def get_spec(name: str) -> ExperimentSpec:
    """The spec registered under ``name`` (exact key)."""
    try:
        return SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(SPECS)}"
        ) from None


def spec_names() -> list[str]:
    """All registered experiment keys, in registration order."""
    return list(SPECS)
