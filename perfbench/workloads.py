"""The four benchmark workloads, their correctness checks and pins.

Every number the benchmark scores is host time. The simulated
statistics (latency percentiles, satisfaction, figure series) are
outputs: they are checked here and must never move, because a change
that only speeds up the simulator has to leave every one of them
identical.

Each workload calls only the stable public surface of ``repro``:
``run_scale``, ``run_dynamics`` with a ``DynamicsBuilder`` plan,
``run_spec(get_spec(name), scale, seed, config=RunConfig(...))`` and
``RemoteBackend.start``/``wire_stats``. It passes no ``queue=``, no
legacy ``jobs=``/``cache_dir=`` keyword to ``run_spec``, no
``compress=``, and reads no private attribute: counts come from
``ScaleReport``, ``DynamicsReport`` and ``RunResult.metrics``.

A workload returns a plain dict (see :func:`_outcome`); the child
process adds its own timings and peak RSS and prints it as JSON.
"""

from __future__ import annotations

import os
import time

from repro.core.cohort import ScaleSpec, run_scale
from repro.dynamics import DynamicsBuilder, DynamicsSpec, run_dynamics
from repro.experiments.config import RunConfig
from repro.experiments.parallel import run_spec
from repro.experiments.specs import get_spec

from tracer import Tracer, traced_spec

#: Worker processes for the parallel sweeps: two, never more than the
#: machine has cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Experiment scale of both sweeps (players, supernodes and horizons
#: shrink with it).
SWEEP_SCALE = 0.05

#: Every spec tagged ``paper``: Figures 5-11 and the economics sweep.
PAPER_SPECS = ("fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
               "fig8a", "fig8b", "fig9a", "fig9b", "fig10", "fig11",
               "economics")

#: The small-task specs (about 82 tasks of about 16 ms each).
FABRIC_SPECS = ("fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
                "fig8b", "fig9b", "economics", "security", "dynamics")

#: Sweep counts that repeat exactly for one seed.
SWEEP_COUNTS = ("experiments.tasks", "sim.events",
                "sender.segments_enqueued", "server.segments_sent")

#: Passes over FABRIC_SPECS per fabric start-up in an untraced run.
FABRIC_PASSES = 4

#: The paper's Figure 8 systems, worst response latency first.
FIG8_ORDER = ("Cloud", "EdgeCloud", "CloudFog/B", "CloudFog/A")

#: Simulated-output digests at seed 0. Any change to one of them is a
#: change to the simulation, which a speed-up must never make. A spec's
#: ``RunResult.digest`` is the same on every backend.
PINNED_SEED = 0
SPEC_DIGESTS = {
    "fig5a": "eb50c68d3a687418441eeb4fd7834d70"
             "9726ae22370d5cf511a1767fe2e37b4e",
    "fig5b": "9f706775f869d18d46e33ec9c5396d84"
             "75fe93456ced406c4e744da702fba176",
    "fig6a": "c5d3e97fbd6cb5f53c38cc545b167c96"
             "15e861479daf0dd620e735664268299c",
    "fig6b": "15e9939bc5f4fdca4be5ac30dbdb187f"
             "803b91e0fd98ef4763e7c34f08b91240",
    "fig7a": "8d5bc6a344bc7248fa4babd53876c19b"
             "9c03ca469589671ae6b39608b3fa7f9b",
    "fig7b": "859e8b1d326d8fae1efdabb57a8e9db0"
             "010309ad6f532e27377ab343ff32aab5",
    "fig8a": "4b8c9fec21cb45fc47d9dc7cad0d3d4a"
             "307f9f341e06813f3e6425f53fa7b972",
    "fig8b": "fe021ebcea5e7e50a5ca8adabff8f786"
             "73ec3c5441292d579d1bfe6438389fb0",
    "fig9a": "d300902cb8507cb8d2ccb43ebede58a5"
             "3b7c212a98f91a60f41adb01dcd61ac4",
    "fig9b": "1914f7e0e6df10630337d64f161506bb"
             "db3352d227d3c562864b6744ef0a7927",
    "fig10": "1fcf6c9c577b2c07f0be46357996c75f"
             "dc02090af97e77c91cfc9e9e8bceee7d",
    "fig11": "a2e259b220be95a52917eae759bc0f06"
             "5dd25d8358f3ea840b29b55e31a13195",
    "economics": "da13965abef50e94edcdcb1871e77841"
                 "5c565774ab715770f1a3de0990e828d1",
    "security": "a22ff7733f0ee33bf9a9297b29ea14e5"
                "ee3edc578c6fc22e015a3f9b161c653f",
    "dynamics": "3e4d3a02d85d1ca48c9032d9d9c78dd1"
                "0b9b71d464553957f7cf5b663bf5a62c",
}
PINNED = {
    "scale-outage-100k": {
        "scale": "323145e06736c8863099d6185440ba10"
                 "3c6dff594ad907f5c6270951310198ef",
        "p99_ms": 191.5,
    },
    "launch-day-100k": {
        "dynamics": "f771e29834215f086512af05696fbb3c"
                    "602e60b0a795dab72fa25511d84af1fd",
    },
    "paper-sweep": SPEC_DIGESTS,
    "fabric-sweep": SPEC_DIGESTS,
}

#: Counts that repeat exactly for one seed and one version of the
#: code, recorded at seed 0 (``core.advance_calls`` comes from traced
#: runs only). A later change may move them on purpose, fewer events
#: say; a difference is printed, never failed.
REFERENCE_COUNTS = {
    "scale-outage-100k": {"sim.events": 386581,
                          "core.materialisations": 9829,
                          "core.advance_calls": 386581},
    "launch-day-100k": {"sim.events": 256819,
                        "core.materialisations": 7435,
                        "dynamics.joins": 32079,
                        "core.advance_calls": 252029},
    "paper-sweep": {"experiments.tasks": 79, "sim.events": 1196356,
                    "sender.segments_enqueued": 201000,
                    "server.segments_sent": 191850,
                    "core.advance_calls": 0},
    "fabric-sweep": {"experiments.tasks": 82, "sim.events": 97982,
                     "sender.segments_enqueued": 16200,
                     "server.segments_sent": 15600,
                     "core.advance_calls": 21227},
}


def _outcome(**kw) -> dict:
    base = {"run_s": [], "player_ticks": [], "tasks": [], "attempted": 0,
            "failed": 0, "problems": [], "counts": {}, "layer": {},
            "digests": {}, "workers": 1}
    base.update(kw)
    return base


def _check_percentiles(problems: list, report) -> None:
    if not report.p50_ms < report.p95_ms < report.p99_ms:
        problems.append(
            f"percentiles out of order: P50 {report.p50_ms} "
            f"P95 {report.p95_ms} P99 {report.p99_ms}")


def _check_satisfied(problems: list, what: str, fraction: float) -> None:
    if not 0.9 < fraction <= 1.0:
        problems.append(f"{what} {fraction} outside (0.9, 1]")


def _check_pin(problems: list, workload: str, seed: int, key: str,
               value) -> None:
    if seed != PINNED_SEED:
        return
    want = PINNED.get(workload, {}).get(key)
    if want is not None and value != want:
        problems.append(f"{key}: {value} differs from the pinned {want}")


# --------------------------------------------------------------------------
# scale-outage-100k
#
# The tracked million-player path at a size that repeats in seconds:
# cohort mode, about 10% of players materialised and each driven by its
# own per-tick event. Stresses PlayerCohort.advance, RegionalLatency.
# gather_s and the repro.sim queue, which ROADMAP item 1 and its fused
# advance target. Leaves the session protocol, streaming, obs probes and
# the sweep harness idle.
# --------------------------------------------------------------------------

def scale_outage(seed: int, mode: str, tracer: Tracer | None) -> dict:
    name = "scale-outage-100k"
    spec = ScaleSpec(n_players=100_000, n_regions=8, n_ticks=120,
                     seed=seed, faults="outage")
    t0 = time.perf_counter()
    report = run_scale(spec)
    t1 = time.perf_counter()
    problems: list[str] = []
    _check_percentiles(problems, report)
    _check_satisfied(problems, "satisfied fraction",
                     report.satisfied_fraction)
    _check_pin(problems, name, seed, "scale", report.digest)
    _check_pin(problems, name, seed, "p99_ms", report.p99_ms)
    return _outcome(
        # The kernel times its own run; what precedes it is set-up.
        ready=t1 - report.wall_s, call_s=t1 - t0, run_s=[report.wall_s],
        player_ticks=[sum(r.frames for r in report.regions)],
        # One kernel run is one task.
        tasks=[1], attempted=1, failed=int(bool(problems)),
        problems=problems, digests={"scale": report.digest},
        counts={"sim.events": report.events_scheduled,
                "core.materialisations": report.materialisations},
        layer={"sim.events": report.events_scheduled,
               "core.materialisations": report.materialisations,
               "core.reabsorptions": report.reabsorptions})


# --------------------------------------------------------------------------
# launch-day-100k
#
# The same cohort layer with membership writes beside the reads: churn
# joins and leaves, a 4x regional flash crowd that the graceful ladder
# refuses and sheds, mobility migrations and diurnal load. A kernel
# rewrite that speeds up a static population but makes joins or leaves
# O(N) shows here and not in scale-outage-100k. Also the only workload
# that compiles a dynamics plan.
# --------------------------------------------------------------------------

def launch_day_spec(seed: int) -> DynamicsSpec:
    n_players, n_regions, n_ticks = 100_000, 8, 120
    base = ScaleSpec(n_players=n_players, n_regions=n_regions,
                     n_ticks=n_ticks, seed=seed, faults="none")
    horizon = n_ticks * base.params.tick_s
    surge_window = 0.1 * horizon
    plan = (DynamicsBuilder(seed=seed)
            .churn(join_rate_per_s=0.0005 * n_players,
                   mean_session_s=2.0 * horizon)
            .flash_crowd(at_s=0.1 * horizon, duration_s=surge_window,
                         region=0,
                         arrivals_per_s=(4.0 * n_players / n_regions)
                         / surge_window,
                         mean_session_s=10.0 * horizon, shape="spike")
            .mobility(rate_per_s=0.001 * n_players, from_region=0,
                      to_region=1, start_s=0.5 * horizon,
                      duration_s=0.3 * horizon)
            .diurnal(day_length_s=horizon)
            .build())
    return DynamicsSpec(base=base, plan=plan, initial_fraction=0.5,
                        strategy="graceful")


def launch_day(seed: int, mode: str, tracer: Tracer | None) -> dict:
    name = "launch-day-100k"
    spec = launch_day_spec(seed)
    t0 = time.perf_counter()
    report = run_dynamics(spec)
    t1 = time.perf_counter()
    scale = report.scale
    problems = [f"invariant: {v}" for v in report.invariants]
    _check_percentiles(problems, scale)
    _check_satisfied(problems, "satisfied participant fraction",
                     report.satisfied_active_fraction)
    for what in ("joins", "leaves", "moves", "refused"):
        if getattr(report, what) <= 0:
            problems.append(f"the plan produced no {what}")
    _check_pin(problems, name, seed, "dynamics", scale.digest)
    return _outcome(
        ready=t1 - scale.wall_s, call_s=t1 - t0, run_s=[scale.wall_s],
        player_ticks=[sum(r.frames for r in scale.regions)],
        tasks=[1], attempted=1, failed=int(bool(problems)),
        problems=problems, digests={"dynamics": scale.digest},
        counts={"sim.events": scale.events_scheduled,
                "core.materialisations": scale.materialisations,
                "dynamics.joins": report.joins},
        layer={"sim.events": scale.events_scheduled,
               "core.materialisations": scale.materialisations,
               "core.reabsorptions": scale.reabsorptions,
               "dynamics.joins": report.joins,
               "dynamics.leaves": report.leaves,
               "dynamics.moves": report.moves,
               "dynamics.refused": report.refused,
               "dynamics.shed": report.shed})


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

def _counter(metrics: dict, name: str) -> int:
    return int(metrics.get(name, {}).get("value", 0))


def _sweep_pass(names, seed: int, config: RunConfig,
                tracer: Tracer | None, workload: str) -> dict:
    """One pass over ``names``; returns its time, counts and checks."""
    specs = [get_spec(n) for n in names]
    if tracer is not None and tracer.full:
        specs = [traced_spec(tracer, s) for s in specs]
    problems: list[str] = []
    totals = dict.fromkeys(SWEEP_COUNTS + ("sender.packets_dropped",), 0)
    digests = {}
    attempted = failed = 0
    t0 = time.perf_counter()
    for spec in specs:
        r = run_spec(spec, SWEEP_SCALE, seed, config=config)
        digests[r.name] = r.digest
        attempted += r.tasks_total
        # A failed or retried task is a failed operation; so is a
        # failed check of the run's outputs.
        failed += r.tasks_failed + r.tasks_retried
        if not r.ok:
            problems.append(f"{r.name}: {r.tasks_failed} task(s) failed")
        if r.tasks_retried:
            problems.append(f"{r.name}: {r.tasks_retried} retried task(s)")
        checked = len(problems)
        _check_pin(problems, workload, seed, r.name, r.digest)
        totals["experiments.tasks"] += r.tasks_total
        totals["sim.events"] += _counter(r.metrics, "sim.events_scheduled")
        for key in ("sender.segments_enqueued", "server.segments_sent",
                    "sender.packets_dropped"):
            totals[key] += _counter(r.metrics, key)
        if r.name == "fig8a":
            _check_fig8(problems, r.series, seed)
        failed += len(problems) - checked
    elapsed = time.perf_counter() - t0
    return {"run_s": elapsed, "problems": problems, "totals": totals,
            "digests": digests, "attempted": attempted, "failed": failed}


def _check_fig8(problems: list, series, seed: int) -> None:
    """The paper's Figure 8 ordering of response latency.

    Cloud > EdgeCloud > CloudFog/B > CloudFog/A holds in full at the
    pinned seed. At scale 0.05 the EdgeCloud/CloudFog-B gap is within
    sampling noise (seed 8: 106.4 ms against 109.4 ms; the other 79
    seeds in 0-79 keep it), so on other seeds that one step is not
    checked: Cloud must exceed every other system, and CloudFog/A must
    be the lowest.
    """
    s = series[0]
    by_system = dict(zip(s.label.split(" | "), s.y))
    if any(k not in by_system for k in FIG8_ORDER):
        problems.append(f"fig8a systems missing: {sorted(by_system)}")
        return
    cloud, edge, fog_b, fog_a = (by_system[k] for k in FIG8_ORDER)
    ok = cloud > edge > fog_a and cloud > fog_b > fog_a
    if seed == PINNED_SEED:
        ok = ok and edge > fog_b
    if not ok:
        problems.append(f"fig8a ordering broken: {by_system}")


def _sweep_outcome(passes: list[dict], ready: float, layer: dict,
                   workers: int) -> dict:
    first = passes[0]
    counts = {k: first["totals"][k] for k in SWEEP_COUNTS}
    problems: list[str] = []
    for ps in passes[1:]:
        if ps["digests"] != first["digests"]:
            problems.append("digests differ between passes of one seed")
        again = {k: ps["totals"][k] for k in SWEEP_COUNTS}
        if again != counts:
            problems.append(f"exact counts differ between passes: "
                            f"{counts} vs {again}")
    layer.update(counts)
    layer["core.packets_dropped"] = first["totals"]["sender.packets_dropped"]
    return _outcome(
        ready=ready, call_s=sum(ps["run_s"] for ps in passes),
        run_s=[ps["run_s"] for ps in passes],
        # A packet-level session streams one segment per player per
        # tick, so segments enqueued are the sweep's player-ticks.
        player_ticks=[ps["totals"]["sender.segments_enqueued"]
                      for ps in passes],
        tasks=[ps["totals"]["experiments.tasks"] for ps in passes],
        attempted=sum(ps["attempted"] for ps in passes),
        failed=sum(ps["failed"] for ps in passes) + len(problems),
        problems=[p for ps in passes for p in ps["problems"]] + problems,
        digests=first["digests"], counts=counts, layer=layer,
        workers=workers)


# --------------------------------------------------------------------------
# paper-sweep
#
# What users run most: every paper figure at a reduced scale on the
# default parallel path, which is the process pool today (79 tasks of
# mixed size). Drives the packet-level GamingSession on the generator
# event kernel: repro.streaming, core scheduling/adaptation/assignment,
# the repro.obs kernel probes and the coverage latency matrices. The
# cohort kernel is idle here, so ROADMAP item 1 predicts no change;
# item 3's probe saving shows only here. Traced runs execute inline,
# because spans recorded in pool workers are lost.
# --------------------------------------------------------------------------

def paper_sweep(seed: int, mode: str, tracer: Tracer | None) -> dict:
    workers = WORKERS if mode == "run" else 1
    config = RunConfig(jobs=workers)
    ready = time.perf_counter()
    ps = _sweep_pass(PAPER_SPECS, seed, config, tracer, "paper-sweep")
    return _sweep_outcome([ps], ready, {}, workers)


# --------------------------------------------------------------------------
# fabric-sweep
#
# The wire layer (experiments.backends protocol, remote and worker),
# used the opposite way from paper-sweep: about 82 small tasks per pass
# on 2 loopback workers, so per-task framing, pickling and round trips
# dominate, not task compute. ROADMAP items 4 and 5 rewrite this path.
# Fabric start-up is set-up; teardown stays outside the timed region.
# Teardown may print "Exception ignored in atexit callback ...
# SystemExit: 143" from the worker's SIGTERM handler: a known defect
# that is reported, not suppressed, and not counted as a failed task.
# --------------------------------------------------------------------------

def fabric_sweep(seed: int, mode: str, tracer: Tracer | None) -> dict:
    layer: dict = {}
    if mode != "run":
        ready = time.perf_counter()
        ps = _sweep_pass(FABRIC_SPECS, seed, RunConfig(), tracer,
                         "fabric-sweep")
        return _sweep_outcome([ps], ready, layer, 1)
    config = RunConfig(backend="remote", launch=WORKERS)
    try:
        backend = config.make_backend()
        t0 = time.perf_counter()
        backend.start()
        ready = time.perf_counter()
        before = backend.wire_stats()
        passes = [_sweep_pass(FABRIC_SPECS, seed, config, None,
                              "fabric-sweep")
                  for _ in range(FABRIC_PASSES)]
        after = backend.wire_stats()
    finally:
        config.close()
    tasks = sum(ps["totals"]["experiments.tasks"] for ps in passes)
    sent = after["sent"] - before["sent"]
    recv = after["recv"] - before["recv"]
    layer.update({"fabric.setup_s": ready - t0,
                  "fabric.wire_bytes_sent": sent / FABRIC_PASSES,
                  "fabric.wire_bytes_recv": recv / FABRIC_PASSES,
                  "fabric.bytes_per_task": (sent + recv) / max(tasks, 1)})
    return _sweep_outcome(passes, ready, layer, WORKERS)


WORKLOADS = {
    "scale-outage-100k": scale_outage,
    "launch-day-100k": launch_day,
    "paper-sweep": paper_sweep,
    "fabric-sweep": fabric_sweep,
}
