"""Population-dynamics benchmarks: a 100k-player flash crowd in budget.

Two gates for the dynamics layer (DESIGN.md §14):

* a 100k-player cohort run under a full flash-crowd plan — joins,
  leaves, admission control, quality-ladder shedding — finishes inside
  a CI-sized wall-clock budget and violates no kernel invariant;
* graceful overload handling is not cosmetic: under a sustained 10x
  regional surge the shed/refuse ladder keeps the satisfied fraction of
  participants above a floor the do-nothing strategy sinks through.

Measurements land in ``BENCH_dynamics.json`` (override the path with
``CLOUDFOG_BENCH_DYNAMICS_OUT``), the artifact CI uploads.
"""

import json
import os
import time

from repro.core.cohort import ScaleSpec
from repro.dynamics import DynamicsBuilder, DynamicsSpec, run_dynamics

OUT_PATH = os.environ.get("CLOUDFOG_BENCH_DYNAMICS_OUT",
                          "BENCH_dynamics.json")

#: Wall-clock budget for the 100k flash-crowd smoke (generous for
#: shared CI runners; ~15 s on a laptop-class core).
SMOKE_BUDGET_S = 120.0

#: Floor on the graceful strategy's satisfied-participant fraction
#: under the 10x surge, and the margin it must keep over "none".
SATISFIED_FLOOR = 0.90


def _record(**measurements) -> None:
    """Merge measurements into the shared BENCH_dynamics.json artifact."""
    data = {}
    try:
        with open(OUT_PATH, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except (OSError, ValueError):
        pass
    data.update(measurements)
    with open(OUT_PATH, "w", encoding="utf-8") as fp:
        json.dump(data, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _surge_spec(n_players, n_regions, n_ticks, strategy, seed=7,
                initial_fraction=0.3, surge_factor=10.0):
    base = ScaleSpec(n_players=n_players, n_regions=n_regions,
                     n_ticks=n_ticks, seed=seed, faults="none")
    horizon = n_ticks * base.params.tick_s
    plan = (DynamicsBuilder(seed=seed)
            .flash_crowd(at_s=0.1 * horizon, duration_s=0.3 * horizon,
                         region=0,
                         arrivals_per_s=(surge_factor * n_players
                                         / n_regions) / (0.3 * horizon),
                         mean_session_s=10.0 * horizon)
            .build())
    return DynamicsSpec(base=base, plan=plan,
                        initial_fraction=initial_fraction,
                        strategy=strategy)


def test_100k_flash_crowd_within_budget():
    """100k cohort players under a regional flash crowd, in budget and
    invariant-clean."""
    spec = _surge_spec(100_000, 8, 60, "graceful", surge_factor=3.0,
                       initial_fraction=0.5)
    t0 = time.perf_counter()
    report = run_dynamics(spec)
    elapsed = time.perf_counter() - t0

    assert report.invariants == []
    assert report.joins > 0
    ticks_per_s = report.scale.player_ticks / max(elapsed, 1e-9)
    _record(flash_crowd_100k_wall_s=round(elapsed, 2),
            flash_crowd_100k_player_ticks_per_s=round(ticks_per_s),
            flash_crowd_100k_joins=report.joins,
            flash_crowd_100k_leaves=report.leaves,
            flash_crowd_100k_refused=report.refused,
            flash_crowd_100k_shed=report.shed,
            flash_crowd_100k_budget_s=SMOKE_BUDGET_S)
    print(f"\n100k flash crowd: {elapsed:.1f}s "
          f"({ticks_per_s:,.0f} player-ticks/s, {report.joins} joins, "
          f"{report.shed} shed)")
    assert elapsed < SMOKE_BUDGET_S, (
        f"100k flash-crowd run took {elapsed:.1f}s "
        f"(budget {SMOKE_BUDGET_S:.0f}s)")


def test_overload_shedding_holds_the_qoe_floor():
    """Under a 10x surge, graceful shedding keeps the satisfied
    fraction above the floor and strictly above the none strategy."""
    graceful = run_dynamics(_surge_spec(4000, 4, 80, "graceful"))
    unmanaged = run_dynamics(_surge_spec(4000, 4, 80, "none"))

    assert graceful.invariants == [] and unmanaged.invariants == []
    assert graceful.shed > 0 and graceful.refused > 0
    _record(surge_graceful_satisfied=round(
                graceful.satisfied_active_fraction, 4),
            surge_none_satisfied=round(
                unmanaged.satisfied_active_fraction, 4),
            surge_graceful_shed=graceful.shed,
            surge_graceful_refused=graceful.refused,
            surge_satisfied_floor=SATISFIED_FLOOR)
    print(f"\n10x surge satisfied: graceful "
          f"{graceful.satisfied_active_fraction:.4f} vs none "
          f"{unmanaged.satisfied_active_fraction:.4f}")
    assert (graceful.satisfied_active_fraction
            > unmanaged.satisfied_active_fraction)
    assert graceful.satisfied_active_fraction >= SATISFIED_FLOOR
