"""Scale-regression benchmarks for the million-player tick kernel.

Two gates, each a qualitative claim the cohort kernel makes:

* one cohort step costs *sublinear* time in population — the vectorised
  batch amortises its fixed overhead, so 64× the players must cost well
  under 64× the time;
* a 100k-player multi-region run with a fault preset finishes inside a
  CI-sized wall-clock budget.
"""

import time

import numpy as np

from repro.core.cohort import CohortKernel, ScaleSpec, run_scale

#: Wall-clock budget for the 100k smoke (generous for shared CI runners;
#: the run takes a few seconds on a laptop-class core).
SMOKE_BUDGET_S = 120.0


def test_cohort_step_cost_sublinear(benchmark):
    """64× the players must cost far less than 64× the step time.

    The small operating point (250 players) is deliberately below the
    amortisation knee — per-player cost there is dominated by the fixed
    per-call overhead of the ~30 numpy kernels a step issues, so a
    vectorised batch 64× larger lands well under 64× the time (~19× on
    a laptop-class core). Comparing two already-amortised sizes would
    instead measure memory bandwidth, which is linear.
    """
    def step_time(n_players, ticks=30):
        kernel = CohortKernel(ScaleSpec(
            n_players=n_players, n_regions=6, n_ticks=ticks,
            faults="none"))
        idx = np.flatnonzero(kernel.cohort.active)
        t0 = time.perf_counter()
        for tick in range(ticks):
            kernel.cohort.advance(idx, tick)
        return (time.perf_counter() - t0) / ticks

    small = min(step_time(250) for _ in range(3))
    large = min(step_time(16_000) for _ in range(3))
    ratio = large / small
    benchmark.extra_info["step_250_us"] = small * 1e6
    benchmark.extra_info["step_16k_us"] = large * 1e6
    benchmark.extra_info["scaling_ratio"] = ratio
    benchmark(lambda: step_time(16_000, ticks=10))
    # Strictly sublinear with headroom: 64x players in < 32x time.
    assert ratio < 32.0, f"step cost scaled {ratio:.1f}x for 64x players"


def test_100k_smoke_under_budget(benchmark):
    """100k players, 8 regions, outage preset — inside the CI budget."""
    def run():
        return run_scale(ScaleSpec(
            n_players=100_000, n_regions=8, n_ticks=120,
            seed=0, mode="cohort", faults="outage"))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["player_ticks"] = report.player_ticks
    benchmark.extra_info["p99_ms"] = report.p99_ms
    assert report.wall_s < SMOKE_BUDGET_S
    assert report.n_players == 100_000
    assert 0.9 < report.satisfied_fraction <= 1.0
    assert report.p50_ms < report.p95_ms < report.p99_ms
