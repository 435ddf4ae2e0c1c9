"""Figure 11 — effectiveness of the deadline-driven buffer scheduling."""

from conftest import record_series

from repro.experiments.satisfaction import (
    FIG11_STRATEGIES,
    SupernodeLoadConfig,
    simulate_supernode_load,
)
from repro.experiments.specs import seed_mean_series

CFG = SupernodeLoadConfig(duration_s=25.0, warmup_s=8.0)


def satisfied(k, i, seed):
    _label, adapt, sched = FIG11_STRATEGIES[i]
    return simulate_supernode_load(
        k, adapt, sched, seed=seed, config=CFG)["satisfied"]


def test_fig11_satisfaction_schedule(benchmark, bench_seed):
    series = benchmark.pedantic(
        lambda: seed_mean_series(
            [label for label, _, _ in FIG11_STRATEGIES], (5, 10, 15, 20, 25),
            (bench_seed, bench_seed + 1), satisfied,
            "players per supernode", "satisfied players"),
        rounds=1, iterations=1)
    record_series(
        benchmark, series,
        "Figure 11: satisfied players, CloudFog-schedule vs CloudFog/B")

    base, sched = series
    assert base.label == "CloudFog/B"
    assert sched.label == "CloudFog-schedule"
    for k in range(len(base.x)):
        assert sched.y[k] >= base.y[k] - 1e-9
    # Paper: scheduling helps "especially when a supernode is supporting
    # a large number of players".
    gap_light = sched.y[0] - base.y[0]
    gap_heavy = sched.y[-1] - base.y[-1]
    assert gap_heavy > gap_light
    assert gap_heavy > 0.15
