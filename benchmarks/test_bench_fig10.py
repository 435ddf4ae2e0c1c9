"""Figure 10 — effectiveness of the encoding rate adaptation."""

from conftest import record_series

from repro.experiments.satisfaction import (
    FIG10_STRATEGIES,
    SupernodeLoadConfig,
    simulate_supernode_load,
)
from repro.experiments.specs import seed_mean_series

CFG = SupernodeLoadConfig(duration_s=25.0, warmup_s=8.0)


def satisfied(k, i, seed):
    _label, adapt, sched = FIG10_STRATEGIES[i]
    return simulate_supernode_load(
        k, adapt, sched, seed=seed, config=CFG)["satisfied"]


def test_fig10_satisfaction_adapt(benchmark, bench_seed):
    series = benchmark.pedantic(
        lambda: seed_mean_series(
            [label for label, _, _ in FIG10_STRATEGIES], (5, 10, 15, 20, 25),
            (bench_seed, bench_seed + 1), satisfied,
            "players per supernode", "satisfied players"),
        rounds=1, iterations=1)
    record_series(
        benchmark, series,
        "Figure 10: satisfied players, CloudFog-adapt vs CloudFog/B")

    base, adapt = series
    assert base.label == "CloudFog/B"
    assert adapt.label == "CloudFog-adapt"
    # Adaptation never hurts and wins where the supernode saturates.
    for k in range(len(base.x)):
        assert adapt.y[k] >= base.y[k] - 1e-9
    # Paper: the increase is large at 25 players per supernode.
    assert adapt.y[-1] - base.y[-1] > 0.25
    # The baseline "drops quickly" under load.
    assert base.y[0] > 0.9
    assert base.y[-1] < 0.3
