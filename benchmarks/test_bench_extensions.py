"""Extension benches: supernode churn/failover and cooperation.

These exercise the paper's backup mechanism (§III-A-3) and its stated
future work (§V, supernode cooperation).
"""

from conftest import record_series

from repro.experiments.churn import ChurnConfig, simulate_churn
from repro.experiments.cooperation import (
    CooperationConfig,
    simulate_cooperation,
)
from repro.experiments.specs import seed_mean_series


def test_churn_failover(benchmark, bench_seed):
    cfg = ChurnConfig(duration_s=40.0)
    series = benchmark.pedantic(
        lambda: seed_mean_series(
            ["with backups", "without backups (cloud fallback)"],
            (0.0, 2.0, 4.0, 8.0), (bench_seed, bench_seed + 1),
            lambda rate, i, seed: simulate_churn(
                rate, i == 0, seed=seed, config=cfg)["continuity"],
            "supernode departures per minute", "playback continuity"),
        rounds=1, iterations=1)
    record_series(benchmark, series,
                  "Extension: continuity vs supernode churn")

    with_b, without_b = series
    assert with_b.label == "with backups"
    # No churn: strategies indistinguishable.
    assert abs(with_b.y[0] - without_b.y[0]) < 0.02
    # Backups keep continuity high; cloud fallback decays with churn.
    assert with_b.y[-1] > 0.9
    assert without_b.y[-1] < with_b.y[-1] - 0.1
    assert without_b.y == sorted(without_b.y, reverse=True)


def test_supernode_cooperation(benchmark, bench_seed):
    cfg = CooperationConfig(duration_s=30.0)
    series = benchmark.pedantic(
        lambda: seed_mean_series(
            ["no cooperation", "with cooperation"], (0.25, 0.5, 0.75),
            (bench_seed, bench_seed + 1),
            lambda frac, i, seed: simulate_cooperation(
                16, frac, i == 1, seed=seed, config=cfg)["satisfied"],
            "fraction on the hot supernode", "satisfied players"),
        rounds=1, iterations=1)
    record_series(benchmark, series,
                  "Extension: satisfaction vs load skew (cooperation)")

    solo, coop = series
    # Balanced load: both fine.
    assert solo.y[0] > 0.9 and coop.y[0] > 0.9
    # Skewed load: cooperation pools the neighbourhood's uplinks.
    assert coop.y[-1] > solo.y[-1] + 0.3
