"""Cohort-kernel equivalence: vectorised and per-player runs are one trace.

The cohort kernel's whole claim is that batching players is an
*optimisation*, not an approximation: for the same spec, the vectorised
cohort run and the player-by-player run must produce byte-identical
trace digests — across seeds, region counts and fault presets.
"""

from repro.core.cohort import FAULT_PRESETS, ScaleSpec, run_scale

N_PLAYERS = 400
N_TICKS = 50


def digest_of(**kw):
    return run_scale(ScaleSpec(**kw)).digest


class TestModeEquivalence:
    def test_across_seeds(self):
        for seed in (0, 1, 17):
            a = digest_of(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                          seed=seed, mode="cohort", faults="mixed")
            b = digest_of(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                          seed=seed, mode="per-player", faults="mixed")
            assert a == b, f"seed {seed}"

    def test_across_region_counts(self):
        for regions in (1, 2, 5, 9):
            a = digest_of(n_players=N_PLAYERS, n_regions=regions,
                          n_ticks=N_TICKS, seed=2, mode="cohort",
                          faults="outage")
            b = digest_of(n_players=N_PLAYERS, n_regions=regions,
                          n_ticks=N_TICKS, seed=2, mode="per-player",
                          faults="outage")
            assert a == b, f"{regions} regions"

    def test_across_fault_presets(self):
        for faults in FAULT_PRESETS:
            a = digest_of(n_players=N_PLAYERS, n_regions=4,
                          n_ticks=N_TICKS, seed=3, mode="cohort",
                          faults=faults)
            b = digest_of(n_players=N_PLAYERS, n_regions=4,
                          n_ticks=N_TICKS, seed=3, mode="per-player",
                          faults=faults)
            assert a == b, f"faults={faults}"

    def test_different_seeds_differ(self):
        # The digest is not vacuous: different seeds, different traces.
        a = digest_of(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                      seed=0, mode="cohort", faults="mixed")
        b = digest_of(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                      seed=1, mode="cohort", faults="mixed")
        assert a != b

    def test_rerun_is_deterministic(self):
        kw = dict(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                  seed=5, mode="cohort", faults="mixed")
        assert digest_of(**kw) == digest_of(**kw)

