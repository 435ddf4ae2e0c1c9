"""Golden-digest regression fixtures for the tick kernel.

Two pins:

* The cohort kernel's trace digest for four small pinned configurations.
  Any change to the state math, the tick order, the counter RNG, or
  the hash layout shows up here first — deliberately, since downstream
  equivalence tests compare runs *to each other* and would both drift.
  The kernel uses only IEEE-754-exact operations (add/sub/mul/div/
  min/max/sqrt, integer counters), so these digests are identical across
  platforms and numpy builds. If a change is intentional, regenerate:

      PYTHONPATH=src python -c "
      from repro.core.cohort import ScaleSpec, run_scale
      for seed, faults in [(0,'mixed'),(1,'outage'),(2,'none'),
                           (3,'crashes')]:
          print(seed, faults, run_scale(ScaleSpec(
              n_players=250, n_regions=3, n_ticks=40, seed=seed,
              mode='cohort', faults=faults)).digest)"

* The divergence-mask bookkeeping: ``materialisations``,
  ``reabsorptions`` and ``final_materialised`` for the same four
  configurations in both modes, plus one population-dynamics run with
  mobility. These counts are not part of any digest, so only this pin
  notices when the bookkeeping drifts.
"""

import pytest

from repro.core.cohort import ScaleSpec, run_scale
from repro.dynamics import DynamicsSpec, preset_dynamics, run_dynamics

GOLDEN = {
    (0, "mixed"): "ac914652e02f01841b5f245cb1f5b083d6f247165624c0b2b9ecc3ab1a28dbfb",
    (1, "outage"): "773a0df5907c378bdbf3b90628f7cd2ca5fb4c7088d4c580d33c6c7163ca8fc2",
    (2, "none"): "71d110b700d511692133e950b9f0b14eb81612779c269082e2561c82ed4a5608",
    (3, "crashes"): "df038652abe3d50453c35b169c97eefc2bc1ca2a61bcafb7acbd4f5c1bbd3313",
}

#: (materialisations, reabsorptions, final_materialised) per GOLDEN
#: config and mode. Per-player mode marks every player up front and
#: never re-absorbs.
GOLDEN_COUNTS = {
    (0, "mixed", "cohort"): (37, 10, 27),
    (1, "outage", "cohort"): (25, 7, 18),
    (2, "none", "cohort"): (19, 8, 11),
    (3, "crashes", "cohort"): (23, 8, 15),
    (0, "mixed", "per-player"): (250, 0, 250),
    (1, "outage", "per-player"): (250, 0, 250),
    (2, "none", "per-player"): (250, 0, 250),
    (3, "crashes", "per-player"): (250, 0, 250),
}

#: The launch-day preset (churn, flash crowd, mobility, diurnal) on
#: 1000 players × 3 regions × 100 ticks, seed 2, 60% online at tick 0.
LAUNCH_DAY_DIGEST = (
    "40e36306a07f7e30eb9284bf4bfbd6136a6f26186669a4afa244fb16115d2070")
LAUNCH_DAY_COUNTS = {
    "cohort": (78, 20, 2),
    "per-player": (1166, 0, 36),
}


def _counts(report):
    return (report.materialisations, report.reabsorptions,
            report.final_materialised)


class TestGoldenScaleDigests:
    @pytest.mark.parametrize("seed,faults", sorted(GOLDEN))
    def test_pinned_digest(self, seed, faults):
        report = run_scale(ScaleSpec(
            n_players=250, n_regions=3, n_ticks=40, seed=seed,
            mode="cohort", faults=faults))
        assert report.digest == GOLDEN[(seed, faults)]


class TestMaterialisationCounts:
    @pytest.mark.parametrize("seed,faults,mode", sorted(GOLDEN_COUNTS))
    def test_pinned_counts(self, seed, faults, mode):
        report = run_scale(ScaleSpec(
            n_players=250, n_regions=3, n_ticks=40, seed=seed,
            mode=mode, faults=faults))
        assert report.digest == GOLDEN[(seed, faults)]
        assert _counts(report) == GOLDEN_COUNTS[(seed, faults, mode)]

    @pytest.mark.parametrize("mode", sorted(LAUNCH_DAY_COUNTS))
    def test_launch_day_counts(self, mode):
        base = ScaleSpec(n_players=1000, n_regions=3, n_ticks=100, seed=2,
                         mode=mode, faults="none")
        plan = preset_dynamics(
            "launch-day", horizon_s=base.n_ticks * base.params.tick_s,
            n_players=base.n_players, n_regions=base.n_regions, seed=2)
        report = run_dynamics(DynamicsSpec(base=base, plan=plan,
                                           initial_fraction=0.6))
        assert report.moves > 0
        assert report.invariants == []
        assert report.scale.digest == LAUNCH_DAY_DIGEST
        assert _counts(report.scale) == LAUNCH_DAY_COUNTS[mode]
