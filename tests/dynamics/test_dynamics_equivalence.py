"""Determinism pins for the dynamics kernel (PR 10).

Three contracts, in increasing strength:

* the zero-plan run is byte-identical to the static kernel — pinned to
  a golden digest captured on the seed ``run_scale`` before
  ``repro.dynamics`` existed, and cross-checked against a live
  ``run_scale`` call;
* cohort and per-player modes agree under full population dynamics;
* the same seed reproduces the same run — including the exact set of
  (tick, player) shed decisions, not just the aggregate counts.

If an intentional change moves the golden, regenerate with::

    PYTHONPATH=src python - <<'EOF'
    from repro.core.cohort import ScaleSpec, run_scale
    print(run_scale(ScaleSpec(n_players=250, n_regions=3, n_ticks=40,
                              seed=2, faults="none")).digest)
    EOF
"""

import pytest

from repro.core.cohort import ScaleSpec, run_scale
from repro.dynamics import (
    DynamicsKernel,
    DynamicsPlan,
    DynamicsSpec,
    preset_dynamics,
    run_dynamics,
)

#: run_scale(ScaleSpec(n_players=250, n_regions=3, n_ticks=40, seed=2,
#: faults="none")) on the seed kernel, before the dynamics layer.
GOLDEN_ZERO_PLAN = (
    "71d110b700d511692133e950b9f0b14eb81612779c269082e2561c82ed4a5608")

BASE = dict(n_players=250, n_regions=3, n_ticks=40, seed=2,
            faults="none")


def _spec(mode="cohort", faults="none", preset="none", intensity=1,
          initial_fraction=1.0, strategy="graceful", seed=2):
    base = ScaleSpec(mode=mode, **{**BASE, "faults": faults,
                                   "seed": seed})
    plan = preset_dynamics(preset,
                           horizon_s=base.n_ticks * base.params.tick_s,
                           n_players=base.n_players,
                           n_regions=base.n_regions,
                           intensity=intensity, seed=seed)
    return DynamicsSpec(base=base, plan=plan,
                        initial_fraction=initial_fraction,
                        strategy=strategy)


class TestZeroPlanEquivalence:
    def test_empty_plan_matches_golden_digest(self):
        report = run_dynamics(_spec())
        assert report.scale.digest == GOLDEN_ZERO_PLAN
        assert report.invariants == []
        assert report.joins == 0 and report.leaves == 0
        assert report.initial_active == BASE["n_players"]

    def test_empty_plan_matches_live_static_kernel(self):
        """Armed-but-empty dynamics never perturbs the base kernel,
        whatever the fault preset underneath."""
        for faults in ("none", "mixed"):
            base = ScaleSpec(mode="cohort", **{**BASE, "faults": faults})
            static = run_scale(base)
            dyn = run_dynamics(DynamicsSpec(base=base,
                                            plan=DynamicsPlan(),
                                            strategy="none"))
            assert dyn.scale.digest == static.digest, faults

    def test_strategy_choice_is_invisible_without_overload(self):
        """graceful vs none only diverges past the watermarks; the
        empty plan never crosses them."""
        a = run_dynamics(_spec(strategy="graceful"))
        b = run_dynamics(_spec(strategy="none"))
        assert a.scale.digest == b.scale.digest == GOLDEN_ZERO_PLAN


class TestModeParity:
    @pytest.mark.parametrize("preset,faults", [
        ("churn", "none"),
        ("churn", "mixed"),
        ("launch-day", "none"),
    ])
    def test_cohort_equals_per_player(self, preset, faults):
        cohort = run_dynamics(_spec("cohort", faults, preset,
                                    initial_fraction=0.6))
        per_player = run_dynamics(_spec("per-player", faults, preset,
                                        initial_fraction=0.6))
        assert cohort.scale.digest == per_player.scale.digest
        assert cohort.invariants == [] and per_player.invariants == []
        assert (cohort.joins, cohort.leaves, cohort.refused,
                cohort.shed, cohort.evicted, cohort.moves) == (
            per_player.joins, per_player.leaves, per_player.refused,
            per_player.shed, per_player.evicted, per_player.moves)

    def test_evicted_player_rejoining_within_the_tick(self):
        """A 2x flash crowd under mixed faults evicts players that a
        same-tick join pops straight back out of the pool; per-player
        mode marks a player once and stays equivalent."""
        reports = {}
        for mode in ("cohort", "per-player"):
            base = ScaleSpec(n_players=500, n_regions=4, n_ticks=80,
                             seed=3, mode=mode, faults="mixed")
            plan = preset_dynamics(
                "flash-crowd", horizon_s=base.n_ticks * base.params.tick_s,
                n_players=base.n_players, n_regions=base.n_regions,
                intensity=2, seed=3)
            reports[mode] = run_dynamics(DynamicsSpec(
                base=base, plan=plan, initial_fraction=0.5))
        cohort, per_player = reports["cohort"], reports["per-player"]
        assert cohort.evicted > 0
        assert cohort.scale.digest == per_player.scale.digest
        assert cohort.invariants == [] and per_player.invariants == []

    def test_mobility_migrates_in_both_modes(self):
        cohort = run_dynamics(_spec("cohort", preset="launch-day",
                                    initial_fraction=0.6))
        assert cohort.moves > 0
        assert cohort.migration_mean_s is not None


class TestSeedDeterminism:
    def test_same_seed_same_shed_set(self):
        """Determinism of the overload ladder down to the identity of
        every shed session, not just the totals."""

        def run():
            k = DynamicsKernel(_spec("cohort", preset="flash-crowd",
                                     intensity=2,
                                     initial_fraction=0.5))
            report = k.run_dynamics()
            return report, list(k.shed_events)

        (r1, shed1), (r2, shed2) = run(), run()
        assert r1.scale.digest == r2.scale.digest
        assert shed1 == shed2
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1["scale"].pop("wall_s"), d2["scale"].pop("wall_s")
        assert d1 == d2

    def test_different_seed_differs(self):
        a = run_dynamics(_spec("cohort", preset="churn",
                               initial_fraction=0.6, seed=2))
        b = run_dynamics(_spec("cohort", preset="churn",
                               initial_fraction=0.6, seed=3))
        assert a.scale.digest != b.scale.digest
