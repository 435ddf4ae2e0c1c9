"""Tests for the churn/failover extension experiment."""

import numpy as np
import pytest

from repro.experiments.churn import ChurnConfig, simulate_churn
from repro.experiments.parallel import run_named

FAST = ChurnConfig(duration_s=25.0, warmup_s=3.0)


class TestSimulateChurn:
    def test_result_keys(self):
        out = simulate_churn(0.0, True, seed=0, config=FAST)
        assert set(out) == {"continuity", "satisfied", "departures",
                            "failovers_to_cloud"}

    def test_no_churn_perfect(self):
        out = simulate_churn(0.0, False, seed=0, config=FAST)
        assert out["continuity"] == pytest.approx(1.0, abs=0.02)
        assert out["departures"] == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            simulate_churn(-1.0, True)

    def test_departures_happen(self):
        out = simulate_churn(8.0, True, seed=0, config=FAST)
        assert out["departures"] >= 1

    def test_backups_beat_cloud_fallback(self):
        with_b = simulate_churn(6.0, True, seed=0, config=FAST)
        without_b = simulate_churn(6.0, False, seed=0, config=FAST)
        assert with_b["continuity"] >= without_b["continuity"]
        assert without_b["failovers_to_cloud"] > 0
        assert with_b["failovers_to_cloud"] <= without_b["failovers_to_cloud"]

    def test_switch_gap_counted(self):
        """During the switch window, unservable segments count as lost
        — continuity dips below 1 even with backups."""
        cfg = ChurnConfig(duration_s=25.0, warmup_s=3.0,
                          switch_delay_s=3.0)
        out = simulate_churn(6.0, True, seed=0, config=cfg)
        if out["departures"] > 0:
            assert out["continuity"] < 1.0

    def test_deterministic(self):
        a = simulate_churn(4.0, True, seed=5, config=FAST)
        b = simulate_churn(4.0, True, seed=5, config=FAST)
        assert a == b

    def test_never_loses_all_supernodes(self):
        """Churn stops at one remaining supernode."""
        cfg = ChurnConfig(duration_s=25.0, warmup_s=3.0, n_supernodes=2)
        out = simulate_churn(30.0, True, seed=0, config=cfg)
        assert out["departures"] <= 1


class TestChurnSweep:
    def test_series_shape(self):
        series = run_named("churn", 0.02, 3).series
        assert [s.label for s in series] == [
            "with backups", "without backups (cloud fallback)"]
        for s in series:
            assert s.x == [0.0, 1.0, 2.0, 4.0, 8.0]

    def test_backups_dominate(self):
        with_b, without_b = (
            float(np.mean([simulate_churn(6.0, flag, seed=s, config=FAST)
                           ["continuity"] for s in (0, 1)]))
            for flag in (True, False))
        assert with_b >= without_b
