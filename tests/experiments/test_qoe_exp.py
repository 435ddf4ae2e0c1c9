"""Tests for the Figure 8/9 QoE sweep points and specs."""

import pytest

from repro.core.infrastructure import SessionConfig, SystemVariant
from repro.experiments.parallel import run_named
from repro.experiments.qoe import (
    ALL_SYSTEMS,
    continuity_point,
    latency_point,
    run_variant,
)
from repro.experiments.scenarios import peersim_scenario

CFG = SessionConfig(duration_s=6.0, warmup_s=1.0)


@pytest.fixture(scope="module")
def scen():
    return peersim_scenario(scale=0.04, seed=5)


@pytest.fixture(scope="module")
def fig8a():
    return run_named("fig8a", 0.02, 5).series


@pytest.fixture(scope="module")
def fig9a():
    return run_named("fig9a", 0.02, 5).series


class TestRunVariant:
    def test_returns_result(self, scen):
        res = run_variant(scen, SystemVariant.CLOUDFOG_B, config=CFG)
        assert res.n_players == scen.n_online
        assert res.variant is SystemVariant.CLOUDFOG_B

    def test_n_online_override(self, scen):
        res = run_variant(scen, SystemVariant.CLOUD, n_online=10, config=CFG)
        assert res.n_players == 10


class TestFig8:
    def test_series_shape(self, fig8a):
        (series,) = fig8a
        assert series.label == " | ".join(v.value for v in ALL_SYSTEMS)
        assert series.x == [0.0, 1.0, 2.0, 3.0]
        assert all(y > 0 for y in series.y)

    def test_fog_beats_cloud(self, scen):
        cloud, fog = (latency_point(scen, v, config=CFG)
                      for v in (SystemVariant.CLOUD, SystemVariant.CLOUDFOG_A))
        assert fog < cloud


class TestFig9:
    def test_series_per_variant(self, fig9a):
        assert [s.label for s in fig9a] == [v.value for v in ALL_SYSTEMS]
        for s in fig9a:
            assert len(s.x) == 3
            assert s.x == sorted(s.x)
            assert all(0.0 <= y <= 1.0 for y in s.y)

    def test_fog_higher_continuity(self, scen):
        cloud, fog = (continuity_point(scen, 20, v, config=CFG)
                      for v in (SystemVariant.CLOUD, SystemVariant.CLOUDFOG_B))
        assert fog > cloud


class TestSatisfiedBySystem:
    def test_values_are_fractions(self, scen):
        res = run_variant(scen, SystemVariant.CLOUDFOG_B, config=CFG)
        assert 0.0 <= res.satisfied_fraction <= 1.0
