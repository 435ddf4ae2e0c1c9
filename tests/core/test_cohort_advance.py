"""The two paths of ``PlayerCohort.advance`` against its scalar mirror.

``advance`` indexes every per-player array with a whole slice when all
players are active (reads are views, updates land in place) and with the
index array otherwise. Both paths must write exactly what a loop over
``_advance_one`` writes, bit for bit. The cohort here has one region
offline with a failover target elsewhere, so crash-reconnects cross
regions: a write-back that lands before a read of the old state (the
view-aliasing hazard of the slice path) changes ``reconnects`` or
``tick_load`` and fails these tests.
"""

import copy

import numpy as np
import pytest

from repro.core.player import CohortParams, PlayerCohort
from repro.network.latency import RegionalLatency

N_PLAYERS = 64
N_REGIONS = 4
N_TICKS = 40


def make_cohort(crash_rate: float) -> PlayerCohort:
    rng = np.random.default_rng(7)
    centers = rng.uniform(0.0, 4000.0, size=(N_REGIONS, 2))
    region = rng.integers(0, N_REGIONS, size=N_PLAYERS)
    access = rng.uniform(0.005, 0.12, size=N_PLAYERS)
    c = PlayerCohort(region, access, RegionalLatency(centers),
                     CohortParams(crash_rate_per_tick=crash_rate), seed=3)
    c.region_offline[1] = True
    c.failover_to[1] = 2
    c.congestion_s[:] = (0.0, 0.0, 0.03, 0.01)
    return c


def state_of(c: PlayerCohort) -> dict[str, np.ndarray]:
    return {k: v for k, v in vars(c).items() if isinstance(v, np.ndarray)}


def assert_bitwise_equal(a: PlayerCohort, b: PlayerCohort) -> None:
    sa, sb = state_of(a), state_of(b)
    assert sa.keys() == sb.keys()
    for name in sa:
        assert sa[name].dtype == sb[name].dtype, name
        assert sa[name].tobytes() == sb[name].tobytes(), name


def run_vector(c: PlayerCohort, idx: np.ndarray) -> list[np.ndarray]:
    return [c.advance(idx, t) for t in range(N_TICKS)]


def run_mirror(c: PlayerCohort, idx: np.ndarray) -> list[np.ndarray]:
    return [np.array([c._advance_one(int(i), t) for i in idx])
            for t in range(N_TICKS)]


@pytest.fixture(params=[1.0, 0.5, 0.01], ids=lambda r: f"crash={r}")
def cohort(request) -> PlayerCohort:
    return make_cohort(request.param)


def test_every_player_matches_mirror(cohort):
    idx = np.arange(N_PLAYERS)
    vector, mirror = copy.deepcopy(cohort), copy.deepcopy(cohort)
    diverged = run_vector(vector, idx)
    expected = run_mirror(mirror, idx)
    assert_bitwise_equal(vector, mirror)
    for got, want in zip(diverged, expected):
        assert np.array_equal(got, want)
    # Not vacuous: crashes happened and some crossed regions.
    assert vector.crashes.sum() > 0
    assert vector.reconnects.sum() > 0


def test_subset_matches_mirror_and_leaves_others(cohort):
    subset = np.flatnonzero(
        np.random.default_rng(11).random(N_PLAYERS) < 0.5)
    assert 0 < subset.size < N_PLAYERS
    vector, mirror = copy.deepcopy(cohort), copy.deepcopy(cohort)
    diverged = run_vector(vector, subset)
    expected = run_mirror(mirror, subset)
    assert_bitwise_equal(vector, mirror)
    for got, want in zip(diverged, expected):
        assert np.array_equal(got, want)
    assert vector.reconnects[subset].sum() > 0
    others = np.setdiff1d(np.arange(N_PLAYERS), subset)
    before = state_of(cohort)
    for name, value in state_of(vector).items():
        if value.shape == (N_PLAYERS,):
            assert value[others].tobytes() == before[name][others].tobytes(), \
                name
