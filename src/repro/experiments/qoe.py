"""QoE sweep points — Figures 8 (response latency) and 9 (continuity).

Both run the packet-level session simulation
(:func:`repro.core.infrastructure.simulate_sessions`) over the scenario's
online population. The sweeps are the ``fig8a``/``fig8b`` and
``fig9a``/``fig9b`` specs (:mod:`repro.experiments.specs`); each of their
tasks runs one point here:

* :func:`latency_point` — one system's average response latency per
  player (Figure 8);
* :func:`continuity_point` — one system's average playback continuity
  at one number of concurrent players (Figure 9).
"""

from __future__ import annotations

from repro.core.infrastructure import (
    SessionConfig,
    SessionResult,
    SystemVariant,
    simulate_sessions,
)
from repro.experiments.scenarios import Scenario

ALL_SYSTEMS: tuple[SystemVariant, ...] = (
    SystemVariant.CLOUD,
    SystemVariant.EDGECLOUD,
    SystemVariant.CLOUDFOG_B,
    SystemVariant.CLOUDFOG_A,
)


def run_variant(
    scenario: Scenario,
    variant: SystemVariant,
    n_online: int | None = None,
    config: SessionConfig | None = None,
    seed: int | None = None,
) -> SessionResult:
    """Build the population and run one variant's session simulation."""
    pop = scenario.build(seed=seed)
    online = scenario.online_sample(pop, n=n_online)
    return simulate_sessions(
        pop, variant, online, config,
        edge_server_host_ids=pop.edge_server_host_ids)


def latency_point(
    scenario: Scenario,
    variant: SystemVariant,
    n_online: int | None = None,
    config: SessionConfig | None = None,
) -> float:
    """One Figure 8 sweep point: a variant's mean response latency (ms).

    Task-decomposition entry point: every variant rebuilds its
    population from the scenario seed, so variants are independent
    units for the parallel sweep engine.
    """
    result = run_variant(scenario, variant, n_online, config)
    return result.mean_latency_s * 1000.0


def continuity_point(
    scenario: Scenario,
    n_players: int,
    variant: SystemVariant,
    config: SessionConfig | None = None,
) -> float:
    """One Figure 9 sweep point: mean continuity at one (count, variant)."""
    result = run_variant(scenario, variant, int(n_players), config)
    return result.mean_continuity
