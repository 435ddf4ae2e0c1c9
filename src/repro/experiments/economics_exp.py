"""Economics experiments — the §III-A incentive and cost model.

The paper promises to "evaluate the effectiveness of this incentive
mechanism in Section IV"; this driver produces the three economic views
the model supports:

* the supply curve: how many contributors run supernodes as the reward
  ``c_s`` rises (Eq. 1 + per-contributor thresholds);
* the provider's saved cost ``C_g`` at each reward level (Eqs. 2–5);
* the greedy deployment frontier: cumulative gain of deploying
  supernodes in descending Eq. 6 order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.economics.incentives import (
    contribution_decisions,
    participation_curve,
)
from repro.economics.provider import (
    ProviderModel,
    bandwidth_reduction_bps,
    deployment_gain,
)
from repro.experiments.scenarios import Scenario
from repro.metrics.series import FigureSeries
from repro.streaming.video import QUALITY_LADDER
from repro.workload.capacities import SLOT_BANDWIDTH_BPS

#: Average streaming rate R: mean initial bitrate over the five games.
MEAN_STREAM_RATE_BPS = float(
    np.mean([ql.bitrate_bps for ql in QUALITY_LADDER]))


def incentive_sweep(
    scenario: Scenario,
    rewards: Sequence[float] = tuple(np.linspace(0.0, 5.0, 11)),
    saving_per_mbps: float = 6.0,
    cost_per_machine: float = 3.0,
    expected_utilization: float = 0.8,
) -> tuple[FigureSeries, FigureSeries]:
    """Sweep the per-Mbps reward c_s; report supply and provider savings.

    Contributors decide with Eq. 1 against the utilization they *expect*;
    the provider pays for the bandwidth actually *used* to serve players
    (``u_j`` in Eq. 1 is utilization, so an idle supernode earns
    nothing). The resulting C_g curve rises steeply while supply is the
    binding constraint, peaks once supply covers demand, and declines
    linearly in c_s afterwards — the provider should pay just enough to
    attract the supply it needs.

    Returns
    -------
    (participation, saved_cost):
        Participation fraction and provider saved cost (per month,
        arbitrary money unit) vs reward level.
    """
    pop = scenario.build()
    capable = pop.capable_player_ids()
    caps_slots = np.array(
        [pop.players[int(p)].capacity_slots for p in capable], dtype=float)
    caps_mbps = caps_slots * SLOT_BANDWIDTH_BPS / 1e6
    rng = pop.rngs.stream("economics")
    costs = cost_per_machine * rng.uniform(0.5, 1.5, size=capable.size)
    thresholds = rng.uniform(0.0, 2.0, size=capable.size)
    util = np.full(capable.size, expected_utilization)

    participation = FigureSeries(
        label="participation", x_label="reward c_s ($/Mbps-month)",
        y_label="fraction contributing")
    saved = FigureSeries(
        label="provider saved cost", x_label="reward c_s ($/Mbps-month)",
        y_label="C_g ($/month)")

    fractions = participation_curve(
        np.asarray(rewards, dtype=float), caps_mbps, util, costs, thresholds)
    update_mbps = 8.0 * 2000 * 10 / 1e6  # Λ per supernode at tick rate
    demand_mbps = scenario.n_online * MEAN_STREAM_RATE_BPS / 1e6

    for c_s, frac in zip(rewards, fractions):
        participation.add(c_s, frac)
        mask = contribution_decisions(
            float(c_s), caps_mbps, util, costs, thresholds)
        m = int(mask.sum())
        contributed_mbps = float(caps_mbps[mask].sum())
        # The provider only uses (and pays for) what demand requires.
        used_mbps = min(contributed_mbps, demand_mbps)
        n_supported = int(used_mbps * 1e6 // MEAN_STREAM_RATE_BPS)
        b_r = bandwidth_reduction_bps(
            n_supported, MEAN_STREAM_RATE_BPS, update_mbps * 1e6, m)
        c_g = saving_per_mbps * b_r / 1e6 - float(c_s) * used_mbps
        saved.add(c_s, c_g)
    return participation, saved


def deployment_frontier(
    scenario: Scenario,
    saving_per_mbps: float = 6.0,
    reward_per_mbps: float = 2.0,
) -> FigureSeries:
    """Cumulative provider gain of greedy Eq. 6 deployment.

    Candidates are the scenario's supernode-capable players; each
    candidate's marginal coverage ν is estimated as the number of
    datacenter-uncovered online players within the general 80 ms budget,
    up to capacity. Utilization in Eq. 6's reward term is the bandwidth
    actually used for those ν players (``ν × R / c_j``) — an idle slot
    earns its owner nothing (Eq. 1).
    """
    pop = scenario.build()
    online = scenario.online_sample(pop)
    online_hosts = pop.player_host_ids()[online]
    capable = pop.capable_player_ids()
    cand_hosts = np.array(
        [pop.players[int(p)].host_id for p in capable], dtype=int)
    cand_caps = np.array(
        [pop.players[int(p)].capacity_slots for p in capable], dtype=float)

    # ν: players within the general 80 ms budget of each candidate, capped
    # by its slot count, minus those already covered by datacenters.
    rtt_dc = pop.latency.rtt_matrix_s(
        online_hosts, pop.datacenter_ids).min(axis=1)
    uncovered = rtt_dc > 0.080
    rtt_cand = pop.latency.rtt_matrix_s(online_hosts, cand_hosts)
    reach = (rtt_cand <= 0.080) & uncovered[:, None]
    nu = np.minimum(reach.sum(axis=0), cand_caps)

    model = ProviderModel(
        saving_per_bps=saving_per_mbps / 1e6,
        reward_per_bps=reward_per_mbps / 1e6,
        streaming_rate_bps=MEAN_STREAM_RATE_BPS,
        update_rate_bps=8.0 * 2000 * 10,
    )
    cap_bps = cand_caps * SLOT_BANDWIDTH_BPS
    # u_j: the fraction of the candidate's uplink its ν players consume.
    used_util = np.minimum(1.0, nu * MEAN_STREAM_RATE_BPS
                           / np.maximum(cap_bps, 1.0))
    order = model.greedy_deployment(cap_bps, nu, used_util)

    series = FigureSeries(
        label="greedy deployment", x_label="# supernodes deployed",
        y_label="cumulative gain ($/month)")
    total = 0.0
    series.add(0, 0.0)
    for rank, j in enumerate(order, start=1):
        total += deployment_gain(
            model.saving_per_bps, model.reward_per_bps, float(nu[j]),
            model.streaming_rate_bps, model.update_rate_bps,
            float(cap_bps[j]), float(used_util[j]))
        series.add(rank, total)
    return series
