"""Experiments: one spec per paper figure, run by one sweep engine.

Every figure or table of the paper's §IV is a spec in
:data:`repro.experiments.specs.SPECS`. The spec is the one definition
of the figure's sweep (point grid, series labels, seed averaging);
the modules here hold the per-point simulations its tasks run. Run one
with ``run_named(key, scale, seed)``; it returns a
:class:`~repro.experiments.api.RunResult` whose ``series`` are the
plotted lines (:class:`~repro.metrics.series.FigureSeries`).

===========  =====================================================
paper item   spec key (``run_named(key, ...)``)
===========  =====================================================
Figure 2     :data:`repro.streaming.video.QUALITY_LADDER` (no sweep)
Figure 5(a)  ``"fig5a"`` (PeerSim)
Figure 5(b)  ``"fig5b"`` (PeerSim)
Figure 6(a)  ``"fig6a"`` (PlanetLab)
Figure 6(b)  ``"fig6b"`` (PlanetLab)
Figure 7     ``"fig7a"`` (PeerSim), ``"fig7b"`` (PlanetLab)
Figure 8     ``"fig8a"`` (PeerSim), ``"fig8b"`` (PlanetLab)
Figure 9     ``"fig9a"`` (PeerSim), ``"fig9b"`` (PlanetLab)
Figure 10    ``"fig10"``
Figure 11    ``"fig11"``
§III-A econ  ``"economics"``
===========  =====================================================

The extensions beyond the paper's figures are specs too (``"churn"``,
``"cooperation"``, ``"security"``, ``"chaos"``, ...).

The execution surface re-exports from here (resolved lazily so the
simulation stack only imports when actually used)::

    from repro.experiments import RunConfig, run_spec, run_named

    run_named("fig5a", 0.1, 42, config=RunConfig(jobs=4))
    run_named("fig5a", 0.1, 42,
              config=RunConfig(backend="remote", launch=2))
"""

import importlib

from repro.experiments.scenarios import Scenario, peersim_scenario, planetlab_scenario

#: Lazily re-exported execution API: name -> defining module.
_EXPORTS = {
    "RunConfig": "repro.experiments.config",
    "resolve_jobs": "repro.experiments.config",
    "run_spec": "repro.experiments.parallel",
    "run_named": "repro.experiments.parallel",
    "run_results": "repro.experiments.runner",
    "run_experiment": "repro.experiments.runner",
    "run_all": "repro.experiments.runner",
    "resolve_experiments": "repro.experiments.runner",
    "ExperimentSpec": "repro.experiments.api",
    "SweepTask": "repro.experiments.api",
    "RunResult": "repro.experiments.api",
    "ResultCache": "repro.experiments.cache",
    "ResilienceConfig": "repro.experiments.resilience",
    "SweepFailure": "repro.experiments.resilience",
    "TaskFailure": "repro.experiments.resilience",
    "ExecutionBackend": "repro.experiments.backends",
    "InlineBackend": "repro.experiments.backends",
    "PoolBackend": "repro.experiments.backends",
    "RemoteBackend": "repro.experiments.backends",
}

__all__ = ["Scenario", "peersim_scenario", "planetlab_scenario",
           *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
