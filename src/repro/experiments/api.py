"""Typed experiment API: specs, sweep tasks and run results.

This is the contract between the experiment catalogue
(:mod:`repro.experiments.specs`) and the execution engine
(:mod:`repro.experiments.parallel`):

* an :class:`ExperimentSpec` names one experiment and knows how to
  *decompose* it into independent :class:`SweepTask` units (one per
  sweep point × system variant × seed, wherever the underlying sweep's
  points are RNG-independent) and how to *merge* the per-task payloads
  back into the figure's :class:`~repro.metrics.series.FigureSeries`;
* a :class:`SweepTask` is a pure value object — experiment key, ordered
  task key, runner name and JSON-able parameters — so it crosses
  process boundaries and hashes into a stable cache key;
* a :class:`RunResult` carries everything one run produced: the series,
  the merged metrics snapshot, a content digest of the series and
  timing/cache accounting.

Determinism contract: ``decompose`` must return the same tasks in the
same order for the same ``(scale, seed)``, task payloads must be pure
functions of ``(task, scale, seed)``, and ``merge`` must consume
payloads keyed by task — never by completion order — so a parallel run
is byte-identical to a serial one.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.metrics.series import FigureSeries

#: A task key: a tuple of scalars; unique within one experiment's
#: decomposition, and ordered the way the serial sweep iterates.
TaskKey = tuple

#: JSON-able per-task payload (defined per experiment; see specs).
TaskData = Any


@dataclass(frozen=True)
class SweepTask:
    """One independently executable unit of an experiment sweep."""

    #: Experiment key this task belongs to (e.g. ``"fig5a"``).
    experiment: str
    #: Ordered identity of the task within the experiment.
    key: TaskKey
    #: Name of the task runner in the specs registry (picklable handle).
    runner: str
    #: JSON-able keyword parameters for the runner.
    params: dict[str, Any] = field(default_factory=dict)

    def cache_material(self, scale: float, seed: int,
                       version: str) -> dict[str, Any]:
        """The content that addresses this task's cached result."""
        return {
            "experiment": self.experiment,
            "key": list(self.key),
            "runner": self.runner,
            "params": self.params,
            "scale": scale,
            "seed": seed,
            "version": version,
        }


@dataclass(frozen=True)
class TaskResult:
    """What executing one :class:`SweepTask` produced."""

    task: SweepTask
    #: The runner's JSON-able payload.
    data: TaskData
    #: Per-task metrics registry snapshot (merged into the parent).
    metrics: dict[str, dict] = field(default_factory=dict)
    #: Trace events captured in the task, as ``(t, component, kind,
    #: data)`` tuples — only populated when the parent run traces.
    events: tuple = ()
    #: Wall-clock seconds the task took (0.0 on a cache hit).
    elapsed_s: float = 0.0
    #: Whether the payload came from the result cache.
    cached: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    """A typed, self-describing experiment registration.

    Replaces the bare ``Callable[[float, int], list[FigureSeries]]``
    registry entries: the spec still runs end-to-end through
    :func:`repro.experiments.parallel.run_spec`, but also exposes its
    sweep structure so the engine can execute points concurrently and
    cache them individually.
    """

    #: Registry key (``"fig5a"``, ``"economics"``, ...).
    name: str
    #: One-line human description (shown by ``cloudfog --list``).
    description: str
    #: Free-form facets (``"paper"``, ``"extension"``, ``"peersim"``...).
    tags: tuple[str, ...]
    #: ``(scale, seed) -> [SweepTask, ...]`` in serial sweep order.
    decompose: Callable[[float, int], list[SweepTask]]
    #: ``(scale, seed, {task_key: data}) -> [FigureSeries, ...]``.
    merge: Callable[[float, int, dict[TaskKey, TaskData]],
                    list[FigureSeries]]


@dataclass(frozen=True)
class RunResult:
    """Everything one experiment run produced."""

    #: Experiment key.
    name: str
    #: The figure's series, identical for any worker count.
    series: list[FigureSeries]
    #: Merged per-task metrics snapshot (task order).
    metrics: dict[str, dict]
    #: SHA-256 over the canonical JSON of ``series`` — the result
    #: fingerprint (equal serial vs parallel, cold vs warm cache).
    digest: str
    #: Wall-clock seconds for the whole run.
    elapsed_s: float
    #: Task accounting.
    tasks_total: int = 0
    tasks_cached: int = 0
    #: Resilience accounting: tasks that exhausted their retry budget
    #: (non-empty only in keep-going mode — otherwise the run raised),
    #: attempts beyond the first across all tasks, and tasks satisfied
    #: from a previous (interrupted) run's journal on ``resume``.
    tasks_failed: int = 0
    tasks_retried: int = 0
    tasks_resumed: int = 0
    #: Structured per-task failure taxonomy
    #: (:class:`repro.experiments.resilience.TaskFailure` values).
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        """Whether every task produced a payload."""
        return self.tasks_failed == 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able summary (series use the stable schema)."""
        return {
            "name": self.name,
            "series": [s.to_dict() for s in self.series],
            "digest": self.digest,
            "elapsed_s": self.elapsed_s,
            "tasks_total": self.tasks_total,
            "tasks_cached": self.tasks_cached,
            "tasks_failed": self.tasks_failed,
            "tasks_retried": self.tasks_retried,
            "tasks_resumed": self.tasks_resumed,
            "failures": [f.to_dict() for f in self.failures],
        }


def series_digest(series: Sequence[FigureSeries]) -> str:
    """SHA-256 fingerprint of a list of series (canonical JSON)."""
    h = hashlib.sha256()
    for s in series:
        h.update(json.dumps(s.to_dict(), sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def now() -> float:
    """Monotonic wall-clock (test seam)."""
    return time.perf_counter()
