"""Span tracer that wraps the public functions of each layer from outside.

Nothing under ``src/`` knows about it: :func:`install` replaces each
target function where its caller looks it up (a class attribute, or the
module global a caller imported by name) with a wrapper that records a
span. A span has a name, a start, an end and a parent, and is kept in
memory until :meth:`Tracer.write` stores the lot as one ``.npz`` file.

Self time is measured online: a span's duration minus the time its
direct child spans cover. Summing self time over every span therefore
gives the time spent inside any top-level span, with nothing counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class SpanStats:
    """Aggregates for one span name."""

    calls: int = 0
    weight: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder with per-name aggregates."""

    names: list[str] = field(default_factory=list)
    stats: dict[str, SpanStats] = field(default_factory=dict)
    #: Targets :func:`install` could not find (renamed or removed).
    missing: list[str] = field(default_factory=list)
    #: Whether every layer is traced, not a chosen few.
    full: bool = True

    def __post_init__(self) -> None:
        self._name = array("B")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        #: Open spans: [span index, time covered by direct children].
        self._stack: list[list] = []

    def wrap(self, name: str, fn: Callable,
             weight: Callable | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``weight(args)`` adds a work count per call (e.g. players
        advanced); by default a call weighs 1.
        """
        if name not in self.stats:
            self.stats[name] = SpanStats()
            self.names.append(name)
        st = self.stats[name]
        nid = self.names.index(name)
        stack = self._stack
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                st.calls += 1
                st.weight += 1 if weight is None else weight(args)
                st.total_s += dur
                st.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return functools.update_wrapper(traced, fn)

    def patch(self, target: str, name: str,
              weight: Callable | None = None) -> None:
        """Replace ``module:attr.path`` by its traced form.

        A target that no longer exists is listed in :attr:`missing`
        instead, so a later refactor that renames or removes a layer
        function leaves the benchmark running.
        """
        module, _, path = target.partition(":")
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(module)
            for part in outer:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        fn = (owner.__dict__.get(attr) if isinstance(owner, type)
              else getattr(owner, attr, None))
        if fn is None:
            self.missing.append(target)
            return
        setattr(owner, attr, self.wrap(name, fn, weight))

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def self_total_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def write(self, path: Path) -> None:
        """Store every span: name id, parent index (-1 for a root), and
        start and end in 100 ns ticks from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        origin = start[0] if start.size else 0.0

        def ticks(t: np.ndarray) -> np.ndarray:
            return np.round((t - origin) * 1e7).astype(np.uint32)

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self._name, dtype=np.uint8),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 start=ticks(start), end=ticks(end))


def _batch_size(args) -> int:
    return len(args[1])


#: (function, where its caller looks it up; span name; work per call).
TARGETS = [
    ("repro.sim.engine:Environment.run", "sim.run", None),
    ("repro.core.player:PlayerCohort.advance", "core.advance", _batch_size),
    ("repro.core.player:MaterialisedPlayer.advance", "core.advance", None),
    ("repro.core.infrastructure:GamingSession.__init__",
     "core.session_build", None),
    ("repro.core.adaptation:RateAdaptationController.observe",
     "core.adapt", None),
    ("repro.network.latency:RegionalLatency.gather_s",
     "network.gather", None),
    ("repro.network.latency:LatencyModel.one_way_matrix_s",
     "network.rtt_matrix", None),
    ("repro.network.latency:LatencyModel.rtt_matrix_s",
     "network.rtt_matrix", None),
    ("repro.network.link:UplinkPort.send", "network.uplink", None),
    ("repro.streaming.encoder:SegmentEncoder.encode_segment",
     "streaming.encode", None),
    ("repro.streaming.playback:PlaybackBuffer.on_segment_arrival",
     "streaming.playback", None),
    ("repro.streaming.playback:PlaybackBuffer.on_segment_lost",
     "streaming.playback", None),
    ("repro.experiments.scenarios:Scenario.build", "workload.build", None),
    # The cohort kernel imports these two by name.
    ("repro.core.cohort:build_regions", "workload.build", None),
    ("repro.core.cohort:sample_access_latency_s", "workload.access", None),
    ("repro.dynamics.kernel:compile_plan", "dynamics.compile", None),
    ("repro.obs.metrics:MetricsRegistry.snapshot", "obs.snapshot", None),
    ("repro.obs.metrics:MetricsRegistry.absorb_snapshot",
     "obs.snapshot", None),
    # InlineBackend imports execute_task by name.
    ("repro.experiments.backends.inline:execute_task",
     "experiments.task", None),
] + [
    (f"{module}:{cls}.{op}", name, None)
    for module, cls, name in (
        ("repro.core.scheduling", "DeadlineSenderBuffer", "core.sched"),
        ("repro.streaming.sender_buffer", "FifoSenderBuffer",
         "streaming.fifo"))
    for op in ("enqueue", "enqueue_batch", "dequeue", "flush")
]


def install(tracer: Tracer, only: tuple[str, ...] = ()) -> None:
    """Wrap every layer's public entry points (or only the span names
    in ``only``). Call before running the workload."""
    tracer.full = not only
    for target, name, weight in TARGETS:
        if not only or name in only:
            tracer.patch(target, name, weight)
    if only and "obs.probe" not in only:
        return
    import repro.obs as obs
    attach = getattr(obs, "attach_kernel_probes", None)
    if attach is None:
        tracer.missing.append("repro.obs:attach_kernel_probes")
        return

    def attach_traced(env, ctx):
        """Attach the probes, then trace each hook they installed."""
        lists = [getattr(env, k, []) for k in ("on_schedule", "on_step")]
        before = [len(hooks) for hooks in lists]
        attach(env, ctx)
        for hooks, start in zip(lists, before):
            for i in range(start, len(hooks)):
                hooks[i] = tracer.wrap("obs.probe", hooks[i])

    # GamingSession looks the function up on the repro.obs module.
    obs.attach_kernel_probes = attach_traced


def traced_spec(tracer: Tracer, spec):
    """``spec`` with its merge function traced (specs are frozen)."""
    return replace(spec, merge=tracer.wrap("experiments.merge", spec.merge))
