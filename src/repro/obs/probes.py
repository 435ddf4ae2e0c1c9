"""Kernel probes: wire an :class:`~repro.sim.engine.Environment` into obs.

The sim kernel exposes two hook lists — ``on_schedule`` and ``on_step`` —
that are empty by default, and an unprobed environment runs the
uninstrumented ``schedule``/``step`` (zero overhead — the instrumented
versions are swapped in by ``enable_probe_hooks`` at attach time).
Event counts need no hooks: the environment's sequence number already
counts every scheduled event, and whatever is left on the heap was
never processed, so :func:`count_kernel_events` reads both totals once,
after the run. Hooks are installed only when ``trace_kernel`` asks for
per-event trace records (that is verbose — a session run schedules
hundreds of thousands of events — so it is off by default and meant for
kernel-level determinism tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.sim.engine import Environment


def attach_kernel_probes(env: "Environment", obs: "Observability") -> None:
    """Attach ``env`` to ``obs``.

    Registers metrics counters ``sim.events_scheduled`` and
    ``sim.events_processed`` (filled by :func:`count_kernel_events`);
    with ``obs.trace_kernel`` set (and a trace recorder present) every
    kernel event is also recorded as a ``sim.schedule`` / ``sim.step``
    trace event carrying the event's class name.
    """
    obs.metrics.counter("sim.events_scheduled")
    obs.metrics.counter("sim.events_processed")
    if not obs.trace_kernel or obs.trace is None:
        return

    def on_schedule(now_s, at_s, event):
        obs.emit(now_s, "kernel", "sim.schedule",
                 at=at_s, event=type(event).__name__)

    def on_step(now_s, event):
        obs.emit(now_s, "kernel", "sim.step", event=type(event).__name__)

    env.on_schedule.append(on_schedule)
    env.on_step.append(on_step)
    env.enable_probe_hooks()


def count_kernel_events(env: "Environment", obs: "Observability") -> None:
    """Add ``env``'s scheduled and processed event totals to ``obs``.

    Call once, when ``env`` has stopped running. Only ``step`` removes
    events from the heap, so processed = scheduled − pending.
    """
    obs.metrics.inc("sim.events_scheduled", env._seq)
    obs.metrics.inc("sim.events_processed", env._seq - env.pending)
