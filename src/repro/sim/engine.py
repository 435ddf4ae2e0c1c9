"""The discrete-event simulation kernel.

The :class:`Environment` owns the clock and the future event list, a
binary heap (``heapq``) of ``(time, sequence, event)`` tuples. The
monotonically increasing sequence number breaks time ties in insertion
order, so a run is a pure function of its inputs — the property PeerSim
gives the paper's simulation and that the whole reproduction relies on.

The packet-level sessions run every packet, timer and process on it.
The population-scale kernels (DESIGN.md §11) advance players in a plain
tick loop instead and use an environment only for the few mid-tick
migration timers of the dynamics kernel.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional, Union

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process


class SimulationError(Exception):
    """An error raised by the simulation kernel itself."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Environment:
    """Event loop and simulation clock.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (seconds).

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    5
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Probe hooks (see :mod:`repro.obs.probes`). ``on_schedule``
        #: callbacks receive ``(now_s, at_s, event)`` whenever an event is
        #: queued; ``on_step`` callbacks receive ``(now_s, event)`` as each
        #: event is processed. Both lists are empty by default and the
        #: uninstrumented hot paths never look at them — call
        #: :meth:`enable_probe_hooks` after appending (probe attachers do
        #: this) to swap in the instrumented ``schedule``/``step``, so an
        #: unprobed environment pays nothing at all.
        self.on_schedule: list = []
        self.on_step: list = []

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def _schedule_instrumented(self, event: Event, delay: float = 0.0) -> None:
        """:meth:`schedule` plus the ``on_schedule`` probe hooks."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        at = self._now + delay
        heapq.heappush(self._heap, (at, self._seq, event))
        for hook in self.on_schedule:
            hook(self._now, at, event)

    def enable_probe_hooks(self) -> None:
        """Activate the ``on_schedule``/``on_step`` hook lists.

        Swaps the instrumented ``schedule``/``step`` implementations onto
        this instance. Separating activation from the hook lists keeps
        the unprobed hot paths byte-identical to the uninstrumented
        kernel (zero overhead, not merely a cheap check). Idempotent.
        """
        self.schedule = self._schedule_instrumented  # type: ignore[method-assign]
        self.step = self._step_instrumented  # type: ignore[method-assign]

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    @property
    def pending(self) -> int:
        """Number of events awaiting processing."""
        return len(self._heap)

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Spawn a new process driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that fires once any event in ``events`` has fired."""
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event. Raises ``SimulationError`` if empty."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        self._now, _, event = heapq.heappop(self._heap)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            self._raise_uncaught(event._value)

    def _step_instrumented(self) -> None:
        """:meth:`step` plus the ``on_step`` probe hooks."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        self._now, _, event = heapq.heappop(self._heap)
        for hook in self.on_step:
            hook(self._now, event)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            self._raise_uncaught(event._value)

    def _raise_uncaught(self, exc: BaseException) -> None:
        """Propagate an exception nobody handled out of the event loop."""
        raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the schedule is exhausted;
            a number
                run until the clock reaches that time (the clock is
                advanced to exactly ``until`` even if no event lies there);
            an :class:`Event`
                run until that event is processed and return its value.
        """
        stop_at: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.processed:
                return until.value
            if until.callbacks is None:  # pragma: no cover - defensive
                raise SimulationError(f"{until!r} already consumed")
            until.callbacks.append(_stop_callback)
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} lies in the past (now={self._now})")

        try:
            heap = self._heap
            while heap:
                if stop_at is not None and heap[0][0] > stop_at:
                    break
                self.step()
        except StopSimulation as stop:
            return stop.value

        if isinstance(until, Event):
            if not until.triggered:
                raise SimulationError(
                    "schedule ran dry before the `until` event triggered")
            return until.value  # pragma: no cover - race-free by design
        if stop_at is not None:
            self._now = stop_at
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={self.pending}>"


def _stop_callback(event: Event) -> None:
    if event.ok:
        raise StopSimulation(event.value)
    event.defused = True
    raise event.value
