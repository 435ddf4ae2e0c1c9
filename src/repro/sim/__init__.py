"""Discrete-event simulation engine.

This package is CloudFog's substitute for the PeerSim simulator used in the
paper: a small, deterministic, generator-based discrete-event kernel in the
style of SimPy, built from scratch so the reproduction has no external
simulator dependency.

Core pieces
-----------
``Environment``
    The event loop: a priority heap of timestamped events plus the
    simulation clock. Equal-time events fire in insertion order, which makes
    every run deterministic for a fixed RNG seed.
``Process``
    Wraps a Python generator; each ``yield``ed event suspends the process
    until the event fires. Processes may be interrupted.
``Timeout`` / ``Event`` / ``AnyOf`` / ``AllOf``
    Waitable primitives.
``Store`` / ``PriorityStore`` / ``Resource``
    Producer/consumer channels and counted resources with FIFO queues.
``RngRegistry``
    Named, independently seeded ``numpy`` random substreams so that each
    stochastic component (arrivals, capacities, jitter, ...) draws from its
    own stream and experiments are reproducible bit-for-bit.
"""

from repro.sim.engine import Environment, SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.process import Process
from repro.sim.resources import PriorityStore, Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityStore",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
