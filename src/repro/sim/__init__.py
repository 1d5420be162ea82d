"""Discrete-event simulation kernel.

A small, SimPy-flavoured discrete-event engine. Simulated entities
(application ranks, runtime workers, device queues, NICs) are Python
generators that ``yield`` :class:`~repro.sim.engine.Event` objects to
suspend until the event fires. The engine is the substrate on which the
whole MegaMmap reproduction runs: it supplies virtual time, so the
performance figures of the paper can be regenerated with device and
network cost models instead of real tiered hardware, while all data
movement remains functionally real.

Public surface::

    sim = Simulator()
    def proc(sim):
        yield sim.timeout(5.0)
        return 42
    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 42
"""

from repro.sim.engine import (
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.monitor import Monitor, TimeSeries
from repro.sim.rand import rng_stream, spawn_seed
from repro.sim.resources import Request, Resource, Store
from repro.sim.sync import Lock
from repro.sim.trace import NOOP_TRACER, Span, Tracer

__all__ = [
    "AllOf",
    "Event",
    "Lock",
    "Monitor",
    "NOOP_TRACER",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "Span",
    "Store",
    "TimeSeries",
    "Timeout",
    "Tracer",
    "rng_stream",
    "spawn_seed",
]
