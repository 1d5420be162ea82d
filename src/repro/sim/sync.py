"""Synchronization primitive: the FIFO lock.

The paper (III-A, "Supporting Arbitrary Application Structures") says
MegaMmap "provides several synchronization options to ensure parallel
application correctness. This includes distributed locks and barriers."
:class:`Lock` is the simulation-side lock; barriers are
``Comm.barrier``, the dissemination barrier in `repro.mpi.collectives`.
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import Event, SimulationError, Simulator


class Lock:
    """A FIFO mutual-exclusion lock.

    ::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    __slots__ = ("sim", "name", "_locked", "_waiters")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters: deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        evt = Event(self.sim)
        if not self._locked:
            self._locked = True
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if not self._locked:
            raise SimulationError("release of an unlocked Lock")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False

    def held(self):
        """Generator context helper: ``yield from lock.held()`` acquires;
        caller must still call :meth:`release`."""
        yield self.acquire()
