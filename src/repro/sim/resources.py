"""Shared resources for simulated processes.

:class:`Resource` models a server with ``capacity`` concurrent slots
(device queue depths, NIC channels, runtime worker cores).
:class:`Store` is an unbounded FIFO of items with blocking ``get`` —
the MemoryTask queues between the MegaMmap library and runtime are
Stores.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Event, SimulationError, Simulator


class Request(Event):
    """Pending acquisition of one slot of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A FIFO multi-server resource.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            ... hold the slot ...
        finally:
            resource.release(req)
    """

    __slots__ = ("sim", "capacity", "name", "_users", "_queue")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: deque[Request] = deque()

    def set_capacity(self, capacity: int) -> None:
        """Adjust capacity at runtime (dynamic CPU-core scaling).

        Growing wakes queued requests immediately; shrinking lets
        current holders finish (capacity applies to new grants).
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            self._queue.append(req)
        return req

    def release(self, req: Request) -> None:
        if req in self._users:
            self._users.discard(req)
        elif req in self._queue:
            # Cancelling a queued request is allowed (a waiter that gave up).
            self._queue.remove(req)
            return
        else:
            raise SimulationError("release of a request that is not held")
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)


class Store:
    """Unbounded FIFO of items; ``get`` blocks while empty."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest waiting getter immediately."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event yielding the next item (FIFO across getters)."""
        evt = Event(self.sim)
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt
