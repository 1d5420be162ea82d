"""Core discrete-event engine: events, processes, and the simulator loop.

Design notes
------------
* Events carry a value or an exception. Triggering an event schedules
  it on the simulator; its callbacks run when the scheduler pops it.
* A :class:`Process` wraps a generator. Each ``yield`` must produce an
  :class:`Event`; the process resumes with the event's value (or the
  exception is thrown into the generator). ``return x`` sets the
  process's own event value, so processes compose: one process can
  ``yield`` another.
* The schedule is ordered by ``(time, priority, seq)``; ``seq`` keeps
  FIFO order among simultaneous events, which makes every simulation
  run bit-for-bit deterministic.

Fast paths (see DESIGN.md, "Kernel fast paths")
-----------------------------------------------
Most events in a MegaMmap run are *immediate*: control transfers at
the current timestamp (process resumption, store hand-offs, lock
grants, zero-delay timeouts). Two fast paths keep them off the time
heap without changing the processing order:

* **Microqueue** — zero-delay events land in per-priority FIFO deques
  instead of the heap. Because time only advances when both deques are
  empty, every deque entry has ``time == now`` and FIFO order equals
  ``seq`` order; the dispatch loop (``Simulator._run_cohorts``) merges
  the deque heads with the heap head under the exact ``(time,
  priority, seq)`` comparison, so the pop order is identical to the
  heap-only kernel.
* **Trampoline** — when a process yields an event that is *already
  triggered* and is *exactly the event the loop would pop next*, the
  process consumes it inline (running any other callbacks first, just
  as the loop would) and keeps executing without returning to the
  scheduler. Chains of immediate events then run entirely inside one
  ``_resume`` call.

Every delayed event, near or far, lives in the one time heap.
``MEGAMMAP_SLOW_KERNEL=1`` (or ``Simulator(fast=False)``) disables
both paths, restoring the heap-only kernel — simulated results
and timings are bit-for-bit identical either way; only wall-clock
differs.
"""

from __future__ import annotations

import heapq
import os
import random
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

#: Priority for "urgent" events (process resumption) so that control
#: transfer happens before same-time ordinary timeouts.
URGENT = 0
NORMAL = 1

_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*; it becomes *triggered* once
    :meth:`succeed` or :meth:`fail` is called (the simulator then owns
    it), and *processed* once its callbacks have run.
    """

    # ``_qseq`` is assigned lazily: only microqueued events carry their
    # schedule sequence number (the heap keeps seq in its entry tuple),
    # so pending events stay one slot-write cheaper to construct.
    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled",
                 "processed", "_qseq")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self.processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        # Inlined microqueue schedule: an immediate NORMAL succeed is
        # the hottest call in the kernel (store hand-offs, lock grants,
        # rpc completions), so skip the _schedule() call for it.
        if sim._fast and priority == NORMAL and not self._scheduled:
            self._scheduled = True
            seq = sim._seq
            sim._seq = seq + 1
            self._qseq = seq
            sim._imm_normal.append(self)
            return self
        sim._schedule(self, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"{exc!r} is not an exception")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, priority)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that fires automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Internal: kicks off a newly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        sim._schedule(self, URGENT)


class Process(Event):
    """A running generator inside the simulation.

    The process is itself an event that triggers when the generator
    returns (value = return value) or raises (event fails).
    """

    __slots__ = ("gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"{gen!r} is not a generator")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        Initialize(sim, self)

    # -- engine hook ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        gen = self.gen
        sim._active = self
        # The deques/heap objects are never reassigned on the
        # Simulator, so they are safe to hoist out of the hot loop.
        imm_urgent = sim._imm_urgent
        imm_normal = sim._imm_normal
        heap = sim._heap
        pending = _PENDING
        # _tail is loop-invariant here: it is True iff this _resume ran
        # as the sole callback of the event the loop is processing, and
        # the trampoline below always restores it after running nested
        # callbacks. _stop's identity can only change across run()
        # calls, never mid-chain (only its .processed flips).
        tail = sim._tail
        stop = sim._stop
        evt: Optional[Event] = event
        # Trampoline count is accumulated locally and flushed once per
        # _resume call — a per-event instance-attribute increment would
        # cost as much as the scheduling it saves.
        tramps = 0
        while True:
            try:
                if evt is None:
                    target = next(gen)
                elif evt._ok:
                    target = gen.send(evt._value)
                else:
                    # mark the failure as handled by this process
                    target = gen.throw(evt._value)
            except StopIteration as stop:
                sim._active = None
                sim.trampolines += tramps
                self.succeed(stop.value, priority=URGENT)
                return
            except BaseException as exc:
                sim._active = None
                sim.trampolines += tramps
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc, priority=URGENT)
                return
            try:
                wrong_sim = target.sim is not sim
            except AttributeError:
                wrong_sim = True
            if wrong_sim:
                sim._active = None
                if isinstance(target, Event):
                    raise SimulationError(
                        "yielded event belongs to a different Simulator")
                raise SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}")
            cbs = target.callbacks
            if target.processed or cbs is None:
                # Already fired: resume immediately with its value.
                evt = target
                continue
            if tail and target._value is not pending \
                    and (stop is None or not stop.processed):
                # Trampoline: the target is triggered and waiting in a
                # microqueue. If it is exactly the event the loop would
                # pop next — we are the last callback of the event
                # being processed, so nothing runs between "now" and
                # that pop — consume it inline instead of bouncing
                # through the scheduler. Any other callbacks registered
                # on the target run first, exactly as the loop would run
                # them (our own continuation was not appended yet, so
                # it comes last either way).
                q = imm_urgent
                prio = URGENT
                if not q:
                    q = imm_normal
                    prio = NORMAL
                if q and q[0] is target:
                    next_is_target = True
                    if heap:
                        h = heap[0]
                        if h[0] == sim.now and (
                                h[1] < prio
                                or (h[1] == prio and h[2] < target._qseq)):
                            next_is_target = False
                    if next_is_target:
                        q.popleft()
                        target.callbacks = None
                        if cbs:
                            sim._tail = False
                            for cb in cbs:
                                cb(target)
                            sim._tail = True
                            sim._active = self
                        target.processed = True
                        tramps += 1
                        evt = target
                        continue
            cbs.append(self._resume)
            sim._active = None
            sim.trampolines += tramps
            return


class AllOf(Event):
    """Triggers when all constituent events have triggered.

    Value is the list of constituent values, in construction order.
    Fails fast if any constituent fails.
    """

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        for evt in self.events:
            if evt.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        if not self.events:
            self.succeed([])
            return
        for evt in self.events:
            if evt.callbacks is None or evt.processed:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed([e._value for e in self.events])


class Simulator:
    """The event loop: immediate-event microqueues over a time heap.

    The heap holds ``(time, priority, seq, event)`` entries; the two
    microqueues hold bare events (their seq in ``Event._qseq``) for
    zero-delay events at the current timestamp — one deque per
    priority, so each is FIFO in ``seq``. :meth:`run` pops the
    minimum of the three heads under the ``(time, priority, seq)``
    order.

    ``fast=None`` (default) enables the microqueue/trampoline fast
    paths unless the ``MEGAMMAP_SLOW_KERNEL`` environment variable is
    set to a non-empty value other than ``"0"``.
    """

    def __init__(self, fast: Optional[bool] = None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._imm_urgent: deque[Event] = deque()
        self._imm_normal: deque[Event] = deque()
        self._seq = 0
        self._active: Optional[Process] = None
        if fast is None:
            fast = os.environ.get("MEGAMMAP_SLOW_KERNEL", "") in ("", "0")
        self._fast = bool(fast)
        #: Schedule perturbation (chaos testing): when armed via
        #: :meth:`enable_perturbation`, ties among same-``(time,
        #: priority)`` events are broken by a seeded random draw
        #: instead of FIFO ``seq`` order. Off (``None``) by default —
        #: the scheduling code below is untouched when off, so results
        #: are bit-for-bit identical to a simulator without the flag.
        self._perturb: Optional[random.Random] = None
        #: True while the single/last callback of the event currently
        #: being processed runs — the only point where the trampoline
        #: may consume the next event inline.
        self._tail = False
        #: The active ``run(until=event)`` stop event. Trampolining is
        #: suspended once it is processed so the kernel leaves exactly
        #: the same events pending as the heap-only kernel would.
        self._stop: Optional[Event] = None
        #: Host-side scheduling counters (observability; they do not
        #: exist in simulated time). ``heap_events`` paid a heap push,
        #: ``trampolines`` were consumed inline without re-entering the
        #: scheduler; ``fast_events`` (microqueue schedules) is derived
        #: as ``_seq - heap_events`` to keep the hot path increment-free.
        self.heap_events = 0
        self.trampolines = 0
        #: Always 0: the far-timer wheel is gone. Kept only because
        #: ``benchmarks/e2e/workloads.py`` and ``BENCHMARK.json``'s
        #: ``sim.wheel_events`` read it.
        self.wheel_events = 0

    @property
    def fast_events(self) -> int:
        """Events scheduled through a microqueue (vs. the time heap)."""
        return self._seq - self.heap_events

    # -- construction helpers -------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def enable_perturbation(self, seed: int) -> None:
        """Arm randomized tie-breaking among same-timestamp events.

        Every subsequently scheduled event gets a seeded random rank
        as its tie-break key (monotonic ``seq`` stays as the final
        tiebreaker, so the order remains total and the run remains
        deterministic for a given ``seed``). The microqueue/trampoline
        fast paths assume FIFO ``seq`` order, so arming perturbation
        forces the heap-only kernel and re-keys pending entries. Chaos
        testing uses this to explore legal-but-different event
        interleavings.
        """
        rng = random.Random(seed)
        self._perturb = rng
        self._fast = False
        # Re-key already-pending entries with random ranks too: int
        # and tuple tie-break keys must never coexist in one heap (a
        # same-(time, priority) comparison between them would raise),
        # and the loop's microqueue merge compares heap keys
        # against integer ``_qseq`` values.
        entries = [(t, p, (rng.random(), s), e)
                   for t, p, s, e in self._heap]
        for prio, q in ((URGENT, self._imm_urgent),
                        (NORMAL, self._imm_normal)):
            while q:
                evt = q.popleft()
                entries.append((self.now, prio,
                                (rng.random(), evt._qseq), evt))
        heapq.heapify(entries)
        self._heap = entries

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        seq = self._seq
        self._seq = seq + 1
        if self._perturb is not None:
            # Tuple tie-break key: random rank first, seq second for
            # totality. Tuples compare fine against each other, and the
            # fast-path comparisons against ``_qseq`` never run (the
            # microqueues stay empty once perturbation is armed).
            heapq.heappush(self._heap, (self.now + delay, priority,
                                        (self._perturb.random(), seq),
                                        event))
            self.heap_events += 1
            return
        if self._fast and delay == 0.0:
            if priority == URGENT:
                event._qseq = seq
                self._imm_urgent.append(event)
                return
            if priority == NORMAL:
                event._qseq = seq
                self._imm_normal.append(event)
                return
        heapq.heappush(self._heap, (self.now + delay, priority, seq, event))
        self.heap_events += 1

    def _run_cohorts(self, stop_evt: Optional[Event],
                     deadline: float) -> None:
        """The dispatch loop: pop and process events in ``(time,
        priority, seq)`` order until the schedule drains, ``stop_evt``
        is processed, or the next event lies past ``deadline`` (the
        clock then stops at the deadline).

        Same-timestamp cohorts (the microqueue runs that dominate a
        MegaMmap schedule) dispatch back-to-back. Microqueue entries
        are all at ``now``, which never exceeds the deadline, so only
        a heap pop checks it.
        """
        heap = self._heap
        iu = self._imm_urgent
        inm = self._imm_normal
        heappop = heapq.heappop
        while iu or inm or heap:
            if stop_evt is not None and stop_evt.processed:
                return
            q = iu
            prio = URGENT
            if not q:
                q = inm
                prio = NORMAL
            event: Optional[Event] = None
            if q:
                # A heap entry only wins when it is at now with a
                # strictly smaller (priority, seq) — the exact
                # (time, priority, seq) order of the heap-only kernel.
                if heap:
                    h = heap[0]
                    if h[0] == self.now and (
                            h[1] < prio
                            or (h[1] == prio and h[2] < q[0]._qseq)):
                        event = heappop(heap)[3]
                if event is None:
                    event = q.popleft()
            else:
                when = heap[0][0]
                if when > deadline:
                    self.now = deadline
                    return
                event = heappop(heap)[3]
                self.now = when
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                if len(callbacks) == 1:
                    # Tail position: the trampoline may run event
                    # chains inline from here (see Process._resume).
                    self._tail = True
                    callbacks[0](event)
                    self._tail = False
                else:
                    for cb in callbacks:
                        cb(event)
            event.processed = True
            if not event._ok and not callbacks:
                # Nothing was waiting on this failure: surface it
                # rather than letting the simulation silently continue.
                raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the schedule drains, a deadline passes, or an event
        fires.

        When ``until`` is an event, returns that event's value (raising
        its exception if it failed). Unhandled process failures
        propagate out of :meth:`run`.
        """
        stop_evt: Optional[Event] = None
        deadline = float("inf")
        if isinstance(until, Event):
            stop_evt = until
            if stop_evt.callbacks is not None:
                # Mark the stop event as observed so a failure is
                # reported by run() itself rather than from the loop.
                stop_evt.callbacks.append(lambda _evt: None)
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise ValueError("deadline lies in the past")
        prev_stop = self._stop
        self._stop = stop_evt
        try:
            self._run_cohorts(stop_evt, deadline)
        finally:
            self._stop = prev_stop
        if stop_evt is not None:
            if not stop_evt.triggered:
                raise SimulationError("run() ended before `until` event fired")
            if not stop_evt._ok:
                raise stop_evt._value
            return stop_evt._value
        return None
