"""The per-node MegaMmap runtime: queue, scheduler, worker pools.

Paper III-B: the runtime "is a process running separate from
applications that manages the scache. The runtime can dedicate a
configurable maximum number of CPU cores and dynamically adjusts the
number of cores based on experienced load using an approach similar to
LabStor." Scheduling rules implemented here:

* MemoryTasks for the same page hash to the same worker **queue**
  (strong consistency / read-after-write: one FIFO per page);
* tasks under 16 KB execute on the **low-latency** CPU core pool,
  larger ones on the high-latency pool, so latency-sensitive requests
  of other pages are never stalled behind bulk transfers;
* the high-latency pool's core count follows the load (LabStor-style):
  it grows where a task is enqueued (:meth:`NodeRuntime.submit`), the
  moment more than two tasks per core wait, and a periodic controller
  gives cores back after sustained low backlog;
* a write :class:`~repro.core.memtask.BatchTask` fans out as one
  *shard* per involved worker FIFO. Every shard sits in its page's
  FIFO, so tasks submitted before the batch execute first and tasks
  submitted after it wait for the batch — the per-page read-after-write
  guarantee holds across the batched path. The worker that pops the
  batch's **last** shard (at which point every involved FIFO has
  reached the batch) services the whole batch in one scache round; the
  other shard workers block until it completes;
* a read batch needs no such barrier (it orders against nothing but
  its own pages): it runs as independent per-FIFO *parts*
  (:meth:`NodeRuntime._split_read`);
* a read -- a single task or a split batch -- reads without shipping
  and leaves the client **one reply**, one transfer per source node,
  all sources' at once, sent after its service
  (:meth:`NodeRuntime._reply`): it linearizes at its service, and only
  the requester waits for the wire, not a core, a FIFO or a blob lock;
* a task, a barrier batch or a part gets its core, its spans and its
  completion from the one :meth:`NodeRuntime._service`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.memtask import BatchTask, MemoryTask, TaskKind
from repro.core.scache import ScacheExecutor
from repro.net import fan_out
from repro.sim import AllOf, Event, Resource, Store
from repro.sim.rand import spawn_seed

#: MemoryTask byte size below which tasks go to the low-latency worker
#: pool (III-B: 16 KB).
LOW_LATENCY_THRESHOLD = 16 * 1024
#: Consecutive low-backlog controller periods required before the
#: high-latency worker pool gives back a core (a trickle of tasks must
#: not pin the pool at ``workers_max`` forever).
SCALE_DOWN_PERIODS = 3
#: Seconds between the scaling controller's ticks. Read at call time,
#: as ``runtime.SCALE_PERIOD``, so a test can patch it.
SCALE_PERIOD = 0.05


#: Task kinds that read: served without a barrier, answered by a reply.
_READS = (TaskKind.READ, TaskKind.OBJ_READ)


class _BatchState:
    """Coordination record for one barrier BatchTask inside a runtime.

    ``complete`` succeeds once the batch has been serviced (or failed);
    shard workers that were not the last to arrive wait on it so later
    tasks in their FIFOs keep ordering with the batch.
    """

    __slots__ = ("batch", "n_shards", "arrived", "complete")

    def __init__(self, batch: BatchTask, n_shards: int, sim):
        self.batch = batch
        self.n_shards = n_shards
        self.arrived = 0
        self.complete = Event(sim)


class _BatchShard:
    """One FIFO's share of a BatchTask (placed in that page FIFO)."""

    __slots__ = ("state",)

    def __init__(self, state: _BatchState):
        self.state = state


class NodeRuntime:
    """One node's runtime process group."""

    def __init__(self, system, node_id: int):
        self.system = system
        self.node_id = node_id
        self.sim = system.sim
        cfg = system.config
        self.executor = ScacheExecutor(system, node_id)
        self.queue: Store = Store(self.sim, name=f"rt{node_id}.queue")
        n_workers = cfg.low_latency_workers + cfg.high_latency_workers
        self._stores: List[Store] = [
            Store(self.sim, name=f"rt{node_id}.w{i}")
            for i in range(n_workers)]
        # Dedicated CPU core pools per size class (III-B: low-latency
        # workers "are scheduled on different CPU cores from
        # high-latency workers"). The high pool scales dynamically.
        self.low_cores = Resource(self.sim, capacity=cfg.low_latency_workers,
                                  name=f"rt{node_id}.lowcores")
        self.high_cores = Resource(self.sim, capacity=cfg.workers_min,
                                   name=f"rt{node_id}.highcores")
        self.inflight = 0
        self._low_streak = 0
        # Backlog gauge: +1 on submit, -1 when a worker gets a
        # core. Its time average is an L measurement *independent* of
        # the rt.queue wait spans, so `repro report` can cross-check
        # Little's law (L = lambda * W) from two sources -- over the
        # same window, hence the sample at construction. It is also
        # the scaling rule's input (:attr:`backlog`).
        metrics = system.monitor.metrics
        self._backlog_gauge = metrics.gauge("rt_backlog", node=node_id)
        self._backlog_gauge.set(0)
        # Capacity over time, so core-seconds can be read off a run.
        metrics.gauge("rt_cores", node=node_id, pool="low").set(
            cfg.low_latency_workers)
        self._cores_gauge = metrics.gauge("rt_cores", node=node_id,
                                          pool="high")
        self._cores_gauge.set(cfg.workers_min)
        self._procs = [self.sim.process(
            self._scheduler(), name=f"rt{node_id}.sched")]
        for i, store in enumerate(self._stores):
            self._procs.append(self.sim.process(
                self._worker(store), name=f"rt{node_id}.w{i}"))
        self._procs.append(self.sim.process(
            self._scaling_controller(), name=f"rt{node_id}.scale"))

    # -- submission -----------------------------------------------------------
    def submit(self, task) -> None:
        """Enqueue a MemoryTask or BatchTask at this runtime."""
        self.inflight += 1
        self.system.begin_work()
        task.submit_time = self.sim.now
        self._backlog_gauge.add(1)
        self._grow(self.backlog)
        self.queue.put(task)

    @property
    def backlog(self) -> int:
        """Tasks enqueued here that no core has picked up yet -- in the
        queue, in a worker FIFO, or popped by a worker that still waits
        for a core: the count the ``rt_backlog`` gauge reports."""
        return int(self._backlog_gauge.value)

    def _store_idx(self, vector_name: str, page_idx: int) -> int:
        placed = self.system.hermes.mdm.placement_name(vector_name)
        return spawn_seed(0xBEEF, placed, page_idx) % len(self._stores)

    # -- processes ---------------------------------------------------------------
    def _scheduler(self):
        while True:
            task = sub = state = None  # no payload held while waiting
            task = yield self.queue.get()
            if isinstance(task, BatchTask):
                if task.kind in _READS:
                    self._split_read(task)
                    continue
                shards: Dict[int, None] = {}
                for sub in task.tasks:
                    shards[self._store_idx(task.vector_name,
                                           sub.page_idx)] = None
                state = _BatchState(task, len(shards), self.sim)
                # All shard puts happen atomically (no yields), so two
                # batches sharing FIFOs enqueue in a consistent order
                # everywhere — shard barriers cannot deadlock.
                for idx in shards:
                    self._stores[idx].put(_BatchShard(state))
                continue
            idx = self._store_idx(task.vector_name, task.page_idx)
            self._stores[idx].put(task)

    def _split_read(self, batch: BatchTask) -> None:
        """Fan a read batch out as one independent *part* per worker
        FIFO; once all parts are serviced, hand back the part results
        in the original task order with the request's one reply.

        Reads need no cross-FIFO barrier: a shard barrier would hold
        every involved worker FIFO until the last one drains (convoying
        a serving node's whole low-latency pool behind one slow page).
        Each part still sits in its pages' FIFO, so the per-page
        read-after-write guarantee is untouched."""
        groups: Dict[int, List[int]] = {}
        for pos, sub in enumerate(batch.tasks):
            groups.setdefault(
                self._store_idx(batch.vector_name, sub.page_idx),
                []).append(pos)
        parts = []
        for idx, positions in groups.items():
            part = BatchTask(
                kind=batch.kind, vector_name=batch.vector_name,
                client_node=batch.client_node,
                tasks=[batch.tasks[p] for p in positions])
            part.done = Event(self.sim)
            part.submit_time = batch.submit_time
            part.ctx = batch.ctx
            self._stores[idx].put(part)
            parts.append((positions, part))
        # The parent batch counted once at submit(); every part's
        # worker decrements, so account for the extras.
        self.inflight += len(parts) - 1
        self.system.begin_work(len(parts) - 1)
        self._backlog_gauge.add(len(parts) - 1)

        def merge():
            try:
                yield AllOf(self.sim, [p.done for _pos, p in parts])
            except (GeneratorExit, KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - one request,
                self._fail(batch, f"batch:{batch.kind.value}", exc)
                return                    # one failure
            results = [None] * len(batch.tasks)
            for positions, part in parts:
                for src, nbytes in part.reply.items():
                    batch.reply[src] = batch.reply.get(src, 0) + nbytes
                for pos, value in zip(positions, part.done.value):
                    results[pos] = value
            yield from self._reply(batch, results)

        self.system.spawn_work(merge(), name=f"rt{self.node_id}.merge")

    def _reply(self, unit, result):
        """Answer a serviced read: what it read and left on each source
        node (``unit.reply``) travels to the client in one transfer per
        node, every source's at once (:func:`~repro.net.fan_out`),
        each ``net`` span naming the request as ``cause``; once the
        last has landed, ``unit.done`` fires with ``result``.
        Generator."""
        network = self.system.network
        yield from fan_out(self.sim, [
            (src, network.transfer(src, unit.client_node, nbytes,
                                   cause=unit.ctx))
            for src, nbytes in unit.reply.items()])
        if unit.done is not None:
            unit.done.succeed(result)

    def _worker(self, store: Store):
        while True:
            task = state = None  # no payload held while waiting
            task = yield store.get()
            if isinstance(task, MemoryTask):
                yield from self._service(
                    task, task.kind.value, self.executor.execute(task),
                    page=task.page_idx)
                continue
            if isinstance(task, BatchTask):
                # A part of a split read: the request's merge answers.
                yield from self._service(
                    task, f"batch:{task.kind.value}",
                    self.executor.execute_batch(task), part=True,
                    count=len(task))
                continue
            state = task.state
            state.arrived += 1
            if state.arrived < state.n_shards:
                # Ordering barrier: hold this FIFO until the batch
                # (serviced by the last-arriving shard's worker)
                # completes, so later same-page tasks stay ordered.
                yield state.complete
                continue
            # Every involved FIFO has drained all earlier tasks for the
            # batch's pages by now.
            try:
                yield from self._service(
                    state.batch, f"batch:{state.batch.kind.value}",
                    self.executor.execute_batch(state.batch),
                    count=len(state.batch))
            finally:
                # Release the other shard workers only after the batch
                # is fully serviced (read-after-write for later tasks).
                state.complete.succeed()

    def _service(self, unit, label: str, run, part: bool = False,
                 **attrs):
        """Give a MemoryTask or BatchTask a core of its size class and
        run it there (``run``: the generator that services it):
        records the queue wait, opens the ``rt.service`` span and
        completes the unit -- a read with bytes to send through
        :meth:`_reply`, once the core is free, anything else at once;
        a failure counted under ``label`` (:meth:`_fail`). A ``part``
        of a split read only completes its ``done``: its request's
        merge replies and counts. Generator."""
        tracer = self.system.tracer
        low = unit.nbytes < LOW_LATENCY_THRESHOLD
        pool = self.low_cores if low else self.high_cores
        req = pool.request()
        yield req
        self._backlog_gauge.sub(1)
        # Queue wait: enqueue at the runtime until a CPU core of the
        # right pool picks the unit up. ``cause`` links back to the
        # client-side submit span across the process boundary.
        causal = {"cause": unit.ctx} if unit.ctx is not None else {}
        if tracer.enabled:
            tracer.record(
                f"wait:{label}", "rt.queue", self.node_id,
                unit.submit_time, self.sim.now, vector=unit.vector_name,
                **attrs, pool="low" if low else "high", **causal)
        try:
            with tracer.span(f"exec:{label}", "rt.service",
                             node=self.node_id, vector=unit.vector_name,
                             **attrs, nbytes=unit.nbytes, **causal):
                result = yield from run
            if unit.reply and not part:
                self.system.spawn_work(self._reply(unit, result),
                                       name=f"rt{self.node_id}.reply")
            elif unit.done is not None:
                unit.done.succeed(result)
        except (GeneratorExit, KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            if part:
                unit.done.fail(exc)
            else:
                self._fail(unit, label, exc)
        finally:
            self.inflight -= 1
            pool.release(req)
            self.system.end_work()

    def _fail(self, unit, label: str, exc: BaseException) -> None:
        """Fail a request: count it under ``label`` -- so chaos triage
        can attribute aborts to a node/kind/error without parsing
        tracebacks -- and hand the error to its waiter (re-raised when
        nobody waits)."""
        self.system.monitor.metrics.counter(
            "rt_task_failures", node=self.node_id, kind=label,
            error=type(exc).__name__).inc()
        if unit.done is None:
            raise exc
        unit.done.fail(exc)

    def _scaling_controller(self):
        """The patient half of core scaling: once per
        :data:`SCALE_PERIOD`, give a high-latency core back after
        sustained low backlog (paper III-B, LabStor-style). Growth does
        not wait for it -- see :meth:`submit`."""
        while True:
            yield self.sim.timeout(SCALE_PERIOD)
            self._scale_tick()

    def _grow(self, backlog: int) -> bool:
        """The growth rule: one more high-latency core when the backlog
        exceeds twice the pool (up to ``workers_max``). Applied to
        every enqueued task, so a burst is met while it waits."""
        cap = self.high_cores.capacity
        if backlog <= 2 * cap or cap >= self.system.config.workers_max:
            return False
        self._resize(cap + 1, "up")
        return True

    def _resize(self, capacity: int, direction: str) -> None:
        self.high_cores.set_capacity(capacity)
        self._cores_gauge.set(capacity)
        self._low_streak = 0
        self.system.monitor.count(f"rt{self.node_id}.scale_{direction}")

    def _scale_tick(self, backlog=None) -> None:
        """One controller period: grow fast, shrink patiently.

        Shrinking requires :data:`SCALE_DOWN_PERIODS` *consecutive*
        low-backlog observations (``backlog < capacity``) — requiring a
        completely empty queue pinned the pool at ``workers_max``
        forever under any trickle of tasks.
        """
        cfg = self.system.config
        if backlog is None:
            backlog = self.backlog
        cap = self.high_cores.capacity
        if self._grow(backlog):
            return
        if backlog < cap:
            self._low_streak += 1
            if (self._low_streak >= SCALE_DOWN_PERIODS
                    and cap > cfg.workers_min):
                self._resize(cap - 1, "down")
        else:
            self._low_streak = 0
