"""Per-process MegaMmap library handle.

Each application rank links one :class:`MegaMmapClient`: it creates or
attaches vectors by key, submits MemoryTasks to the owning node's
runtime, and tracks outstanding asynchronous writer tasks so
``flush(wait=True)`` and barriers can drain them. A waited submission
pays the request's wire cost; an asynchronous one is handed to the
client's outbound path (:meth:`MegaMmapClient._hand_off`) and costs
its caller nothing more.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import memtask
from repro.core.errors import VectorError
from repro.core.memtask import BatchTask, MemoryTask, TaskKind
from repro.core.shared import SharedVector
from repro.core.vector import Vector
from repro.net import batched_nbytes, fan_out
from repro.sim import AllOf, Event

#: Wire size of a task envelope (metadata without payload).
TASK_ENVELOPE = 128


class MegaMmapClient:
    """One process's connection to the MegaMmap deployment."""

    def __init__(self, system, rank: int, node: int):
        self.system = system
        self.rank = rank
        self.node = node
        #: ``(vector name, done event)`` of every async task in flight.
        self._outstanding: List[Tuple[str, Event]] = []
        #: The outbound path: per destination node, the enqueue event
        #: of the last shipment handed off to it (:meth:`_hand_off`).
        self._tails: Dict[int, Event] = {}
        self._m_inflight = system.monitor.metrics.gauge(
            "pcache_inflight_bytes", node=node)
        self._m_submits = system.monitor.metrics.counter("rpc.submits")
        #: Tenant this client acts for (a :class:`TenantQuota`), or
        #: None outside colocation — the None path is byte-identical
        #: to pre-tenancy behavior.
        self.tenant = None
        self._m_task_lat = None
        #: Every handle this process opened, in order (see :meth:`close`).
        self._vectors: List[Vector] = []

    def bind_tenant(self, tenant) -> None:
        """Attach this client to a tenant: pcache charges, volatile-key
        namespacing and per-task latency samples go to its ledger."""
        self.tenant = tenant
        tenant.clients.append(self)
        self._m_task_lat = self.system.monitor.metrics.histogram(
            "tenant_task_latency", tenant=tenant.name)

    # -- vectors -------------------------------------------------------------
    def vector(self, key: str, dtype=None, size: Optional[int] = None,
               page_size: Optional[int] = None,
               volatile: Optional[bool] = None):
        """Create or attach the shared vector named ``key`` (generator).

        Keys containing ``://`` denote nonvolatile vectors backed by
        that URL; the length of an existing backing object is queried
        transparently (Listing 1: "The vector size is the dataset size
        ... divided by the size of Point3D"). Plain keys denote
        volatile vectors (``size`` required on first creation).

        Under a bound tenant, volatile keys are namespaced per tenant
        (two colocated Gray-Scott jobs must not share ``gs:u0``);
        nonvolatile URL keys stay global — datasets are shareable.
        """
        if self.tenant is not None:
            key = self.tenant.scoped_key(key)
        shared = self.system.vectors.get(key)
        if shared is None:
            shared = yield from self._create(key, dtype, size, page_size,
                                             volatile)
        else:
            if dtype is not None and np.dtype(dtype) != shared.dtype:
                raise VectorError(
                    f"dtype mismatch for {key!r}: vector has "
                    f"{shared.dtype}, caller wants {np.dtype(dtype)}")
            if page_size is not None and page_size != shared.page_size:
                raise VectorError(
                    f"page size is immutable after creation "
                    f"({shared.page_size} != {page_size})")
        vec = Vector(self, shared)
        self._vectors.append(vec)
        return vec

    def _create(self, key, dtype, size, page_size, volatile):
        if dtype is None:
            raise VectorError(f"creating {key!r} requires a dtype")
        cfg = self.system.config
        if volatile is None:
            volatile = "://" not in key
        page_size = page_size or cfg.page_size
        itemsize = np.dtype(dtype).itemsize
        if page_size % itemsize:
            page_size -= page_size % itemsize
            if page_size < itemsize:
                page_size = itemsize
        shared = SharedVector(
            name=key, dtype=dtype, page_size=page_size,
            length=size or 0, volatile=volatile,
            n_nodes=len(self.system.dmshs),
            placement=self.system.hermes.mdm.placement_name(key))
        if not volatile:
            backend = shared.ensure_backend(create=True)
            existing = backend.size() // itemsize
            if size is None:
                shared.length = existing
            elif existing and existing != size:
                shared.length = max(size, existing)
        if shared.length == 0 and size is None:
            shared.length = 0
        # Creation is a metadata operation at the coordinator.
        coord = shared.coordinator_node
        yield from self.system.network.transfer(self.node, coord, 128)
        yield from self.system.network.transfer(coord, self.node, 128)
        # Another process may have won the race while we yielded.
        won = self.system.vectors.setdefault(key, shared)
        tenancy = self.system.tenancy
        if tenancy is not None and won is shared and self.tenant is not None:
            # First creator owns the bucket: its tenant is debited for
            # every authoritative blob in it, whoever evicts it later.
            tenancy.claim_bucket(key, self.tenant.name)
        return won

    # -- task submission ---------------------------------------------------------
    def submit(self, task: MemoryTask, wait: bool = True):
        """Send a MemoryTask to the owning node's runtime (generator).

        ``wait=True`` ships the task — behind whatever this client
        already handed off to that node (read-your-writes) — and
        returns its result. ``wait=False`` returns at once: the task is
        handed to the outbound path (:meth:`_hand_off`), ``task.done``
        exists from that moment and is tracked for :meth:`drain`.
        """
        vec = self.system.vectors[task.vector_name]
        target = vec.owner_node(task.page_idx, task.client_node)
        task.done = Event(self.system.sim)
        nbytes = TASK_ENVELOPE + task.nbytes \
            if task.kind in (TaskKind.WRITE, TaskKind.OBJ_WRITE) \
            else TASK_ENVELOPE
        self._m_submits.inc()
        h = self.system.history
        if h is not None:
            h.on_task(self, task.kind.value, task.vector_name,
                      task.page_idx, target)
        extra = {} if self.tenant is None else {
            "tenant": self.tenant.name}
        t0 = self.system.sim.now
        with self.system.tracer.span(
                f"submit:{task.kind.value}", "rpc", node=self.node,
                target=target, vector=task.vector_name,
                page=task.page_idx, wait=wait, nbytes=nbytes,
                **extra) as sp:
            if self.system.tracer.enabled:
                task.ctx = sp.span_id
            if not wait:
                self._hand_off(target, task, nbytes)
                return None
            yield from self._send(target, task, nbytes,
                                  self._tails.get(target))
            result = yield task.done
            if self._m_task_lat is not None:
                self._m_task_lat.observe(self.system.sim.now - t0)
            return result

    def submit_batch(self, tasks, wait: bool = True):
        """Send several same-kind MemoryTasks, batched per owner node
        (generator).

        Tasks are grouped by the node whose runtime owns their page;
        each group pays **one** envelope + payload transfer (vectored
        RPC) instead of one per task, and is serviced by the owner as a
        unit (single stage-in round per contiguous extent). Groups are
        capped at ``memtask.BATCH_MAX_PAGES`` tasks.

        ``wait=True`` ships every batch (each behind what this client
        already handed off to its owner) and returns the per-task
        results in ``tasks`` order: the owners' batches leave together
        (:func:`~repro.net.fan_out`), one owner's in order, so the call
        waits one round trip, not one flight per owner before its last
        request leaves. ``wait=False`` hands every batch to
        the outbound path (:meth:`_hand_off`) and returns at once, with
        completion tracked for :meth:`drain`. When batching is disabled
        (or a single task is given) this degrades to per-task
        :meth:`submit` calls — same hand-off, results bit-identical
        either way.
        """
        tasks = list(tasks)
        cfg = self.system.config
        if not tasks:
            return [] if wait else None
        if not cfg.batching_enabled or len(tasks) == 1:
            results = []
            for task in tasks:
                results.append((yield from self.submit(task, wait=wait)))
            return results if wait else None
        groups: dict = {}
        for pos, task in enumerate(tasks):
            vec = self.system.vectors[task.vector_name]
            owner = vec.owner_node(task.page_idx, task.client_node)
            key = (owner, task.kind, task.vector_name)
            groups.setdefault(key, []).append(pos)
        batches = []
        for (owner, kind, vec_name), positions in groups.items():
            for lo in range(0, len(positions), memtask.BATCH_MAX_PAGES):
                chunk = positions[lo:lo + memtask.BATCH_MAX_PAGES]
                batch = BatchTask(
                    kind=kind, vector_name=vec_name,
                    client_node=self.node,
                    tasks=[tasks[p] for p in chunk])
                batch.done = Event(self.system.sim)
                batches.append((owner, batch, chunk))
        self.system.monitor.count("rpc.batches", len(batches))
        self.system.monitor.count("rpc.batched_tasks", len(tasks))
        h = self.system.history
        if h is not None:
            for owner, batch, _chunk in batches:
                h.on_task(self, f"batch:{batch.kind.value}",
                          batch.vector_name, len(batch), owner)
        extra = {} if self.tenant is None else {
            "tenant": self.tenant.name}
        t0 = self.system.sim.now
        sends = []
        for owner, batch, _chunk in batches:
            payloads = [t.nbytes
                        if t.kind in (TaskKind.WRITE, TaskKind.OBJ_WRITE)
                        else 0
                        for t in batch.tasks]
            sends.append((owner, batch, batched_nbytes(payloads)))
        # One span for the call: every batch's shipment, service and
        # reply names it as their cause, and a waited call's span
        # lasts until the last reply is in.
        with self.system.tracer.span(
                f"submit_batch:{tasks[0].kind.value}", "rpc.batch",
                node=self.node,
                targets=list(dict.fromkeys(o for o, _b, _n in sends)),
                vector=tasks[0].vector_name, count=len(tasks), wait=wait,
                nbytes=sum(n for _o, _b, n in sends), **extra) as sp:
            if self.system.tracer.enabled:
                for _owner, batch, _nbytes in sends:
                    batch.ctx = sp.span_id
            if not wait:
                for owner, batch, nbytes in sends:
                    self._hand_off(owner, batch, nbytes)
                return None
            # Every owner's batches leave together; one owner's go in
            # order, each behind what this client handed off to it.
            yield from fan_out(self.system.sim, [
                (owner, self._send(owner, batch, nbytes,
                                   self._tails.get(owner)))
                for owner, batch, nbytes in sends])
            yield AllOf(self.system.sim, [b.done for _o, b, _c in batches])
        if self._m_task_lat is not None:
            self._m_task_lat.observe(self.system.sim.now - t0)
        results: List = [None] * len(tasks)
        for _owner, batch, chunk in batches:
            for pos, value in zip(chunk, batch.done.value):
                results[pos] = value
        return results

    # -- the outbound path -------------------------------------------------------
    def _hand_off(self, target: int, task, nbytes: int) -> None:
        """Give an asynchronous task (or batch) to the outbound path:
        a background shipment carries it to ``target``'s runtime while
        the caller goes on (paper III-B, Lifecycle of Modified Data:
        the application pays only the memory copy).

        Shipments to one destination leave, and are enqueued at its
        runtime, in hand-off order — each waits for its predecessor's
        enqueue — so per-page FIFO order at the owner is submission
        order whatever the wire does to one transfer. The task counts
        as in flight for :meth:`MegaMmapSystem.quiesce` from here, not
        from its arrival. The DRAM of the dropped frames it carries
        (``task.pinned``) stays charged to this node until the
        shipment has left it. A shipment that raises fails
        ``task.done``, so whoever drains it re-raises (and a failure
        nobody waits for surfaces from the simulator, like a failed
        service).
        """
        system = self.system
        prev = self._tails.get(target)
        enqueued = self._tails[target] = Event(system.sim)
        pinned = task.pinned
        if pinned:
            self._m_inflight.add(pinned)
        system.in_transit += 1
        self._outstanding.append((task.vector_name, task.done))

        def ship():
            try:
                try:
                    yield from self._wire(target, task, nbytes, prev)
                finally:
                    # On the wire or lost with it: either way the
                    # bytes are no longer held here.
                    if pinned:
                        self._m_inflight.sub(pinned)
                        self.unreserve_pcache(pinned)
                    system.in_transit -= 1
                system.runtimes[target].submit(task)
            except Exception as exc:  # noqa: BLE001 - handed to the
                task.done.fail(exc)   # task's waiter
            enqueued.succeed()

        system.spawn_work(ship(), name=f"ship {self.node}->{target}")

    def _wire(self, target: int, task, nbytes: int, prev):
        """A shipment's wire leg: wait until ``prev`` (the enqueue of
        what was shipped to ``target`` before it) has happened, then
        carry ``nbytes`` there. Its span continues the submit span
        that asked (same category), which it names as its cause.
        Generator."""
        span, category = ("ship_batch", "rpc.batch") \
            if isinstance(task, BatchTask) else ("ship", "rpc")
        causal = {} if task.ctx is None else {"cause": task.ctx}
        with self.system.tracer.span(
                f"{span}:{task.kind.value}", category, node=self.node,
                target=target, vector=task.vector_name, nbytes=nbytes,
                **causal):
            if prev is not None and not prev.triggered:
                yield prev
            yield from self.system.network.transfer(self.node, target,
                                                    nbytes)

    def _send(self, target: int, task, nbytes: int, prev):
        """A waited shipment: :meth:`_wire`, then enqueue ``task`` at
        ``target``'s runtime; work for :meth:`MegaMmapSystem.quiesce`
        until then. Generator."""
        system = self.system
        system.begin_work()
        try:
            yield from self._wire(target, task, nbytes, prev)
            system.runtimes[target].submit(task)
        finally:
            system.end_work()

    def settle(self):
        """Wait until every task handed off so far is *enqueued* at its
        owner (not serviced): from then on any process's later task for
        those pages queues behind them. The commit point of a
        transaction (:meth:`Vector.flush`). Generator."""
        pending = [tail for tail in self._tails.values()
                   if not tail.triggered]
        if pending:
            with self.system.tracer.span("settle", "rpc", node=self.node,
                                         count=len(pending)):
                yield AllOf(self.system.sim, pending)

    def submit_scores(self, shared: SharedVector, scores):
        """Batch score updates to each page's owner node (generator;
        fire-and-forget).

        Nobody waits for a score, so its ship and service hang under
        the zero-length ``submit:score`` span that issued them: the
        critical path never walks into them, and a rank computing while
        they are in flight is booked as computing."""
        by_owner = {}
        for page_idx, score, node_hint in scores:
            owner = shared.owner_node(page_idx, self.node)
            by_owner.setdefault(owner, []).append(
                (page_idx, score, node_hint))
        tracer = self.system.tracer
        for owner, batch in by_owner.items():
            task = MemoryTask(
                kind=TaskKind.SCORE, vector_name=shared.name,
                page_idx=batch[0][0], client_node=self.node,
                scores=batch)
            task.done = Event(self.system.sim)
            with tracer.span("submit:score", "rpc", node=self.node,
                             target=owner, vector=shared.name,
                             count=len(batch), wait=False,
                             nbytes=TASK_ENVELOPE) as sp:
                task.ctx = sp.span_id if tracer.enabled else None
            self._outstanding.append((shared.name, task.done))

            def ship(t=task, o=owner):
                with tracer.span("ship:score", "rpc", node=self.node,
                                 target=o, vector=t.vector_name,
                                 nbytes=TASK_ENVELOPE, cause=t.ctx):
                    yield from self.system.network.transfer(
                        self.node, o, TASK_ENVELOPE)
                self.system.runtimes[o].submit(t)

            self.system.spawn_work(ship(), name="score-ship")
        if False:  # pragma: no cover - keeps this a generator
            yield

    def drain(self, vector_name: Optional[str] = None):
        """Wait until every outstanding async task completed
        (generator) — only those of ``vector_name`` when given, so one
        vector's ``flush(wait=True)`` does not wait out another
        vector's writeback."""
        pending = []
        others = []
        for name, done in self._outstanding:
            if done.processed:
                continue
            if vector_name is None or name == vector_name:
                pending.append(done)
            else:
                others.append((name, done))
        self._outstanding = others
        if pending:
            with self.system.tracer.span("drain", "rpc", node=self.node,
                                         count=len(pending)):
                yield AllOf(self.system.sim, pending)

    def close(self):
        """The process exits: every frame of every handle it opened is
        evicted — dirty bytes ship like any eviction, the bytes held go
        back to the node's DRAM and off the tenant's ledger. Without
        it a finished process keeps charging a node it no longer runs
        on. Generator."""
        vectors, self._vectors = self._vectors, []
        for vec in vectors:
            for page_idx in list(vec.frames):
                yield from vec.evict_page(page_idx)

    # -- pcache accounting ------------------------------------------------------------
    def reserve_pcache(self, nbytes: int) -> None:
        dram = self.system.dmshs[self.node].tiers[0]
        dram.reserve(nbytes, strict=False)
        self.system.monitor.count("pcache.bytes_reserved", nbytes)
        if self.tenant is not None:
            self.tenant.charge_pcache(nbytes)

    def unreserve_pcache(self, nbytes: int) -> None:
        dram = self.system.dmshs[self.node].tiers[0]
        dram.unreserve(nbytes)
        if self.tenant is not None:
            self.tenant.release_pcache(nbytes)

    def pcache_over_quota(self, extra: int = 0) -> bool:
        """True when this client's tenant would exceed its pcache byte
        quota after growing by ``extra`` even with every cold frame of
        its handles taken back. Cold frames are free room: they are
        taken back here, coldest first across all the tenant's
        handles, as far as needed. Always False untenanted."""
        t = self.tenant
        if t is None:
            return False
        while t.pcache_over(extra):
            cold = [vec.pcache for client in t.clients
                    for vec in client._vectors if vec.pcache.cold]
            if not cold:
                return True
            min(cold, key=lambda pc: pc.coldest()).take_back_coldest()
        return False
