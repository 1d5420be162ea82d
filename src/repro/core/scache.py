"""Shared-cache executor: how runtime workers act on MemoryTasks.

The scache is the distributed, tiered, coherent page store (paper
III-B). Pages are Hermes blobs in the bucket named after the vector;
this module implements the read / write / score / flush / delete task
semantics on top of Hermes + the Data Stager, honouring the vector's
coherence policy (replication for READ_ONLY_GLOBAL, partial-fragment
updates, replica invalidation on writes).
"""

from __future__ import annotations

from repro.core.coherence import CoherencePolicy
from repro.core.errors import MegaMmapError
from repro.core.memtask import BatchTask, MemoryTask, TaskKind
from repro.core.shared import SharedVector
from repro.hermes.blob import BlobNotFound


def _cut(raw, region):
    """``region = (offset, nbytes)`` of a page's bytes; all when None."""
    if region is None:
        return raw
    return raw[region[0]:region[0] + region[1]]


def _extent(vec: SharedVector, task: MemoryTask):
    """What a read task asks for, as a blob extent: its ``(offset,
    nbytes)``, or None when that is the whole page."""
    if task.region == (0, vec.page_nbytes(task.page_idx)):
        return None
    return task.region


def _whole_page(vec: SharedVector, task: MemoryTask) -> bool:
    frags = task.fragments
    return (len(frags) == 1 and frags[0][0] == 0
            and len(frags[0][1]) == vec.page_nbytes(task.page_idx))


def _write_allocates(vec: SharedVector, task: MemoryTask) -> bool:
    """A write of a whole absent page needs no stage-in — unless one
    is about to publish the page, in which case the write goes on top
    of it rather than racing it."""
    return _whole_page(vec, task) and task.page_idx not in vec.staging


def _write_score(vec: SharedVector) -> float:
    """Pages of write/append-only phases are not read back soon: a
    lower score lets hotter (about-to-be-read) pages keep the fast
    tiers."""
    return 0.5 if vec.policy in (
        CoherencePolicy.WRITE_ONLY_GLOBAL,
        CoherencePolicy.APPEND_ONLY_GLOBAL) else 1.0


#: The two read kinds are one read on the owner; the kind only names
#: its spans (``read`` / ``read_batch`` vs ``obj_read`` /
#: ``obj_read_batch``) and their category, so ``repro report`` can
#: tell the page path from the object path.
_READ_CATEGORY = {TaskKind.READ: "scache", TaskKind.OBJ_READ: "object"}


class ScacheExecutor:
    """Executes MemoryTasks on behalf of one node's runtime workers."""

    def __init__(self, system, node_id: int):
        self.system = system
        self.node_id = node_id
        self.sim = system.sim
        _m = system.monitor.metrics
        self._m_reads = _m.counter("scache.reads", node=node_id)
        self._m_staged_reads = _m.counter("scache.staged_reads",
                                          node=node_id)
        self._m_writes = _m.counter("scache.writes", node=node_id)

    def execute(self, task: MemoryTask):
        """Dispatch one task. Generator; returns the READ payload or
        None."""
        vec = self.system.vectors.get(task.vector_name)
        if vec is None or (vec.destroyed
                           and task.kind is not TaskKind.DELETE):
            raise MegaMmapError(
                f"task for unknown/destroyed vector {task.vector_name!r}")
        tenancy = self.system.tenancy
        if tenancy is not None:
            tenancy.note_scache_op(vec.name, task.kind.value)
        tracer = self.system.tracer
        category = _READ_CATEGORY.get(task.kind)
        if category is not None:
            with tracer.span(task.kind.value, category, node=self.node_id,
                             vector=vec.name, page=task.page_idx,
                             nbytes=task.nbytes):
                (raw,), task.reply = yield from self._read_batch(
                    vec, [task], task.client_node)
                return raw
        if task.kind is TaskKind.WRITE:
            with tracer.span("write", "scache", node=self.node_id,
                             vector=vec.name, page=task.page_idx,
                             nbytes=task.nbytes):
                return (yield from self._write(vec, task))
        if task.kind is TaskKind.SCORE:
            self.system.organizer.ingest(vec, task.scores)
            return None
        if task.kind is TaskKind.DELETE:
            yield from self._delete(vec, task)
            return None
        raise MegaMmapError(f"unknown task kind {task.kind}")

    def execute_batch(self, batch: BatchTask):
        """Service a whole BatchTask in one scache round where the
        kind allows it. Generator; returns per-task results in
        ``batch.tasks`` order."""
        vec = self.system.vectors.get(batch.vector_name)
        if vec is None or vec.destroyed:
            raise MegaMmapError(
                f"batch for unknown/destroyed vector "
                f"{batch.vector_name!r}")
        tenancy = self.system.tenancy
        if tenancy is not None:
            tenancy.note_scache_op(vec.name, batch.kind.value,
                                   len(batch))
        tracer = self.system.tracer
        category = _READ_CATEGORY.get(batch.kind)
        if category is not None:
            with tracer.span(f"{batch.kind.value}_batch",
                             f"{category}.batch", node=self.node_id,
                             vector=vec.name, count=len(batch),
                             nbytes=batch.nbytes):
                results, batch.reply = yield from self._read_batch(
                    vec, batch.tasks, batch.client_node)
                return results
        if batch.kind is TaskKind.WRITE:
            with tracer.span("write_batch", "scache.batch",
                             node=self.node_id, vector=vec.name,
                             count=len(batch), nbytes=batch.nbytes):
                return (yield from self._write_batch(vec, batch))
        results = []
        for task in batch.tasks:
            results.append((yield from self.execute(task)))
        return results

    # -- page materialization ------------------------------------------------
    def ensure_page(self, vec: SharedVector, page_idx: int,
                    client_node: int, score: float = 1.0):
        """One-page :meth:`ensure_pages`; returns the page's BlobInfo."""
        return (yield from self.ensure_pages(
            vec, [page_idx], client_node, score))[page_idx]

    def ensure_pages(self, vec: SharedVector, pages, client_node: int,
                     score: float = 1.0):
        """Materialize the page blobs the scache lacks, in one
        :meth:`DataStager.materialize` call for all the absent ones
        (backend bytes; zero-fill where the backend holds nothing).
        Generator; returns {page_idx: BlobInfo}."""
        hermes = self.system.hermes
        infos = yield from hermes.mdm.try_get_many(self.node_id, vec.name,
                                                   pages)
        missing = []
        for p, info in infos.items():
            if info is None:
                missing.append(p)
            elif self._extent_restageable(vec, p, info):
                # A crash left a dead placement. Drop the stale entry
                # so the stage-in (which never overwrites a page with
                # live metadata) rebuilds it with its neighbours.
                try:
                    yield from hermes.delete(self.node_id, vec.name, p)
                    self.system.monitor.count(
                        "reliability.extent_restages")
                except BlobNotFound:
                    pass  # a concurrent batch dropped it first
                missing.append(p)
            elif info.nbytes < vec.page_nbytes(p):
                # The vector grew (append): extend the blob in place.
                raw = yield from self._get_page(vec, p, self.node_id)
                raw = b"".join((raw, bytes(vec.page_nbytes(p) - len(raw))))
                infos[p] = yield from hermes.put(
                    self.node_id, vec.name, p, raw, score=info.score,
                    target_node=info.node)
        if missing:
            yield from self.system.stager.materialize(
                vec, missing, self.node_id, client_node, score)
            infos.update((yield from hermes.mdm.try_get_many(
                self.node_id, vec.name, missing)))
        return infos

    def _dead(self, info) -> bool:
        """The placement's primary crashed (or never came back)."""
        return info.node < 0 \
            or info.node in self.system.reliability.failed_nodes

    def _extent_restageable(self, vec: SharedVector, page_idx: int,
                            info) -> bool:
        """A dead placement (crashed primary, no surviving replica)
        that is safe to rebuild from the persistent backend with its
        stripe's stage-in. Volatile or dirty pages are excluded: their
        only copy is gone and :meth:`ReliabilityManager.recover_page`
        must report the loss, not mask it."""
        return (self._dead(info) and not info.replicas
                and not vec.volatile and page_idx not in vec.dirty_pages)

    # -- reads ----------------------------------------------------------------
    def _get_page(self, vec: SharedVector, page_idx: int,
                  client_node: int, extent=None):
        """Whole-page fetch -- or ``extent = (offset, nbytes)`` of the
        page -- shipped to ``client_node``, with crash failover.

        A primary can vanish between placement lookup and the device
        read (a node crash mid-request); hermes reports that as
        :class:`BlobNotFound`, and the recovery path (replica, then
        persistent backend) serves the read instead.
        """
        try:
            return (yield from self.system.hermes.get(
                client_node, vec.name, page_idx, extent))
        except BlobNotFound:
            self.system.monitor.count("reliability.read_failovers")
            raw = yield from self.system.reliability.recover_page(
                vec, page_idx, client_node)
            return _cut(raw, extent)

    def _read(self, vec: SharedVector, task: MemoryTask):
        """The per-task read that ships its own payload: what
        :meth:`_read_batch` falls back to for replicating reads and
        unhealthy placements."""
        hermes = self.system.hermes
        rel = self.system.reliability
        # Failure handling (§V extension): a lost primary recovers from
        # a surviving replica or the persistent backend.
        info = hermes.mdm.peek(vec.name, task.page_idx)
        if info is not None and self._dead(info):
            raw = yield from rel.recover_page(vec, task.page_idx,
                                              task.client_node)
            return _cut(raw, task.region)
        yield from self.ensure_page(vec, task.page_idx, task.client_node)
        if self._replicates(vec, task):
            return (yield from self._replicated(vec, task))
        self._m_reads.inc()
        if not self.system.config.integrity_checks:
            return (yield from self._get_page(
                vec, task.page_idx, task.client_node, _extent(vec, task)))
        # Verification needs the whole page: a partial read of a
        # checked page fetches all of it, verifies and slices (the
        # fragment fast path used to return corrupted bytes of pages
        # only ever read in pieces, e.g. the partition-boundary pages
        # of a PGAS scan).
        raw = yield from self._get_page(vec, task.page_idx,
                                        task.client_node)
        raw = yield from self._verified(vec, task.page_idx,
                                        task.client_node, raw)
        return _cut(raw, task.region)

    def _replicated(self, vec: SharedVector, task: MemoryTask,
                    staged=None):
        """A replicating read (:meth:`_replicates`), shipped to the
        client by hermes. ``staged = (bytes, tier)``: the page as this
        node's stage-in just published it -- no device read, and nothing
        to verify (``reliability.record`` checksummed these bytes)."""
        hermes = self.system.hermes
        held = None if staged is None \
            else (staged[0], self.node_id, staged[1])
        try:
            raw = yield from hermes.replicate(
                task.client_node, vec.name, task.page_idx, held)
        except BlobNotFound:
            self.system.monitor.count("reliability.read_failovers")
            raw = yield from self.system.reliability.recover_page(
                vec, task.page_idx, task.client_node)
            staged = None
        if staged is None:
            raw = yield from self._verified(vec, task.page_idx,
                                            task.client_node, raw)
        info = hermes.mdm.peek(vec.name, task.page_idx)
        if info is not None and info.replicas:
            vec.replicated_pages.add(task.page_idx)
        self._m_reads.inc()
        return _cut(raw, task.region)

    def _verified(self, vec: SharedVector, page_idx: int,
                  client_node: int, raw):
        """``raw`` (the whole page, at ``client_node``) if it passes
        the integrity check; else a verified copy (§V bit flip:
        recovery tries every placement, promotes the good one, drops
        the corrupted one)."""
        rel = self.system.reliability
        if self.system.config.integrity_checks \
                and not rel.verify(vec.name, page_idx, raw):
            self.system.monitor.count("reliability.corruptions")
            raw = yield from rel.recover_page(vec, page_idx, client_node)
        return raw

    def _replicates(self, vec: SharedVector, task: MemoryTask) -> bool:
        """A read that leaves a copy behind on the client's node: a
        whole page of a READ_ONLY_GLOBAL vector, asked for from another
        node. Exactly [0, page_nbytes): a replicating read returns the
        page from offset 0, which is not what an offset region that
        runs past the page's end asked for."""
        return (vec.policy is CoherencePolicy.READ_ONLY_GLOBAL
                and task.client_node != self.node_id
                and _extent(vec, task) is None)

    def _read_batch(self, vec: SharedVector, tasks, client_node: int):
        """Serve reads -- one task's or a whole batch's, each an extent
        of a page, possibly all of it: one metadata/stage-in round for
        their distinct pages, then one vectored hermes read of every
        healthy extent. A page the stage-in round published is not read
        back: its read is answered with the bytes just stored, which
        are on this node. Nothing is shipped from here: the bytes read
        add up per source node, and the runtime sends them as the
        request's one reply after the service. Replicating reads and
        unhealthy placements (crashed primary, lost replica) fall back
        to :meth:`_read`, which recovers page by page and ships its own
        payload. Generator; returns ``(results in order, {source node:
        bytes})``."""
        hermes = self.system.hermes
        results: list = [None] * len(tasks)
        # Start stage-in for every absent page up front, so the
        # per-task fallbacks' backend reads overlap the vectored read's.
        staged = yield from self.system.stager.materialize(
            vec, [task.page_idx for task in tasks], self.node_id,
            client_node)
        reply, pending = {}, []
        for i, task in enumerate(tasks):
            info = hermes.mdm.peek(vec.name, task.page_idx)
            hit = staged.get(task.page_idx)
            if hit is not None:
                results[i] = yield from self._staged_read(vec, task, hit,
                                                          reply)
            elif (info is not None and self._dead(info)) \
                    or self._replicates(vec, task):
                results[i] = yield from self._read(vec, task)
            else:
                pending.append(i)
        if not pending:
            return results, reply
        pages = list(dict.fromkeys(tasks[i].page_idx for i in pending))
        infos = yield from self.ensure_pages(vec, pages, client_node)
        # A fault racing the shared stage-in (fail_node mid-batch) can
        # hand back a partially-restaged stripe: some pages resolved to
        # live placements, others to dead or missing entries. The
        # vectored read must not see the unhealthy ones -- route them
        # through the per-task path (replica failover / backend
        # restage), which re-checks residency page by page.
        healthy = []
        for i in pending:
            task = tasks[i]
            info = infos.get(task.page_idx)
            if info is None or self._dead(info):
                self.system.monitor.count("reliability.read_failovers")
                results[i] = yield from self._read(vec, task)
            else:
                healthy.append(i)
        if not healthy:
            return results, reply
        reads = [tasks[i] for i in healthy]
        try:
            raws, sent = yield from self._read_extents(
                vec, client_node, reads)
        except BlobNotFound:
            # A node crashed under the vectored read.
            self.system.monitor.count("reliability.read_failovers")
            for i, task in zip(healthy, reads):
                results[i] = yield from self._read(vec, task)
            return results, reply
        for i, raw in zip(healthy, raws):
            self._m_reads.inc()
            results[i] = raw
        for node, nbytes in sent.items():
            reply[node] = reply.get(node, 0) + nbytes
        return results, reply

    def _staged_read(self, vec: SharedVector, task: MemoryTask, staged,
                     reply: dict):
        """Answer ``task`` with ``staged = (bytes, tier)``, its page as
        this node's stage-in just published it: a replicating read
        still leaves its replica (and ships itself), a plain one adds
        its extent to ``reply`` under this node. Generator."""
        self._m_staged_reads.inc()
        if self._replicates(vec, task):
            return (yield from self._replicated(vec, task, staged))
        raw, tier = staged
        out = _cut(raw, task.region)
        self.system.hermes.note_read(vec.name, task.page_idx, tier,
                                     len(out))
        self._m_reads.inc()
        reply[self.node_id] = reply.get(self.node_id, 0) + len(out)
        return out

    def _read_extents(self, vec: SharedVector, client_node: int, tasks):
        """The regions of ``tasks`` (healthy pages of one batch), read
        but not shipped. Generator; returns ``(extents in order,
        {source node: bytes})``."""
        hermes = self.system.hermes
        if not self.system.config.integrity_checks:
            return (yield from hermes.read_many(
                client_node, vec.name,
                [(task.page_idx, _extent(vec, task)) for task in tasks]))
        # Verification needs the whole page: bring each distinct page
        # to this node once, verify it here, slice -- only the extents
        # travel on to the client.
        pages = list(dict.fromkeys(task.page_idx for task in tasks))
        raws = yield from hermes.get_many(self.node_id, vec.name, pages)
        for page_idx in pages:
            raws[page_idx] = yield from self._verified(
                vec, page_idx, self.node_id, raws[page_idx])
        extents = [_cut(raws[task.page_idx], task.region)
                   for task in tasks]
        return extents, {self.node_id: sum(len(e) for e in extents)}

    # -- writes ----------------------------------------------------------------
    def _write(self, vec: SharedVector, task: MemoryTask):
        hermes = self.system.hermes
        page_nbytes = vec.page_nbytes(task.page_idx)
        score = _write_score(vec)
        info = yield from hermes.mdm.try_get(self.node_id, vec.name,
                                             task.page_idx)
        if info is None and _write_allocates(vec, task):
            # Write-allocate: no need to stage in data we fully replace.
            owner = vec.owner_node(task.page_idx, task.client_node)
            yield from hermes.put(self.node_id, vec.name, task.page_idx,
                                  task.fragments[0][1], score=score,
                                  target_node=owner)
        else:
            yield from self.ensure_page(vec, task.page_idx,
                                        task.client_node, score=score)
            for off, data in task.fragments:
                if off < 0 or off + len(data) > page_nbytes:
                    raise MegaMmapError(
                        f"fragment [{off}, {off + len(data)}) outside page "
                        f"of {page_nbytes} bytes")
                yield from hermes.put_partial(
                    self.node_id, vec.name, task.page_idx, off, data)
        yield from self._post_write(vec, task)

    def _post_write(self, vec: SharedVector, task: MemoryTask):
        """Bookkeeping shared by the per-task and batched write paths:
        dirty/replica tracking, integrity records, durability copies.
        Generator: a write-through (``task.through``) replicates before
        its ack, so the bytes it acknowledges survive a primary crash;
        a write-behind's copies ship after it, off the critical path
        (like the paper's async eviction)."""
        vec.dirty_pages.add(task.page_idx)
        vec.replicated_pages.discard(task.page_idx)
        self._m_writes.inc()
        rel = self.system.reliability
        dur = self.system.durability
        if dur.enabled or self.system.config.integrity_checks \
                or rel.enabled:
            info = self.system.hermes.mdm.peek(vec.name, task.page_idx)
            if info is not None and info.node >= 0:
                dev = self.system.dmshs[info.node].tier(info.tier)
                if (vec.name, task.page_idx) in dev:
                    raw = dev.peek((vec.name, task.page_idx))
                    if self.system.config.integrity_checks \
                            or rel.enabled:
                        rel.record(vec.name, task.page_idx, raw)
                    # Intent for the next transaction barrier: the
                    # page's latest bytes on its primary node's log.
                    dur.stage(vec.name, task.page_idx, info.node, raw)
        if not rel.enabled:
            return
        if task.through:
            yield from rel.replicate_page(vec, task.page_idx)
        else:
            self.system.spawn_work(
                rel.replicate_page(vec, task.page_idx),
                name=f"replicate {vec.name}[{task.page_idx}]")

    def _write_batch(self, vec: SharedVector, batch: BatchTask):
        """Serve a WRITE batch.

        Fresh whole-page writes (write-allocate) go out as **one**
        vectored hermes put — one payload transfer per destination
        node, one metadata round per owner shard. Pages needing
        read-modify-write are materialized together up front, then each
        such task applies its fragments exactly as the per-task path
        would (same dirty/replica bookkeeping, same final bytes)."""
        hermes = self.system.hermes
        score = _write_score(vec)
        pages = [task.page_idx for task in batch.tasks]
        if len(set(pages)) != len(pages):
            # Two tasks touch one page: apply strictly in task order
            # via the per-task path so later fragments win.
            results = []
            for task in batch.tasks:
                results.append((yield from self._write(vec, task)))
            return results
        lookup = yield from hermes.mdm.try_get_many(
            self.node_id, vec.name, pages)
        bulk, rest, need = [], [], []
        for task in batch.tasks:
            if lookup.get(task.page_idx) is None \
                    and _write_allocates(vec, task):
                bulk.append(task)
            else:
                rest.append(task)
                if not _whole_page(vec, task):
                    need.append(task.page_idx)
        if need:
            yield from self.ensure_pages(vec, need, batch.client_node,
                                         score=score)
        if bulk:
            items = [(task.page_idx, task.fragments[0][1],
                      vec.owner_node(task.page_idx, task.client_node))
                     for task in bulk]
            yield from hermes.put_many(self.node_id, vec.name, items,
                                       score=score)
            for task in bulk:
                yield from self._post_write(vec, task)
        for task in rest:
            yield from self._write(vec, task)
        return [None] * len(batch.tasks)

    def _delete(self, vec: SharedVector, task: MemoryTask):
        try:
            yield from self.system.hermes.delete(
                self.node_id, vec.name, task.page_idx)
        except BlobNotFound:
            pass
        vec.dirty_pages.discard(task.page_idx)
