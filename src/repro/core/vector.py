"""The client-side shared vector: pcache, transactions, element access.

This is the application-facing API of MegaMmap (paper Listing 1). Each
process holds its own :class:`Vector` handle over the cluster-global
:class:`~repro.core.shared.SharedVector`; reads and writes go through
the process-private **pcache** with copy-on-write dirty-interval
tracking, faulting pages from the distributed **scache** through
MemoryTasks, with the :class:`~repro.core.prefetcher.Prefetcher`
(Algorithm 1) driving eviction/read-ahead at transaction
acknowledgment points. Where the cached bytes live and what they cost
is :class:`~repro.core.pcache.PCache`'s business; this module decides
what to fetch, from whom, and in which batch.

All potentially blocking methods are generators:
``chunk = yield from vec.next_chunk()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import memtask
from repro.core.coherence import CoherencePolicy, policy_for
from repro.core.errors import TransactionError, VectorError
from repro.core.memtask import MemoryTask, TaskKind
from repro.core.pcache import Frame, PCache
from repro.core.prefetcher import Prefetcher
from repro.core.transaction import Transaction, TxFlags


@dataclass
class Chunk:
    """A page-run of elements handed to the application.

    ``data`` aliases the pcache frame: mutations hit the cache
    directly (and the run was pre-marked dirty for writing
    transactions) — but only while the frame extent it was cut from
    is the frame's storage. A later ``write_range`` across an extent
    boundary of the same frame merges the extents into a new buffer
    (:meth:`~repro.core.pcache.Frame.span`); from then on ``data`` is
    a detached copy: writes through it no longer reach the cache, and
    the cache's later bytes no longer show in it.
    """

    start: int          # element index of data[0]
    data: np.ndarray

    def __len__(self) -> int:
        return len(self.data)


class Vector:
    """Per-process handle on a shared MegaMmap vector."""

    def __init__(self, client, shared):
        self.client = client
        self.shared = shared
        #: Frames and their byte accounting (``core/pcache.py``).
        self.pcache = PCache(client, shared.name,
                             client.system.config.pcache_size,
                             self.evict_page)
        self.tx: Optional[Transaction] = None
        self.prefetcher = Prefetcher(self)
        self._policy_epoch_seen = shared.policy_epoch
        # Metric handles, fetched once (the hot path pays one add).
        _m = client.system.monitor.metrics
        self._m_faults = _m.counter(
            "pcache.faults", node=client.node, vector=shared.name)
        self._m_prefetches = _m.counter(
            "pcache.prefetches", node=client.node, vector=shared.name)

    # -- geometry / identity ---------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self.shared.dtype

    @property
    def itemsize(self) -> int:
        return self.shared.itemsize

    @property
    def elems_per_page(self) -> int:
        return self.shared.elems_per_page

    @property
    def size(self) -> int:
        """Current element count (paper: "acquiring current size")."""
        return self.shared.length

    @property
    def frames(self) -> Dict[int, Frame]:
        return self.pcache.frames

    @property
    def pcache_used(self) -> int:
        """Bytes the frames of this handle hold (``PCache.used``): a
        frame counts the extents it has, not a nominal page."""
        return self.pcache.used

    @property
    def pcache_budget(self) -> int:
        return self.pcache.budget

    @property
    def index_ops(self) -> int:
        return self.pcache.index_ops

    # -- resource control (paper III-A) -----------------------------------------
    def bound_memory(self, nbytes: int) -> None:
        """Cap this vector's pcache DRAM (Listing 1's ``BoundMemory``)."""
        if nbytes < self.shared.page_size:
            raise VectorError(
                f"pcache bound {nbytes} below one page "
                f"({self.shared.page_size})")
        self.pcache.budget = nbytes

    def pgas(self, rank: int, nprocs: int) -> None:
        """Partition elements evenly among processes (Listing 1's
        ``Pgas``)."""
        if not 0 <= rank < nprocs:
            raise VectorError(f"bad rank {rank} of {nprocs}")
        self._rank, self._nprocs = rank, nprocs

    def local_off(self) -> int:
        rank, nprocs = self._pgas()
        base, rem = divmod(self.shared.length, nprocs)
        return rank * base + min(rank, rem)

    def local_size(self) -> int:
        rank, nprocs = self._pgas()
        base, rem = divmod(self.shared.length, nprocs)
        return base + (1 if rank < rem else 0)

    def _pgas(self):
        try:
            return self._rank, self._nprocs
        except AttributeError:
            raise VectorError("call pgas(rank, nprocs) first") from None

    # -- transactions ---------------------------------------------------------------
    def tx_begin(self, tx: Transaction):
        """Open a transaction (generator; returns ``tx``)."""
        if self.tx is not None:
            raise TransactionError(
                "a transaction is already active on this vector")
        tx.bind(self)
        new_policy = policy_for(tx)
        if new_policy is not self.shared.policy:
            yield from self._change_phase(new_policy)
        if self._policy_epoch_seen != self.shared.policy_epoch:
            # Another phase began since our last transaction: private
            # frames may be stale relative to peers' committed writes.
            yield from self.invalidate_clean_frames()
            self._policy_epoch_seen = self.shared.policy_epoch
        self.tx = tx
        # Initial acknowledgment primes prefetching before first access.
        yield from self.prefetcher.on_advance(tx)
        return tx

    def tx_end(self):
        """Commit the active transaction (generator).

        Dirty pcache data is shipped to the scache as writer
        MemoryTasks, and the commit returns once every one of them —
        written behind earlier or shipped now — is enqueued at its
        owner. Nobody waits for their service: under
        asynchronous-writeback policies (write/append-only, local) the
        tasks complete in the background; otherwise visibility is
        immediate once a peer's read reaches the same page worker
        (task ordering).
        """
        if self.tx is None:
            raise TransactionError("no active transaction")
        tx, self.tx = self.tx, None
        yield from self.flush(wait=False)

    def invalidate_range(self, elem_off: int, count: int):
        """Drop pcache frames overlapping an element range (generator).

        The explicit *acquire* of a region another process may have
        modified under a LOCAL policy — e.g. ghost planes in a stencil
        exchange: invalidate, then read_range refaults fresh data from
        the scache. Dirty local bytes in the dropped frames are shipped
        first (evict semantics).
        """
        epp = self.elems_per_page
        first = elem_off // epp
        last = (elem_off + max(count, 1) - 1) // epp
        for page_idx in range(first, last + 1):
            if page_idx in self.frames:
                yield from self.evict_page(page_idx)

    def invalidate_clean_frames(self):
        """Drop pcache frames that hold no local modifications (their
        content may be stale after a phase change); dirty frames are
        flushed first, then dropped. Generator."""
        for page_idx in list(self.frames):
            yield from self.evict_page(page_idx)
        h = self.client.system.history
        if h is not None:
            # Freshness horizon: from now on this client's reads of
            # the vector refault from the scache, so they must observe
            # versions committed no earlier than this instant.
            h.on_invalidate(self)

    def _change_phase(self, new_policy: CoherencePolicy):
        """Switch coherence policy; leaving READ_ONLY invalidates every
        replica (paper III-C, Changing Phases)."""
        old = self.shared.policy
        self.shared.policy = new_policy
        self.shared.policy_epoch += 1
        if (old is CoherencePolicy.READ_ONLY_GLOBAL
                and new_policy is not CoherencePolicy.READ_ONLY_GLOBAL):
            for page_idx in sorted(self.shared.replicated_pages):
                yield from self.client.system.hermes.invalidate_replicas(
                    self.client.node, self.shared.name, page_idx)
            self.shared.replicated_pages.clear()
        self.client.system.monitor.count("coherence.phase_changes")

    # -- chunk iteration (the predicted access stream) ---------------------------------
    def next_chunk(self, max_elems: Optional[int] = None):
        """Next page-run of the active transaction (generator).

        Returns a :class:`Chunk` aliasing pcache memory, or ``None``
        when the transaction's declared accesses are exhausted. For
        writing transactions the chunk is pre-marked fully dirty; use
        element ``set`` for byte-precise dirty tracking instead.
        """
        tx = self._require_tx()
        h = self.client.system.history
        t0 = self.client.system.sim.now if h is not None else 0.0
        if tx.remaining == 0:
            # Final acknowledgment: evict/score the tail of the stream.
            if tx.tail > tx.head:
                yield from self.prefetcher.on_advance(tx)
            return None
        # Acknowledgment point: pages touched by *previous* chunks are
        # complete now — run Algorithm 1 before faulting the next page
        # (evicting the page we are about to hand out would lose the
        # caller's writes).
        if tx.tail > tx.head:
            yield from self.prefetcher.on_advance(tx)
        want = tx.remaining if max_elems is None \
            else min(max_elems, tx.remaining)
        want = min(want, self.elems_per_page)
        region = tx.get_pages(tx.tail, want)[0]
        if tx.writes and not tx.flags & TxFlags.READ:
            frame = yield from self._allocate(region.page_idx, region.off,
                                              region.size)
        else:
            (frame,) = yield from self._read_pages(
                [(region.page_idx, region.off, region.size)])
        n_elems = region.size // self.itemsize
        tx.advance(n_elems)
        end = region.off + region.size
        if tx.writes:
            frame.dirty.add(region.off, end)
            frame.valid.add(region.off, end)
        view = self.pcache.hold(frame, region.off, end).view(self.dtype)
        start = region.page_idx * self.elems_per_page \
            + region.off // self.itemsize
        if h is not None and not tx.writes:
            # Read-only chunks are checked like read_range results.
            # Writing chunks are captured at the commit boundary
            # instead (flush/evict fragments), where the final bytes
            # are known.
            h.on_read(self, start, view, t0)
        return Chunk(start=start, data=view)

    def _require_tx(self) -> Transaction:
        if self.tx is None:
            raise TransactionError(
                "memory access outside a transaction (call tx_begin)")
        return self.tx

    # -- element access (out-of-band within the tx region) --------------------------------
    def get(self, elem_idx: int):
        """Read one element (generator)."""
        self._require_tx()
        raw = yield from self.read_range(elem_idx, 1)
        return raw[0]

    def set(self, elem_idx: int, value):
        """Write one element with byte-precise dirty tracking
        (generator)."""
        tx = self._require_tx()
        if not tx.writes:
            raise TransactionError("write under a read-only transaction")
        arr = np.asarray([value], dtype=self.dtype) if not (
            isinstance(value, np.ndarray) and value.shape == (1,)) \
            else value.astype(self.dtype)
        yield from self.write_range(elem_idx, arr)

    def read_range(self, elem_off: int, count: int):
        """Read ``count`` elements starting at ``elem_off`` (generator;
        returns a private copy).

        The pages are read in waves, each one :meth:`_read_regions`
        call: the missing extents of a wave ship as one batched
        submission, one vectored RPC per owner node instead of one
        round trip per page. A wave is the batch cap, and never more
        pages than fit the pcache budget at once (the frames of a wave
        are exempt from eviction, so an unbounded wave could
        overcommit); it is one page under a collective read (each
        page its own tree fan-out) and with ``batching_enabled=False``.
        """
        self._check_range(elem_off, count)
        h = self.client.system.history
        t0 = self.client.system.sim.now if h is not None else 0.0
        out = np.empty(count, dtype=self.dtype)
        spans = list(self._page_spans(elem_off, count))
        wave_cap = 1
        if self.client.system.config.batching_enabled \
                and not self._collective:
            budget_pages = self.pcache_budget // self.shared.page_size
            wave_cap = max(1, min(memtask.BATCH_MAX_PAGES, budget_pages))
        for lo in range(0, len(spans), wave_cap):
            wave = spans[lo:lo + wave_cap]
            frames = yield from self._read_pages(
                [(p, poff * self.itemsize, n * self.itemsize)
                 for p, poff, n, _ in wave])
            # Copy out before the next wave may evict these frames.
            self._gather(out, wave, frames)
        if h is not None:
            h.on_read(self, elem_off, out, t0)
        return out

    def write_range(self, elem_off: int, array: np.ndarray):
        """Write elements starting at ``elem_off`` (generator)."""
        array = np.ascontiguousarray(array, dtype=self.dtype).ravel()
        self._check_range(elem_off, len(array))
        for page_idx, poff, n, soff in self._page_spans(elem_off,
                                                        len(array)):
            byte_off = poff * self.itemsize
            nbytes = n * self.itemsize
            frame = yield from self._allocate(page_idx, byte_off, nbytes)
            # Assign the source slice's uint8 view directly — the frame
            # assignment is the one copy; a tobytes()/frombuffer round
            # trip would materialize the bytes twice per span.
            self.pcache.hold(frame, byte_off, byte_off + nbytes)[:] = \
                array[soff:soff + n].view(np.uint8)
            frame.dirty.add(byte_off, byte_off + nbytes)
            frame.valid.add(byte_off, byte_off + nbytes)
        h = self.client.system.history
        if h is not None:
            h.on_write(self, elem_off, array)
        if self.tx is not None:
            yield from self._write_behind(self.tx, elem_off, len(array))

    def _write_behind(self, tx: Transaction, elem_off: int, count: int):
        """Acknowledge a range write — the eviction half of Algorithm 1
        for ``write_range``/``append`` (generator).

        Dirty pages the declared stream has fully passed
        (:meth:`Transaction.acknowledge_write`) ship now, in one batched
        asynchronous submission, instead of in a burst at ``tx_end``.
        Intent alone decides the frame's fate: without a READ bit
        nothing reads it back, so it is evicted; with one it stays
        resident and clean for the re-read.
        """
        pages = [(p, self.frames[p])
                 for p in tx.acknowledge_write(elem_off, count)
                 if p in self.frames and self.frames[p].dirty]
        if not pages:
            return
        drop = not tx.flags & TxFlags.READ
        kind = "evict" if drop else "keep"
        system = self.client.system
        with system.tracer.span(
                "write_behind", "pcache", node=self.client.node,
                vector=self.shared.name, kind=kind, count=len(pages),
                nbytes=sum(f.dirty.total for _, f in pages)):
            if drop:
                for page_idx, _frame in pages:
                    self.pcache.detach(page_idx)
            yield from self._ship_dirty(pages, drop)
            if drop:
                for _page_idx, frame in pages:
                    self.pcache.release(frame, dirty=True)
            yield from self.prefetcher.on_write_behind(
                [p for p, _ in pages], drop)
        system.monitor.metrics.counter(
            "pcache_write_behind", node=self.client.node,
            vector=self.shared.name, kind=kind).inc(len(pages))

    def append(self, array: np.ndarray):
        """Append elements; returns their start index (generator).

        Offset allocation is an atomic fetch-add at the vector's
        coordinator node (one small RPC round trip).
        """
        array = np.ascontiguousarray(array, dtype=self.dtype).ravel()
        # Reserve before yielding: the fetch-add is atomic.
        start = self.shared.length
        self.shared.grow(start + len(array))
        h = self.client.system.history
        if h is not None:
            h.on_append(self, start, len(array))
        coord = self.shared.coordinator_node
        net = self.client.system.network
        yield from net.transfer(self.client.node, coord, 64)
        yield from net.transfer(coord, self.client.node, 64)
        yield from self.write_range(start, array)
        return start

    # -- object-granular access (DOLMA-style, sub-page objects) ------------------
    #
    # ``read_object``/``write_object`` serve small objects straight
    # from the owner node's scache as extent-sized RPCs, without ever
    # faulting a whole page. The path is gated by
    # ``object_threshold_bytes``: requests larger than the threshold —
    # and every request when the threshold is 0 — take the plain page
    # path via ``read_range``/``write_range``, bit-for-bit.
    #
    # An object read is the client's one read (``_read_regions``) with
    # OBJ_READ tasks: a frame holds — and is charged for — only the
    # extents it has, so the pcache doubles as an object cache at
    # extent granularity: the zipf head of a serving workload stays
    # local until the byte budget is under pressure, while the misses
    # of a whole ``read_objects`` call — identical extents deduplicated
    # — batch into one vectored round trip per owner node instead of
    # one sequential fault per lookup.
    #
    # Coherence rule (read-your-writes):
    #   * reads serve the bytes a resident frame holds valid (dirty ⊆
    #     valid, so the rank's own uncommitted page-path writes are
    #     always honoured) and fetch only the missing extents, which
    #     install like any read's — never whole pages;
    #   * writes are write-through — the OBJ_WRITE ack means the owner
    #     applied (and, under replication, replicated) the bytes — and
    #     additionally patch the bytes a resident frame holds in place
    #     so the rank's later reads see its own object writes (bytes it
    #     does not hold stay uncached).

    def read_object(self, elem_off: int, count: int):
        """Read one small object (``count`` elements) at object
        granularity (generator; returns a private copy):
        :meth:`read_objects` of one request. Above the threshold (or
        with the path disabled) this *is* ``read_range``."""
        return (yield from self.read_objects([(elem_off, count)]))[0]

    def read_objects(self, requests):
        """Read several small objects with one vectored submission
        (generator; returns arrays in request order).

        ``requests`` is ``[(elem_off, count), ...]``. The missing
        extents of every gated request ship as a single batched
        OBJ_READ submission — one envelope per owner node — instead of
        one round trip per object. Requests above the threshold fall
        back to ``read_range`` individually.
        """
        requests = list(requests)
        thr = self.client.system.config.object_threshold_bytes
        h = self.client.system.history
        t0 = self.client.system.sim.now if h is not None else 0.0
        outs: list = [None] * len(requests)
        gated = []
        for i, (elem_off, count) in enumerate(requests):
            if not 0 < count * self.itemsize <= thr:
                outs[i] = yield from self.read_range(elem_off, count)
                continue
            self._check_range(elem_off, count)
            gated.append((i, list(self._page_spans(elem_off, count))))
        if not gated:
            return outs
        spans = [s for _i, req_spans in gated for s in req_spans]
        total = sum(requests[i][1] for i, _s in gated) * self.itemsize
        with self.client.system.tracer.span(
                "read_objects", "object", node=self.client.node,
                vector=self.shared.name, count=len(gated),
                nbytes=total) as sp:
            frames, fetched, local = yield from self._read_regions(
                [(p, poff * self.itemsize, n * self.itemsize)
                 for p, poff, n, _ in spans], TaskKind.OBJ_READ, sp)
            self._count_object_reads(len(gated), total, len(fetched),
                                     local)
        frames = iter(frames)
        for i, req_spans in gated:
            outs[i] = np.empty(requests[i][1], dtype=self.dtype)
            self._gather(outs[i], req_spans,
                         [next(frames) for _ in req_spans])
            if h is not None:
                h.on_read(self, requests[i][0], outs[i], t0)
        return outs

    def write_object(self, elem_off: int, array: np.ndarray):
        """Write one small object through to the owner's scache
        (generator).

        The ack makes the bytes globally visible (and replicated, when
        replication is on) — no dirty pcache state is left behind.
        Above the threshold (or disabled) this *is* ``write_range``.
        """
        array = np.ascontiguousarray(array, dtype=self.dtype).ravel()
        nbytes = array.nbytes
        cfg = self.client.system.config
        if not 0 < nbytes <= cfg.object_threshold_bytes:
            return (yield from self.write_range(elem_off, array))
        self._check_range(elem_off, len(array))
        h = self.client.system.history
        if h is not None:
            # Record the pending version *before* shipping: the bytes
            # may become visible to peers the moment the owner applies
            # them, and the checker must already know the version.
            h.on_write(self, elem_off, array)
        src = array.view(np.uint8)
        tasks: list = []
        tracer = self.client.system.tracer
        with tracer.span("write_object", "object",
                         node=self.client.node,
                         vector=self.shared.name, nbytes=nbytes) as sp:
            for page_idx, poff, n, soff in self._page_spans(
                    elem_off, len(array)):
                byte_off = poff * self.itemsize
                span_nbytes = n * self.itemsize
                sbase = soff * self.itemsize
                chunk = src[sbase:sbase + span_nbytes]
                frame = self.pcache.lookup(page_idx)
                if frame is not None:
                    # An in-flight install would clobber the patch
                    # (install only preserves *dirty* bytes).
                    yield from self._settle(frame, sp)
                    frame.patch(byte_off, chunk)
                    # Deliberately NOT marked dirty: the write-through
                    # ships the bytes now; dirty would ship them again
                    # at commit. Ranges already dirty simply carry the
                    # new value to their commit — same final bytes.
                tasks.append(MemoryTask(
                    kind=TaskKind.OBJ_WRITE,
                    vector_name=self.shared.name, page_idx=page_idx,
                    client_node=self.client.node,
                    fragments=[(byte_off, chunk.tobytes())]))
            yield from self.client.submit_batch(tasks, wait=True)
            self._count_object_writes(1, nbytes, len(tasks))
        if h is not None:
            # The ack globally orders the bytes (the owner — and under
            # replication its replica — applied them): promote exactly
            # this range in the coherence model.
            h.on_promote(self, elem_off, nbytes)

    def _count_object_reads(self, n: int, nbytes: int, remote: int,
                            local: int) -> None:
        mon = self.client.system.monitor
        mon.count("object.reads", n, node=self.client.node)
        mon.count("object.read_bytes", nbytes)
        if remote:
            mon.count("object.remote_tasks", remote)
        if local:
            mon.count("object.local_hit_bytes", local)

    def _count_object_writes(self, n: int, nbytes: int,
                             remote: int) -> None:
        mon = self.client.system.monitor
        mon.count("object.writes", n, node=self.client.node)
        mon.count("object.write_bytes", nbytes)
        if remote:
            mon.count("object.remote_tasks", remote)

    def _check_range(self, elem_off: int, count: int) -> None:
        if elem_off < 0 or count < 0 \
                or elem_off + count > self.shared.length:
            raise VectorError(
                f"element range [{elem_off}, {elem_off + count}) outside "
                f"vector of {self.shared.length}")

    def _page_spans(self, elem_off: int, count: int):
        """Split an element range into (page, in-page elem off, n,
        dest off) spans."""
        epp = self.elems_per_page
        done = 0
        while done < count:
            elem = elem_off + done
            page_idx = elem // epp
            poff = elem - page_idx * epp
            n = min(count - done, epp - poff)
            yield page_idx, poff, n, done
            done += n

    def _gather(self, out: np.ndarray, spans, frames) -> None:
        """Copy the ``_page_spans`` of a read out of their frames
        (one frame per span) into ``out``."""
        for (_page_idx, poff, n, doff), frame in zip(spans, frames):
            off = poff * self.itemsize
            out[doff:doff + n] = frame.read(
                off, off + n * self.itemsize).view(self.dtype)

    # -- the read path / evict / prefetch --------------------------------------------
    @property
    def _collective(self) -> bool:
        """Whether page reads go through the tree fan-out (paper III-C,
        Collective): under a collective, non-writing transaction."""
        return (self.tx is not None and self.tx.is_collective
                and not self.tx.writes)

    def _settle(self, frame: Frame, span):
        """Wait out an in-flight install into ``frame`` before deciding
        what it holds, and name the fill on ``span`` as ``wait_on``
        (generator)."""
        if frame.pending is not None and not frame.pending.processed:
            yield frame.pending
            # Read the fill's span id only *after* the wait: the fill
            # process assigns it when its span opens.
            if frame.pending_span is not None \
                    and self.client.system.tracer.enabled:
                span.attrs.setdefault("wait_on", []).append(
                    frame.pending_span)

    def _read_regions(self, regions, kind: TaskKind, span):
        """The one client read: make every ``(page_idx, byte_off,
        nbytes)`` of ``regions`` valid in the pcache (generator).

        A page fault, a chunk fault and an object read are all this.
        Per region, in order: ensure its frame (LRU touch), settle it
        (:meth:`_settle`) and list the extents it lacks — each
        identical extent once (zipf-hot keys repeat within a query:
        ``object.dedup_hits``). Room is made for exactly those bytes,
        the frames of the call protecting each other from eviction;
        they ship as one ``kind`` submission (one batch per owner
        node; a lone whole page under a collective read takes the tree
        fan-out) and install as valid, never dirty, bytes —
        ``install`` keeps local dirty bytes, so read-your-writes holds.
        Copy out before the next pcache operation may evict the
        frames.

        Returns ``(frames, fetched, local)``: one frame per region, the
        READ/OBJ_READ tasks sent and the bytes already resident.
        """
        pcache = self.pcache
        frames = []
        extents: Dict[Tuple[int, int, int], Tuple[Frame, int, int]] = {}
        local = 0
        for page_idx, off, nbytes in regions:
            frame = pcache.ensure(page_idx)
            yield from self._settle(frame, span)
            frames.append(frame)
            missing = pcache.missing(frame, off, off + nbytes)
            local += nbytes - sum(e - s for s, e in missing)
            for start, end in missing:
                if (page_idx, start, end) in extents:
                    self.client.system.monitor.count("object.dedup_hits")
                else:
                    extents[page_idx, start, end] = (frame, start, end)
        if not extents:
            return frames, [], local
        span["miss_bytes"] = sum(e - s for _p, s, e in extents)
        yield from pcache.reserve(
            list(extents.values()),
            exclude=tuple(dict.fromkeys(p for p, _o, _n in regions)))
        tasks = [MemoryTask(kind=kind, vector_name=self.shared.name,
                            page_idx=page_idx, client_node=self.client.node,
                            region=(start, end - start))
                 for page_idx, start, end in extents]
        task = tasks[0]
        if kind is TaskKind.READ and self._collective and len(tasks) == 1 \
                and task.region == (0, self.shared.page_nbytes(
                    task.page_idx)):
            # A whole page under a collective read: tree-based fan-out,
            # one scache fetch forwarded process to process (paper
            # III-C, Collective).
            raws = [(yield from self.client.system.collective_read(
                self.shared, task.page_idx, (0, task.region[1]),
                self.client.node,
                lambda: self.client.submit(task, wait=True)))]
        else:
            raws = yield from self.client.submit_batch(tasks, wait=True)
        for (frame, start, _end), raw in zip(extents.values(), raws):
            pcache.install(frame, start, raw)
        return frames, tasks, local

    def _read_pages(self, regions):
        """A page-path read of ``regions`` under one ``fault`` span,
        counted in ``pcache.faults`` per extent fetched (generator;
        returns the frames)."""
        with self.client.system.tracer.span(
                "fault", "pcache", node=self.client.node,
                vector=self.shared.name, page=regions[0][0],
                nbytes=sum(n for _p, _o, n in regions)) as sp:
            frames, fetched, _local = yield from self._read_regions(
                regions, TaskKind.READ, sp)
        self._m_faults.inc(len(fetched))
        return frames

    def _allocate(self, page_idx: int, off: int, nbytes: int):
        """Write-allocate ``[off, off + nbytes)`` of ``page_idx``: the
        caller overwrites the range and holds it itself, so nothing is
        read — room is made for the bytes the frame lacks (generator;
        returns the frame)."""
        with self.client.system.tracer.span(
                "fault", "pcache", node=self.client.node,
                vector=self.shared.name, page=page_idx,
                nbytes=nbytes) as sp:
            frame = self.pcache.ensure(page_idx)
            yield from self._settle(frame, sp)
            lacking = sum(e - s for s, e in frame.valid.gaps(off,
                                                             off + nbytes))
            if lacking:
                yield from self.pcache.make_room(lacking,
                                                 exclude=(page_idx,))
        return frame

    def evict_page(self, page_idx: int):
        """Drop a pcache frame, shipping dirty fragments to the scache.

        The application only pays the memory-copy cost: the writer
        MemoryTask is handed to the client's outbound path and travels,
        queues and runs asynchronously (paper III-B, Lifecycle of
        Modified Data). The frame leaves this handle's budget at once;
        a dirty frame's DRAM stays charged to the node until its bytes
        have left it. Generator.
        """
        frame = self.pcache.detach(page_idx)
        if frame is None:
            return
        tracer = self.client.system.tracer
        with tracer.span("evict", "pcache", node=self.client.node,
                         vector=self.shared.name, page=page_idx,
                         dirty_bytes=frame.dirty.total) as esp:
            yield from self._settle(frame, esp)
            shipped = yield from self._ship_dirty([(page_idx, frame)],
                                                  drop=True)
        self.pcache.release(frame, dirty=bool(shipped))

    def _ship_dirty(self, pages, drop: bool):
        """Ship the dirty fragments of ``pages`` — ``[(page_idx,
        frame), ...]`` — as writer MemoryTasks in one batched
        asynchronous submission (under :meth:`flush`,
        :meth:`evict_page` and write-behind). The caller pays the copy
        out of the pcache — ``nbytes / memcpy_bw`` per page — and
        nothing else: the submission is a hand-off
        (:meth:`MegaMmapClient._hand_off`), the wire and the owner's
        queue are the shipment's business. Generator; returns the
        pages shipped.

        ``drop``: the frames were detached, so their WRITE tasks own
        them and ship ndarray views (the simulated memcpy cost is the
        same; only the host copy disappears) — and pin the frames'
        DRAM on this node (``MemoryTask.pinned``) until the shipment
        has left it. Otherwise they stay resident and writable, now
        clean, and the fragments MUST be copies, or the app could
        mutate them before the task runs.
        """
        system = self.client.system
        h = system.history
        tasks = []
        for page_idx, frame in pages:
            if not frame.dirty:
                continue
            fragments = [
                (start, frame.read(start, end) if drop
                 else frame.read(start, end).tobytes())
                for start, end in frame.dirty
            ]
            if h is not None:
                h.on_commit(self, page_idx, fragments)
            nbytes = frame.dirty.total
            if not drop:
                system.monitor.count("bytes.copied", nbytes)
            yield system.sim.timeout(nbytes / system.memcpy_bw)
            tasks.append(MemoryTask(
                kind=TaskKind.WRITE, vector_name=self.shared.name,
                page_idx=page_idx, client_node=self.client.node,
                fragments=fragments,
                pinned=frame.held if drop else 0))
            frame.dirty.clear()
        # One batched hand-off per owner node (a single task, or
        # batching disabled, degrades to per-task hand-offs).
        yield from self.client.submit_batch(tasks, wait=False)
        return len(tasks)

    def prefetch_page(self, page_idx: int) -> None:
        """Start an asynchronous pcache fill (non-blocking)."""
        self.prefetch_pages([page_idx])

    def read_ahead_gaps(self, page_idx: int):
        """The extents a read-ahead of ``page_idx`` would fetch: the
        whole page when none of it is resident, only the missing
        remainder of a partly resident one, nothing when it is fully
        resident, out of range, or already being filled."""
        if page_idx >= self.shared.n_pages:
            return []
        page_nbytes = self.shared.page_nbytes(page_idx)
        frame = self.frames.get(page_idx)
        if frame is None:
            return [(0, page_nbytes)]
        if frame.pending is not None:
            return []
        return frame.valid.gaps(0, page_nbytes)

    def prefetch_pages(self, pages) -> None:
        """Start asynchronous pcache fills for several pages
        (non-blocking).

        Admission is per page — fully resident, out-of-range, and
        over-budget pages are skipped (cold frames are taken back to
        make room, never frames in use); a partly resident page is
        admitted, and charged, for its missing remainder only. With
        batching enabled the admitted pages ship as one batched READ
        submission (one fill process, one vectored RPC per owner);
        otherwise each page gets its own fill process.
        """
        admitted = []
        pcache = self.pcache
        for page_idx in pages:
            if page_idx in pcache.cold:
                # A partly valid cold frame (a scan that starts inside
                # a page) is read ahead for its remainder: the room
                # must not come from the frame itself.
                pcache.warm(page_idx)
            gaps = self.read_ahead_gaps(page_idx)
            # Budget-check the bytes the fill will actually add: a
            # tail page is smaller than a nominal page, and a partly
            # resident one already holds some of its bytes. Cold
            # frames are free room (taken back as needed).
            need = sum(e - s for s, e in gaps)
            if not need or not pcache.room_for(need):
                continue
            frame = self.pcache.ensure(page_idx)
            # The fill installs into storage held — and charged — now;
            # whatever the frame already had joins one dense extent.
            self.pcache.hold(frame, 0, self.shared.page_nbytes(page_idx))
            admitted.append((page_idx, frame, [
                MemoryTask(
                    kind=TaskKind.READ, vector_name=self.shared.name,
                    page_idx=page_idx, client_node=self.client.node,
                    region=(s, e - s))
                for s, e in gaps]))
        if not admitted:
            return
        # Causal edge: the fill span (which runs in its own process)
        # names the span that *issued* the read-ahead as its cause.
        issue_ctx = self.client.system.tracer.current_span_id()
        if self.client.system.config.batching_enabled:
            self._spawn_fill(admitted, issue_ctx)
        else:
            for entry in admitted:
                self._spawn_fill([entry], issue_ctx)

    def _spawn_fill(self, admitted, issue_ctx: Optional[int]) -> None:
        """One fill process for ``admitted`` — ``[(page_idx, frame,
        READ tasks), ...]`` — marked ``pending`` on every frame."""
        tasks = [t for _p, _f, page_tasks in admitted for t in page_tasks]
        nbytes = sum(t.region[1] for t in tasks)
        name = self.shared.name
        if len(admitted) == 1:
            span, attrs = "prefetch", dict(page=admitted[0][0])
            proc_name = f"prefetch {name}[{admitted[0][0]}]"
        else:
            span, attrs = "prefetch_batch", dict(count=len(admitted))
            proc_name = f"prefetch {name}x{len(admitted)}"
        attrs["nbytes"] = nbytes
        if issue_ctx is not None:
            attrs["cause"] = issue_ctx

        def fill():
            tracer = self.client.system.tracer
            with tracer.span(span, "pcache", node=self.client.node,
                             vector=name, **attrs) as fsp:
                if tracer.enabled:
                    for _p, frame, _t in admitted:
                        frame.pending_span = fsp.span_id
                raws = iter((yield from self.client.submit_batch(
                    tasks, wait=True)))
                for page_idx, frame, page_tasks in admitted:
                    for task in page_tasks:
                        raw = next(raws)
                        if self.frames.get(page_idx) is frame:
                            self.pcache.install(frame, task.region[0],
                                                raw)
                    frame.pending = None
                    self._m_prefetches.inc()

        proc = self.client.system.spawn_work(fill(), name=proc_name)
        for _page_idx, frame, _tasks in admitted:
            frame.pending = proc

    # -- flushing / persistence -------------------------------------------------------
    def flush(self, wait: bool = True):
        """Ship all dirty pcache fragments to the scache (generator).

        The commit point: when it returns, everything this client has
        shipped — the fragments above and every page evicted or
        written behind before — is enqueued at its owner
        (:meth:`MegaMmapClient.settle`), so a later task of *any*
        process for those pages runs after the write. ``wait=True``
        additionally blocks until this vector's writer tasks have
        executed (visibility to every process guaranteed regardless of
        worker queueing).
        """
        yield from self._ship_dirty(sorted(self.frames.items()),
                                    drop=False)
        dur = self.client.system.durability
        if dur.enabled:
            # The flush is the transaction barrier: the bytes it
            # promotes to globally-visible become durable here, before
            # the commit point is recorded — everything this client
            # shipped, not just this vector's tasks.
            yield from self.client.drain()
            yield from dur.commit_barrier()
        elif wait:
            yield from self.client.drain(self.shared.name)
        else:
            yield from self.client.settle()
        h = self.client.system.history
        if h is not None:
            # Commit point: everything this client has shipped so far
            # (including earlier async evictions) is ordered ahead of
            # any later read at the page workers.
            h.on_flush(self)

    def persist(self):
        """Flush pcache + stage every dirty scache page to the backend
        (generator). The real backing file is bit-exact afterwards."""
        yield from self.flush(wait=True)
        yield from self.client.system.stager.persist(
            self.shared, self.client.node)

    def destroy(self, drop: bool = False):
        """Explicitly destroy the shared vector (paper III-A: vectors
        outlive their handles; destruction is explicit). Nonvolatile
        data is persisted first unless ``drop``. Generator."""
        if not drop and not self.shared.volatile:
            yield from self.persist()
        else:
            yield from self.flush(wait=True)
        for page_idx in list(self.frames):
            self.pcache.release(self.pcache.detach(page_idx), dirty=False)
        # From here on only this sweep's DELETEs are served, and the
        # stager reads nothing more ahead; what it has in flight is
        # dropped or lands before the sweep lists the blobs.
        self.shared.destroyed = True
        yield from self.client.system.stager.drain(self.shared)
        for info in list(self.client.system.hermes.mdm.list_bucket(
                self.shared.name)):
            task = MemoryTask(
                kind=TaskKind.DELETE, vector_name=self.shared.name,
                page_idx=info.key, client_node=self.client.node)
            yield from self.client.submit(task, wait=True)
        self.client.system.vectors.pop(self.shared.name, None)
