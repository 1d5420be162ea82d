"""The Hermes facade: timed blob put/get/move over the cluster DMSH."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.hermes.blob import BlobInfo, BlobNotFound
from repro.hermes.dpe import PlacementError
from repro.hermes.mdm import MetadataManager
from repro.net.fabric import Network, fan_out
from repro.sim import Lock, Monitor, Simulator
from repro.sim.trace import NOOP_TRACER
from repro.storage.device import Device, DeviceFullError
from repro.storage.dmsh import DMSH


def _as_payload(data):
    """Normalize a put payload to a zero-copy bytes-like object.

    ``bytes``/``memoryview`` pass through untouched and ndarrays become
    flat uint8 views (so ``len()`` equals the byte count), read-only
    ones staying read-only. The destination :class:`Device` stores a
    read-only buffer as it is and copies anything else. Callers passing
    a writable view or ndarray hand over ownership: the buffer must not
    be mutated while the put is in flight. A ``bytearray`` is
    defensively copied, since it carries no such ownership contract.
    """
    if isinstance(data, np.ndarray):
        if data.dtype == np.uint8 and data.ndim == 1:
            return data
        return np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    if isinstance(data, bytearray):
        return bytes(data)
    return data


class Hermes:
    """Hierarchical buffering over one DMSH per node.

    All data-path methods are generators (timed). Blob content is real:
    what goes in comes out bit-exact, wherever the organizer has moved
    it meanwhile.
    """

    def __init__(self, sim: Simulator, network: Network, dmshs: List[DMSH],
                 monitor: Optional[Monitor] = None):
        if len(dmshs) > network.n_nodes:
            raise ValueError("more DMSHs than network nodes")
        self.sim = sim
        self.network = network
        self.dmshs = dmshs
        self.monitor = monitor
        #: Span tracer; the embedding system installs its own.
        self.tracer = NOOP_TRACER
        self.mdm = MetadataManager(sim, network, len(dmshs))
        # Per-blob locks serialize mutations (move vs move, move vs
        # partial update); reads take them too so a get never observes
        # a blob mid-relocation.
        self._locks: dict = {}
        #: Optional generator callback ``evictor(node, nbytes) -> bool``
        #: installed by the embedding system: drop clean (persisted)
        #: blobs to free capacity, like the OS page cache dropping
        #: clean pages. Consulted as placement's last resort.
        self.evictor = None
        #: Optional untimed predicate ``clean(info) -> bool`` installed
        #: by the embedding system: the backend already holds the
        #: blob's bytes, so the blob may be dropped and re-staged
        #: instead of moved (:meth:`demote`). None: nothing is clean.
        self.clean = None
        #: Tenancy hooks (all optional, installed by a QuotaManager).
        #: ``accountant(bucket, node, tier, delta_bytes)`` — untimed
        #: callback fired when the authoritative copy of a blob is
        #: created (+), destroyed (−) or relocated (−old, +new), so an
        #: external owner map can keep per-tenant byte ledgers.
        #: Replicas are deliberately unaccounted: they are redundant
        #: copies the system may drop at any time.
        self.accountant = None
        #: ``admission(node, bucket, nbytes) -> int`` — minimum tier
        #: index new placements of ``bucket`` may use on ``node``. A
        #: tenant over its fast-memory quota gets floor 1: its blobs
        #: spill to the next tier instead of demoting other tenants'
        #: hot pages out of DRAM.
        self.admission = None
        #: ``read_hook(bucket, key, tier, nbytes)`` — untimed callback
        #: per blob read served (:meth:`note_read`), for per-tenant tier
        #: hit ratios and re-read bytes.
        self.read_hook = None
        #: :class:`DeviceSpec` of the persistent backend the blobs can
        #: be re-read from (a PFS server), installed by the embedding
        #: system; None where none is modelled. A redundant copy is
        #: only worth a tier faster than this (:meth:`free_tier`).
        self.backend = None
        # ``hermes.<op>{node,tier}`` handles, fetched on first use.
        self._m_ops: dict = {}

    def _count_op(self, op: str, node: int, tier: str) -> None:
        if self.monitor is None:
            return
        handle = self._m_ops.get((op, node, tier))
        if handle is None:
            handle = self._m_ops[(op, node, tier)] = \
                self.monitor.metrics.counter(f"hermes.{op}", node=node,
                                             tier=tier)
        handle.inc()

    def _account(self, bucket, node, tier, delta) -> None:
        if self.accountant is not None:
            self.accountant(bucket, node, tier, delta)

    def _admission_floor(self, node: int, bucket, nbytes: int) -> int:
        if self.admission is None or bucket is None:
            return 0
        return self.admission(node, bucket, nbytes)

    def _lock(self, bucket: str, key) -> Lock:
        lk = self._locks.get((bucket, key))
        if lk is None:
            lk = self._locks[(bucket, key)] = Lock(self.sim)
        return lk

    # -- placement helpers ---------------------------------------------------
    def _device(self, node: int, tier: str) -> Device:
        return self.dmshs[node].tier(tier)

    def _place(self, node: int, nbytes: int, score: float,
               exclude: Optional[set] = None, bucket=None):
        """Choose a device for a new blob. Generator.

        Order of attempts (paper III-D): (1) the starting tier (the
        fastest) if it has room; (2) demote strictly colder residents
        out of it; (3) the next deeper tier with room; (4) demotion
        cascade anywhere; else :class:`PlacementError`. Devices named
        in ``exclude`` are skipped (capacity-race victims). The
        tenancy ``admission`` hook may raise the starting tier index —
        tiers above the floor are never attempted (and never demoted
        against), so an over-quota tenant spills instead of evicting.
        """
        exclude = exclude or set()
        dmsh = self.dmshs[node]
        idx, floor = self._first_tier(node, nbytes, bucket)
        first = dmsh.tiers[idx]
        if first.name not in exclude:
            if first.fits(nbytes):
                return first
            freed = yield from self._demote_colder(node, idx, nbytes,
                                                   score)
            if freed:
                return first
        for dev in dmsh.tiers[idx + 1:]:
            if dev.name not in exclude and dev.fits(nbytes):
                return dev
        # Last resort: cascade demotions from the first tier downward.
        for j in range(idx, len(dmsh.tiers)):
            if dmsh.tiers[j].name in exclude:
                continue
            freed = yield from self._demote_colder(node, j, nbytes, score)
            if freed:
                return dmsh.tiers[j]
        # Very last resort: drop clean (already persisted) blobs.
        if self.evictor is not None:
            freed = yield from self.evictor(node, nbytes)
            if freed:
                if floor > 0:
                    dev = None
                    for cand in dmsh.tiers[floor:]:
                        if cand.fits(nbytes):
                            dev = cand
                            break
                else:
                    dev = dmsh.fastest_with_room(nbytes)
                if dev is not None and dev.name not in exclude:
                    return dev
        raise PlacementError(
            f"node {node}: no tier with {nbytes} bytes free "
            f"(composition {dmsh.describe()})")

    def _first_tier(self, node: int, nbytes: int, bucket, ahead: int = 0):
        """``(index, floor)``: the tier a new blob's placement starts
        at -- the fastest tier, pushed down to the tenancy admission
        floor -- and that floor. ``ahead`` is what the caller has
        earmarked of the fast tier for blobs not yet placed."""
        floor = self._admission_floor(node, bucket, ahead + nbytes)
        return min(floor, len(self.dmshs[node].tiers) - 1), floor

    def free_tier(self, node: int, bucket, nbytes: int, claimed: dict,
                  redundant: bool = False):
        """The device :meth:`_place` would pick for a new blob that may
        displace nothing (its steps 1 and 3: the first tier from the
        starting one with room), or None. ``claimed`` -- {device: bytes
        the caller earmarked for earlier blobs of ``bucket``} -- counts
        as taken and is updated. Not a generator.

        The landing rule: a ``redundant`` copy -- a page read ahead of
        any request for it, a read-only replica -- must also land in a
        tier faster than the backend it can be had from anyway. Written
        to a tier as slow, it costs a write and a read for nothing."""
        fast = self.dmshs[node].tiers[0].spec.kind
        idx, _floor = self._first_tier(
            node, nbytes, bucket,
            sum(n for dev, n in claimed.items() if dev.spec.kind == fast))
        for dev in self.dmshs[node].tiers[idx:]:
            if dev.free - claimed.get(dev, 0) >= nbytes:
                if redundant and self.no_faster_than_backend(dev):
                    return None
                claimed[dev] = claimed.get(dev, 0) + nbytes
                return dev
        return None

    def no_faster_than_backend(self, dev: Device) -> bool:
        """``dev`` reads no faster than the persistent backend: a copy
        there of bytes the backend holds costs a write and buys no
        read (:meth:`free_tier`'s landing rule, :meth:`demote`'s drop
        rule). False where no backend is modelled."""
        return self.backend is not None \
            and dev.spec.read_bw <= self.backend.read_bw

    def _put_with_retry(self, node: int, key, data, score: float,
                        bucket=None):
        """Place and store, retrying when a concurrent writer consumed
        the chosen tier's capacity while our transfer was queued. A
        tier that loses twice is excluded (a churning near-full tier
        must not starve the put when deeper tiers have room).
        Generator; returns the device that accepted the blob."""
        losses: dict = {}
        exclude: set = set()
        for _ in range(4 * len(self.dmshs[node].tiers) + 4):
            dev = yield from self._place(node, len(data), score,
                                         exclude=exclude, bucket=bucket)
            try:
                yield from dev.put(key, data)
                return dev
            except DeviceFullError:
                losses[dev.name] = losses.get(dev.name, 0) + 1
                if losses[dev.name] >= 2:
                    exclude.add(dev.name)
                continue
        raise PlacementError(
            f"node {node}: placement kept losing capacity races for "
            f"{len(data)} bytes")

    def _demote_colder(self, node: int, tier_idx: int, nbytes: int,
                       score: float):
        """Demote strictly colder blobs out of tier ``tier_idx`` until
        ``nbytes`` fit there. Generator; returns True on success."""
        dev = self.dmshs[node].tiers[tier_idx]
        colder = sorted(
            (info for info in self.residents(node, dev.spec.kind)
             if info.score < score),
            key=lambda i: i.score)
        if dev.free + sum(i.nbytes for i in colder) < nbytes:
            return False
        for info in colder:
            if dev.fits(nbytes):
                break
            yield from self.demote(info)
        return dev.fits(nbytes)

    def residents(self, node: int, tier: Optional[str] = None) -> list:
        """The entries whose authoritative copy is on ``tier`` of
        ``node`` (any of its tiers where ``tier`` is None): the
        device's keys, less the replicas it also holds. The device's
        key set is the index. Untimed."""
        devs = self.dmshs[node] if tier is None \
            else [self._device(node, tier)]
        out = []
        for dev in devs:
            for bucket, key in dev.keys():
                info = self.mdm.peek(bucket, key)
                if info is not None and info.node == node \
                        and info.tier == dev.spec.kind:
                    out.append(info)
        return out

    def demote(self, info: BlobInfo, by: str = "hermes"):
        """Move ``info``'s blob one step down its node: to the fastest
        deeper tier with room (``by`` as for :meth:`move`). A clean blob
        whose destination reads no faster than the backend is dropped
        instead (:meth:`drop_clean`): its next read stages it in from
        the backend as fast. Generator; returns True when it moved,
        False when it was dropped, none had room, or the blob vanished
        or lost a capacity race meanwhile."""
        dmsh = self.dmshs[info.node]
        lower = dmsh.deeper_with_room(dmsh.tier(info.tier), info.nbytes)
        if lower is None:
            return False
        if self.no_faster_than_backend(lower) \
                and (yield from self.drop_clean(info, by)):
            return False
        try:
            yield from self.move(info.bucket, info.key, info.node,
                                 lower.spec.kind, by=by)
        except (BlobNotFound, DeviceFullError):
            return False
        return True

    def drop_clean(self, info: BlobInfo, by: str):
        """Delete ``info``'s blob, every copy of it, if it is still
        where it was and still :attr:`clean` once its lock is held: the
        backend holds the bytes and the next read stages them in again.
        Counted in ``scache.clean_drops{by}``, never as a move.
        Generator; returns True when the blob was dropped."""
        if self.clean is None or not self.clean(info):
            return False
        where = (info.node, info.tier)
        gone = yield from self.delete(
            info.node, info.bucket, info.key,
            unless=lambda: self.mdm.peek(info.bucket, info.key) is not info
            or (info.node, info.tier) != where or not self.clean(info))
        if gone is None:
            return False
        if self.monitor is not None:
            self.monitor.count("scache.clean_drops", by=by)
        return True

    # -- data path --------------------------------------------------------------
    def put(self, client_node: int, bucket: str, key, data,
            score: float = 1.0, target_node: Optional[int] = None):
        """Store/replace a blob; returns its :class:`BlobInfo`."""
        data = _as_payload(data)
        node = client_node if target_node is None else target_node
        lock = self._lock(bucket, key)
        yield lock.acquire()
        try:
            return (yield from self._put(client_node, bucket, key, data,
                                         score, node))
        finally:
            lock.release()

    def _put(self, client_node, bucket, key, data, score, node):
        info = yield from self.mdm.try_get(client_node, bucket, key)
        yield from self.network.transfer(client_node, node, len(data))
        if info is not None and info.node == node \
                and info.nbytes == len(data):
            yield from self._put_in_place(info, data, score)
            return info
        dev, info = yield from self._replace(client_node, bucket, key,
                                             data, score, node, info)
        yield from self.mdm.put(client_node, info)
        yield from self._store_again_if_wiped(dev, (bucket, key), data)
        self._count_op("puts", node, dev.spec.kind)
        return info

    def _put_in_place(self, info: BlobInfo, data, score: float):
        """Overwrite the authoritative copy where it is (caller holds
        the blob's lock). Its replicas hold the old bytes: they go, or
        a read served from one would return them. Generator."""
        dev = self._device(info.node, info.tier)
        yield from dev.put((info.bucket, info.key), data)
        self._drop_replicas(info)
        info.score = max(info.score, score)

    def _replace(self, client_node, bucket, key, data, score, node,
                 stale):
        """Place ``data`` as a new blob on ``node`` (caller holds the
        blob's lock). A ``stale`` entry goes first, with every copy of
        it, so concurrent placement sweeps cannot pick it as a demotion
        candidate. Generator; returns ``(device, BlobInfo)``, the entry
        accounted but not yet published."""
        if stale is not None:
            yield from self.mdm.delete(client_node, bucket, key)
            yield from self._drop_all_copies(stale)
        dev = yield from self._put_with_retry(node, (bucket, key), data,
                                              score, bucket=bucket)
        info = BlobInfo(bucket=bucket, key=key, node=node,
                        tier=dev.spec.kind, nbytes=len(data), score=score)
        self._account(bucket, node, dev.spec.kind, len(data))
        return dev, info

    def _store_again_if_wiped(self, dev, key, data):
        """A node crash between a blob's device put and its metadata
        publish wipes the bytes and leaves the entry pointing at
        nothing. The writer still holds them: store them again, so a
        put that returns has stored what it registered. Generator."""
        if key not in dev:
            yield from dev.put(key, data)

    def restore_blob(self, node: int, bucket: str, key, data,
                     score: float = 0.5):
        """Crash-recovery re-registration of a replayed blob.

        Generator; returns True when ``data`` was installed and the
        MDM entry re-registered, False when a *live* copy already
        exists (replica promotion beat us, or a concurrent
        ``recover_page`` / second recovery pass already restored it) —
        the idempotence that makes crash-during-recovery safe. The
        liveness re-check runs under the per-blob lock so recovery
        never clobbers a write that landed after the restart.
        """
        data = _as_payload(data)
        lock = self._lock(bucket, key)
        yield lock.acquire()
        try:
            info = yield from self.mdm.try_get(node, bucket, key)
            if info is not None and info.node >= 0:
                dev = self._device(info.node, info.tier)
                if (bucket, key) in dev:
                    return False  # a live copy exists; keep it
            # A dead entry (primary lost with no promoted replica) and
            # its stale copies go before the blob is placed again.
            dev, info = yield from self._replace(node, bucket, key, data,
                                                 score, node, info)
            yield from self.mdm.put(node, info)
        finally:
            lock.release()
        self._count_op("restores", node, dev.spec.kind)
        return True

    def put_many(self, client_node: int, bucket: str, items,
                 score: float = 1.0):
        """Vectored whole-blob store (the batched write path's data
        plane).

        ``items`` is an iterable of ``(key, data, target_node)``. Each
        blob is placed on its device individually (the device time is
        real either way), but the payloads cross the network in **one
        transfer per destination node**, every destination's at once
        (:func:`~repro.net.fan_out`), and the metadata lookups and
        publishes go out as one batched RPC per owner shard instead of
        one round trip per blob. Generator; returns ``{key: BlobInfo}``.
        """
        items = [(key, _as_payload(data), node)
                 for key, data, node in items]
        if not items:
            return {}
        # One vectored metadata lookup round for the whole batch; the
        # authoritative per-blob re-checks under the locks below are
        # untimed — their wire cost is folded into this round.
        yield from self.mdm.try_get_many(client_node, bucket,
                                         [k for k, _, _ in items])
        by_dst: dict = {}
        for _key, data, node in items:
            by_dst[node] = by_dst.get(node, 0) + len(data)
        # Spawned (several peers), a transfer names this call's span.
        cause = self.tracer.current_span_id() if len(by_dst) > 1 \
            else None
        yield from fan_out(self.sim, [
            (node, self.network.transfer(client_node, node, nbytes,
                                         cause=cause))
            for node, nbytes in by_dst.items()])
        out = {}
        new_infos = []
        stored = []
        for key, data, node in items:
            lock = self._lock(bucket, key)
            yield lock.acquire()
            try:
                info = self.mdm.peek(bucket, key)
                if info is not None and info.node == node \
                        and info.nbytes == len(data):
                    yield from self._put_in_place(info, data, score)
                    out[key] = info
                    continue
                dev, info = yield from self._replace(
                    client_node, bucket, key, data, score, node, info)
                new_infos.append(info)
                stored.append((dev, (bucket, key), data))
                out[key] = info
                self._count_op("puts", node, dev.spec.kind)
            finally:
                lock.release()
        if new_infos:
            yield from self.mdm.put_many(client_node, new_infos)
            for entry in stored:
                yield from self._store_again_if_wiped(*entry)
        if self.monitor is not None:
            self.monitor.count("hermes.vectored_puts")
        return out

    def put_partial(self, client_node: int, bucket: str, key,
                    offset: int, data):
        """Update a byte range inside an existing blob (partial paging:
        only the modified fragment crosses the network)."""
        data = _as_payload(data)
        lock = self._lock(bucket, key)
        yield lock.acquire()
        try:
            return (yield from self._put_partial(client_node, bucket, key,
                                                 offset, data))
        finally:
            lock.release()

    def _put_partial(self, client_node, bucket, key, offset, data):
        info = yield from self.mdm.get(client_node, bucket, key)
        # The primary can die before the payload ships or while it is
        # on the wire.
        self._primary_device(info)
        yield from self.network.transfer(client_node, info.node, len(data))
        dev = self._primary_device(info)
        yield from dev.put_range((bucket, key), offset, data)
        # Replicas are stale now; partial writes invalidate them.
        yield from self.invalidate_replicas(client_node, bucket, key)
        return info

    def _read(self, client_node: int, bucket: str, key, extent=None):
        """The one blob read every get is made of (caller holds the
        blob's lock): resolve the metadata, pick a copy that is live
        *now* (:meth:`_live_copy`), read the blob -- or only ``extent =
        (offset, nbytes)`` of it -- from that device, feed the tenancy
        hook and the counters. The bytes stay on the source node: how
        they travel is the caller's business. Generator; returns
        ``(bytes, source node)``."""
        info = yield from self.mdm.get(client_node, bucket, key)
        node, tier = self._live_copy(info, client_node)
        dev = self._device(node, tier)
        if extent is None:
            raw = yield from dev.get((bucket, key))
        else:
            raw = yield from dev.get_range((bucket, key), *extent)
        self.note_read(bucket, key, tier, len(raw))
        self._count_op("gets", node, tier)
        return raw, node

    def note_read(self, bucket: str, key, tier: str, nbytes: int) -> None:
        """A read of ``nbytes`` of a blob served from its copy on
        ``tier`` -- by a device read, or with the bytes a stage-in just
        stored there (the read is the same to the tenancy hook)."""
        if self.read_hook is not None:
            self.read_hook(bucket, key, tier, nbytes)

    def _get(self, client_node, bucket, key, extent=None):
        """:meth:`_read`, shipped to ``client_node`` under the lock."""
        raw, node = yield from self._read(client_node, bucket, key, extent)
        yield from self.network.transfer(node, client_node, len(raw))
        return raw

    def get(self, client_node: int, bucket: str, key, extent=None):
        """Fetch a whole blob -- or ``extent = (offset, nbytes)`` of it
        -- preferring a same-node copy."""
        lock = self._lock(bucket, key)
        yield lock.acquire()
        try:
            return (yield from self._get(client_node, bucket, key, extent))
        finally:
            lock.release()

    def read_many(self, client_node: int, bucket: str, reads):
        """Vectored read that leaves the network alone (the data plane
        of every batched read).

        ``reads`` is ``[(key, extent)]``: a whole blob where ``extent``
        is None, else ``(offset, nbytes)`` of it. Each one is a
        :meth:`_read` under its blob's lock (the device time is real
        either way). Nothing is shipped: whoever answers the request
        sends the payloads in **one network transfer per source node**,
        from the manifest returned with them. Generator; returns
        ``(payloads in order, {source node: bytes})``.
        """
        # Warm the client's metadata cache with one batched RPC per
        # owner shard; the per-key lookups below then hit the cache.
        yield from self.mdm.try_get_many(client_node, bucket,
                                         [key for key, _ in reads])
        raws = []
        manifest: dict = {}
        for key, extent in reads:
            lock = self._lock(bucket, key)
            yield lock.acquire()
            try:
                raw, node = yield from self._read(client_node, bucket,
                                                  key, extent)
            finally:
                lock.release()
            raws.append(raw)
            manifest[node] = manifest.get(node, 0) + len(raw)
        if self.monitor is not None and raws:
            self.monitor.count("hermes.vectored_gets")
        return raws, manifest

    def get_many(self, client_node: int, bucket: str, keys):
        """Vectored whole-blob fetch: :meth:`read_many` shipped to
        ``client_node``, one transfer per source node, every source's
        at once (:func:`~repro.net.fan_out`). Generator; returns
        ``{key: bytes}``."""
        keys = list(keys)
        raws, manifest = yield from self.read_many(
            client_node, bucket, [(key, None) for key in keys])
        cause = self.tracer.current_span_id() if len(manifest) > 1 \
            else None
        yield from fan_out(self.sim, [
            (node, self.network.transfer(node, client_node, nbytes,
                                         cause=cause))
            for node, nbytes in manifest.items()])
        return dict(zip(keys, raws))

    def _live_copy(self, info: BlobInfo, client_node: int):
        """A placement whose device holds the blob *right now*.

        Metadata resolution and the device access are separated by
        simulated time (locks, RPCs, device queues); a node crash in
        that window deletes the blob from its devices. Re-checking
        presence here turns that race into a :class:`BlobNotFound`
        the read paths can recover from, instead of a bare KeyError.
        Prefers a client-local copy, then the primary, then replicas.
        """
        key = (info.bucket, info.key)
        best = None
        for node, tier in info.placements:
            if node < 0:
                continue
            if key not in self._device(node, tier):
                continue
            if node == client_node:
                return node, tier
            if best is None:
                best = (node, tier)
        if best is None:
            raise BlobNotFound(key)
        return best

    def _primary_device(self, info: BlobInfo):
        """The device holding the authoritative copy *right now*;
        :class:`BlobNotFound` when a node crash wiped it (the race
        :meth:`_live_copy` describes, for paths that need the primary
        rather than any copy)."""
        key = (info.bucket, info.key)
        dev = self._device(info.node, info.tier) if info.node >= 0 \
            else None
        if dev is None or key not in dev:
            raise BlobNotFound(key)
        return dev

    # -- replication (read-only global coherence) ---------------------------------
    def replicate(self, client_node: int, bucket: str, key, staged=None):
        """Copy a blob onto the client's node for read availability.

        No-op when a local copy already exists or no local tier faster
        than the backend has room (:meth:`free_tier`).
        Returns the fetched bytes either way (callers replicate on the
        read path). ``staged = (bytes, node, tier)``: the blob's bytes,
        just stored on ``tier`` and still held on ``node`` -- shipped
        from there, with no device read.
        """
        lock = self._lock(bucket, key)
        yield lock.acquire()
        try:
            return (yield from self._replicate(client_node, bucket, key,
                                               staged))
        finally:
            lock.release()

    def _replicate(self, client_node: int, bucket: str, key, staged):
        info = yield from self.mdm.get(client_node, bucket, key)
        remote = all(node != client_node for node, _ in info.placements)
        if staged is None:
            raw = yield from self._get(client_node, bucket, key)
        else:
            raw, node, tier = staged
            self.note_read(bucket, key, tier, len(raw))
            yield from self.network.transfer(node, client_node, len(raw))
        if remote:
            # Replicas obey the same admission floor as primaries (an
            # over-quota tenant must not backfill DRAM via the
            # replication side door) and the landing rule of every
            # redundant copy: no tier with room that beats the backend,
            # no replica -- the read was served remotely just now.
            local = self.free_tier(client_node, bucket, len(raw), {},
                                   redundant=True)
            if local is not None:
                try:
                    yield from local.put((bucket, key), raw)
                except DeviceFullError:
                    pass  # lost a capacity race; serve remotely
                else:
                    info.replicas.append((client_node, local.spec.kind))
                    if self.monitor is not None:
                        self.monitor.count("hermes.replications")
        return raw

    def invalidate_replicas(self, client_node: int, bucket: str, key):
        """Drop every replica, keeping the authoritative copy (phase
        change read-only -> writable, paper III-C)."""
        info = yield from self.mdm.try_get(client_node, bucket, key)
        if info is None:
            return 0
        return self._drop_replicas(info)

    def _drop_replicas(self, info: BlobInfo) -> int:
        """Delete every replica of ``info``, keeping the authoritative
        copy; returns how many a device still held. Untimed."""
        dropped = 0
        for node, tier in info.replicas:
            dev = self._device(node, tier)
            if (info.bucket, info.key) in dev:
                dev.delete((info.bucket, info.key))
                dropped += 1
        info.replicas.clear()
        return dropped

    # -- management ------------------------------------------------------------------
    def move(self, bucket: str, key, node: int, to_tier: str,
             by: str = "hermes"):
        """Relocate the authoritative copy to another node/tier (the
        demote/promote primitive). ``by`` names who asked --
        ``"organizer"``, ``"realloc"``, or ``"hermes"`` for a placement
        making room -- and is stamped on the ``hermes:move`` span."""
        lock = self._lock(bucket, key)
        yield lock.acquire()
        try:
            return (yield from self._move(bucket, key, node, to_tier, by))
        finally:
            lock.release()

    def _move(self, bucket, key, node, to_tier, by):
        info = self.mdm.peek(bucket, key)
        if info is None:
            raise BlobNotFound((bucket, key))
        if info.tier == to_tier and info.node == node:
            return info
        src = self._primary_device(info)
        from_tier = info.tier
        with self.tracer.span("move", "hermes", node=info.node,
                              bucket=bucket, key=key,
                              src_tier=info.tier, dst_node=node,
                              dst_tier=to_tier, nbytes=info.nbytes,
                              by=by):
            dst = self._device(node, to_tier)
            # A replica on the destination would collide with the
            # primary's device key: absorb it (the put below refreshes
            # content).
            if (node, to_tier) in info.replicas:
                info.replicas.remove((node, to_tier))
            raw = yield from src.get((bucket, key))
            if info.node != node:
                yield from self.network.transfer(info.node, node,
                                                 len(raw))
            yield from dst.put((bucket, key), raw)
            src.delete((bucket, key))
            self._account(bucket, info.node, info.tier, -info.nbytes)
            self._account(bucket, node, to_tier, info.nbytes)
            info.node, info.tier = node, to_tier
        if self.monitor is not None:
            self.monitor.count("hermes.moves", node=node,
                               src_tier=from_tier, dst_tier=to_tier)
        return info

    def delete(self, client_node: int, bucket: str, key, unless=None):
        """Delete the blob, every copy of it. ``unless``, an untimed
        predicate, is checked once the blob's lock is held: when it
        holds, nothing is deleted. Generator; returns the deleted
        entry, or None."""
        lock = self._lock(bucket, key)
        yield lock.acquire()
        try:
            if unless is not None and unless():
                return None
            info = yield from self.mdm.delete(client_node, bucket, key)
            yield from self._drop_all_copies(info)
            return info
        finally:
            lock.release()
            self._locks.pop((bucket, key), None)

    def _drop_all_copies(self, info: BlobInfo):
        for node, tier in info.placements:
            dev = self._device(node, tier)
            if (info.bucket, info.key) in dev:
                dev.delete((info.bucket, info.key))
        # Debit the blob's OWNER via the bucket ledger, regardless of
        # which tenant's activity triggered the drop — the credit
        # happened at creation, so the debit must mirror it even when
        # the primary device no longer holds the bytes (crash paths).
        self._account(info.bucket, info.node, info.tier, -info.nbytes)
        if False:  # pragma: no cover - keeps this a generator
            yield

    def set_score(self, bucket: str, key, score: float) -> None:
        """Untimed score update on the metadata entry."""
        info = self.mdm.peek(bucket, key)
        if info is not None:
            info.score = score
