"""Reliability extensions (paper §V, Node Failure & Memory Corruption).

The paper: "Currently, MegaMmap assumes that the nodes are reliable
... However, the MegaMmap runtime could be extended to support
reliability and fault tolerance by implementing replication [65]" and
"there are algorithms such as error correcting codes that MegaMmap
could implement to ensure that data remains correct."

This module implements both extensions:

* **Durability replication** — with ``replication_factor = k`` in
  :class:`~repro.core.config.MegaMmapConfig`, every scache page write
  places ``k-1`` additional copies on *other* nodes (round-robin from
  the primary). :func:`fail_node` drops a node's devices; reads fail
  over to a surviving replica and the page is re-replicated lazily.
* **Integrity checksums** — every page write records a CRC32; reads
  verify it. :func:`corrupt_page` flips bits in a stored blob (the
  DRAM bit-flip of §V); a checksum mismatch triggers recovery from a
  replica or, for persisted pages, a backend re-stage.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Set, Tuple

from repro.core.errors import MegaMmapError
from repro.hermes.blob import BlobNotFound


class NodeFailedError(MegaMmapError):
    """Data lived only on a failed node and has no replica/backend."""


class ReliabilityManager:
    """Replication + integrity layer over the scache."""

    def __init__(self, system):
        self.system = system
        self.checksums: Dict[Tuple[str, object], int] = {}
        self.failed_nodes: Set[int] = set()

    # -- configuration -----------------------------------------------------
    @property
    def factor(self) -> int:
        return max(1, getattr(self.system.config, "replication_factor",
                              1))

    @property
    def enabled(self) -> bool:
        return self.factor > 1

    # -- checksums -----------------------------------------------------------
    def record(self, vec_name: str, page_idx: int, data: bytes) -> None:
        self.checksums[(vec_name, page_idx)] = zlib.crc32(data)

    def verify(self, vec_name: str, page_idx: int, data: bytes) -> bool:
        expected = self.checksums.get((vec_name, page_idx))
        return expected is None or zlib.crc32(data) == expected

    # -- replication ------------------------------------------------------------
    def replicate_page(self, vec, page_idx: int):
        """Place ``factor - 1`` durability copies on other nodes.
        Generator (timed)."""
        if not self.enabled:
            return
        hermes = self.system.hermes
        info = hermes.mdm.peek(vec.name, page_idx)
        if info is None:
            return
        n_nodes = len(self.system.dmshs)
        raw = None
        wanted = []
        for i in range(1, self.factor):
            node = (info.node + i) % n_nodes
            if node == info.node or node in self.failed_nodes:
                continue
            if any(rn == node for rn, _ in info.replicas):
                continue
            wanted.append(node)
        for node in wanted:
            if raw is None:
                try:
                    raw = yield from hermes.get(info.node, vec.name,
                                                page_idx)
                except BlobNotFound:
                    # The primary's node crashed between the write and
                    # this copy: nothing is left to replicate, and the
                    # next read of the page takes the recovery path.
                    return
            dev = self.system.dmshs[node].fastest_with_room(len(raw))
            if dev is None:
                continue
            yield from self.system.network.transfer(info.node, node,
                                                    len(raw))
            from repro.storage.device import DeviceFullError
            try:
                yield from dev.put((vec.name, page_idx), raw)
            except DeviceFullError:
                continue
            info.replicas.append((node, dev.spec.kind))
            self.system.monitor.count("reliability.replicas")

    def repair_loop(self):
        """Background replica repair: organizer moves can absorb a
        replica into the primary's location, and failures drop copies;
        this service periodically tops every page back up to
        ``factor`` distinct-node copies (the standard repair process
        of replicated stores). Generator service."""
        period = 4 * self.system.config.organizer_period
        monitor = self.system.monitor
        while True:
            yield self.system.sim.timeout(period)
            if not self.enabled:
                continue
            for info in list(self.system.hermes.mdm.all_blobs()):
                vec = self.system.vectors.get(info.bucket)
                if vec is None or vec.destroyed or info.node < 0:
                    continue
                distinct = {info.node} | {n for n, _ in info.replicas}
                if len(distinct) < self.factor:
                    with self.system.tracer.span(
                            "repair", "chaos", node=info.node,
                            vector=info.bucket, page=info.key,
                            reason="under_replicated"):
                        yield from self.replicate_page(vec, info.key)
                    monitor.count("reliability.repairs")

    # -- failure injection ----------------------------------------------------------
    def fail_node(self, node: int) -> int:
        """Crash a node: drop every blob (primary or replica) it held.

        Returns the number of blob copies lost. Metadata survives (the
        MDM is assumed replicated; the paper's extension concerns data).
        Primaries lost with a surviving replica are promoted.
        """
        self.failed_nodes.add(node)
        lost = 0
        hermes = self.system.hermes
        # The node's DRAM dies with it: uncommitted write-ahead-log
        # intents and the local metadata cache are gone. Committed log
        # records live on the durable medium and survive the blob wipe
        # below (they are reservations, not blobs).
        self.system.durability.on_fail_node(node)
        hermes.mdm.drop_caches(node)
        for dmsh in [self.system.dmshs[node]]:
            for dev in dmsh:
                for key in list(dev.keys()):
                    dev.delete(key)
                    lost += 1
        for info in list(hermes.mdm.all_blobs()):
            info.replicas = [(n, t) for n, t in info.replicas
                             if n != node]
            if info.node == node:
                if info.replicas:
                    info.node, info.tier = info.replicas.pop(0)
                    self.system.monitor.count("reliability.promotions")
                else:
                    info.node = -1  # data gone (unless on the backend)
        return lost

    def restore_node(self, node: int):
        """Bring a crashed node back.

        Without durability the node comes back empty (its blobs stayed
        lost); new placements may target it again and the repair loop
        repopulates replicas over time. With durability enabled the
        restart additionally spawns the WAL recovery process, which
        replays the node's log to the last committed barrier and
        re-registers the pages with the MDM. Returns the recovery
        process (join it for the recovery-complete instant, e.g. to
        measure RTO) or None when there is nothing to replay.
        """
        self.failed_nodes.discard(node)
        self.system.monitor.count("reliability.restarts")
        dur = self.system.durability
        if dur.enabled:
            return self.system.sim.process(
                dur.recover_node(node), name=f"wal-recover{node}")
        return None

    # -- recovery ---------------------------------------------------------------------
    def recover_page(self, vec, page_idx: int, client_node: int):
        """Re-materialize a page whose primary was lost or corrupted.

        Order: surviving replica -> persistent backend -> error.
        Generator; returns the page bytes.
        """
        hermes = self.system.hermes
        monitor = self.system.monitor
        with self.system.tracer.span("recover", "chaos",
                                     node=client_node, vector=vec.name,
                                     page=page_idx) as sp:
            info = hermes.mdm.peek(vec.name, page_idx)
            if info is not None:
                # Try every surviving copy (primary first, then
                # replicas) until one passes the integrity check.
                for node, tier in info.placements:
                    if node < 0 or node in self.failed_nodes:
                        continue
                    dev = self.system.dmshs[node].tier(tier)
                    if (vec.name, page_idx) not in dev:
                        continue
                    raw = yield from dev.get((vec.name, page_idx))
                    yield from self.system.network.transfer(
                        node, client_node, len(raw))
                    if self.verify(vec.name, page_idx, raw):
                        if (node, tier) != (info.node, info.tier):
                            # Repair: the surviving replica becomes
                            # primary; the bad copy is dropped.
                            old_node, old_tier = info.node, info.tier
                            if 0 <= old_node < len(self.system.dmshs) \
                                    and old_node not in \
                                    self.failed_nodes:
                                old_dev = self.system.dmshs[old_node] \
                                    .tier(old_tier)
                                if (vec.name, page_idx) in old_dev:
                                    old_dev.delete((vec.name,
                                                    page_idx))
                            if (node, tier) in info.replicas:
                                info.replicas.remove((node, tier))
                            info.node, info.tier = node, tier
                            monitor.count("reliability.promotions")
                        sp["reason"] = "replica_failover"
                        return raw
            # Drop the bad entry and re-stage from the backend if
            # possible.
            if info is not None:
                try:
                    yield from hermes.delete(client_node, vec.name,
                                             page_idx)
                except BlobNotFound:
                    pass
            # Durable fallback: a barrier-committed copy in a node's
            # write-ahead log survives crashes that took every
            # in-memory copy. Only taken when the committed copy IS
            # the latest shipped version (`covers_clean`) — recovering
            # older committed bytes while a newer intent is staged
            # would be a silent rollback with no crash to excuse it.
            dur = self.system.durability
            if dur.covers_clean(vec.name, page_idx):
                wal_node, raw, crc = dur.lookup(vec.name, page_idx)
                if zlib.crc32(raw) == crc:
                    wal_dev = dur.wals[wal_node].device
                    yield from wal_dev.charge(len(raw), write=False)
                    yield from self.system.network.transfer(
                        wal_node, client_node, len(raw))
                    target = vec.owner_node(page_idx, client_node)
                    if target in self.failed_nodes:
                        target = client_node
                    yield from hermes.put(client_node, vec.name,
                                          page_idx, raw,
                                          target_node=target)
                    self.record(vec.name, page_idx, raw)
                    monitor.count("durability.wal_reads")
                    sp["reason"] = "wal_replay"
                    return raw
                monitor.count("durability.crc_failures")
            if vec.volatile or page_idx in vec.dirty_pages:
                sp["reason"] = "lost"
                raise NodeFailedError(
                    f"page {page_idx} of {vec.name!r} lost: no replica "
                    f"and no persisted copy")
            yield from self.system.stager.materialize(
                vec, [page_idx], client_node, client_node)
            raw = yield from hermes.get(client_node, vec.name, page_idx)
            self.record(vec.name, page_idx, raw)
            monitor.count("reliability.restages")
            sp["reason"] = "backend_restage"
            return raw


def corrupt_page(system, vec_name: str, page_idx: int,
                 byte_offset: int = 0) -> bool:
    """Test hook: flip a bit of a stored page blob (a DRAM bit flip,
    paper §V Memory Corruption). Returns True if a blob was hit."""
    info = system.hermes.mdm.peek(vec_name, page_idx)
    if info is None:
        return False
    dev = system.dmshs[info.node].tier(info.tier)
    key = (vec_name, page_idx)
    if key not in dev:
        return False
    raw = bytearray(dev.peek(key))
    raw[byte_offset % len(raw)] ^= 0x01
    dev._blobs[key] = bytes(raw)
    return True
