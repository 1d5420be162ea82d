"""Durability subsystem: barrier-committed persistence for the scache.

The reproduction's crash story before this module: a node failure
drops every blob the node held, and survivability rests on replicas
(``replication_factor > 1``) or the persistent backend (clean
nonvolatile pages). Nothing gives *transactional* crash semantics —
the guarantee Fridman et al. get from persistent memory and the paper
sketches for its PMEM-adjacent tiers.

With ``durability: true`` in :class:`~repro.core.config.MegaMmapConfig`
this manager owns one :class:`~repro.storage.wal.WriteAheadLog` per
node, hosted on the node's fastest *durable* tier
(:meth:`~repro.storage.dmsh.DMSH.fastest_durable`), and provides:

* **Intent staging** — every acknowledged scache write registers the
  page's latest bytes as a volatile intent on the primary node's log
  (:meth:`stage`, called from the page workers' write bookkeeping).
* **Barrier commit** — ``Vector.flush`` is the transaction barrier:
  after the drain it calls :meth:`commit_barrier`, which makes every
  staged intent durable failure-atomically (one timed append + an
  atomic marker flip per node log; see ``storage/wal.py``).
* **Crash semantics** — :meth:`on_fail_node` discards the crashed
  node's volatile intents; committed records and snapshots survive on
  the durable medium (the device wipe in ``fail_node`` removes blobs,
  not reservations).
* **Recovery** — :meth:`recover_node` replays snapshot + log to the
  last committed barrier horizon and re-registers each surviving page
  with the MDM via :meth:`~repro.hermes.core.Hermes.restore_blob`,
  CRC-verifying every record. Replay is idempotent: recovering twice
  (crash during recovery, or a concurrent read-triggered
  ``recover_page``) converges to the same tier state.

Everything is gated on :attr:`enabled`: with durability off (the
default) no hook does anything, keeping non-durable runs bit-for-bit
identical to builds without this module.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.storage.wal import WriteAheadLog


class DurabilityManager:
    """Per-node write-ahead logs + the crash-recovery protocol."""

    def __init__(self, system):
        self.system = system
        self.enabled = system.config.durability
        #: One log per node (aligned with ``system.dmshs``).
        self.wals: List[WriteAheadLog] = []
        #: Global transaction-barrier sequence; every flush advances it.
        self.barrier_seq = 0
        if not self.enabled:
            return
        every = system.config.wal_snapshot_every
        for dmsh in system.dmshs:
            dev = dmsh.fastest_durable()
            if dev is None:
                raise ValueError(
                    f"durability enabled but node {dmsh.node_id} has "
                    f"no durable tier (composition {dmsh.describe()}); "
                    f"add a pmem/nvme/ssd/hdd tier or disable "
                    f"durability")
            self.wals.append(WriteAheadLog(dev, dmsh.node_id,
                                           snapshot_every=every))

    # -- write path --------------------------------------------------------
    def stage(self, vec_name: str, page_idx, node: int, data) -> None:
        """Register a page write as a volatile intent on the primary
        node's log. Untimed (host-memory bookkeeping); the durable
        cost is paid at the barrier."""
        if not self.enabled:
            return
        self.wals[node].stage(vec_name, page_idx, data)

    def commit_barrier(self):
        """Make every staged intent durable under one new barrier.

        Generator (timed). Called from ``Vector.flush`` after the
        write drain — the flush *is* the transaction barrier, so the
        bytes it promotes to globally-visible are exactly the bytes
        this commit makes durable.
        """
        if not self.enabled:
            return
        self.barrier_seq += 1
        seq = self.barrier_seq
        committed = 0
        for wal in self.wals:
            if not wal.staged:
                continue
            with self.system.tracer.span(
                    "wal_commit", "durability", node=wal.node_id,
                    seq=seq, pages=len(wal.staged)):
                yield from wal.commit_barrier(seq)
            # Live log size per node: the WAL-growth anomaly detector
            # and `repro top` watch this between snapshot truncations.
            self.system.monitor.metrics.gauge(
                "wal_bytes", node=wal.node_id).set(wal.durable_bytes)
            committed += 1
        if committed:
            self.system.monitor.count("durability.barriers")

    # -- lookup ------------------------------------------------------------
    def lookup(self, vec_name: str, page_idx
               ) -> Optional[Tuple[int, bytes, int]]:
        """Freshest committed copy of a page across every node's log.

        Returns ``(node, bytes, crc)`` of the highest-barrier copy, or
        None. A page whose primary migrated between nodes can have
        committed copies in several logs; the barrier seq arbitrates.
        """
        if not self.enabled:
            return None
        best = None
        best_seq = -1
        for wal in self.wals:
            hit = wal.lookup(vec_name, page_idx)
            if hit is not None and hit[2] > best_seq:
                best = (wal.node_id, hit[0], hit[1])
                best_seq = hit[2]
        return best

    def covers_clean(self, vec_name: str, page_idx) -> bool:
        """True when the page's *latest shipped* bytes are durable: a
        committed copy exists and no log still holds a newer staged
        (uncommitted) intent. The crash-safety gate and the corruption
        recovery path both require this — recovering from a committed
        copy while a newer intent is pending would silently roll the
        page back without a crash to excuse it."""
        if not self.enabled:
            return False
        if any((vec_name, page_idx) in wal.staged for wal in self.wals):
            return False
        return any(wal.lookup(vec_name, page_idx) is not None
                   for wal in self.wals)

    # -- crash / recovery --------------------------------------------------
    def on_fail_node(self, node: int) -> None:
        """Node crash: volatile staged intents die with the node's
        DRAM; the committed log and snapshot survive on the durable
        medium."""
        if self.enabled:
            self.wals[node].crash()

    def recover_node(self, node: int):
        """Replay the node's log to the last committed barrier horizon.

        Generator (timed); returns a stats dict. The sequential
        scan of ``snapshot + log tail`` is charged as one read on the
        durable device — RTO therefore scales with ``durable_bytes``,
        which the snapshot cadence bounds. Each page is CRC-verified,
        then re-registered with the MDM through ``restore_blob``,
        which skips pages that already have a live copy (replica
        promotion, a concurrent ``recover_page``, or a second recovery
        pass) — that skip is what makes replay idempotent at the tier
        level.
        """
        stats: Dict[str, float] = {
            "node": node, "pages_scanned": 0, "restored": 0,
            "skipped": 0, "bad_crc": 0, "log_bytes": 0, "rto": 0.0,
        }
        if not self.enabled:
            return stats
        wal = self.wals[node]
        sim = self.system.sim
        monitor = self.system.monitor
        t0 = sim.now
        with self.system.tracer.span("wal_recover", "durability",
                                     node=node) as sp:
            stats["log_bytes"] = wal.durable_bytes
            yield from wal.device.charge(wal.durable_bytes, write=False)
            image = wal.replay()
            stats["pages_scanned"] = len(image)
            for vec_name, page_idx in sorted(
                    image, key=lambda k: (k[0], str(k[1]))):
                # Arbitrate across logs: another node may hold a
                # higher-barrier committed copy of this page.
                hit = self.lookup(vec_name, page_idx)
                if hit is None:  # pragma: no cover - defensive
                    stats["skipped"] += 1
                    continue
                _src, data, crc = hit
                if zlib.crc32(data) != crc:
                    stats["bad_crc"] += 1
                    monitor.count("durability.crc_failures")
                    continue
                vec = self.system.vectors.get(vec_name)
                if vec is None or vec.destroyed:
                    stats["skipped"] += 1
                    continue
                restored = yield from self.system.hermes.restore_blob(
                    node, vec_name, page_idx, data)
                if restored:
                    self.system.reliability.record(vec_name, page_idx,
                                                   data)
                    stats["restored"] += 1
                else:
                    stats["skipped"] += 1
            sp["restored"] = stats["restored"]
            sp["pages"] = stats["pages_scanned"]
        stats["rto"] = sim.now - t0
        monitor.count("durability.recoveries", node=node)
        monitor.count("durability.pages_restored",
                      int(stats["restored"]))
        return stats
