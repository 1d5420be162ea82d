"""Write-ahead intent log for the durable scache tier.

One :class:`WriteAheadLog` lives per node on the node's fastest
*durable* tier (:meth:`~repro.storage.dmsh.DMSH.fastest_durable`:
PMEM before NVMe before SSD before HDD). The durability protocol is
the classic redo-log + checkpoint pair:

* **Staging** (volatile): every acknowledged scache write registers a
  page-sized *intent* — the latest bytes of that page — in a DRAM-side
  buffer. Intents cost nothing until a barrier; a node crash discards
  them (they were never promised durable).
* **Barrier commit** (durable, failure-atomic): at a transaction
  barrier (``Vector.flush``), the staged intents are serialized as
  :class:`WalRecord` entries, the append is paid as one timed write on
  the durable device, and then — with *no* simulated yield in between
  — the records are attached and the commit marker (``committed_seq``)
  is advanced. A crash therefore observes either the whole barrier or
  none of it; a torn log cannot exist in the model, which is exactly
  the guarantee a real implementation gets from a checksummed commit
  record.
* **Snapshot** (durable, failure-atomic): every ``snapshot_every``
  barriers the log is folded into a :class:`WalSnapshot` — the
  ``mem_map`` image of the latest committed version of every logged
  page. The new image is written in full (timed), then swapped in and
  the log truncated atomically (no yield), bounding replay time: RTO
  scales with ``snapshot + tail-of-log``, not with history.
* **Replay** (pure): :meth:`replay` folds snapshot + committed records
  in sequence order into a ``{(vector, page): (bytes, crc)}`` image.
  Folding is idempotent — replaying twice yields the identical image —
  which is what makes crash-during-recovery safe.

Capacity is accounted on the host device with ``reserve`` /
``unreserve`` (not blobs), so a crash that wipes the device's blob
store leaves the log bytes intact — the point of a durable tier.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.storage.device import Device, DeviceFullError

#: Modelled serialization overhead: per-record header (seq, vector
#: name ref, page, length, CRC) and the barrier commit marker.
RECORD_HEADER = 32
COMMIT_MARKER = 16
#: Snapshot framing: image header plus a per-page entry header.
SNAPSHOT_HEADER = 64


@dataclass(frozen=True)
class WalRecord:
    """One committed page intent."""

    seq: int        # barrier sequence number that committed it
    vector: str
    page: int
    data: bytes
    crc: int

    @property
    def nbytes(self) -> int:
        return RECORD_HEADER + len(self.data)


@dataclass
class WalSnapshot:
    """Folded ``mem_map`` image of every page committed so far.

    ``pages`` maps ``(vector, page)`` to ``(bytes, crc, seq)`` where
    ``seq`` is the barrier that committed those bytes — kept per page
    (not just per image) so recovery can arbitrate between copies of a
    page whose primary migrated across nodes over its lifetime.
    """

    seq: int = 0
    pages: Dict[Tuple[str, int], Tuple[bytes, int, int]] = None

    def __post_init__(self):
        if self.pages is None:
            self.pages = {}

    @property
    def nbytes(self) -> int:
        return SNAPSHOT_HEADER + sum(
            RECORD_HEADER + len(d) for d, _crc, _seq in
            self.pages.values())


class WriteAheadLog:
    """Per-node durable intent log + snapshot on one durable device."""

    def __init__(self, device: Device, node_id: int,
                 snapshot_every: int = 8):
        self.device = device
        self.node_id = node_id
        self.snapshot_every = max(1, int(snapshot_every))
        #: Volatile staged intents: latest shipped bytes per page.
        self.staged: Dict[Tuple[str, int], bytes] = {}
        #: Committed (durable) records since the last snapshot.
        self.records: List[WalRecord] = []
        self.snapshot = WalSnapshot()
        self.committed_seq = 0
        self.barriers = 0
        self._reserved = 0  # durable bytes accounted on the device
        self._log_markers = 0  # commit-marker bytes in the live log
        # The empty image occupies its header from the start, so the
        # snapshot-swap accounting (release old, keep new) balances.
        self._grow(self.snapshot.nbytes)

    # -- sizes -----------------------------------------------------------
    @property
    def log_bytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    @property
    def durable_bytes(self) -> int:
        """Bytes a recovery must scan: snapshot + tail of the log."""
        return self.snapshot.nbytes + self.log_bytes

    # -- staging (volatile) ----------------------------------------------
    def stage(self, vector: str, page: int, data) -> None:
        """Register the latest shipped bytes of a page (a stored blob,
        immutable) as an intent. Untimed: host-memory bookkeeping."""
        self.staged[(vector, page)] = data

    def discard(self, vector: str, page: int) -> None:
        self.staged.pop((vector, page), None)

    def crash(self) -> None:
        """Node crash: volatile intents are lost; committed records and
        the snapshot (durable medium) survive."""
        self.staged.clear()

    # -- barrier commit (durable, failure-atomic) ------------------------
    def commit_barrier(self, seq: int):
        """Commit every staged intent under barrier ``seq``.

        Generator. The payload capture happens synchronously at entry
        and the records+marker flip happens with no yield after the
        timed append — the failure-atomicity of the commit protocol.
        """
        entries = [(key, data) for key, data in self.staged.items()]
        new = [WalRecord(seq=seq, vector=v, page=p, data=d,
                         crc=zlib.crc32(d))
               for (v, p), d in entries]
        nbytes = COMMIT_MARKER + sum(r.nbytes for r in new)
        try:
            self._grow(nbytes)
        except DeviceFullError:
            # Fold the log into the snapshot to free space, then retry.
            yield from self.write_snapshot()
            self._grow(nbytes)
        yield from self.device.charge(nbytes, write=True)
        # -- durability point: no yield between here and return --------
        self.records.extend(new)
        self.committed_seq = seq
        self.staged.clear()
        self.barriers += 1
        self._log_markers += COMMIT_MARKER
        if self.barriers % self.snapshot_every == 0 and self.records:
            yield from self.write_snapshot()

    def write_snapshot(self):
        """Fold committed records into a fresh failure-atomic image.

        The new image is fully written (timed) *before* the old
        snapshot and the log are released — at no instant is there
        less durable state than the last committed barrier.
        """
        image = dict(self.snapshot.pages)
        for rec in self.records:
            image[(rec.vector, rec.page)] = (rec.data, rec.crc, rec.seq)
        new = WalSnapshot(seq=self.committed_seq, pages=image)
        self._grow(new.nbytes)
        yield from self.device.charge(new.nbytes, write=True)
        # -- atomic swap: no yield ------------------------------------
        release = self.snapshot.nbytes + self.log_bytes \
            + self._log_markers
        self.snapshot = new
        self.records = []
        self._log_markers = 0
        self._shrink(release)

    # -- replay (pure) ---------------------------------------------------
    def replay(self) -> Dict[Tuple[str, int], Tuple[bytes, int, int]]:
        """Fold snapshot + log into the recovered image. Pure and
        idempotent: calling it any number of times yields the same
        image; it never mutates the log."""
        image = dict(self.snapshot.pages)
        for rec in sorted(self.records, key=lambda r: r.seq):
            image[(rec.vector, rec.page)] = (rec.data, rec.crc, rec.seq)
        return image

    def lookup(self, vector: str, page: int
               ) -> Optional[Tuple[bytes, int, int]]:
        """Latest *committed* ``(bytes, crc, seq)`` of one page, or
        None. Chooses by barrier seq, not log position, so concurrent
        barriers whose appends interleaved still resolve correctly."""
        hit = self.snapshot.pages.get((vector, page))
        for rec in self.records:
            if rec.vector == vector and rec.page == page \
                    and (hit is None or rec.seq >= hit[2]):
                hit = (rec.data, rec.crc, rec.seq)
        return hit

    def covers(self, vector: str, page: int) -> bool:
        """True when the latest shipped bytes of the page are durable:
        a committed record (or snapshot entry) exists and no newer
        intent is still staged (uncommitted)."""
        if (vector, page) in self.staged:
            return False
        return self.lookup(vector, page) is not None

    # -- capacity accounting ---------------------------------------------
    def _grow(self, nbytes: int) -> None:
        self.device.reserve(nbytes, strict=True)
        self._reserved += nbytes

    def _shrink(self, nbytes: int) -> None:
        self.device.unreserve(nbytes)
        self._reserved -= nbytes
