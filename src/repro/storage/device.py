"""A simulated storage/memory device holding real byte buffers.

Cost model: a transfer of ``n`` bytes takes ``n/bandwidth`` seconds plus
the device's ``latency``, and transfers are serialized per device (a
FIFO queue, the common behaviour of a saturated device). On a
*rotational* device (``DeviceSpec.rotational``, the HDD preset) the
latency is the head's positioning cost: the device remembers where its
last operation ended (a stream -- a PFS datafile, or the node's blob
log -- and an offset), and an operation that starts exactly there pays
bandwidth only. Blobs on such a device take their address from an
append cursor, so a burst of puts is one run and reads back as one.
Every other device pays ``latency`` per operation. ``DeviceSpec.xfer_time``
(latency included) stays the estimate that placement reads. Content is
*real*: ``get`` returns what ``put`` stored, bit-exact, so the DSM on
top is functionally correct, while residency and movement costs
reproduce the performance shape of tiered hardware. A byte-addressable
tier (DRAM, CXL, PMEM) stores an immutable buffer and hands it out
again; a block tier (NVMe, SSD, HDD) keeps its blobs' bytes in one
anonymous file on the host, so host memory follows the simulated
memory tiers, not the capacity tiers.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.sim import Monitor, Resource, Simulator


class DeviceFullError(RuntimeError):
    """Raised when an allocation exceeds the device's remaining capacity."""


@dataclass(frozen=True)
class DeviceSpec:
    """Performance/capacity/cost characteristics of one device class.

    Attributes
    ----------
    kind:
        Short tier name (``"dram"``, ``"nvme"``, ...).
    capacity:
        Usable bytes.
    read_bw / write_bw:
        Sustained bandwidth in bytes/second.
    latency:
        Per-operation access latency in seconds (seek/queue/setup).
    cost_per_gb:
        Dollars per GB (paper IV-B3: HDD $.02, SATA SSD $.04,
        NVMe $.08).
    byte_addressable:
        True for DRAM/CXL/PMEM (no block granularity penalty is
        modelled either way; the flag informs placement policies, and
        a device without it keeps its blobs' bytes in a host file).
    durable:
        True for media whose contents survive a node crash (PMEM,
        NVMe, SSD, HDD). The durability subsystem hosts its
        write-ahead intent log on the node's fastest durable tier.
    rotational:
        True for seek-bound media (HDD): ``latency`` is paid only by an
        operation that does not continue the previous one (see
        :class:`Device`).
    """

    kind: str
    capacity: int
    read_bw: float
    write_bw: float
    latency: float
    cost_per_gb: float = 0.0
    byte_addressable: bool = False
    durable: bool = False
    rotational: bool = False

    def with_capacity(self, capacity: int) -> "DeviceSpec":
        """Copy of this spec with a different capacity."""
        return replace(self, capacity=int(capacity))

    def stream_time(self, nbytes: int, write: bool) -> float:
        """Seconds to move ``nbytes`` once the device is positioned."""
        return nbytes / (self.write_bw if write else self.read_bw)

    def xfer_time(self, nbytes: int, write: bool) -> float:
        """Seconds for one operation that pays the access latency."""
        return self.latency + self.stream_time(nbytes, write)

    def perf_score(self, reference_bw: float = 12e9) -> float:
        """Tier score in (0, 1]: closer to 1 means faster (paper III-D:
        "Each tier is assigned a score based on its performance
        characteristics, where tiers with a score closer to 1 have high
        I/O performance")."""
        bw = min(self.read_bw, self.write_bw)
        return min(1.0, bw / reference_bw)


class Device:
    """One device instance on one node: capacity tracking + blob storage.

    A rotational device also keeps its head, ``(stream, offset)`` where
    the last operation ended, and the address of each blob in the
    node's blob log (stream ``None``): a blob put anew takes the append
    cursor's address, a same-size overwrite keeps its own. The cursor
    wraps at capacity; the space an older copy leaves behind is not
    reclaimed or charged (no compaction is modelled).

    Host side, ``_blobs`` maps a key to the stored buffer on a
    byte-addressable tier, and to ``(host offset, nbytes, medium
    address)`` on a block tier, whose bytes sit in an unlinked file in
    the current directory, opened at the first put. The host offset is
    not the medium address: a blob's extent comes from an exact-size
    free list (a freed extent goes to the next blob of its size) or
    the end of the file, which never shrinks.
    """

    def __init__(self, sim: Simulator, spec: DeviceSpec, name: str,
                 monitor: Optional[Monitor] = None):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.monitor = monitor
        self._queue = Resource(sim, capacity=1, name=f"{name}.q")
        self._blobs: Dict[object, object] = {}
        # A device with a head is a block device.
        self._in_file = spec.rotational or not spec.byte_addressable
        self._file = None
        self._holes: Dict[int, List[int]] = {}  # nbytes -> free offsets
        self.file_bytes = 0     # the host file's size
        self.used = 0
        self.bytes_read = 0
        self.bytes_written = 0  # doubles as the wear counter
        self._head = None       # (stream, offset) after the last op
        self._cursor = 0
        self._m_file = None
        if monitor is not None:
            self._m_read = monitor.metrics.counter(f"{name}.bytes_read")
            self._m_write = monitor.metrics.counter(f"{name}.bytes_write")
            self._m_busy = monitor.metrics.counter(f"{name}.busy_s")
            self._m_requests = monitor.metrics.counter(f"{name}.requests")
            if spec.rotational:
                self._m_seeks = monitor.metrics.counter(f"{name}.seeks")
            self._m_used = monitor.gauge(f"{name}.used")
            if self._in_file:
                self._m_file = monitor.metrics.counter("storage.file_bytes")
        #: Fault-injection hook (``repro.chaos``). When set, each timed
        #: transfer asks ``chaos.stall_time(device, nbytes, write)`` for
        #: extra service time (slow-tier stall windows). ``None`` (the
        #: default) leaves the timing model untouched.
        self.chaos = None

    # -- capacity --------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.spec.capacity

    @property
    def free(self) -> int:
        return self.spec.capacity - self.used

    def fits(self, nbytes: int) -> bool:
        return nbytes <= self.free

    def __contains__(self, key) -> bool:
        return key in self._blobs

    def keys(self):
        return self._blobs.keys()

    def _nbytes(self, blob) -> int:
        """Size of a ``_blobs`` entry (0 for ``None``)."""
        if blob is None:
            return 0
        return blob[1] if self._in_file else len(blob)

    def stored_bytes(self) -> int:
        """Bytes of all blobs held (reservations not included)."""
        return sum(map(self._nbytes, self._blobs.values()))

    # -- timed transfers -------------------------------------------------
    def _xfer(self, nbytes: int, write: bool, stream=None, offset=None):
        """One operation of ``nbytes``; ``offset`` (in ``stream``) is
        where it starts on the medium, ``None`` when unknown."""
        req = self._queue.request()
        yield req
        try:
            spec = self.spec
            seek = True
            if spec.rotational:
                # Positioned by whatever was granted before this one.
                seek = offset is None or self._head != (stream, offset)
                self._head = None if offset is None \
                    else (stream, offset + nbytes)
            t = spec.xfer_time(nbytes, write) if seek \
                else spec.stream_time(nbytes, write)
            if self.chaos is not None:
                t += self.chaos.stall_time(self, nbytes, write)
            yield self.sim.timeout(t)
        finally:
            self._queue.release(req)
        if self.monitor is not None:
            (self._m_write if write else self._m_read).inc(nbytes)
            # Simulated seconds the queue was held, and for how many
            # operations: busy share and bytes per request.
            self._m_busy.inc(t)
            self._m_requests.inc()
            if seek and spec.rotational:
                self._m_seeks.inc()

    def _place(self, key, nbytes: int):
        """Address of a blob of ``nbytes`` about to be put at ``key``:
        its own for a same-size overwrite, else the append cursor's
        (``None`` on a device without a head)."""
        if not self.spec.rotational:
            return None
        blob = self._blobs.get(key)
        if blob is not None and blob[1] == nbytes:
            return blob[2]
        if self._cursor + nbytes > self.spec.capacity:
            self._cursor = 0
        addr, self._cursor = self._cursor, self._cursor + nbytes
        return addr

    def _store(self, key, raw, addr) -> None:
        """Keep ``raw`` as the blob at ``key``: the buffer itself on a
        byte-addressable tier; on a block tier, written over a
        same-size blob or into a free extent of its size, else at the
        end of the device's file."""
        if not self._in_file:
            self._blobs[key] = raw
            return
        n = len(raw)
        old = self._blobs.get(key)
        if old is not None and old[1] == n:
            host = old[0]
        else:
            if old is not None:
                self._holes.setdefault(old[1], []).append(old[0])
            holes = self._holes.get(n)
            if holes:
                host = holes.pop()
            else:
                if self._file is None:
                    self._file = tempfile.TemporaryFile(dir=".")
                    weakref.finalize(self, self._file.close)
                host = self.file_bytes
                self.file_bytes += n
                if self._m_file is not None:
                    self._m_file.inc(n)
        self._pwrite(raw, host)
        self._blobs[key] = (host, n, addr)

    def _pwrite(self, raw, host: int) -> None:
        if os.pwrite(self._file.fileno(), raw, host) != len(raw):
            raise OSError(f"{self.name}: short write to the device file")

    def _read(self, key, offset: int = 0, nbytes: Optional[int] = None):
        """Untimed read of ``nbytes`` of blob ``key`` from ``offset``
        (``None``: the whole blob) as ``(bytes, medium address)``. A
        byte-addressable tier hands out its stored, immutable buffer
        or a view into it; a block tier reads a fresh buffer."""
        blob = self._blobs[key]
        size = self._nbytes(blob)
        whole = nbytes is None
        if whole:
            nbytes = size
        if offset < 0 or offset + nbytes > size:
            raise IndexError(
                f"range [{offset}, {offset + nbytes}) outside blob of "
                f"{size} bytes")
        if not self._in_file:
            return (blob if whole
                    else memoryview(blob)[offset:offset + nbytes]), None
        return (os.pread(self._file.fileno(), nbytes, blob[0] + offset),
                self._at(blob, offset))

    def _at(self, blob, offset: int):
        """Medium address of byte ``offset`` of ``blob`` (``None`` on a
        device without a head)."""
        addr = blob[2] if self._in_file else None
        return None if addr is None else addr + offset

    def put(self, key, data):
        """Timed write of a blob (replaces any existing blob at ``key``).

        ``data`` may be bytes-like or a NumPy array; a private copy is
        stored. Raises :class:`DeviceFullError` if it cannot fit.
        Generator: use ``yield from device.put(k, d)``.
        """
        raw = self._as_bytes(data)
        delta = len(raw) - self._nbytes(self._blobs.get(key))
        if delta > self.free:
            raise DeviceFullError(
                f"{self.name}: need {delta} more bytes, only {self.free} free")
        addr = self._place(key, len(raw))
        yield from self._xfer(len(raw), True, offset=addr)
        # Re-check: a concurrent writer may have consumed capacity
        # while this transfer was queued.
        delta = len(raw) - self._nbytes(self._blobs.get(key))
        if delta > self.free:
            raise DeviceFullError(
                f"{self.name}: need {delta} more bytes, only {self.free} free")
        self._store(key, raw, addr)
        self.used += delta
        self.bytes_written += len(raw)
        if self.monitor is not None:
            self._m_used.set(self.used)

    def get(self, key):
        """Timed read returning the blob's bytes (read when the call
        is made). Generator."""
        raw, addr = self._read(key)
        yield from self._xfer(len(raw), False, offset=addr)
        self.bytes_read += len(raw)
        return raw

    def get_range(self, key, offset: int, nbytes: int):
        """Timed partial read of ``nbytes`` starting at ``offset``: on
        a byte-addressable tier a view into the stored (immutable)
        bytes, so the read costs no host-side copy up the stack; on a
        block tier a fresh buffer read from the device's file."""
        raw, addr = self._read(key, offset, nbytes)
        yield from self._xfer(nbytes, False, offset=addr)
        self.bytes_read += nbytes
        return raw

    def put_range(self, key, offset: int, data):
        """Timed partial overwrite inside an existing blob."""
        raw = self._as_bytes(data)
        blob = self._blobs[key]
        size = self._nbytes(blob)
        if offset < 0 or offset + len(raw) > size:
            raise IndexError(
                f"range [{offset}, {offset + len(raw)}) outside blob of "
                f"{size} bytes")
        yield from self._xfer(len(raw), True, offset=self._at(blob, offset))
        self.bytes_written += len(raw)
        # Into the blob as it is now: a crash or a put may have dropped
        # or resized it while the transfer was queued.
        blob = self._blobs.get(key)
        if blob is None or offset + len(raw) > self._nbytes(blob):
            return
        if self._in_file:
            self._pwrite(raw, blob[0] + offset)
            return
        if len(raw) < len(blob):  # else the whole blob: store raw
            raw = b"".join((blob[:offset], raw, blob[offset + len(raw):]))
        self._blobs[key] = raw

    # -- reservations and charge-only transfers ----------------------------
    def reserve(self, nbytes: int, strict: bool = True) -> None:
        """Account ``nbytes`` of capacity without storing a blob.

        Used for application working memory (a DRAM device doubles as
        the node's RAM): exceeding capacity with ``strict`` raises
        :class:`DeviceFullError` — the simulation's OOM kill (paper
        IV-B2: "the default behavior of Linux is to terminate programs
        overutilizing memory").
        """
        if strict and nbytes > self.free:
            raise DeviceFullError(
                f"{self.name}: reserve of {nbytes} exceeds free {self.free} "
                f"(OOM)")
        self.used += nbytes
        if self.monitor is not None:
            self._m_used.set(self.used)

    def unreserve(self, nbytes: int) -> None:
        if nbytes > self.used:  # pragma: no cover - defensive
            raise ValueError(f"{self.name}: unreserve {nbytes} > used "
                             f"{self.used}")
        self.used -= nbytes
        if self.monitor is not None:
            self._m_used.set(self.used)

    def charge(self, nbytes: int, write: bool, stream=None, offset=None):
        """Timed transfer without blob storage (striped/remote I/O paths
        where content is tracked elsewhere), at ``offset`` of
        ``stream`` when the caller knows where. Generator."""
        yield from self._xfer(nbytes, write, stream, offset)
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes

    # -- untimed management ops (metadata-only) ---------------------------
    def peek(self, key):
        """Untimed read of a whole blob (verification, integrity and
        write-ahead staging; never a data-path read)."""
        return self._read(key)[0]

    def flip_bit(self, key, offset: int) -> None:
        """Untimed fault injection: flip the low bit of byte ``offset``
        (modulo the blob's size) of blob ``key``."""
        blob = self._blobs[key]
        if self._in_file:
            host = blob[0] + offset % blob[1]
            byte = os.pread(self._file.fileno(), 1, host)[0]
            self._pwrite(bytes((byte ^ 0x01,)), host)
            return
        raw = bytearray(blob)
        raw[offset % len(raw)] ^= 0x01
        self._blobs[key] = bytes(raw)

    def delete(self, key) -> int:
        """Free a blob; returns bytes released. Untimed (TRIM-like)."""
        blob = self._blobs.pop(key)
        nbytes = self._nbytes(blob)
        if self._in_file:
            self._holes.setdefault(nbytes, []).append(blob[0])
        self.used -= nbytes
        if self.monitor is not None:
            self._m_used.set(self.used)
        return nbytes

    def _as_bytes(self, data):
        """A payload as an immutable buffer (the persist boundary).

        ``bytes`` and a read-only flat uint8 ndarray or memoryview are
        stored as they are (behind a memoryview, so every blob reads
        like bytes): whoever made them read-only never writes them
        again. Anything else is copied here, the one real copy of the
        write path, counted in the ``bytes.copied`` counter.
        """
        if type(data) is bytes:
            return data
        if (isinstance(data, memoryview) and data.readonly) or (
                isinstance(data, np.ndarray) and not data.flags.writeable
                and data.dtype == np.uint8 and data.ndim == 1):
            return memoryview(data)
        if isinstance(data, np.ndarray):
            raw = data.tobytes()
        else:
            raw = bytes(data)
        if self.monitor is not None:
            self.monitor.count("bytes.copied", len(raw))
        return raw

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Device {self.name} kind={self.spec.kind} "
                f"used={self.used}/{self.capacity}>")
