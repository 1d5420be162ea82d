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
*real*: ``put`` stores an immutable buffer, ``get`` returns it
bit-exact, so the DSM on top is functionally correct, while residency
and movement costs reproduce the performance shape of tiered hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

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
        True for DRAM/CXL (no block granularity penalty is modelled
        either way; the flag informs placement policies).
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
    """

    def __init__(self, sim: Simulator, spec: DeviceSpec, name: str,
                 monitor: Optional[Monitor] = None):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.monitor = monitor
        self._queue = Resource(sim, capacity=1, name=f"{name}.q")
        self._blobs: Dict[object, object] = {}  # bytes or memoryview
        self.used = 0
        self.bytes_read = 0
        self.bytes_written = 0  # doubles as the wear counter
        self._head = None       # (stream, offset) after the last op
        self._addr: Dict[object, int] = {}  # rotational: blob -> address
        self._cursor = 0
        if monitor is not None:
            self._m_read = monitor.metrics.counter(f"{name}.bytes_read")
            self._m_write = monitor.metrics.counter(f"{name}.bytes_write")
            self._m_busy = monitor.metrics.counter(f"{name}.busy_s")
            self._m_requests = monitor.metrics.counter(f"{name}.requests")
            if spec.rotational:
                self._m_seeks = monitor.metrics.counter(f"{name}.seeks")
            self._m_used = monitor.gauge(f"{name}.used")
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
        addr = self._addr.get(key)
        if addr is None or len(self._blobs.get(key, b"")) != nbytes:
            if self._cursor + nbytes > self.spec.capacity:
                self._cursor = 0
            addr, self._cursor = self._cursor, self._cursor + nbytes
        return addr

    def put(self, key, data):
        """Timed write of a blob (replaces any existing blob at ``key``).

        ``data`` may be bytes-like or a NumPy array; a private copy is
        stored. Raises :class:`DeviceFullError` if it cannot fit.
        Generator: use ``yield from device.put(k, d)``.
        """
        raw = self._as_bytes(data)
        delta = len(raw) - len(self._blobs.get(key, b""))
        if delta > self.free:
            raise DeviceFullError(
                f"{self.name}: need {delta} more bytes, only {self.free} free")
        addr = self._place(key, len(raw))
        yield from self._xfer(len(raw), True, offset=addr)
        # Re-check: a concurrent writer may have consumed capacity
        # while this transfer was queued.
        delta = len(raw) - len(self._blobs.get(key, b""))
        if delta > self.free:
            raise DeviceFullError(
                f"{self.name}: need {delta} more bytes, only {self.free} free")
        self._blobs[key] = raw
        if addr is not None:
            self._addr[key] = addr
        self.used += delta
        self.bytes_written += len(raw)
        if self.monitor is not None:
            self._m_used.set(self.used)

    def get(self, key):
        """Timed read returning the blob's bytes. Generator."""
        raw = self._blobs[key]
        yield from self._xfer(len(raw), False, offset=self._addr.get(key))
        self.bytes_read += len(raw)
        return raw

    def _at(self, key, offset: int):
        """Medium address of byte ``offset`` of blob ``key``."""
        addr = self._addr.get(key)
        return None if addr is None else addr + offset

    def get_range(self, key, offset: int, nbytes: int):
        """Timed partial read of ``nbytes`` starting at ``offset``."""
        raw = self._blobs[key]
        if offset < 0 or offset + nbytes > len(raw):
            raise IndexError(
                f"range [{offset}, {offset + nbytes}) outside blob of "
                f"{len(raw)} bytes")
        yield from self._xfer(nbytes, False, offset=self._at(key, offset))
        self.bytes_read += nbytes
        # A view into the stored (immutable) bytes: partial reads cost
        # no host-side copy anywhere up the stack.
        return memoryview(raw)[offset:offset + nbytes]

    def put_range(self, key, offset: int, data):
        """Timed partial overwrite inside an existing blob."""
        raw = self._as_bytes(data)
        blob = self._blobs[key]
        if offset < 0 or offset + len(raw) > len(blob):
            raise IndexError(
                f"range [{offset}, {offset + len(raw)}) outside blob of "
                f"{len(blob)} bytes")
        yield from self._xfer(len(raw), True, offset=self._at(key, offset))
        self.bytes_written += len(raw)
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
        """Untimed read (used by tests/verification, never by the DSM
        data path)."""
        return self._blobs[key]

    def delete(self, key) -> int:
        """Free a blob; returns bytes released. Untimed (TRIM-like)."""
        raw = self._blobs.pop(key)
        self._addr.pop(key, None)
        self.used -= len(raw)
        if self.monitor is not None:
            self._m_used.set(self.used)
        return len(raw)

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
