"""The private cache of one vector handle: frames, and the one number
they are charged by.

Paper III-A bounds each process's DRAM (``BoundMemory``); what the
bound counts here is **bytes held** — the storage a frame actually
allocated — never a page-sized slot per frame. A frame is a sorted set
of byte extents: a whole-page access holds one extent covering the
page (dense; chunks alias it), a 64-byte object read holds 64 bytes.
Which of the two a frame becomes depends only on the size of the
accesses that touched it.

``PCache.used`` is that number for one handle. Everything that asks
"how full is the pcache" reads it: the budget in :meth:`PCache.make_room`,
the node DRAM reservation and the tenant ledger (through the client),
the prefetcher's free-budget window, the ``pcache_resident_bytes``
gauge and the chaos checker's conservation clause
(``sum(frame.held) == used``).

A frame can be *cold*: a clean frame that a read-only-global phase has
acknowledged (Algorithm 1 scored it 0) stays resident and valid
instead of being evicted, and is the first frame taken back when room
is needed — by a fault (:meth:`PCache.make_room`), by read-ahead
(:meth:`PCache.room_for`) or by the tenant's quota
(``MegaMmapClient.pcache_over_quota``). Its bytes count in ``used``
and are free to whoever needs them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.intervals import IntervalSet

#: Stamps the order frames turn cold in, across every handle: the
#: tenant's quota takes back the coldest frame of any of its handles.
_cold_order = count()


class Frame:
    """The bytes one process holds of one page.

    ``starts``/``bufs`` are the storage extents (sorted, disjoint
    ``uint8`` arrays; touching extents are *not* merged, so a run of
    small adjacent reads never recopies its neighbours). ``valid``
    mirrors them as merged intervals, except while a fetch is in
    flight: storage is allocated — and charged — when the read is
    issued and turns valid when it is installed. ``dirty`` ⊆ ``valid``.
    A read-only extent is shared (:meth:`share`): :meth:`span` and
    :meth:`patch` copy it before writing (``copied``). A ``lent`` frame
    (a chunk writes it past copy-on-write) never shares.
    """

    __slots__ = ("starts", "bufs", "held", "valid", "dirty", "last_use",
                 "pending", "pending_span", "lent", "copied")

    def __init__(self, copied=None):
        self.starts: List[int] = []
        self.bufs: List[np.ndarray] = []
        self.held = 0  # bytes of storage == what the frame is charged
        self.valid = IntervalSet()
        self.dirty = IntervalSet()
        self.last_use = 0
        self.pending = None  # in-flight fill event, if any
        # Span id of the in-flight fill's prefetch span (tracing only):
        # a fault that blocks on ``pending`` records it as ``wait_on``
        # so the prefetch-issue -> install causal edge survives export.
        self.pending_span = None
        self.lent = False
        self.copied = copied  # the bytes.copied counter, if any

    def _overlapping(self, start: int, end: int):
        """``(i, j, view)``: the index range of the extents
        intersecting ``[start, end)``, and a view of the range when a
        single extent holds all of it (else None)."""
        starts, bufs = self.starts, self.bufs
        i = bisect_right(starts, start) - 1
        if i < 0 or starts[i] + len(bufs[i]) <= start:
            i += 1
        elif end <= starts[i] + len(bufs[i]):
            off = start - starts[i]
            return i, i + 1, bufs[i][off:off + end - start]
        return i, bisect_left(starts, end, i), None

    def span(self, start: int, end: int) -> Tuple[np.ndarray, int]:
        """Writable contiguous storage for ``[start, end)`` — the one
        place a frame allocates. Extents the range overlaps are merged
        into it (bytes held by none read as zero). Returns the view
        and the bytes newly held."""
        starts, bufs = self.starts, self.bufs
        i, j, view = self._overlapping(start, end)
        if view is not None:
            if view.flags.writeable:
                return view, 0
            return self._own(i)[start - starts[i]:end - starts[i]], 0
        lo, hi = start, end
        if j > i:
            lo = min(lo, starts[i])
            hi = max(hi, starts[j - 1] + len(bufs[j - 1]))
        buf = np.zeros(hi - lo, dtype=np.uint8)
        grew = hi - lo
        for k in range(i, j):
            off = starts[k] - lo
            buf[off:off + len(bufs[k])] = bufs[k]
            grew -= len(bufs[k])
        starts[i:j] = [lo]
        bufs[i:j] = [buf]
        self.held += grew
        return buf[start - lo:end - lo], grew

    def read(self, start: int, end: int) -> np.ndarray:
        """Bytes ``[start, end)`` as one array: a view when a single
        extent holds them, else a gathered copy (bytes not held read
        as zero)."""
        starts, bufs = self.starts, self.bufs
        i, j, view = self._overlapping(start, end)
        if view is not None:
            return view
        out = np.zeros(end - start, dtype=np.uint8)
        for k in range(i, j):
            lo = max(start, starts[k])
            hi = min(end, starts[k] + len(bufs[k]))
            out[lo - start:hi - start] = \
                bufs[k][lo - starts[k]:hi - starts[k]]
        return out

    def patch(self, start: int, src: np.ndarray) -> None:
        """Overwrite the *held* bytes of ``[start, start+len(src))``
        with ``src``; bytes the frame does not hold stay uncached."""
        starts, bufs = self.starts, self.bufs
        end = start + len(src)
        i, j, _view = self._overlapping(start, end)
        for k in range(i, j):
            lo = max(start, starts[k])
            hi = min(end, starts[k] + len(bufs[k]))
            self._own(k)[lo - starts[k]:hi - starts[k]] = \
                src[lo - start:hi - start]

    def share(self, start: int, end: int) -> np.ndarray:
        """Held ``[start, end)`` as a read-only view of one (merged)
        extent, which the frame now shares."""
        if self._overlapping(start, end)[2] is None:
            self.span(start, end)
        i = bisect_right(self.starts, start) - 1
        self.bufs[i].flags.writeable = False
        return self.bufs[i][start - self.starts[i]:end - self.starts[i]]

    def _own(self, k: int) -> np.ndarray:
        """Extent ``k``'s buffer, made private first if shared."""
        if not self.bufs[k].flags.writeable:
            self.bufs[k] = self.bufs[k].copy()
            if self.copied is not None:
                self.copied.inc(len(self.bufs[k]))
        return self.bufs[k]


class PCache:
    """Frame table + byte accounting of one :class:`Vector` handle.

    The vector keeps the API and the fault orchestration (what to
    fetch, from whom, in which batch); this class owns where the bytes
    live and what they cost. ``evict`` is the vector's
    ``evict_page`` generator — eviction ships dirty bytes, which is
    orchestration.
    """

    def __init__(self, client, vector_name: str, budget: int,
                 evict: Callable):
        self.client = client
        self.budget = budget
        self.frames: Dict[int, Frame] = {}
        #: Bytes held by the frames of this handle.
        self.used = 0
        #: Cold frames, coldest first: ``{page: cold stamp}``, and the
        #: bytes they hold.
        self.cold: Dict[int, int] = {}
        self.cold_bytes = 0
        self._evict = evict
        self._use_seq = 0
        # Last-page fast path (paper III-E, Minimizing Indexing
        # Overhead): the page last accessed is checked before any
        # lookup. ``index_ops`` counts the extra integer/conditional
        # work for the §III-E overhead benchmark.
        self.last_page: Tuple[int, Optional[Frame]] = (-1, None)
        self.index_ops = 0
        # Metric handles, fetched once (the hot path pays one add).
        _m = client.system.monitor.metrics
        labels = dict(node=client.node, vector=vector_name)
        self._m_resident = _m.gauge("pcache_resident_bytes", **labels)
        self._m_hit = _m.counter("pcache_hit_bytes", **labels)
        self._m_miss = _m.counter("pcache_miss_bytes", **labels)
        self._m_evict_dirty = _m.counter(
            "pcache.evictions_dirty", node=client.node)
        self._m_evict_clean = _m.counter(
            "pcache.evictions_clean", node=client.node)
        self._m_copied = _m.counter("bytes.copied")

    # -- lookup ------------------------------------------------------------
    def lookup(self, page_idx: int) -> Optional[Frame]:
        # Last-page fast path first (III-E): two integer ops + branch.
        self.index_ops += 2
        last_idx, last_frame = self.last_page
        if last_idx == page_idx:
            return last_frame
        return self.frames.get(page_idx)

    def ensure(self, page_idx: int) -> Frame:
        """The frame of ``page_idx``, created empty if absent (an empty
        frame holds — and costs — nothing), LRU-touched and no longer
        cold."""
        frame = self.lookup(page_idx)
        if frame is None:
            frame = self.frames[page_idx] = Frame(self._m_copied)
        elif page_idx in self.cold:
            self.warm(page_idx)
        self._use_seq += 1
        frame.last_use = self._use_seq
        self.last_page = (page_idx, frame)
        return frame

    def missing(self, frame: Frame, start: int, end: int):
        """The parts of ``[start, end)`` a read must fetch; counts the
        request's bytes as pcache hits or misses."""
        gaps = frame.valid.gaps(start, end)
        miss = sum(e - s for s, e in gaps)
        if miss:
            self._m_miss.inc(miss)
        if miss < end - start:
            self._m_hit.inc(end - start - miss)
        return gaps

    # -- the one number --------------------------------------------------------
    def hold(self, frame: Frame, start: int, end: int) -> np.ndarray:
        """Contiguous frame storage for ``[start, end)``, charging the
        bytes it had to allocate (call :meth:`make_room` first)."""
        buf, grew = frame.span(start, end)
        self._charge(grew)
        return buf

    def _charge(self, grew: int) -> None:
        if grew:
            self.used += grew
            self.client.reserve_pcache(grew)
            self._m_resident.add(grew)

    # -- cold frames ---------------------------------------------------------
    @property
    def free(self) -> int:
        """Bytes of the budget not held, or held only by cold frames."""
        return self.budget - self.used + self.cold_bytes

    def cool(self, page_idx: int) -> bool:
        """Keep an acknowledged frame resident as the next to go
        instead of evicting it; False (nothing done) for a frame that
        is absent, dirty or still being filled — those are evicted."""
        frame = self.frames.get(page_idx)
        if frame is None or frame.dirty or frame.pending is not None:
            return False
        if page_idx not in self.cold:
            self.cold[page_idx] = next(_cold_order)
            self.cold_bytes += frame.held
        return True

    def warm(self, page_idx: int) -> None:
        """A cold frame is in use again."""
        del self.cold[page_idx]
        self.cold_bytes -= self.frames[page_idx].held

    def coldest(self) -> int:
        """Cold stamp of this handle's coldest frame (call when any)."""
        return next(iter(self.cold.values()))

    def take_back_coldest(self) -> None:
        """Drop the coldest frame: clean and settled, so it goes at
        once, counted as a clean eviction."""
        page_idx = next(iter(self.cold))
        self.release(self.detach(page_idx), dirty=False)

    def room_for(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more fit the budget and the tenant's
        quota with cold frames taken back — coldest first, only as many
        as needed, and none when even that would not fit. Never evicts
        a frame in use: read-ahead admission."""
        if nbytes > self.free:
            return False
        while self.used + nbytes > self.budget:
            self.take_back_coldest()
        return not self.client.pcache_over_quota(nbytes)

    def make_room(self, nbytes: int, exclude: Tuple[int, ...] = ()):
        """Evict frames until ``nbytes`` more fit the budget: cold
        frames first, coldest first, then the least recently used.

        ``exclude`` protects frames from eviction (the frames an
        operation is filling must not be its own victims; they are
        never cold — :meth:`ensure` warmed them). Generator.
        """
        # A tenant over its cluster-wide pcache quota self-evicts down
        # toward it, once the quota check has taken back the cold
        # frames of all its handles (soft enforcement: other handles'
        # frames in use are out of reach, so the loop stops when this
        # handle has nothing left).
        frames = self.frames
        while (self.used + nbytes > self.budget
               or self.client.pcache_over_quota(nbytes)):
            if self.cold:
                self.take_back_coldest()
                continue
            candidates = [p for p in frames if p not in exclude]
            if not candidates:
                break
            victim = min(candidates, key=lambda p: frames[p].last_use)
            yield from self._evict(victim)

    def reserve(self, extents, exclude: Tuple[int, ...] = ()):
        """Make room for, then hold, the extents a read is about to
        fetch — ``[(frame, start, end), ...]``: their storage is
        charged when the read is issued, :meth:`install` fills it.
        Generator."""
        yield from self.make_room(
            sum(end - start for _frame, start, end in extents), exclude)
        # One charge for the whole read, not one per extent.
        self._charge(sum(frame.span(start, end)[1]
                         for frame, start, end in extents))

    def install(self, frame: Frame, start: int, raw) -> None:
        """Copy fetched bytes into a frame (the ownership boundary).

        ``raw`` may be ``bytes``, a ``memoryview``, or a uint8 ndarray
        view — the data plane ships views; the frame install here is
        where the one real copy happens.
        """
        data = raw if isinstance(raw, np.ndarray) \
            else np.frombuffer(raw, dtype=np.uint8)
        end = start + len(data)
        # Storage was reserved when the read was issued, so this never
        # allocates — also true of a frame evicted while the read was
        # in flight, which is why installing into one is harmless.
        dst, _ = frame.span(start, end)
        # Locally dirty bytes are newer than anything the scache holds:
        # install around them (matters when an async prefetch completes
        # after local writes to the frame).
        if frame.dirty.overlaps(start, end):
            for s, e in frame.dirty.gaps(start, end):
                dst[s - start:e - start] = data[s - start:e - start]
        else:
            dst[:] = data
        frame.valid.add(start, end)
        self._m_copied.inc(len(data))

    def detach(self, page_idx: int) -> Optional[Frame]:
        """Take a frame out of the page table and this handle's budget;
        its DRAM stays reserved until :meth:`release` — or, for dirty
        bytes, until they have left the node."""
        if page_idx in self.cold:
            self.warm(page_idx)
        frame = self.frames.pop(page_idx, None)
        if frame is not None:
            self.used -= frame.held
            self._m_resident.sub(frame.held)
            if self.last_page[0] == page_idx:
                self.last_page = (-1, None)
        return frame

    def release(self, frame: Frame, dirty: bool) -> None:
        """Count a detached frame's eviction and return its DRAM — a
        clean frame's now; a dirty one's stays charged to the node (and
        the tenant) until the WRITE that owns its bytes
        (``MemoryTask.pinned``) has left the node."""
        (self._m_evict_dirty if dirty else self._m_evict_clean).inc()
        if not dirty:
            self.client.unreserve_pcache(frame.held)
