"""The transactional memory API: intent flags and access-pattern classes.

Paper III-A (Informing Policy with Transactional Memory) and
Listing 2: a transaction declares *which* region will be accessed and
*how* (read/write/append; sequential/random/strided; local/global/
collective). ``head`` counts accesses acknowledged by the prefetcher,
``tail`` counts accesses made; ``get_pages`` maps a window of the
access sequence onto page regions — which is all Algorithm 1 needs.

Custom patterns subclass :class:`Transaction` and implement
:meth:`Transaction.get_pages` (the paper's extension point).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntFlag
from typing import List, Optional

import numpy as np

from repro.core.errors import TransactionError
from repro.sim.rand import rng_stream


class TxFlags(IntFlag):
    """Access-intent bits carried by ``TxBegin``."""

    READ = 1
    WRITE = 2
    APPEND = 4
    LOCAL = 8
    GLOBAL = 16
    COLLECTIVE = 32


MM_READ_ONLY = TxFlags.READ
MM_WRITE_ONLY = TxFlags.WRITE
MM_READ_WRITE = TxFlags.READ | TxFlags.WRITE
MM_APPEND_ONLY = TxFlags.APPEND
MM_LOCAL = TxFlags.LOCAL
MM_GLOBAL = TxFlags.GLOBAL
MM_COLLECTIVE = TxFlags.COLLECTIVE


@dataclass
class PageRegion:
    """A predicted access to a sub-range of one page (Listing 2)."""

    page_idx: int
    off: int        # byte offset within the page
    size: int       # bytes accessed within the page
    modified: bool = False


def coalesce_page_runs(regions: List[PageRegion],
                       max_run: Optional[int] = None,
                       ) -> List[List[PageRegion]]:
    """Group page regions into runs of contiguous pages (kept in
    order).

    The fault-coalescing primitive of the batched page-operation
    pipeline: each run maps onto one extent-granular batch — a single
    stage-in round at the scache and one vectored RPC per owner node,
    instead of a round trip per page. ``max_run`` caps run length (the
    ``memtask.BATCH_MAX_PAGES`` cap).
    """
    runs: List[List[PageRegion]] = []
    for region in regions:
        if (runs and region.page_idx == runs[-1][-1].page_idx + 1
                and (max_run is None or len(runs[-1]) < max_run)):
            runs[-1].append(region)
        else:
            runs.append([region])
    return runs


class Transaction:
    """Base class: an ordered sequence of element accesses.

    Access positions (``head``/``tail``) index the *access sequence*,
    not the vector: access ``i`` touches element ``self.element(i)``.
    Concrete subclasses define :meth:`element` (or override
    :meth:`get_pages` outright for non-element patterns).
    """

    def __init__(self, flags: TxFlags, count: int):
        if count < 0:
            raise TransactionError(f"negative access count {count}")
        if not flags & (TxFlags.READ | TxFlags.WRITE | TxFlags.APPEND):
            raise TransactionError(
                "transaction needs READ, WRITE, or APPEND intent")
        if not flags & (TxFlags.LOCAL | TxFlags.GLOBAL):
            flags |= TxFlags.GLOBAL
        self.flags = flags
        self.count = count          # total accesses declared
        self.head = 0               # acknowledged by the prefetcher
        self.tail = 0               # accesses performed
        self.write_mark = 0         # accesses passed by range writes
        self._vector = None         # bound by Vector.tx_begin

    # -- intent predicates ----------------------------------------------------
    @property
    def is_read_only(self) -> bool:
        return not self.flags & (TxFlags.WRITE | TxFlags.APPEND)

    @property
    def writes(self) -> bool:
        return bool(self.flags & (TxFlags.WRITE | TxFlags.APPEND))

    @property
    def is_local(self) -> bool:
        return bool(self.flags & TxFlags.LOCAL)

    @property
    def is_collective(self) -> bool:
        return bool(self.flags & TxFlags.COLLECTIVE)

    # -- geometry ---------------------------------------------------------------
    def bind(self, vector) -> None:
        self._vector = vector

    @property
    def vector(self):
        if self._vector is None:
            raise TransactionError("transaction not bound to a vector")
        return self._vector

    def element(self, access_idx: int) -> int:
        """Vector element index touched by access ``access_idx``."""
        raise NotImplementedError

    def get_pages(self, off: int, count: int) -> List[PageRegion]:
        """Page regions touched by accesses [off, off+count) (coalesced
        per page, in access order)."""
        vec = self.vector
        count = max(0, min(count, self.count - off))
        regions: List[PageRegion] = []
        itemsize = vec.itemsize
        epp = vec.elems_per_page
        i = off
        while i < off + count:
            elem = self.element(i)
            page = elem // epp
            # Coalesce a run of consecutive accesses inside this page.
            run = 1
            while (i + run < off + count
                   and self.element(i + run) == elem + run
                   and (elem + run) // epp == page):
                run += 1
            regions.append(PageRegion(
                page_idx=page,
                off=(elem - page * epp) * itemsize,
                size=run * itemsize,
                modified=self.writes))
            i += run
        return regions

    def get_touched_pages(self) -> List[PageRegion]:
        """Listing 2's ``GetTouchedPages``: accesses [head, tail)."""
        return self.get_pages(self.head, self.tail - self.head)

    def get_future_pages(self, count: int) -> List[PageRegion]:
        """Listing 2's ``GetFuturePages``: accesses [tail, tail+count)."""
        return self.get_pages(self.tail, count)

    @property
    def remaining(self) -> int:
        return self.count - self.tail

    def advance(self, n: int) -> None:
        if self.tail + n > self.count:
            raise TransactionError(
                f"advance past declared access count "
                f"({self.tail} + {n} > {self.count})")
        self.tail += n

    def may_retouch(self) -> bool:
        """Whether pages between head and tail may be accessed again
        (Algorithm 1's note on random transactions)."""
        return False

    def acknowledge_write(self, elem_off: int, count: int) -> range:
        """Acknowledge a range write of elements
        ``[elem_off, elem_off + count)``; returns the pages it lets the
        vector write behind.

        Only contiguous streams (:class:`SeqTx`, stride-1
        :class:`StrideTx`) acknowledge range writes: the generic
        pattern cannot tell which pages a range write has finished
        with, and a pattern that ``may_retouch`` says they are not.
        """
        return range(0)

    def _acknowledge_contiguous(self, elem_off: int, count: int) -> range:
        """The acknowledgment rule for a stream over
        ``[offset, offset + count)``: a write inside the declared region
        advances ``write_mark``, and every page lying wholly inside the
        passed prefix ``[offset, offset + write_mark)`` is finished.
        Returns those pages from the lower of this write and the old
        mark upwards — the newly passed ones plus already-passed ones
        this call rewrote. A page the region only partly covers (shared
        with a neighbour's region) and writes reaching outside the
        region are left to ``tx_end``.
        """
        lo = self.offset
        if (not self.writes or count <= 0 or elem_off < lo
                or elem_off + count > lo + self.count):
            return range(0)
        epp = self.vector.elems_per_page
        start = min(elem_off, lo + self.write_mark)
        self.write_mark = max(self.write_mark, elem_off + count - lo)
        first_whole = -(-lo // epp)
        return range(max(first_whole, start // epp),
                     (lo + self.write_mark) // epp)


class SeqTx(Transaction):
    """Sequential scan over elements [offset, offset + size)."""

    def __init__(self, offset: int, size: int, flags: TxFlags):
        if offset < 0 or size < 0:
            raise TransactionError(
                f"bad sequential region ({offset}, {size})")
        super().__init__(flags, size)
        self.offset = offset
        self.size = size

    def element(self, access_idx: int) -> int:
        return self.offset + access_idx

    acknowledge_write = Transaction._acknowledge_contiguous

    def get_pages(self, off: int, count: int) -> List[PageRegion]:
        # Closed form for the contiguous case: one region per page
        # spanned, no per-element walk. Byte-identical to the generic
        # coalescing loop (runs break exactly at page boundaries).
        vec = self.vector
        count = max(0, min(count, self.count - off))
        itemsize = vec.itemsize
        epp = vec.elems_per_page
        lo = self.offset + off
        hi = lo + count
        regions: List[PageRegion] = []
        elem = lo
        while elem < hi:
            page = elem // epp
            end = min(hi, (page + 1) * epp)
            regions.append(PageRegion(
                page_idx=page,
                off=(elem - page * epp) * itemsize,
                size=(end - elem) * itemsize,
                modified=self.writes))
            elem = end
        return regions


class StrideTx(Transaction):
    """Strided scan: element ``offset + i*stride`` for i in [0, count)."""

    def __init__(self, offset: int, count: int, stride: int, flags: TxFlags):
        if stride == 0:
            raise TransactionError("stride must be nonzero")
        super().__init__(flags, count)
        self.offset = offset
        self.stride = stride

    def element(self, access_idx: int) -> int:
        return self.offset + access_idx * self.stride

    def acknowledge_write(self, elem_off: int, count: int) -> range:
        if self.stride != 1:
            return range(0)
        return self._acknowledge_contiguous(elem_off, count)

    def get_pages(self, off: int, count: int) -> List[PageRegion]:
        # stride != 1 never coalesces (consecutive accesses are never
        # element-adjacent), so regions are one per access — computed
        # in bulk instead of via per-element virtual calls. stride == 1
        # degenerates to the sequential closed form.
        vec = self.vector
        count = max(0, min(count, self.count - off))
        if count <= 0:
            return []
        if self.stride == 1:
            return SeqTx.get_pages(self, off, count)
        itemsize = vec.itemsize
        epp = vec.elems_per_page
        idx = self.offset + np.arange(off, off + count) * self.stride
        pages = idx // epp
        offs = (idx - pages * epp) * itemsize
        writes = self.writes
        return [PageRegion(page_idx=int(p), off=int(o), size=itemsize,
                           modified=writes)
                for p, o in zip(pages, offs)]


class RandTx(Transaction):
    """Seeded pseudo-random page visitation over [offset, offset+size).

    Pages are visited in a seed-determined permutation; elements within
    a page are visited sequentially. Because the seed is part of the
    transaction, the prefetcher predicts the "random" order exactly
    (paper III: "Factors such as randomness seeds and access intent
    are used to guide data organization decisions").
    """

    def __init__(self, offset: int, size: int, seed: int, flags: TxFlags):
        super().__init__(flags, size)
        self.offset = offset
        self.size = size
        self.seed = seed
        self._perm: Optional[np.ndarray] = None
        self._epp: Optional[int] = None

    def bind(self, vector) -> None:
        super().bind(vector)
        epp = vector.elems_per_page
        first = self.offset // epp
        last = (self.offset + self.size - 1) // epp if self.size else first
        n_pages = last - first + 1
        perm = rng_stream(self.seed, "randtx").permutation(n_pages)
        self._perm = perm + first
        self._epp = epp

    def element(self, access_idx: int) -> int:
        if self._perm is None:
            raise TransactionError("RandTx used before binding to a vector")
        epp = self._epp
        lo, hi = self.offset, self.offset + self.size
        # Walk the permuted pages; each contributes its in-range span.
        remaining = access_idx
        for page in self._perm:
            start = max(lo, int(page) * epp)
            end = min(hi, (int(page) + 1) * epp)
            span = end - start
            if remaining < span:
                return start + remaining
            remaining -= span
        raise TransactionError(f"access {access_idx} beyond region")

    def get_pages(self, off: int, count: int) -> List[PageRegion]:
        # Within a page the visit order is sequential, so the generic
        # loop coalesces each page's in-range span into one region;
        # walking the permutation directly produces the same list
        # without the O(pages) ``element`` call per access.
        vec = self.vector
        count = max(0, min(count, self.count - off))
        if count <= 0:
            return []
        if self._perm is None:
            raise TransactionError("RandTx used before binding to a vector")
        itemsize = vec.itemsize
        epp = self._epp
        lo, hi = self.offset, self.offset + self.size
        end_access = off + count
        regions: List[PageRegion] = []
        pos = 0  # access index at the start of this page's span
        for page in self._perm:
            page = int(page)
            start = max(lo, page * epp)
            end = min(hi, (page + 1) * epp)
            span = end - start
            if pos + span > off:
                a = max(off, pos)
                b = min(end_access, pos + span)
                elem = start + (a - pos)
                regions.append(PageRegion(
                    page_idx=page,
                    off=(elem - page * epp) * itemsize,
                    size=(b - a) * itemsize,
                    modified=self.writes))
            pos += span
            if pos >= end_access:
                break
        return regions

    def may_retouch(self) -> bool:
        return True
