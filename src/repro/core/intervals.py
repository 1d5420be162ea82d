"""Half-open integer interval sets — the dirty-byte tracking algebra.

Paper III-B (Lifecycle of Modified Data): "Since transactions store
the exact memory accesses made, only the bits of the page that were
modified during a transaction will be a part of the writer MemoryTask
operation. This reduces I/O amplification and improves data
correctness, since stale data will not be included."

:class:`IntervalSet` keeps a sorted list of disjoint ``[start, end)``
intervals with O(log n) insertion point lookup and merge-on-add.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Tuple


class IntervalSet:
    """A set of disjoint, sorted half-open intervals over the integers."""

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[Tuple[int, int]] = ()):
        self._ivs: List[Tuple[int, int]] = []
        for start, end in intervals:
            self.add(start, end)

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging with overlapping/adjacent
        intervals."""
        if start > end:
            raise ValueError(f"start {start} > end {end}")
        if start == end:
            return
        ivs = self._ivs
        # Find all intervals that overlap or touch [start, end).
        lo = bisect.bisect_left(ivs, (start, start)) if ivs else 0
        # Step back once: the previous interval may reach into start.
        if lo > 0 and ivs[lo - 1][1] >= start:
            lo -= 1
        hi = lo
        while hi < len(ivs) and ivs[hi][0] <= end:
            start = min(start, ivs[hi][0])
            end = max(end, ivs[hi][1])
            hi += 1
        ivs[lo:hi] = [(start, end)]

    def clear(self) -> None:
        self._ivs.clear()

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    @property
    def total(self) -> int:
        """Sum of interval lengths (dirty byte count)."""
        return sum(e - s for s, e in self._ivs)

    def overlaps(self, start: int, end: int) -> bool:
        if start >= end:  # an empty probe overlaps nothing
            return False
        i = bisect.bisect_left(self._ivs, (start, start))
        if i > 0 and self._ivs[i - 1][1] > start:
            return True
        return i < len(self._ivs) and self._ivs[i][0] < end

    def gaps(self, start: int, end: int) -> List[Tuple[int, int]]:
        """The parts of ``[start, end)`` the set does not cover, in
        order — O(log n + k) for k intervals inside the window."""
        out: List[Tuple[int, int]] = []
        ivs = self._ivs
        # The first interval that ends after ``start``.
        first = bisect.bisect_left(ivs, (start, start))
        if first > 0 and ivs[first - 1][1] > start:
            first -= 1
        pos = start
        for i in range(first, len(ivs)):
            s, e = ivs[i]
            if s >= end:
                break
            if s > pos:
                out.append((pos, s))
            pos = e
        if pos < end:
            out.append((pos, end))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntervalSet({self._ivs})"
