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

    def remove(self, start: int, end: int) -> None:
        """Delete ``[start, end)`` from the set (splitting as needed)."""
        if start > end:
            raise ValueError(f"start {start} > end {end}")
        if start == end or not self._ivs:
            return
        out: List[Tuple[int, int]] = []
        for s, e in self._ivs:
            if e <= start or s >= end:
                out.append((s, e))
                continue
            if s < start:
                out.append((s, start))
            if e > end:
                out.append((end, e))
        self._ivs = out

    def clear(self) -> None:
        self._ivs.clear()

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntervalSet):
            return self._ivs == other._ivs
        return NotImplemented

    def __contains__(self, point: int) -> bool:
        i = bisect.bisect_right(self._ivs, (point, float("inf")))
        return i > 0 and self._ivs[i - 1][0] <= point < self._ivs[i - 1][1]

    @property
    def total(self) -> int:
        """Sum of interval lengths (dirty byte count)."""
        return sum(e - s for s, e in self._ivs)

    @property
    def span(self) -> Tuple[int, int]:
        """(min start, max end), or (0, 0) when empty."""
        if not self._ivs:
            return (0, 0)
        return (self._ivs[0][0], self._ivs[-1][1])

    def overlaps(self, start: int, end: int) -> bool:
        if start >= end:  # an empty probe overlaps nothing
            return False
        i = bisect.bisect_left(self._ivs, (start, start))
        if i > 0 and self._ivs[i - 1][1] > start:
            return True
        return i < len(self._ivs) and self._ivs[i][0] < end

    def _first_reaching(self, point: int) -> int:
        """Index of the first interval that ends after ``point``."""
        i = bisect.bisect_left(self._ivs, (point, point))
        if i > 0 and self._ivs[i - 1][1] > point:
            i -= 1
        return i

    def intersect(self, start: int, end: int) -> "IntervalSet":
        """New set clipped to ``[start, end)``."""
        out = IntervalSet()
        ivs = self._ivs
        for i in range(self._first_reaching(start), len(ivs)):
            s, e = ivs[i]
            if s >= end:
                break
            s, e = max(s, start), min(e, end)
            if s < e:  # an inverted window clips to nothing
                out._ivs.append((s, e))
        return out

    def gaps(self, start: int, end: int) -> List[Tuple[int, int]]:
        """The parts of ``[start, end)`` the set does not cover, in
        order — O(log n + k) for k intervals inside the window."""
        out: List[Tuple[int, int]] = []
        ivs = self._ivs
        pos = start
        for i in range(self._first_reaching(start), len(ivs)):
            s, e = ivs[i]
            if s >= end:
                break
            if s > pos:
                out.append((pos, s))
            pos = e
        if pos < end:
            out.append((pos, end))
        return out

    def copy(self) -> "IntervalSet":
        out = IntervalSet()
        out._ivs = list(self._ivs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntervalSet({self._ivs})"
