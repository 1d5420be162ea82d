"""Client-boundary history recording + coherence model-checking.

The :class:`HistoryRecorder` installs at ``system.history`` and
receives every client-boundary event the core emits: reads
(``read_range`` / read-only ``next_chunk``), buffered writes
(``write_range``), commits (dirty fragments shipped by ``flush`` /
``evict_page``), flush completions, appends, cache invalidations, and
RPC submissions. It folds each event into a running BLAKE2 *trace
hash* (the seed-replay determinism witness) and forwards the semantic
events to a :class:`CoherenceChecker`.

The checker maintains a **two-version byte model** per vector:

* ``pending[b]`` / ``pending_writer[b]`` — the last committed-but-
  unflushed value of byte ``b`` and the rank that wrote it;
* ``stable[b]`` — the last flushed (globally ordered) value;
* ``prev[b]`` / ``promote_t[b]`` — the value ``stable`` replaced and
  when, so bounded staleness can be told apart from data loss.

A read by rank ``r`` starting at time ``t0`` is legal for byte ``b``
iff one of:

1. it matches ``pending[b]`` (the writer committed it and per-page
   FIFO order at the owner makes it visible) — and when
   ``pending_writer[b] == r`` this clause is *mandatory*: a client
   must read its own committed writes (read-after-write);
2. it matches ``stable[b]``;
3. it matches ``prev[b]`` and either the promotion happened after
   ``r``'s freshness horizon (``r`` may still hold a legally stale
   cached frame) or a node crash occurred between the promotion and
   the read (failover to a surviving replica legitimately rewinds to
   the last replicated version — the read is accepted and the model
   *rebased* so later reads must stay consistent with it).

Bytes the reader currently holds dirty in its own pcache are excluded
(their content is client-private until the commit boundary records
it), and bytes never written through the model are *adopted* on first
read (backend-staged datasets enter the model lazily; re-reads must
then agree, which is what catches corruption of read-only pages).

``raw_check=False`` turns clause-1's mandatory part and clause-3's
horizon condition off — the deliberately-weakened stub the mutation
test uses to prove the full checker has teeth.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Dict, List, Optional

import numpy as np


class Violation(dict):
    """A checker finding (a dict, for painless JSON serialization)."""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (f"[{self.get('check')}] {self.get('vector')} rank "
                f"{self.get('rank')} @t={self.get('time')}: "
                f"{self.get('detail')}")


class _VecModel:
    """Two-version byte model of one shared vector."""

    __slots__ = ("stable", "prev", "prev_valid", "promote_t",
                 "promoted_by", "pending", "pending_writer",
                 "initialized", "append_end", "horizon")

    def __init__(self, nbytes: int):
        self.stable = np.zeros(nbytes, np.uint8)
        self.prev = np.zeros(nbytes, np.uint8)
        self.prev_valid = np.zeros(nbytes, bool)
        self.promote_t = np.full(nbytes, -np.inf)
        self.promoted_by = np.full(nbytes, -1, np.int32)
        self.pending = np.zeros(nbytes, np.uint8)
        self.pending_writer = np.full(nbytes, -1, np.int32)
        self.initialized = np.zeros(nbytes, bool)
        #: Highest acknowledged append end (elements).
        self.append_end = 0
        #: Per-rank freshness horizon (time of last full invalidation).
        self.horizon: Dict[int, float] = {}

    def ensure(self, nbytes: int) -> None:
        cur = len(self.stable)
        if nbytes <= cur:
            return
        grow = nbytes - cur
        self.stable = np.concatenate(
            [self.stable, np.zeros(grow, np.uint8)])
        self.prev = np.concatenate(
            [self.prev, np.zeros(grow, np.uint8)])
        self.prev_valid = np.concatenate(
            [self.prev_valid, np.zeros(grow, bool)])
        self.promote_t = np.concatenate(
            [self.promote_t, np.full(grow, -np.inf)])
        self.promoted_by = np.concatenate(
            [self.promoted_by, np.full(grow, -1, np.int32)])
        self.pending = np.concatenate(
            [self.pending, np.zeros(grow, np.uint8)])
        self.pending_writer = np.concatenate(
            [self.pending_writer, np.full(grow, -1, np.int32)])
        self.initialized = np.concatenate(
            [self.initialized, np.zeros(grow, bool)])


def _as_u8(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    arr = np.ascontiguousarray(data)
    return arr.view(np.uint8).ravel()


class CoherenceChecker:
    """Online validator of per-policy consistency contracts.

    ``max_violations`` bounds memory under a badly broken system; the
    count keeps incrementing either way.
    """

    def __init__(self, raw_check: bool = True,
                 max_violations: int = 200,
                 durability: bool = False):
        self.raw_check = raw_check
        self.max_violations = max_violations
        #: Durability clause (durable scache tier): bytes promoted at a
        #: committed barrier must be readable after crash+restart, so a
        #: crash never excuses serving the pre-barrier version. Bytes
        #: committed after the last barrier may roll back (they match
        #: ``stable``) but never tear.
        self.durability = durability
        self.models: Dict[str, _VecModel] = {}
        self.violations: List[Violation] = []
        self.violation_count = 0
        self.crash_times: List[float] = []
        self.checked_reads = 0
        self.checked_bytes = 0

    # -- bookkeeping -----------------------------------------------------
    def _model(self, vec) -> _VecModel:
        m = self.models.get(vec.shared.name)
        nbytes = vec.shared.length * vec.itemsize
        if m is None:
            m = self.models[vec.shared.name] = _VecModel(nbytes)
        else:
            m.ensure(nbytes)
        return m

    def _flag(self, **fields) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(Violation(**fields))

    # -- event intake ----------------------------------------------------
    def on_write(self, vec, elem_off: int, array, now: float) -> None:
        m = self._model(vec)
        b = _as_u8(array)
        off = elem_off * vec.itemsize
        m.ensure(off + len(b))
        sl = slice(off, off + len(b))
        m.pending[sl] = b
        m.pending_writer[sl] = vec.client.rank

    def on_commit(self, vec, page_idx: int, fragments,
                  now: float) -> None:
        m = self._model(vec)
        base = page_idx * vec.shared.page_size
        for start, data in fragments:
            b = _as_u8(data)
            m.ensure(base + start + len(b))
            sl = slice(base + start, base + start + len(b))
            m.pending[sl] = b
            m.pending_writer[sl] = vec.client.rank

    def on_flush(self, vec, now: float) -> None:
        """Promote the flushing rank's pending bytes: from here on,
        later reads by anyone are ordered behind these writes."""
        m = self._model(vec)
        self._promote(m, m.pending_writer == vec.client.rank,
                      vec.client.rank, now)

    def on_promote(self, vec, elem_off: int, nbytes: int,
                   now: float) -> None:
        """An acked write-through (the object path's OBJ_WRITE): the
        ack globally orders exactly this byte range — a flush scoped
        to the acked bytes, nothing else of the rank's pending state."""
        m = self._model(vec)
        off = elem_off * vec.itemsize
        m.ensure(off + nbytes)
        mask = np.zeros(len(m.stable), bool)
        mask[off:off + nbytes] = \
            m.pending_writer[off:off + nbytes] == vec.client.rank
        self._promote(m, mask, vec.client.rank, now)

    @staticmethod
    def _promote(m, mask, rank: int, now: float) -> None:
        if not mask.any():
            return
        m.prev[mask] = m.stable[mask]
        m.prev_valid[mask] = m.initialized[mask]
        m.promote_t[mask] = now
        m.promoted_by[mask] = rank
        m.stable[mask] = m.pending[mask]
        m.initialized[mask] = True
        m.pending_writer[mask] = -1

    def on_append(self, vec, start: int, count: int,
                  now: float) -> None:
        m = self._model(vec)
        m.ensure((start + count) * vec.itemsize)
        m.append_end = max(m.append_end, start + count)

    def on_invalidate(self, vec, now: float) -> None:
        self._model(vec).horizon[vec.client.rank] = now

    def on_crash(self, node: int, now: float) -> None:
        self.crash_times.append(now)

    # -- the read check --------------------------------------------------
    def on_read(self, vec, elem_off: int, out, t0: float,
                now: float) -> None:
        m = self._model(vec)
        rank = vec.client.rank
        got = _as_u8(out)
        off = elem_off * vec.itemsize
        m.ensure(off + len(got))
        sl = slice(off, off + len(got))
        self.checked_reads += 1
        self.checked_bytes += len(got)

        excl = self._own_dirty_mask(vec, off, len(got))
        # First-read adoption: bytes never written through the model
        # (backend-staged datasets, volatile zero-fill) enter as the
        # stable version; re-reads must then agree.
        uninit = ~m.initialized[sl] & ~excl
        if uninit.any():
            m.stable[sl][uninit] = got[uninit]
            m.initialized[sl][uninit] = True

        stable = m.stable[sl]
        pending = m.pending[sl]
        writer = m.pending_writer[sl]
        ok_stable = got == stable
        has_pending = writer != -1
        ok_pending = has_pending & (got == pending)
        # Crash rewind: a crash strictly after a promotion may lose it
        # (failover serves the last replicated version). Any crash up
        # to the read's *completion* counts — the fetch happens inside
        # [t0, now], so a crash landing mid-read can affect the bytes
        # served. The promotion comparison stays strict: a crash at
        # exactly t == the barrier-commit instant is ordered with the
        # commit and must never rewind (rebase) the committed writes.
        cmax = max((c for c in self.crash_times if c <= now),
                   default=-np.inf)
        if self.durability:
            crashed_since = np.zeros(got.shape, bool)
        else:
            crashed_since = m.promote_t[sl] < cmax
        horizon = m.horizon.get(rank, -np.inf)
        ok_prev = m.prev_valid[sl] & (got == m.prev[sl])
        if self.raw_check:
            # A stale (pre-promotion) value is legal only while the
            # reader has not invalidated since the promotion — and
            # never for the rank that performed the promotion itself:
            # a flush is ordered before the flusher's own later reads.
            ok_prev = ok_prev & ((m.promote_t[sl] >= horizon)
                                 | crashed_since) \
                & (m.promoted_by[sl] != rank)
        ok = ok_stable | ok_pending | ok_prev
        if self.raw_check:
            # Mandatory read-after-write: a rank's own committed bytes
            # must be visible to it, even if the stale value happens
            # to match an older legal version.
            ok &= ~((writer == rank) & ~ok_pending)
        bad = ~ok & ~excl
        if bad.any():
            idx = np.flatnonzero(bad)
            b0 = int(idx[0])
            self._flag(
                check="stale_or_lost_read", vector=vec.shared.name,
                rank=rank, time=now, read_start=t0,
                byte_offset=off + b0, bad_bytes=int(bad.sum()),
                detail=(f"byte {off + b0}: got {int(got[b0])}, "
                        f"stable {int(stable[b0])}, "
                        f"pending {int(pending[b0])} "
                        f"(writer {int(writer[b0])}), "
                        f"prev {int(m.prev[sl][b0])}"))
        # Rebase on crash-accepted rewinds: the system settled on the
        # older version, so make it the model's stable version too.
        rebase = ok_prev & crashed_since & ~ok_stable & ~ok_pending \
            & ~excl
        if rebase.any():
            m.stable[sl][rebase] = m.prev[sl][rebase]
            m.promote_t[sl][rebase] = -np.inf

    def _own_dirty_mask(self, vec, off: int, nbytes: int) -> np.ndarray:
        """Bytes of [off, off+nbytes) the reader holds dirty in its own
        pcache (client-private until the commit boundary)."""
        mask = np.zeros(nbytes, bool)
        if not vec.frames:
            return mask
        ps = vec.shared.page_size
        for page_idx in range(off // ps, (off + nbytes - 1) // ps + 1):
            frame = vec.frames.get(page_idx)
            if frame is None or not frame.dirty:
                continue
            base = page_idx * ps
            for s, e in frame.dirty:
                lo = max(base + s, off)
                hi = min(base + e, off + nbytes)
                if lo < hi:
                    mask[lo - off:hi - off] = True
        return mask

    # -- end-of-run checks -----------------------------------------------
    def finalize(self, system) -> List[Violation]:
        """No-lost-append check + final conservation sweep."""
        for name, m in self.models.items():
            shared = system.vectors.get(name)
            if shared is None:
                continue
            if shared.length < m.append_end:
                self._flag(
                    check="lost_append", vector=name, rank=-1,
                    time=float(system.sim.now),
                    detail=(f"acknowledged appends reach element "
                            f"{m.append_end}, final length is "
                            f"{shared.length}"))
        for problem in check_conservation(system):
            self._flag(check="conservation", vector="", rank=-1,
                       time=float(system.sim.now), detail=problem)
        return self.violations


def check_conservation(system, vectors=()) -> List[str]:
    """Conservation invariants that must hold at *any* instant.

    * device occupancy: ``0 <= used <= capacity`` and stored blob
      bytes — on a node's DRAM, plus the dropped frames its clients
      handed off and have not shipped yet
      (``pcache_inflight_bytes``) — never exceed the ``used`` account;
    * pcache accounting: each live Vector handle's ``pcache_used``
      equals the bytes its resident frames hold (``Frame.held``).
    """
    problems: List[str] = []
    for node, dmsh in enumerate(system.dmshs):
        for dev in dmsh:
            if not 0 <= dev.used <= dev.capacity:
                problems.append(
                    f"{dev.name}: used {dev.used} outside "
                    f"[0, {dev.capacity}]")
            blob_bytes = sum(len(b) for b in dev._blobs.values())
            if dev is dmsh.tiers[0]:
                blob_bytes += int(system.monitor.metrics.gauge(
                    "pcache_inflight_bytes", node=node).value)
            if blob_bytes > dev.used:
                problems.append(
                    f"{dev.name}: {blob_bytes} blob + in-flight bytes "
                    f"exceed used account {dev.used}")
    for vec in vectors:
        if vec.shared.destroyed:
            continue
        frame_bytes = sum(f.held for f in vec.frames.values())
        if frame_bytes != vec.pcache_used:
            problems.append(
                f"pcache {vec.shared.name} rank {vec.client.rank}: "
                f"{frame_bytes} frame bytes vs {vec.pcache_used} "
                f"charged")
    return problems


class HistoryRecorder:
    """The ``system.history`` hook target: trace hash + checker fanout.

    Also tracks monotonic-counter floors (``bytes.copied``,
    ``net.bytes``) and the set of live Vector handles for the
    injector's post-fault conservation sweeps.
    """

    def __init__(self, system,
                 checker: Optional[CoherenceChecker] = None):
        self.system = system
        self.checker = checker
        self._hash = hashlib.blake2b(digest_size=16)
        self.events = 0
        self.vectors: list = []
        self._seen_handles: set = set()
        self._floors = {"bytes.copied": 0.0, "net.bytes": 0.0}
        self.floor_problems: List[str] = []

    # -- trace hash ------------------------------------------------------
    def _log(self, tag: bytes, *fields) -> None:
        self.events += 1
        h = self._hash
        h.update(tag)
        for f in fields:
            if isinstance(f, float):
                h.update(struct.pack("<d", f))
            elif isinstance(f, int):
                h.update(struct.pack("<q", f))
            else:
                raw = str(f).encode()
                h.update(struct.pack("<i", len(raw)))
                h.update(raw)

    def trace_hash(self) -> str:
        return self._hash.hexdigest()

    def _track(self, vec) -> None:
        if id(vec) not in self._seen_handles:
            self._seen_handles.add(id(vec))
            self.vectors.append(vec)

    # -- hook surface (called by core when system.history is set) --------
    def on_read(self, vec, elem_off: int, out, t0: float) -> None:
        self._track(vec)
        now = float(self.system.sim.now)
        b = _as_u8(out)
        self._log(b"r", now, t0, vec.client.rank, vec.shared.name,
                  elem_off, len(b), zlib.crc32(b))
        if self.checker is not None:
            self.checker.on_read(vec, elem_off, out, t0, now)

    def on_write(self, vec, elem_off: int, array) -> None:
        self._track(vec)
        now = float(self.system.sim.now)
        b = _as_u8(array)
        self._log(b"w", now, vec.client.rank, vec.shared.name,
                  elem_off, len(b), zlib.crc32(b))
        if self.checker is not None:
            self.checker.on_write(vec, elem_off, array, now)

    def on_commit(self, vec, page_idx: int, fragments) -> None:
        self._track(vec)
        now = float(self.system.sim.now)
        total = sum(len(d) for _s, d in fragments)
        self._log(b"c", now, vec.client.rank, vec.shared.name,
                  page_idx, total)
        if self.checker is not None:
            self.checker.on_commit(vec, page_idx, fragments, now)

    def on_flush(self, vec) -> None:
        self._track(vec)
        now = float(self.system.sim.now)
        self._log(b"f", now, vec.client.rank, vec.shared.name)
        if self.checker is not None:
            self.checker.on_flush(vec, now)

    def on_promote(self, vec, elem_off: int, nbytes: int) -> None:
        self._track(vec)
        now = float(self.system.sim.now)
        self._log(b"p", now, vec.client.rank, vec.shared.name,
                  elem_off, nbytes)
        if self.checker is not None:
            self.checker.on_promote(vec, elem_off, nbytes, now)

    def on_append(self, vec, start: int, count: int) -> None:
        self._track(vec)
        now = float(self.system.sim.now)
        self._log(b"a", now, vec.client.rank, vec.shared.name, start,
                  count)
        if self.checker is not None:
            self.checker.on_append(vec, start, count, now)

    def on_invalidate(self, vec) -> None:
        self._track(vec)
        now = float(self.system.sim.now)
        self._log(b"i", now, vec.client.rank, vec.shared.name)
        if self.checker is not None:
            self.checker.on_invalidate(vec, now)

    def on_task(self, client, kind: str, vec_name: str, detail: int,
                target: int) -> None:
        self._log(b"t", float(self.system.sim.now), client.rank, kind,
                  vec_name, detail, target)

    # -- injector-facing surface -----------------------------------------
    def on_chaos(self, kind: str, *fields) -> None:
        """Fold an applied fault into the trace hash."""
        self._log(b"x", float(self.system.sim.now), kind,
                  *[f if isinstance(f, (int, float)) else str(f)
                    for f in fields])
        if self.checker is not None and kind == "crash":
            self.checker.on_crash(int(fields[0]),
                                  float(self.system.sim.now))

    def check_conservation(self) -> List[str]:
        """Instantaneous invariant sweep (the injector runs this after
        every applied fault)."""
        problems = check_conservation(self.system, self.vectors)
        mon = self.system.monitor
        for name, floor in self._floors.items():
            value = mon.counter(name)
            if value < floor:
                problems.append(
                    f"counter {name} regressed: {value} < {floor}")
            else:
                self._floors[name] = value
        self.floor_problems.extend(problems)
        return problems
