"""The Data Stager: transparent (de)serialization to persistent backends.

Paper III-B (Persistently Integrating Memory with Storage): "the Data
Stager is responsible for serializing, deserializing, and flushing
content to the backend ... Periodically and during the termination of
the runtime, the stager task will be scheduled to serialize pages in
the scache and persist them. During a page fault, if a page is not
present in the scache, the stager will be invoked to read and
deserialize a subset of data from the persistent backend."

Stage-out is real: the backing file on disk ends up bit-exact with the
vector. Time is charged through the PFS model (the paper's backends
live on a parallel filesystem).
"""

from __future__ import annotations

from repro.core.shared import SharedVector
from repro.sim import AllOf, Lock
from repro.hermes.blob import BlobNotFound
from repro.storage.pfs import STRIPE_SIZE


class _Fetch:
    """One stage-in request in flight: the event a concurrent call
    waits on and, when tracing, the id of its backend-wait span."""

    span_id = None

    def __init__(self, sim):
        self.done = sim.event()


class DataStager:
    """Per-deployment stager (one background flusher per node)."""

    def __init__(self, system):
        self.system = system
        self.sim = system.sim
        self._stop = False
        self._stageout_locks = {}

    # -- timing helper -----------------------------------------------------
    def _charge_backend(self, node: int, nbytes: int, write: bool,
                        offset: int = 0):
        if self.system.pfs is not None:
            yield from self.system.pfs._striped(node, offset, nbytes,
                                                write=write)

    # -- stage-in -------------------------------------------------------------
    @property
    def _stripe(self) -> int:
        pfs = self.system.pfs
        return pfs.stripe_size if pfs is not None else STRIPE_SIZE

    def _pieces(self, vec: SharedVector, page: int, bsize: int):
        """``{stripe: (lo, hi)}``: the backend bytes of ``page``, one
        piece per stripe it touches; empty when the backend does not
        reach the page."""
        lo = page * vec.page_size
        hi = min(lo + vec.page_nbytes(page), bsize)
        unit = self._stripe
        return {s: (max(lo, s * unit), min(hi, (s + 1) * unit))
                for s in range(lo // unit, -(-hi // unit))} \
            if hi > lo else {}

    def _pages_of(self, vec: SharedVector, stripe: int, bsize: int):
        """Pages with backend bytes in ``stripe``."""
        unit = self._stripe
        return range(stripe * unit // vec.page_size,
                     (min((stripe + 1) * unit, bsize) - 1)
                     // vec.page_size + 1)

    def materialize(self, vec: SharedVector, pages, node: int,
                    client_node: int, score: float = 1.0):
        """Bring every absent page of ``pages`` into the scache (the
        only way one gets there short of being written whole). Generator.

        The fill unit is the backend's stripe: a wanted page pulls in
        the pages of its stripe(s) that the backend holds and that are
        neither materialized (they may hold writes), being staged by a
        concurrent call (``vec.staging``: that request is joined, so
        each backend byte is read once) nor already fetched
        (``vec.fragments``). One request per stripe, all issued at
        once; a page straddling two stripes is published by whichever
        of its requests lands last. Pages the backend does not cover
        (volatile vectors, a vector longer than its file) are
        zero-filled inline, and only when wanted. A request that dies
        unregisters its pages and releases its joiners: its caller sees
        the error, a joiner stages what is still absent itself.
        """
        mdm = self.system.hermes.mdm
        tracer = self.system.tracer
        while True:
            absent = [p for p in dict.fromkeys(pages)
                      if mdm.peek(vec.name, p) is None]
            if not absent:
                return
            bsize = 0 if vec.volatile else min(
                vec.ensure_backend().size(), vec.nbytes)
            stripes = {s for p in absent
                       for s in self._pieces(vec, p, bsize)}
            if stripes:
                # One vectored metadata round tells the stager which
                # neighbours of the wanted pages are materialized; what
                # follows it is decided and registered without yielding.
                yield from mdm.try_get_many(node, vec.name, sorted(
                    {*absent, *(q for s in stripes
                                for q in self._pages_of(vec, s, bsize))}))
            joined, runs = self._plan(vec, absent, bsize, client_node,
                                      score)
            cause = tracer.current_span_id()
            zeros, procs = None, []
            for stripe, run in runs:
                fetch = _Fetch(self.sim)
                for p, _lo, _hi in run:
                    vec.staging.setdefault(p, {})[stripe] = fetch
                gen = self._fetch(fetch, vec, stripe, run, bsize, node,
                                  client_node, score, cause)
                if stripe < 0:
                    zeros = gen
                else:
                    procs.append(self.sim.process(
                        gen, name=f"stage_in {vec.name}@{stripe}"))
            if zeros is not None:
                yield from zeros  # no backend wait: published inline
            if procs:
                yield AllOf(self.sim, procs)
            if not joined:
                return
            # A joined request may have died (it unregistered its
            # pages): go round again and stage what is still absent.
            with tracer.span("stage_in_join", "stager", node=node,
                             vector=vec.name) as sp:
                yield AllOf(self.sim, [f.done for f in joined])
                sp["wait_on"] = [f.span_id for f in joined
                                 if f.span_id is not None]

    def _plan(self, vec: SharedVector, absent, bsize: int,
              client_node: int, score: float):
        """What a call must wait for and what it must fetch itself:
        ``(requests to join, [(stripe, [(page, lo, hi), ...]), ...])``.
        Each run is one backend request (stripe -1: zero-fill, no
        backend bytes). Inside a stripe, a page nobody asked for is
        read ahead only if it would land in a tier faster than the
        backend, and a hole is re-read and discarded when that is
        cheaper than a second request's latency."""
        hermes = self.system.hermes
        peek = hermes.mdm.peek
        joined, need, zeros = {}, set(), []
        for p in absent:
            if peek(vec.name, p) is not None:
                continue
            staging = vec.staging.get(p, ())
            for s in self._pieces(vec, p, bsize) or (-1,):
                if s in staging:
                    joined[staging[s]] = None
                elif s < 0:
                    zeros.append((p, 0, 0))
                elif s not in vec.fragments.get(p, ()):
                    need.add(s)
        runs = [(-1, zeros)] if zeros else []
        pfs = self.system.pfs
        spec = pfs.devices[0].spec if pfs is not None else None
        slack = spec.latency * spec.read_bw if spec is not None else 0
        wanted, claimed = set(absent), {}

        def lands_fast(q):
            tier = hermes.free_tier(
                vec.owner_node(q, client_node), vec.name,
                vec.page_nbytes(q), score, claimed)
            return spec is None or (tier is not None
                                    and tier.spec.read_bw > spec.read_bw)

        for s in sorted(need):
            pages = [q for q in self._pages_of(vec, s, bsize)
                     if peek(vec.name, q) is None
                     and s not in vec.staging.get(q, ())
                     and s not in vec.fragments.get(q, ())]
            for q in pages:
                if q in wanted:
                    lands_fast(q)  # the wanted pages take their room first
            run = []
            for q in pages:
                if q not in wanted and not lands_fast(q):
                    continue
                lo, hi = self._pieces(vec, q, bsize)[s]
                if run and lo - run[-1][2] > slack:
                    self.system.monitor.count("stager.holes_skipped")
                    runs.append((s, run))
                    run = []
                run.append((q, lo, hi))
            runs.append((s, run))
        return list(joined), runs

    def _fetch(self, fetch, vec, stripe, run, bsize, node, client_node,
               score, cause):
        """One backend request: read ``[run[0].lo, run[-1].hi)``, cut
        it into page pieces, publish the pages now complete with one
        vectored put. Generator."""
        system = self.system
        lo, hi = run[0][1], run[-1][2]
        try:
            raw = b""
            if hi > lo:
                with system.tracer.span(
                        "stage_in", "stager", node=node, vector=vec.name,
                        tier="pfs", stripe=stripe, nbytes=hi - lo,
                        pages=len(run), cause=cause) as sp:
                    fetch.span_id = getattr(sp, "span_id", None)
                    yield from self._charge_backend(
                        node, hi - lo, write=False, offset=lo)
                raw = vec.ensure_backend().read_range(lo, hi - lo)
                self._count(node, "in", hi - lo)
                system.monitor.count("stager.reread_bytes", hi - lo - sum(
                    b - a for _p, a, b in run))
            ready = []
            for p, a, b in run:
                got = vec.fragments.setdefault(p, {})
                got[stripe] = (a - p * vec.page_size, raw[a - lo:b - lo])
                if len(got) < len(self._pieces(vec, p, bsize)):
                    continue  # a straddler still missing its other half
                del vec.fragments[p]
                if system.hermes.mdm.peek(vec.name, p) is not None:
                    continue  # written meanwhile: never overwrite it
                data = bytearray(vec.page_nbytes(p))
                for off, part in got.values():
                    data[off:off + len(part)] = part
                owner = vec.owner_node(p, client_node)
                if owner in system.reliability.failed_nodes:
                    owner = node
                ready.append((p, bytes(data), owner))
            if ready:
                yield from system.hermes.put_many(node, vec.name, ready,
                                                  score=score)
                if system.config.integrity_checks:
                    # Without a baseline CRC at materialization,
                    # corruption of a staged-in page that is never
                    # rewritten would pass verification.
                    for p, data, _owner in ready:
                        system.reliability.record(vec.name, p, data)
        finally:
            for p, _a, _b in run:
                del vec.staging[p][stripe]
                if not vec.staging[p]:
                    del vec.staging[p]
            fetch.done.succeed()

    def _count(self, node: int, direction: str, nbytes: int) -> None:
        monitor = self.system.monitor
        monitor.count(f"stager.bytes_{direction}", nbytes)
        monitor.count(f"stager.requests_{direction}")
        monitor.metrics.counter("stager_bytes", node=node,
                                direction=direction).inc(nbytes)
        monitor.metrics.counter("stager_requests", node=node,
                                direction=direction).inc()

    # -- stage-out -------------------------------------------------------------
    def _stageout_lock(self, vec: SharedVector, page_idx: int) -> Lock:
        key = (vec.name, page_idx)
        lock = self._stageout_locks.get(key)
        if lock is None:
            lock = self._stageout_locks[key] = Lock(self.sim)
        return lock

    def stage_out(self, vec: SharedVector, page_idx: int, node: int):
        """Persist one scache page to the backend. Generator.

        Stage-outs of the same page are serialized, and the dirty bit
        is claimed *before* the page bytes are captured: a write that
        lands after the snapshot re-dirties the page and a later pass
        persists the fresh bytes. (Clearing the bit on completion
        instead would wipe that re-dirty mark — the write's bytes
        would never reach the backend — and two unserialized
        stage-outs could also complete out of order, leaving the stale
        snapshot as the file's final content.)
        """
        if vec.volatile:
            vec.dirty_pages.discard(page_idx)
            return
        lock = self._stageout_lock(vec, page_idx)
        yield lock.acquire()
        try:
            vec.dirty_pages.discard(page_idx)
            try:
                raw = yield from self.system.hermes.get(
                    node, vec.name, page_idx)
            except BlobNotFound:
                return
            backend = vec.ensure_backend()
            start = page_idx * vec.page_size
            backend.ensure_size(start + len(raw))
            with self.system.tracer.span(
                    "stage_out", "stager", node=node, vector=vec.name,
                    page=page_idx, nbytes=len(raw)):
                yield from self._charge_backend(node, len(raw),
                                                write=True)
            # What stage-in fetched of this page ahead of time is stale.
            vec.fragments.pop(page_idx, None)
            backend.write_range(start, raw)
            # Persisted pages are cold: zero the score so the
            # organizer / placement demotes them aggressively to make
            # room for new data (paper IV-B3).
            self.system.hermes.set_score(vec.name, page_idx, 0.0)
            self._count(node, "out", len(raw))
        finally:
            lock.release()

    def persist(self, vec: SharedVector, node: int):
        """Flush every dirty page of ``vec`` (explicit msync / vector
        close). Generator."""
        if vec.volatile:
            vec.dirty_pages.clear()
            return
        vec.ensure_backend().ensure_size(vec.nbytes)
        for page_idx in sorted(vec.dirty_pages):
            yield from self.stage_out(vec, page_idx, node)
        vec.ensure_backend().flush()

    def persist_all(self, node: int = 0):
        """Runtime-termination flush of every nonvolatile vector."""
        for vec in list(self.system.vectors.values()):
            if not vec.volatile and not vec.destroyed:
                yield from self.persist(vec, node)

    # -- active background flushing -----------------------------------------------
    def flusher(self, node: int):
        """Background process: actively flush dirty pages during
        computation (III-B: "MegaMmap actively flushes modified data to
        storage during periods of computation")."""
        period = self.system.config.flush_period
        while not self._stop:
            yield self.sim.timeout(period)
            for vec in list(self.system.vectors.values()):
                if vec.volatile or vec.destroyed:
                    continue
                # Flush pages owned by this node to spread the work.
                mine = [p for p in sorted(vec.dirty_pages)
                        if vec.owner_node(p, node) == node]
                for page_idx in mine:
                    yield from self.stage_out(vec, page_idx, node)

    def stop(self) -> None:
        self._stop = True
