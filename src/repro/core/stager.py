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
live on a parallel filesystem), whose HDD servers pay a seek for each
request that does not continue the previous one on that server's
datafile (each request names the vector's file). A stage-in request
reads one run of one stripe; the stripe that follows it on its server
is read ahead when its bytes are back, and so continues the datafile.
A persist writes each server's dirty pages in one request; both take
their bounds from the PFS model (``stripe_size``, ``server_of``), not
from a setting.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from repro.core.errors import MegaMmapError, VectorError
from repro.core.shared import SharedVector
from repro.sim import AllOf, Lock
from repro.hermes.blob import BlobNotFound
from repro.hermes.dpe import PlacementError
from repro.storage.backend import BackendError
from repro.storage.device import DeviceFullError
from repro.storage.pfs import STRIPE_SIZE

#: What can kill a stage-in request in flight without being a bug (a
#: failed publish, a node crash, the vector destroyed or its file cut
#: short under it): a demand request hands it to its caller, a
#: read-ahead is dropped.
_REQUEST_ERRORS = (BlobNotFound, PlacementError, DeviceFullError,
                   MegaMmapError, BackendError)
#: Seconds between a node's background flushes of dirty nonvolatile
#: pages. Read at call time, as ``stager.FLUSH_PERIOD``, so a test can
#: patch it.
FLUSH_PERIOD = 0.25


class _Call(NamedTuple):
    """What every request of one ``materialize`` call shares, and the
    read-ahead requests they trigger inherit: how much of the vector
    the backend holds, the runtime node staging it, the client node
    (page owners under LOCAL affinity) and the pages' score."""

    bsize: int
    node: int
    client_node: int
    score: float


class _Fetch:
    """One stage-in request in flight: the event a concurrent call
    waits on, its queued backend read, the room its pages were
    promised (``[(device, nbytes)]``, in ``SharedVector.earmarked``
    until they are published), for a read-ahead the request whose
    issue or return triggered it, the process running it (none for an
    inline zero-fill), when tracing, the id of its backend-wait span,
    the pages the calls waiting for it asked for, and what its publish
    stored of those: ``{page: (bytes, tier)}``, the bytes such a read
    is answered with."""

    proc = span_id = None

    def __init__(self, sim, read=(), claims=(), trigger=None):
        self.done = sim.event()
        self.read = read
        self.claims = claims
        self.trigger = trigger
        self.wanted = set()
        self.staged = {}


class _Ranges(list):
    """One backend request's ``[(offset, nbytes), ...]``, and the file
    they are of (``file``, the stream a PFS server positions on)."""

    def __init__(self, file, ranges):
        super().__init__(ranges)
        self.file = file


class DataStager:
    """Per-deployment stager (one background flusher per node)."""

    def __init__(self, system):
        self.system = system
        self.sim = system.sim
        self._stop = False
        self._stageout_locks = {}
        #: PFS server -> the stager's own requests (stage-in and
        #: stage-out) queued or in service there.
        self._queued = Counter()

    # -- timing helper -----------------------------------------------------
    def _charge_backend(self, node: int, ranges: "_Ranges", write: bool):
        if self.system.pfs is not None:
            yield from self.system.pfs.charge(node, ranges, write=write,
                                              file=ranges.file)

    def _backend_io(self, node: int, vec: SharedVector, extents,
                    write: bool):
        """Queue one request for the bytes ``[(lo, hi), ...]`` of
        ``vec``'s backend and return the generator that performs it.
        The request counts on its servers from this call (not from the
        generator's first step) until its last byte has moved."""
        pfs = self.system.pfs
        servers = {pfs.server_of(s) for lo, hi in extents for s in range(
            lo // pfs.stripe_size, -(-hi // pfs.stripe_size))} \
            if pfs is not None else ()
        self._queued.update(servers)

        def transfer():
            try:
                yield from self._charge_backend(node, _Ranges(
                    vec.name, [(lo, hi - lo) for lo, hi in extents]), write)
            finally:
                self._queued.subtract(servers)

        return transfer()

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
        only way one gets there short of being written whole). Generator;
        returns ``{page: (bytes, tier)}`` for the pages of ``pages`` that
        the requests it issued or joined published: what they stored,
        and where, so the read that faulted is answered with the bytes
        that were just put there instead of reading them back. A page
        written meanwhile, or whose publish failed, is not in it.

        The fill unit is a stripe: a wanted page pulls in the pages of
        its stripe(s) that the backend holds and that are neither
        materialized (they may hold writes), being staged by a
        concurrent call (``vec.staging``: that request is joined, so
        each backend byte is read once) nor already fetched
        (``vec.fragments``). One request per run of a demanded stripe,
        all issued at once; a page straddling two stripes is published
        by whichever of its requests lands last. Pages the backend does
        not cover (volatile vectors, a vector longer than its file)
        are zero-filled inline, and only when wanted. A request that
        dies unregisters its pages and releases its joiners: its caller
        sees the error, a joiner stages what is still absent itself.

        Issuing a request, and the return of its backend read, also
        gives every backend server the stager has left idle one stripe
        of the vector to read ahead (:meth:`_read_ahead`).
        """
        mdm = self.system.hermes.mdm
        tracer = self.system.tracer
        pages = list(dict.fromkeys(pages))
        staged = {}
        while True:
            absent = [p for p in pages if mdm.peek(vec.name, p) is None]
            if not absent:
                return staged
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
            call = _Call(bsize, node, client_node, score)
            joined, zeros, need = self._plan(vec, absent, bsize)
            cause = tracer.current_span_id()
            wanted, claimed = set(absent), dict(vec.earmarked)
            issued = []
            for stripe in need:
                runs, landing = self._runs(vec, stripe, wanted, claimed, call)
                if len(runs) > 1:
                    self.system.monitor.count("stager.holes_skipped",
                                              len(runs) - 1)
                issued += [self._issue(vec, stripe, run, landing, call, cause)
                           for run in runs]
            if issued:
                self._read_ahead(vec, need[-1], call, issued[-1])
            for fetch in issued + joined:
                fetch.wanted.update(absent)
            if zeros:
                # No backend wait: published inline.
                fill = self._register(_Fetch(self.sim), vec, -1, zeros)
                fill.wanted.update(absent)
                yield from self._fetch(fill, vec, -1, zeros, call, cause)
                issued.append(fill)
            procs = [fetch.proc for fetch in issued if fetch.proc]
            if procs:
                yield AllOf(self.sim, procs)
            if joined:
                # A joined request may have died (it unregistered its
                # pages): go round again and stage what is still absent.
                with tracer.span("stage_in_join", "stager", node=node,
                                 vector=vec.name) as sp:
                    yield AllOf(self.sim, [f.done for f in joined])
                    sp["wait_on"] = [f.span_id for f in joined
                                     if f.span_id is not None]
            for fetch in issued + joined:
                staged.update((p, fetch.staged[p]) for p in absent
                              if p in fetch.staged)
            if not joined:
                return staged

    def _plan(self, vec: SharedVector, absent, bsize: int):
        """What a call must wait for and what it must fetch itself:
        ``(requests to join, zero-fill run, stripes to request)``. The
        zero-fill run holds the wanted pages the backend does not
        reach (no backend bytes)."""
        peek = self.system.hermes.mdm.peek
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
        return list(joined), zeros, sorted(need)

    def _runs(self, vec: SharedVector, stripe: int, wanted, claimed: dict,
              call: _Call):
        """``([[(page, lo, hi), ...], ...], {page: device})``: the
        backend requests, one per run, that bring in what ``stripe``
        still lacks, and the room each page was promised. A page
        nobody asked for is read ahead only under the landing rule
        (``Hermes.free_tier``: room, displacing nothing, in a tier
        faster than the backend, after what ``claimed`` -- requests in
        flight, earlier pages -- has taken); a hole is re-read and
        discarded when that is cheaper than a second request's
        latency."""
        hermes, pfs = self.system.hermes, self.system.pfs
        peek = hermes.mdm.peek
        slack = pfs.server_spec.latency * pfs.server_spec.read_bw \
            if pfs is not None else 0
        pages = [q for q in self._pages_of(vec, stripe, call.bsize)
                 if peek(vec.name, q) is None
                 and stripe not in vec.staging.get(q, ())
                 and stripe not in vec.fragments.get(q, ())]

        def room(q, redundant):
            return hermes.free_tier(
                vec.owner_node(q, call.client_node), vec.name,
                vec.page_nbytes(q), claimed, redundant)

        # The wanted pages take their room first.
        landing = {q: room(q, False) for q in pages if q in wanted}
        runs = []
        for q in pages:
            if q not in wanted and pfs is not None:
                landing[q] = room(q, True)
                if landing[q] is None:
                    continue
            lo, hi = self._pieces(vec, q, call.bsize)[stripe]
            if runs and lo - runs[-1][-1][2] <= slack:
                runs[-1].append((q, lo, hi))
            else:
                runs.append([(q, lo, hi)])
        return runs, landing

    def _register(self, fetch: _Fetch, vec: SharedVector, stripe: int,
                  run) -> _Fetch:
        for p, _lo, _hi in run:
            vec.staging.setdefault(p, {})[stripe] = fetch
        for dev, n in fetch.claims:
            vec.earmarked[dev] = vec.earmarked.get(dev, 0) + n
        return fetch

    def _issue(self, vec: SharedVector, stripe: int, run, landing: dict,
               call: _Call, cause, trigger=None):
        """Queue one backend request for ``run`` of ``stripe`` and start
        it; returns the request. From here on its pages are in
        ``vec.staging``, its server counts as busy and its pages' room
        is taken."""
        read = self._backend_io(call.node, vec, [(run[0][1], run[-1][2])],
                                write=False)
        claims = [(landing[p], vec.page_nbytes(p)) for p, _lo, _hi in run
                  if landing.get(p) is not None]
        fetch = self._register(_Fetch(self.sim, read, claims, trigger),
                               vec, stripe, run)
        fetch.proc = self.sim.process(
            self._fetch(fetch, vec, stripe, run, call, cause),
            name=f"stage_in {vec.name}@{stripe}")
        return fetch

    def _read_ahead(self, vec: SharedVector, stripe: int, call: _Call,
                    trigger: _Fetch) -> None:
        """Give every backend server on which the stager has nothing
        queued one request of ``vec`` to read ahead: the first stripe
        on that server, from ``stripe`` on and wrapping round, with
        pages still absent that pass the landing rule (:meth:`_runs`
        with nothing wanted). Called when a request is issued and when
        its backend read returns, so the chain runs until the file is
        materialized, nothing more would land, or the vector or the
        stager is gone -- and a demand request never finds more than
        one request it did not ask for ahead of it on a server. A
        read-ahead is an ordinary one-stripe request (a later demand
        joins it) that nobody waits for."""
        pfs, hermes = self.system.pfs, self.system.hermes
        if pfs is None or self._stop or vec.destroyed:
            return
        idle = {srv for srv in range(len(pfs.devices))
                if not self._queued[srv]}
        # Where no node has room for a page under the landing rule (the
        # steady state over a slow spill tier, where every fault comes
        # here), there is no need to go through the file's pages.
        if not idle or not any(
                hermes.free_tier(n, vec.name, vec.page_size,
                                 dict(vec.earmarked), redundant=True)
                for n in range(len(hermes.dmshs))):
            return
        n_stripes = -(-call.bsize // pfs.stripe_size)
        for s in ((stripe + i) % n_stripes for i in range(n_stripes)):
            if not idle:
                return
            if pfs.server_of(s) not in idle or s in vec.no_ahead:
                continue
            runs, landing = self._runs(vec, s, (), dict(vec.earmarked),
                                       call)
            if runs:
                if len(runs) > 1:
                    # One request per server: the next run waits its turn.
                    self.system.monitor.count("stager.holes_skipped")
                self._issue(vec, s, runs[0], landing, call, None, trigger)
                idle.discard(pfs.server_of(s))

    def _fetch(self, fetch: _Fetch, vec: SharedVector, stripe: int, run,
               call: _Call, cause):
        """One backend request: read ``[run[0].lo, run[-1].hi)`` in one
        backend charge, cut the bytes into page pieces, publish the
        pages it completes with one vectored put. Generator. A demand's
        caller sees its failure; a read-ahead that dies is dropped and
        counted, and its stripe left to demand."""
        system = self.system
        node = call.node
        lo, hi = run[0][1], run[-1][2]
        ahead = fetch.trigger is not None
        ready = []
        try:
            raw = b""
            if hi > lo:
                with system.tracer.span(
                        "stage_in", "stager", node=node, vector=vec.name,
                        tier="pfs", stripe=stripe, nbytes=hi - lo,
                        pages=len(run), ahead=ahead,
                        cause=fetch.trigger.span_id if ahead else cause
                        ) as sp:
                    fetch.span_id = getattr(sp, "span_id", None)
                    yield from fetch.read
                # The bytes are back, their publish is still to come:
                # a server this leaves idle need not wait for it.
                self._read_ahead(vec, stripe, call, fetch)
                if vec.destroyed:
                    raise VectorError(
                        f"vector {vec.name!r} destroyed under a stage-in")
                raw = vec.ensure_backend().read_range(lo, hi - lo)
                self._count(node, "in", hi - lo, ahead)
                system.monitor.gauge("stager.last_byte_s").set(self.sim.now)
                system.monitor.count("stager.reread_bytes", hi - lo - sum(
                    b - a for _p, a, b in run))
            ready = self._complete(vec, stripe, run, raw, lo, call)
            infos = yield from self._publish(vec, ready, call)
            fetch.staged.update((p, (data, infos[p].tier))
                                for p, data, _owner in ready
                                if p in fetch.wanted)
        except _REQUEST_ERRORS:
            if not ahead:
                raise
            self._drop_ahead(vec, stripe)
        finally:
            # The pieces of a page count as fetched until its publish
            # is over, or a fault in between would read them again.
            for p, _data, _owner in ready:
                vec.fragments.pop(p, None)
            for p, _a, _b in run:
                del vec.staging[p][stripe]
                if not vec.staging[p]:
                    del vec.staging[p]
            for dev, n in fetch.claims:
                vec.earmarked[dev] -= n
            fetch.done.succeed()

    def _complete(self, vec: SharedVector, stripe: int, run, raw: bytes,
                  lo: int, call: _Call):
        """File the pieces of ``run`` (``raw`` = backend bytes from
        ``lo``) and return ``[(page, bytes, owner)]``: the pages now
        complete and still absent."""
        system = self.system
        ready = []
        for p, a, b in run:
            got = vec.fragments.setdefault(p, {})
            got[stripe] = (a - p * vec.page_size, raw[a - lo:b - lo])
            if len(got) < len(self._pieces(vec, p, call.bsize)):
                continue  # a straddler still missing its other half
            if system.hermes.mdm.peek(vec.name, p) is not None:
                del vec.fragments[p]
                continue  # written meanwhile: never overwrite it
            data = bytearray(vec.page_nbytes(p))
            for off, part in got.values():
                data[off:off + len(part)] = part
            owner = vec.owner_node(p, call.client_node)
            if owner in system.reliability.failed_nodes:
                owner = call.node
            ready.append((p, bytes(data), owner))
        return ready

    def _publish(self, vec: SharedVector, ready, call: _Call):
        """One vectored put of ``ready``. Generator; returns ``{page:
        BlobInfo}``."""
        system = self.system
        if not ready:
            return {}
        infos = yield from system.hermes.put_many(
            call.node, vec.name, ready, score=call.score)
        if system.config.integrity_checks:
            # Without a baseline CRC at materialization, corruption of
            # a staged-in page that is never rewritten would pass
            # verification.
            for p, data, _owner in ready:
                system.reliability.record(vec.name, p, data)
        return infos

    def _drop_ahead(self, vec: SharedVector, stripe: int) -> None:
        """Nobody waits for a read-ahead: its pages stay absent, the
        next demand stages them, nothing retries it."""
        vec.no_ahead.add(stripe)
        self.system.monitor.count("stager.readahead_failed")

    def drain(self, vec: SharedVector):
        """Wait out the stage-in requests of ``vec`` in flight (its
        destruction: they issue nothing more). Generator."""
        while vec.staging:
            yield AllOf(self.sim, [f.done for f in dict.fromkeys(
                f for reqs in vec.staging.values()
                for f in reqs.values())])

    def _count(self, node: int, direction: str, nbytes: int,
               ahead: bool = False) -> None:
        monitor = self.system.monitor
        monitor.count(f"stager.bytes_{direction}", nbytes, node=node)
        monitor.count(f"stager.requests_{direction}", node=node)
        if ahead:
            monitor.count("stager.requests_ahead", node=node)

    # -- stage-out -------------------------------------------------------------
    def _stageout_lock(self, vec: SharedVector, page_idx: int) -> Lock:
        key = (vec.name, page_idx)
        lock = self._stageout_locks.get(key)
        if lock is None:
            lock = self._stageout_locks[key] = Lock(self.sim)
        return lock

    def staging_out(self, name: str, page_idx: int) -> bool:
        """A stage-out of the page holds its lock: its bytes may not
        have reached the backend yet. Untimed."""
        lock = self._stageout_locks.get((name, page_idx))
        return lock is not None and lock.locked

    def stage_out(self, vec: SharedVector, pages, node: int):
        """Persist a run of scache pages -- ascending, on one PFS server
        (or one page) -- to the backend in one request. Generator.

        Stage-outs of the same page are serialized (a run takes its
        pages' locks in page order, so two runs never deadlock), and a
        page's dirty bit is claimed *before* its bytes are captured: a
        write that lands after the snapshot re-dirties the page and a
        later pass persists the fresh bytes. (Clearing the bit on
        completion instead would wipe that re-dirty mark — the write's
        bytes would never reach the backend — and two unserialized
        stage-outs could also complete out of order, leaving the stale
        snapshot as the file's final content.) A page a crash left with
        no live copy to capture is not written and stays dirty.
        """
        if vec.volatile:
            vec.dirty_pages.difference_update(pages)
            return
        locks = [self._stageout_lock(vec, p) for p in pages]
        for lock in locks:
            yield lock.acquire()
        try:
            captured = []
            for p in pages:
                if p not in vec.dirty_pages:
                    continue  # a stage-out that held the lock wrote it
                vec.dirty_pages.discard(p)
                try:
                    captured.append((p, (yield from self.system.hermes.get(
                        node, vec.name, p))))
                except BlobNotFound:
                    if self.system.hermes.mdm.peek(vec.name, p) is not None:
                        # Recovery restores it or reports the loss.
                        vec.dirty_pages.add(p)
            if not captured:
                return
            backend = vec.ensure_backend()
            extents = [(p * vec.page_size, p * vec.page_size + len(raw))
                       for p, raw in captured]
            backend.ensure_size(extents[-1][1])
            nbytes = sum(len(raw) for _p, raw in captured)
            with self.system.tracer.span(
                    "stage_out", "stager", node=node, vector=vec.name,
                    page=captured[0][0], pages=len(captured),
                    nbytes=nbytes):
                yield from self._backend_io(node, vec, extents, write=True)
            for (p, raw), (start, _end) in zip(captured, extents):
                # What stage-in fetched of this page ahead of time is
                # stale.
                vec.fragments.pop(p, None)
                backend.write_range(start, raw)
                # Persisted pages are cold: zero the score so the
                # organizer / placement demotes them aggressively to
                # make room for new data (paper IV-B3).
                self.system.hermes.set_score(vec.name, p, 0.0)
            self._count(node, "out", nbytes)
        finally:
            for lock in locks:
                lock.release()

    def persist(self, vec: SharedVector, node: int):
        """Flush every dirty page of ``vec`` (explicit msync / vector
        close): each PFS server's pages in one request, a page that
        straddles two stripes alone, the runs concurrently. Generator."""
        if vec.volatile:
            vec.dirty_pages.clear()
            return
        vec.ensure_backend().ensure_size(vec.nbytes)
        pfs, runs = self.system.pfs, {}
        for p in sorted(vec.dirty_pages):
            stripes = list(self._pieces(vec, p, vec.nbytes))
            key = ("page", p) if len(stripes) != 1 \
                else pfs.server_of(stripes[0]) if pfs is not None else 0
            runs.setdefault(key, []).append(p)
        procs = [self.sim.process(self.stage_out(vec, run, node),
                                  name=f"stage_out {vec.name}@{run[0]}")
                 for run in runs.values()]
        if procs:
            yield AllOf(self.sim, procs)
        # A stage-out claims the dirty bit before it writes: a page a
        # background flusher is still writing is in neither set above,
        # and the vector is not persisted until that write is down.
        for (name, _page), lock in list(self._stageout_locks.items()):
            if name == vec.name and lock.locked:
                yield lock.acquire()
                lock.release()
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
        storage during periods of computation"), one page per request:
        it competes with demand stage-ins for the same servers."""
        while not self._stop:
            yield self.sim.timeout(FLUSH_PERIOD)
            for vec in list(self.system.vectors.values()):
                if vec.volatile or vec.destroyed:
                    continue
                # Flush pages owned by this node to spread the work.
                mine = [p for p in sorted(vec.dirty_pages)
                        if vec.owner_node(p, node) == node]
                for page_idx in mine:
                    yield from self.stage_out(vec, [page_idx], node)

    def stop(self) -> None:
        self._stop = True
