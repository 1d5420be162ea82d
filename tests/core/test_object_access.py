"""Property suite for the object-granular access path.

Seeded (stdlib ``random``) interleavings of object- and page-path
reads and writes run against a naive numpy shadow array; every read —
``read_range``, ``read_object``, and vectored ``read_objects`` — must
agree with the shadow byte for byte. Each rank drives its own disjoint
shard, so read-your-writes (dirty pcache frames, in-flight installs,
write-through patches) fully determines the expected bytes while both
ranks still hammer the owner nodes concurrently.

Also pinned here: objects straddling page boundaries, concurrent-rank
object writers meeting at a barrier (fresh readers then see every
acked write), and the ``object_threshold_bytes`` gate routing
requests to the right path.
"""

import random

import numpy as np
import pytest

from benchmarks.common import testbed
from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from repro.core.memtask import BatchTask, MemoryTask, TaskKind
from repro.core.reliability import corrupt_page
from repro.net.message import batched_nbytes
from repro.sim import Event
from tests.core.conftest import build_system, run_procs

PAGE = 4096          # small pages -> plenty of straddling objects
SHARD_PAGES = 8
SHARD = SHARD_PAGES * PAGE


def _pattern(rnd: random.Random, n: int) -> np.ndarray:
    # A cheap deterministic pattern: one random byte + ramp, mod 251.
    base = rnd.randrange(251)
    return ((np.arange(n) + base) % 251).astype(np.uint8)


def _interleave(ctx, seed, n_ops, threshold):
    """Random op mix over this rank's shard, mirrored on a shadow."""
    rnd = random.Random(seed + ctx.rank)
    size = ctx.nprocs * SHARD
    vec = yield from ctx.mm.vector("prop:objects", dtype=np.uint8,
                                   size=size)
    vec.bound_memory(4 * PAGE)      # force eviction churn
    lo = ctx.rank * SHARD
    shadow = np.zeros(SHARD, dtype=np.uint8)
    bad = 0
    for _ in range(n_ops):
        op = rnd.choice(("wr_range", "wr_obj", "rd_range", "rd_obj",
                         "rd_objs", "rd_objs", "rd_objs_wide"))
        off = rnd.randrange(SHARD - 1)
        n = rnd.randint(1, min(3 * threshold, SHARD - off))
        if op == "wr_range":
            data = _pattern(rnd, n)
            yield from vec.write_range(lo + off, data)
            shadow[off:off + n] = data
        elif op == "wr_obj":
            data = _pattern(rnd, n)
            yield from vec.write_object(lo + off, data)
            shadow[off:off + n] = data
        elif op == "rd_range":
            out = yield from vec.read_range(lo + off, n)
            bad += int(not np.array_equal(out, shadow[off:off + n]))
        elif op == "rd_obj":
            out = yield from vec.read_object(lo + off, n)
            bad += int(not np.array_equal(out, shadow[off:off + n]))
        else:
            reqs = []
            for _r in range(rnd.randint(1, 4)):
                roff = rnd.randrange(SHARD - 1)
                rn = rnd.randint(1, min(2 * threshold, SHARD - roff))
                reqs.append((roff, rn))
            if op == "rd_objs_wide":
                # One more extent in every page of the shard: each
                # owner's batch spreads over several worker FIFOs, so
                # the runtime splits it and merges the parts' replies.
                reqs += [(p * PAGE + rnd.randrange(PAGE - threshold),
                          rnd.randint(1, threshold))
                         for p in range(SHARD_PAGES)]
            outs = yield from vec.read_objects(
                [(lo + o, c) for o, c in reqs])
            for (roff, rn), out in zip(reqs, outs):
                bad += int(not np.array_equal(
                    out, shadow[roff:roff + rn]))
    # Final sweep: the whole shard through both paths.
    whole_page = yield from vec.read_range(lo, SHARD)
    whole_obj = yield from vec.read_objects(
        [(lo + p * PAGE, PAGE) for p in range(SHARD_PAGES)])
    bad += int(not np.array_equal(whole_page, shadow))
    bad += int(not np.array_equal(np.concatenate(whole_obj), shadow))
    return bad


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleavings_agree_with_shadow(seed):
    threshold = 256
    c = testbed(n_nodes=2, procs_per_node=2, page_size=PAGE,
                object_threshold_bytes=threshold, seed=seed)
    res = c.run(_interleave, 1000 * seed, 60, threshold)
    assert res.values == [0, 0, 0, 0], res.values
    # The mix really exercised both paths.
    assert res.stats.get("object.reads", 0) > 0
    assert res.stats.get("object.writes", 0) > 0
    assert res.stats.get("pcache.faults", 0) > 0
    # ... and batches the owner's runtime had to split.
    shared = c.system.vectors["prop:objects"]
    fifos = {(owner, c.system.runtimes[owner]._store_idx(shared.name, p))
             for p in range(SHARD_PAGES)
             for owner in (shared.owner_node(p, 0),)}
    assert len(fifos) >= 3


def test_straddling_object_crosses_page_boundary():
    def app(ctx):
        vec = yield from ctx.mm.vector("prop:straddle",
                                       dtype=np.uint8, size=4 * PAGE)
        if ctx.rank == 0:
            data = ((np.arange(128) + 5) % 251).astype(np.uint8)
            yield from vec.write_object(PAGE - 64, data)
        yield from ctx.barrier()
        out = yield from vec.read_object(PAGE - 64, 128)
        lo = yield from vec.read_range(PAGE - 64, 64)
        hi = yield from vec.read_range(PAGE, 64)
        return (out.tolist(), np.concatenate([lo, hi]).tolist())

    c = testbed(n_nodes=2, procs_per_node=1, page_size=PAGE,
                object_threshold_bytes=4096)
    want = (((np.arange(128) + 5) % 251).astype(np.uint8)).tolist()
    for obj, pages in c.run(app).values:
        assert obj == want        # object read spans both pages
        assert pages == want      # page path sees the same bytes
    # The write really split into two per-page OBJ_WRITE tasks.
    assert c.monitor.counter("object.remote_tasks") >= 2


def test_concurrent_rank_writers_at_a_barrier():
    """Every rank object-writes its own slots, then reads the whole
    table after a barrier. Readers never cached other shards before
    the barrier, so every fetch is fresh and must observe every acked
    write-through — byte-identical between the two read paths."""
    def app(ctx):
        size = ctx.nprocs * 512
        vec = yield from ctx.mm.vector("prop:writers",
                                       dtype=np.uint8, size=size)
        # Straddle-prone slots: each rank's slots start mid-page.
        data = ((np.arange(512) * (ctx.rank + 3)) % 251) \
            .astype(np.uint8)
        yield from vec.write_object(ctx.rank * 512, data)
        yield from ctx.barrier()
        via_obj = yield from vec.read_objects(
            [(r * 512, 512) for r in range(ctx.nprocs)])
        via_page = yield from vec.read_range(0, size)
        return (np.concatenate(via_obj).tolist(), via_page.tolist())

    c = testbed(n_nodes=2, procs_per_node=2, page_size=PAGE,
                object_threshold_bytes=1024)
    want = np.concatenate([
        ((np.arange(512) * (r + 3)) % 251).astype(np.uint8)
        for r in range(4)]).tolist()
    for via_obj, via_page in c.run(app).values:
        assert via_obj == want
        assert via_page == want


def test_threshold_gates_path_selection():
    """Requests at or under the threshold take the object path (the
    ``object.*`` counters move); larger ones fall back to the page
    path (``pcache.faults`` move) — and both return correct bytes."""
    def app(ctx):
        vec = yield from ctx.mm.vector("prop:gate", dtype=np.uint8,
                                       size=4 * PAGE)
        small = yield from vec.read_object(10, 128)     # gated
        large = yield from vec.read_object(0, 129)      # falls back
        yield from vec.write_object(0, np.full(128, 3, np.uint8))
        yield from vec.write_object(0, np.full(129, 4, np.uint8))
        out = yield from vec.read_range(0, 129)
        return (int(small.sum()), int(large.sum()), out.tolist())

    c = testbed(n_nodes=1, procs_per_node=1, page_size=PAGE,
                object_threshold_bytes=128)
    (small_sum, large_sum, out), = c.run(app).values
    assert small_sum == 0 and large_sum == 0    # zero-filled table
    assert out == [4] * 129
    # Exactly one gated read and one gated write were counted.
    assert c.monitor.counter("object.reads") == 1
    assert c.monitor.counter("object.writes") == 1
    assert c.monitor.counter("pcache.faults") > 0


def test_threshold_zero_disables_object_counters():
    """With the gate closed, the object API is the page API: no
    ``object.*`` stats, no OBJ_* tasks."""
    def app(ctx):
        vec = yield from ctx.mm.vector("prop:off", dtype=np.uint8,
                                       size=PAGE)
        yield from vec.write_object(0, np.arange(64, dtype=np.uint8))
        out = yield from vec.read_object(0, 64)
        outs = yield from vec.read_objects([(0, 32), (32, 32)])
        return (out.tolist(),
                np.concatenate(outs).tolist())

    c = testbed(n_nodes=1, procs_per_node=1, page_size=PAGE,
                object_threshold_bytes=0)
    res = c.run(app)
    (out, outs), = res.values
    assert out == list(range(64)) and outs == list(range(64))
    assert not [k for k in res.stats if k.startswith("object.")], \
        res.stats


# -- the wire contract -------------------------------------------------------
#
# One batched read -- a ``read_objects`` call, or a multi-page
# ``read_range`` (the page path: one READ task per missing extent) --
# costs one request and one reply per remote owner of its misses —
# whatever the number of extents, of worker FIFOs the owner's runtime
# spreads them over, of pages an object straddles — and the bytes on
# the wire are the envelopes plus the extents.

TABLE_PAGES = 64
READER_NODE = 0


def _log_transfers(system):
    """Every ``Network.transfer`` from here on, as ``(src, dst, nbytes,
    cause)`` in issue order (loopback memcpys included). Tracing is
    switched on so that a reply names its request as ``cause``."""
    log = []
    inner = system.network.transfer
    system.tracer.enabled = True

    def logged(src, dst, nbytes, *args, **kw):
        log.append((src, dst, nbytes, kw.get("cause")))
        yield from inner(src, dst, nbytes, *args, **kw)

    system.network.transfer = logged
    return log


def _table(**cfg):
    """A 4-node deployment serving a written ``TABLE_PAGES``-page uint8
    table whose byte ``i`` is ``i % 251``; returns ``(sim, system,
    shadow)``. The organizer is off: pages stay on their hashed
    owners."""
    cfg.setdefault("object_threshold_bytes", 256)
    sim, system = build_system(n_nodes=4, organizer_enabled=False, **cfg)
    shadow = (np.arange(TABLE_PAGES * PAGE) % 251).astype(np.uint8)

    def fill():
        vec = yield from system.client(rank=9, node=1).vector(
            "kv", dtype=np.uint8, size=len(shadow))
        yield from vec.tx_begin(SeqTx(0, len(shadow), MM_WRITE_ONLY))
        yield from vec.write_range(0, shadow)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        yield sim.timeout(1.0)      # replication copies land

    run_procs(sim, fill())
    return sim, system, shadow


def _pages_by_owner(system, name="kv"):
    """{owner node: {worker FIFO: [pages]}} of the table, as seen from
    the reader's node."""
    shared = system.vectors[name]
    out: dict = {}
    for p in range(TABLE_PAGES):
        owner = shared.owner_node(p, READER_NODE)
        fifo = system.runtimes[owner]._store_idx(name, p)
        out.setdefault(owner, {}).setdefault(fifo, []).append(p)
    return out


def _measured_read(sim, system, requests, sabotage=None,
                   api="read_objects"):
    """Warm every metadata cache the call will consult (another process
    of the reader's node reads the same pages first), call
    ``sabotage()`` if given, then run the measured call on a reader at
    ``READER_NODE`` with the wire logged: ``read_objects(requests)``,
    or with ``api="read_range"`` one ``read_range`` per request.
    Returns ``(arrays, log of the measured call, counters moved by
    it)``."""
    log = _log_transfers(system)
    mon = system.monitor
    names = ("net.transfers", "net.bytes", "object.dedup_hits",
             "object.remote_tasks", "reliability.corruptions",
             "pcache.faults")

    def app():
        warm = yield from system.client(rank=1, node=READER_NODE).vector(
            "kv", dtype=np.uint8)
        yield from warm.read_objects(
            [(p * PAGE + 1500, 8) for p in _pages_of(requests)])
        vec = yield from system.client(rank=0, node=READER_NODE).vector(
            "kv", dtype=np.uint8)
        if sabotage is not None:
            sabotage()
        del log[:]
        before = [mon.counter(n) for n in names]
        if api == "read_objects":
            outs = yield from vec.read_objects(requests)
        else:
            outs = []
            for off, n in requests:
                outs.append((yield from vec.read_range(off, n)))
        return outs, [mon.counter(n) - b for n, b in zip(names, before)]

    (outs, moved), = run_procs(sim, app())
    return outs, list(log), dict(zip(names, moved))


def _pages_of(requests):
    return sorted({p for off, n in requests
                   for p in range(off // PAGE, (off + n - 1) // PAGE + 1)})


def _extents_by_owner(system, requests, name="kv"):
    """What a cold reader at ``READER_NODE`` asks each owner for:
    ``({owner: extents}, {owner: bytes})`` with one extent per page a
    request touches."""
    shared = system.vectors[name]
    n_tasks, nbytes = {}, {}
    for off, n in requests:
        for p in _pages_of([(off, n)]):
            owner = shared.owner_node(p, READER_NODE)
            size = min(off + n, (p + 1) * PAGE) - max(off, p * PAGE)
            n_tasks[owner] = n_tasks.get(owner, 0) + 1
            nbytes[owner] = nbytes.get(owner, 0) + size
    return n_tasks, nbytes


def _assert_wire_contract(requests, outs, log, moved, shadow,
                          n_tasks_by_owner, extent_bytes_by_owner):
    """k remote owners -> k requests + k replies, envelopes + extents."""
    for (off, n), out in zip(requests, outs):
        assert np.array_equal(out, shadow[off:off + n])
    remote = sorted(o for o in n_tasks_by_owner if o != READER_NODE)
    wire = [t for t in log if t[0] != t[1]]
    requests_out = [t for t in wire if t[0] == READER_NODE]
    replies = [t for t in wire if t[1] == READER_NODE]
    assert len(wire) == 2 * len(remote), wire
    assert sorted(t[1] for t in requests_out) == remote
    assert sorted(t[0] for t in replies) == remote
    for _src, owner, nbytes, _cause in requests_out:
        assert nbytes == batched_nbytes([0] * n_tasks_by_owner[owner])
    for owner, _dst, nbytes, cause in replies:
        assert nbytes == extent_bytes_by_owner[owner]
        assert cause is not None
    # The program's own counters tell the same story (they also count
    # the loopback memcpys of the reader's own node).
    assert moved["net.transfers"] == len(log)
    assert moved["net.bytes"] == sum(t[2] for t in log)


def test_one_fifo_batch_costs_one_request_and_one_reply():
    sim, system, shadow = _table()
    owner, fifos = next((o, f) for o, f in _pages_by_owner(system).items()
                        if o != READER_NODE)
    page = next(iter(fifos.values()))[0]
    requests = [(page * PAGE + off, 64) for off in (0, 256, 1024)]
    outs, log, moved = _measured_read(sim, system, requests)
    _assert_wire_contract(requests, outs, log, moved, shadow,
                          {owner: 3}, {owner: 3 * 64})


def test_batch_split_over_fifos_still_replies_once():
    sim, system, shadow = _table()
    owner, fifos = next((o, f) for o, f in _pages_by_owner(system).items()
                        if o != READER_NODE and len(f) >= 3)
    pages = [ps[0] for ps in fifos.values()]
    assert len(pages) >= 3
    requests = [(p * PAGE + 100, 64) for p in pages] \
        + [(pages[0] * PAGE + 900, 32)]
    outs, log, moved = _measured_read(sim, system, requests)
    _assert_wire_contract(requests, outs, log, moved, shadow,
                          {owner: len(requests)},
                          {owner: 64 * len(pages) + 32})
    assert system.monitor.counter("object.remote_tasks") >= len(requests)


def test_every_remote_owner_gets_one_request_and_sends_one_reply():
    """All four nodes own misses; the reader's own node costs memcpys
    only. Duplicate extents are fetched once."""
    sim, system, shadow = _table()
    by_owner = _pages_by_owner(system)
    assert sorted(by_owner) == [0, 1, 2, 3]
    requests, n_tasks, nbytes = [], {}, {}
    for owner, fifos in by_owner.items():
        pages = [p for ps in fifos.values() for p in ps][:5]
        requests += [(p * PAGE + 7, 48) for p in pages]
        n_tasks[owner], nbytes[owner] = len(pages), 48 * len(pages)
    dup = requests[:6]
    outs, log, moved = _measured_read(sim, system, requests + dup)
    assert moved["object.dedup_hits"] == len(dup)
    _assert_wire_contract(requests + dup, outs, log, moved, shadow,
                          n_tasks, nbytes)


def test_straddling_object_on_two_owners_costs_two_round_trips():
    sim, system, shadow = _table()
    shared = system.vectors["kv"]
    p = next(p for p in range(TABLE_PAGES - 1)
             if READER_NODE not in (shared.owner_node(p, READER_NODE),
                                    shared.owner_node(p + 1, READER_NODE))
             and shared.owner_node(p, READER_NODE)
             != shared.owner_node(p + 1, READER_NODE))
    lo, hi = (shared.owner_node(q, READER_NODE) for q in (p, p + 1))
    requests = [((p + 1) * PAGE - 40, 100)]
    outs, log, moved = _measured_read(sim, system, requests)
    _assert_wire_contract(requests, outs, log, moved, shadow,
                          {lo: 1, hi: 1}, {lo: 40, hi: 60})


def test_page_path_batch_costs_one_request_and_one_reply_per_owner():
    """A cold multi-page ``read_range`` that starts and ends mid-page:
    every remote owner gets one request and sends one reply, and the
    head and tail pages travel as the extents asked for, not whole."""
    sim, system, shadow = _table()
    requests = [(10 * PAGE + 1000, 4 * PAGE + 500)]     # pages 10..14
    n_tasks, nbytes = _extents_by_owner(system, requests)
    assert len([o for o in n_tasks if o != READER_NODE]) >= 2
    outs, log, moved = _measured_read(sim, system, requests,
                                      api="read_range")
    assert moved["pcache.faults"] == 5 and not moved["object.remote_tasks"]
    _assert_wire_contract(requests, outs, log, moved, shadow,
                          n_tasks, nbytes)


def test_vectored_read_equals_a_loop_of_read_object():
    sim, system, shadow = _table()
    rnd = random.Random(5)
    requests = [(rnd.randrange(len(shadow) - 200), rnd.randint(1, 200))
                for _ in range(40)]

    def app(rank, vectored):
        vec = yield from system.client(rank=rank, node=READER_NODE) \
            .vector("kv", dtype=np.uint8)
        if vectored:
            return (yield from vec.read_objects(requests))
        outs = []
        for off, n in requests:
            outs.append((yield from vec.read_object(off, n)))
        return outs

    batch, loop = run_procs(sim, app(0, True), app(1, False))
    for (off, n), a, b in zip(requests, batch, loop):
        assert a.tobytes() == b.tobytes() == shadow[off:off + n].tobytes()


def test_integrity_checks_move_no_more_bytes_and_still_catch_a_flip(
        api="read_objects"):
    """Verification happens where the page lives: with
    ``integrity_checks`` the same call ships the same extents (the page
    itself never travels), and a flipped bit is still detected and
    repaired from the replica before any of it reaches the reader."""
    wire_bytes = {}
    for checks in (False, True):
        sim, system, shadow = _table(integrity_checks=checks,
                                     replication_factor=2)
        if api == "read_objects":
            owner, fifos = next(
                (o, f) for o, f in _pages_by_owner(system).items()
                if o != READER_NODE and len(f) >= 2)
            pages = [ps[0] for ps in fifos.values()][:2]
            requests = [(p * PAGE + off, 64) for p in pages
                        for off in (0, 2048)]
            again = [(pages[0] * PAGE + 2990, 64),
                     (pages[1] * PAGE + 512, 64)]
        else:
            pages = [10, 11, 12]
            requests = [(10 * PAGE + 3500, 2 * PAGE)]   # mid-10..mid-12
            again = [(10 * PAGE + 2990, 2 * PAGE)]
        outs, log, moved = _measured_read(sim, system, requests, api=api)
        _assert_wire_contract(requests, outs, log, moved, shadow,
                              *_extents_by_owner(system, requests))
        wire_bytes[checks] = sum(t[2] for t in log if t[0] != t[1])
    assert wire_bytes[True] <= wire_bytes[False]
    # The last deployment has checks on: flip a bit under the reader.
    outs, log, moved = _measured_read(
        sim, system, again, api=api,
        sabotage=lambda: corrupt_page(system, "kv", pages[0], 3000))
    for (off, n), out in zip(again, outs):
        assert np.array_equal(out, shadow[off:off + n])
    assert moved["reliability.corruptions"] > 0
    remote = {o for o in _extents_by_owner(system, again)[0]
              if o != READER_NODE}
    # One reply per remote owner.
    assert len([t for t in log if t[3] is not None]) == len(remote)


def test_page_path_integrity_checks_move_no_more_bytes_and_catch_a_flip():
    test_integrity_checks_move_no_more_bytes_and_still_catch_a_flip(
        api="read_range")


# -- failure rules ----------------------------------------------------------------

def test_a_failing_part_fails_the_batch_once_and_ships_no_reply():
    sim, system, _shadow = _table()
    owner, fifos = next((o, f) for o, f in _pages_by_owner(system).items()
                        if o != READER_NODE and len(f) >= 3)
    pages = [ps[0] for ps in fifos.values()]
    bad = pages[1]
    executor = system.runtimes[owner].executor
    inner = executor.execute_batch

    def failing(batch):
        if bad in batch.pages:
            yield sim.timeout(1e-4)     # the healthy parts finish first
            raise RuntimeError("part failed")
        return (yield from inner(batch))

    executor.execute_batch = failing
    log = _log_transfers(system)
    batch = BatchTask(
        kind=TaskKind.OBJ_READ, vector_name="kv", client_node=READER_NODE,
        tasks=[MemoryTask(kind=TaskKind.OBJ_READ, vector_name="kv",
                          page_idx=p, client_node=READER_NODE,
                          region=(0, 64)) for p in pages])
    batch.done = Event(sim)
    batch.ctx = 4242                # what a reply would carry as cause
    fired = []
    batch.done.callbacks.append(lambda evt: fired.append(evt.ok))

    def app():
        system.runtimes[owner].submit(batch)
        try:
            yield batch.done
        except RuntimeError as exc:
            return str(exc)

    assert run_procs(sim, app()) == ["part failed"]
    sim.run(until=sim.now + 1.0)
    assert fired == [False]
    assert not [t for t in log if t[3] is not None]
    assert system.runtimes[owner].idle


def test_dead_primary_in_a_batch_fails_over_and_the_rest_replies_once(
        tmp_path, monkeypatch, api="read_objects"):
    """A page whose primary died falls back to the per-task read (which
    restages it from the backend and ships it itself); the healthy
    extents of the same batch still come back in one reply."""
    monkeypatch.chdir(tmp_path)
    shadow = (np.arange(TABLE_PAGES * PAGE) % 249).astype(np.uint8)
    shadow.tofile("kv.bin")
    sim, system = build_system(n_nodes=4, organizer_enabled=False,
                               prefetch_enabled=False,
                               object_threshold_bytes=256)
    name = "posix://./kv.bin"
    log = _log_transfers(system)

    def app():
        vec = yield from system.client(rank=0, node=READER_NODE).vector(
            name, dtype=np.uint8)
        if api == "read_objects":
            owner, fifos = next(
                (o, f) for o, f in _pages_by_owner(system, name).items()
                if o != READER_NODE and len(f) >= 3)
            dead, *alive = [ps[0] for ps in fifos.values()][:3]
            requests = [(p * PAGE + 1000, 64) for p in [dead] + alive]
        else:
            # Three consecutive pages of one remote owner, entered and
            # left mid-page: a sub-page head and tail and a whole page.
            shared = system.vectors[name]
            owners = [shared.owner_node(p, READER_NODE)
                      for p in range(TABLE_PAGES)]
            dead = next(p for p in range(TABLE_PAGES - 2)
                        if owners[p] != READER_NODE
                        and owners[p] == owners[p + 1] == owners[p + 2])
            owner, alive = owners[dead], [dead + 1, dead + 2]
            requests = [(dead * PAGE + 1000, 2 * PAGE)]
        pages = [dead] + alive
        # Another process of the reader's node: the reader stays cold.
        warm = yield from system.client(rank=1, node=READER_NODE).vector(
            name, dtype=np.uint8)
        yield from warm.read_objects([(p * PAGE, 8) for p in pages])
        # The owner crashes and comes back empty; two of the three
        # pages are read again (restaged), one stays lost.
        system.reliability.fail_node(owner)
        system.reliability.restore_node(owner)
        for p in alive:
            yield from warm.read_object(p * PAGE + 64, 8)
        assert system.hermes.mdm.peek(name, dead).node < 0
        del log[:]
        restaged = system.monitor.counter("reliability.restages")
        if api == "read_objects":
            outs = yield from vec.read_objects(requests)
        else:
            outs = [(yield from vec.read_range(*requests[0]))]
        return requests, outs, owner, restaged

    (requests, outs, owner, restaged), = run_procs(sim, app())
    for (off, n), out in zip(requests, outs):
        assert np.array_equal(out, shadow[off:off + n])
    # Restaged after the crash: the alive pages, then the dead one.
    assert restaged >= 2
    assert system.monitor.counter("reliability.restages") > restaged
    n_tasks, nbytes = _extents_by_owner(system, requests, name)
    assert n_tasks == {owner: 3}
    dead_nbytes = 64 if api == "read_objects" else PAGE - 1000
    replies = [t for t in log if t[3] is not None]
    assert replies == [(owner, READER_NODE, nbytes[owner] - dead_nbytes,
                        replies[0][3])]


def test_dead_primary_in_a_page_batch_fails_over_and_the_rest_replies_once(
        tmp_path, monkeypatch):
    test_dead_primary_in_a_batch_fails_over_and_the_rest_replies_once(
        tmp_path, monkeypatch, api="read_range")


def test_whole_page_read_only_reads_replicate_and_sub_page_ones_do_not():
    """Replication is a property of the task, not of the batch: in a
    READ_ONLY_GLOBAL phase the whole pages of a batched read from
    another node leave a copy on the reader's node (and ship
    themselves); its sub-page head and tail do not."""
    sim, system, shadow = _table(prefetch_enabled=False)
    off, n = 10 * PAGE + 1000, 4 * PAGE + 500           # pages 10..14
    shared = system.vectors["kv"]
    whole_remote = {p for p in (11, 12, 13)
                    if shared.owner_node(p, READER_NODE) != READER_NODE}
    assert len(whole_remote) >= 2

    def app():
        vec = yield from system.client(rank=0, node=READER_NODE).vector(
            "kv", dtype=np.uint8)
        yield from vec.tx_begin(SeqTx(off, n, MM_READ_ONLY))
        out = yield from vec.read_range(off, n)
        yield from vec.tx_end()
        return out

    out, = run_procs(sim, app())
    assert np.array_equal(out, shadow[off:off + n])
    assert system.monitor.counter("hermes.replications") \
        == len(whole_remote)
    assert shared.replicated_pages == whole_remote
