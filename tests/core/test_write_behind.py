"""Write-behind at range-write acknowledgment points.

Inside a sequential *writing* transaction, ``write_range`` ships every
page the declared stream has fully passed as an asynchronous WRITE —
evicted when the intent has no READ bit, flushed and kept clean when it
does — so ``tx_end`` only ships the tail. Transactions that cannot
promise a page is finished (``RandTx``, an empty region, writes outside
the region, no transaction at all) must not ship anything early.
"""

import numpy as np
import pytest

from benchmarks.common import testbed
from repro.core import (
    MM_APPEND_ONLY,
    MM_READ_ONLY,
    MM_READ_WRITE,
    MM_WRITE_ONLY,
    RandTx,
    SeqTx,
    StrideTx,
    organizer,
)
from tests.core.conftest import build_system, run_procs

PAGE = 4096  # fixture page size; uint8 vectors: one element per byte


def _shipped(system):
    """WRITE tasks submitted so far, batched or not."""
    mon = system.monitor
    return mon.counter("rpc.submits") + mon.counter("rpc.batched_tasks")


def _wb(system, vec, kind):
    return system.monitor.metrics.counter(
        "pcache_write_behind", node=vec.client.node,
        vector=vec.shared.name, kind=kind).value


def _read_back(system, key, n, rank=1, node=1):
    """Fresh client on another node: sees only what reached the
    scache."""
    client = system.client(rank=rank, node=node)

    def app():
        vec = yield from client.vector(key, dtype=np.uint8)
        yield from vec.tx_begin(SeqTx(0, n, MM_READ_WRITE))
        out = yield from vec.read_range(0, n)
        yield from vec.tx_end()
        return out

    return app()


def test_write_only_stream_evicts_passed_pages(tmp_path):
    """k full pages written -> k WRITE tasks outstanding before
    tx_end, at most the tail page resident; scache and backing file
    bit-exact."""
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    k = 5
    n = k * PAGE + 100  # five full pages + a partial tail page
    data = (np.arange(n) % 251).astype(np.uint8)
    key = f"posix://{tmp_path}/wb.bin"
    out = {}

    def app():
        vec = yield from client.vector(key, dtype=np.uint8, size=n,
                                       volatile=False)
        yield from vec.tx_begin(SeqTx(0, n, MM_WRITE_ONLY))
        # Plane-sized writes that straddle page boundaries.
        step = 1500
        for off in range(0, n, step):
            yield from vec.write_range(off, data[off:off + step])
        out["outstanding"] = [
            name for name, done in client._outstanding
            if name == key and not done.processed]
        out["shipped"] = _shipped(system)
        out["used"] = vec.pcache_used
        out["frames"] = sorted(vec.frames)
        yield from vec.tx_end()
        out["shipped_end"] = _shipped(system)
        yield from vec.persist()
        out["vec"] = vec

    run_procs(sim, app())
    assert out["shipped"] == k
    assert len(out["outstanding"]) >= 1  # async: not waited for
    assert out["frames"] == [k] and out["used"] <= PAGE
    assert out["shipped_end"] == k + 1  # tx_end ships only the tail
    assert _wb(system, out["vec"], "evict") == k
    assert _wb(system, out["vec"], "keep") == 0
    assert system.monitor.counter("pcache.evictions_dirty") == k
    got, = run_procs(sim, _read_back(system, key, n))
    assert np.array_equal(got, data)
    assert np.array_equal(
        np.fromfile(f"{tmp_path}/wb.bin", dtype=np.uint8), data)


def test_one_call_over_many_pages_is_one_batched_submission():
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    n = 8 * PAGE
    data = (np.arange(n) % 249).astype(np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("one", dtype=np.uint8, size=n)
        yield from vec.tx_begin(SeqTx(0, n, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        out["batched"] = system.monitor.counter("rpc.batched_tasks")
        out["submits"] = system.monitor.counter("rpc.submits")
        out["frames"] = len(vec.frames)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)

    run_procs(sim, app())
    # All eight pages are passed by the single call: one batched
    # submission (per owner), no per-page submits, nothing left.
    assert out["batched"] == 8 and out["submits"] == 0
    assert out["frames"] == 0
    got, = run_procs(sim, _read_back(system, "one", n))
    assert np.array_equal(got, data)


def test_read_write_stream_keeps_frames_clean_and_resident():
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    n = 4 * PAGE
    data = (np.arange(n) % 241).astype(np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("rw", dtype=np.uint8, size=n)
        yield from vec.tx_begin(SeqTx(0, n, MM_READ_WRITE))
        for off in range(0, n, PAGE // 2):
            yield from vec.write_range(off, data[off:off + PAGE // 2])
        out["shipped"] = _shipped(system)
        out["frames"] = sorted(vec.frames)
        out["dirty"] = [p for p, f in vec.frames.items() if f.dirty]
        faults = system.monitor.counter("pcache.faults")
        out["reread"] = yield from vec.read_range(0, n)
        out["refaults"] = system.monitor.counter("pcache.faults") - faults
        yield from vec.tx_end()
        out["shipped_end"] = _shipped(system)
        out["vec"] = vec
        yield from vec.flush(wait=True)

    run_procs(sim, app())
    assert out["shipped"] == 4 and out["shipped_end"] == 4
    assert out["frames"] == [0, 1, 2, 3] and out["dirty"] == []
    assert out["refaults"] == 0
    assert np.array_equal(out["reread"], data)
    assert _wb(system, out["vec"], "keep") == 4
    assert _wb(system, out["vec"], "evict") == 0
    got, = run_procs(sim, _read_back(system, "rw", n))
    assert np.array_equal(got, data)


def test_stride_one_and_append_streams_acknowledge_too():
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    n = 3 * PAGE
    data = (np.arange(n) % 239).astype(np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("st", dtype=np.uint8, size=n)
        yield from vec.tx_begin(StrideTx(0, n, 1, MM_WRITE_ONLY))
        yield from vec.write_range(0, data[:2 * PAGE])
        out["stride1"] = _shipped(system)
        yield from vec.tx_end()
        log = yield from client.vector("log", dtype=np.uint8, size=0)
        yield from log.tx_begin(SeqTx(0, n, MM_APPEND_ONLY))
        before = _shipped(system)
        for off in range(0, n, PAGE):
            yield from log.append(data[off:off + PAGE])
        out["append"] = _shipped(system) - before
        out["log_frames"] = len(log.frames)
        yield from log.tx_end()
        yield from log.flush(wait=True)

    run_procs(sim, app())
    assert out["stride1"] == 2
    assert out["append"] == 3 and out["log_frames"] == 0
    got, = run_procs(sim, _read_back(system, "log", n))
    assert np.array_equal(got, data)


def _no_early_shipping(make_tx, writes, n=4 * PAGE):
    """Run ``writes`` [(off, count)] under ``make_tx`` (None: no
    transaction) and return the counters the parent commit produced for
    the same scenario: nothing submitted before ``tx_end``, every
    written page still dirty, then one commit-time submission."""
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    data = (np.arange(n) % 233).astype(np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("nb", dtype=np.uint8, size=n)
        tx = make_tx() if make_tx is not None else None
        if tx is not None:
            yield from vec.tx_begin(tx)
        before = _shipped(system)
        for off, count in writes:
            yield from vec.write_range(off, data[off:off + count])
        out["early"] = _shipped(system) - before
        out["dirty"] = sorted(p for p, f in vec.frames.items()
                              if f.dirty)
        if tx is not None:
            yield from vec.tx_end()
        else:
            yield from vec.flush(wait=False)
        out["at_commit"] = _shipped(system) - before
        yield from vec.flush(wait=True)

    run_procs(sim, app())
    labeled = [key for key in system.monitor.metrics.counters
               if key[0] == "pcache_write_behind"]
    assert labeled == []
    assert system.monitor.counter("pcache.evictions_dirty") == 0
    got, = run_procs(sim, _read_back(system, "nb", n))
    touched = np.zeros(n, bool)
    for off, count in writes:
        touched[off:off + count] = True
    assert np.array_equal(got[touched], data[touched])
    return out


FULL = [(0, 2 * PAGE), (2 * PAGE, 2 * PAGE)]


@pytest.mark.parametrize("name,make_tx,writes", [
    ("rand_tx", lambda: RandTx(0, 4 * PAGE, 3, MM_WRITE_ONLY), FULL),
    # mm_dbscan's scatter writes: a zero-size declared region.
    ("empty_seq_tx", lambda: SeqTx(0, 0, MM_WRITE_ONLY), FULL),
    # Every write reaches outside the declared region [PAGE, 2*PAGE).
    ("outside_region", lambda: SeqTx(PAGE, PAGE, MM_WRITE_ONLY),
     [(0, 2 * PAGE), (2 * PAGE, 2 * PAGE)]),
    ("stride_two", lambda: StrideTx(0, 2 * PAGE, 2, MM_WRITE_ONLY), FULL),
    ("no_transaction", None, FULL),
    # A region that covers no page wholly (a slab smaller than a page,
    # sharing its pages with the neighbours' slabs).
    ("sub_page_region",
     lambda: SeqTx(PAGE // 2, PAGE, MM_WRITE_ONLY),
     [(PAGE // 2, PAGE // 2), (PAGE, PAGE // 2)]),
])
def test_unacknowledged_writes_ship_at_commit_only(name, make_tx, writes):
    out = _no_early_shipping(make_tx, writes)
    pages = sorted({p for off, count in writes
                    for p in range(off // PAGE,
                                   (off + count - 1) // PAGE + 1)})
    assert out["early"] == 0
    assert out["dirty"] == pages
    assert out["at_commit"] == len(pages)


def test_read_only_transaction_never_acknowledges():
    sim, system = build_system()
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("ro", dtype=np.uint8,
                                       size=2 * PAGE)
        tx = SeqTx(0, 2 * PAGE, MM_READ_ONLY)
        yield from vec.tx_begin(tx)
        assert list(tx.acknowledge_write(0, 2 * PAGE)) == []
        assert tx.write_mark == 0
        yield from vec.tx_end()

    run_procs(sim, app())


def test_rewritten_passed_page_ships_again_last_value_wins():
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    n = 3 * PAGE
    first = np.full(n, 1, np.uint8)
    second = np.full(PAGE, 2, np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("re", dtype=np.uint8, size=n)
        yield from vec.tx_begin(SeqTx(0, n, MM_WRITE_ONLY))
        yield from vec.write_range(0, first[:2 * PAGE])
        out["first"] = _shipped(system)
        # Go back to page 0, which the stream already passed.
        yield from vec.write_range(0, second)
        out["again"] = _shipped(system)
        out["frames"] = sorted(vec.frames)
        yield from vec.write_range(2 * PAGE, first[2 * PAGE:])
        yield from vec.tx_end()
        yield from vec.flush(wait=True)

    run_procs(sim, app())
    assert out["first"] == 2 and out["again"] == 3
    assert out["frames"] == []
    got, = run_procs(sim, _read_back(system, "re", n))
    assert np.array_equal(got[:PAGE], second)
    assert np.array_equal(got[PAGE:], first[PAGE:])


def test_head_partial_page_waits_for_tx_end():
    """A region starting mid-page: the page it only partly covers is
    never 'fully passed'; the whole pages after it are."""
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    n = 4 * PAGE
    lo = PAGE // 2
    data = (np.arange(n) % 229).astype(np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("hp", dtype=np.uint8, size=n)
        yield from vec.tx_begin(SeqTx(lo, 3 * PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(lo, data[lo:lo + 3 * PAGE])
        out["frames"] = sorted(vec.frames)
        out["shipped"] = _shipped(system)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)

    run_procs(sim, app())
    # Pages 1 and 2 lie wholly inside [lo, lo + 3 pages); 0 and 3 are
    # shared with whatever lies outside the region.
    assert out["shipped"] == 2 and out["frames"] == [0, 3]
    got, = run_procs(sim, _read_back(system, "hp", n))
    assert np.array_equal(got[lo:lo + 3 * PAGE], data[lo:lo + 3 * PAGE])


def test_durable_mode_still_commits_at_flush():
    sim, system = build_system(durability=True)
    client = system.client(rank=0, node=0)
    n = 4 * PAGE
    data = (np.arange(n) % 227).astype(np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("du", dtype=np.uint8, size=n)
        yield from vec.tx_begin(SeqTx(0, n, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from client.drain()
        # Every page reached the scache, none is committed yet.
        out["shipped"] = _shipped(system)
        out["barriers"] = system.monitor.counter("durability.barriers")
        out["covered"] = [system.durability.covers_clean("du", p)
                          for p in range(4)]
        yield from vec.tx_end()

    run_procs(sim, app())
    assert out["shipped"] == 4
    assert out["barriers"] == 0 and not any(out["covered"])
    assert system.monitor.counter("durability.barriers") >= 1
    for page in range(4):
        assert system.durability.covers_clean("du", page)
        _node, raw, _crc = system.durability.lookup("du", page)
        assert raw == data[page * PAGE:(page + 1) * PAGE].tobytes()


def test_flush_wait_drains_only_its_own_vector():
    """``a.flush(wait=True)`` must not wait out ``b``'s slow async
    write; ``client.drain()`` still waits for everything."""
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    slow = sim.event()
    out = {}

    def app():
        a = yield from client.vector("a", dtype=np.uint8, size=PAGE)
        b = yield from client.vector("b", dtype=np.uint8, size=PAGE)
        # b has an outstanding write that will not complete for 1 s.
        client._outstanding.append(("b", slow))
        yield from a.tx_begin(SeqTx(0, PAGE, MM_READ_WRITE))
        yield from a.write_range(0, np.full(PAGE, 9, np.uint8))
        yield from a.tx_end()
        yield from a.flush(wait=True)
        out["a_flushed"] = sim.now
        out["a_left"] = [n for n, _ in client._outstanding]
        yield from b.flush(wait=True)
        out["b_flushed"] = sim.now
        client._outstanding.append(("b", sim.timeout(0.5)))
        yield from client.drain()
        out["drained"] = sim.now

    def finish_slow_write():
        yield sim.timeout(1.0)
        slow.succeed()

    run_procs(sim, app(), finish_slow_write())
    assert out["a_flushed"] < 0.1
    assert out["a_left"] == ["b"]
    assert out["b_flushed"] == pytest.approx(1.0)
    assert out["drained"] == pytest.approx(1.5)
    assert client._outstanding == []


def test_write_behind_span_and_counter_reach_the_live_plane():
    """The names `repro top`/`repro report` resolve: the labeled
    counter is scraped by the live store and the span lands in the
    ``pcache`` category, parent of the WRITE submits it caused."""
    from repro.obs import LiveObs
    from repro.pipeline import build_cluster

    cluster = build_cluster(dict(n_nodes=2, procs_per_node=1, dram_mb=8,
                                 nvme_mb=16, page_size=PAGE))
    cluster.tracer.enabled = True
    obs = LiveObs.attach(cluster, window=1e-4)
    n = 4 * PAGE

    def app(ctx):
        vec = yield from ctx.mm.vector("obs", dtype=np.uint8, size=n)
        if ctx.rank == 0:
            yield from vec.tx_begin(SeqTx(0, n, MM_WRITE_ONLY))
            for off in range(0, n, PAGE):
                yield from vec.write_range(
                    off, np.full(PAGE, off // PAGE, np.uint8))
            yield from vec.tx_end()
            yield from vec.flush(wait=True)
        yield from ctx.barrier()

    cluster.run(app)
    series = [(name, ls) for name, ls in obs.store.counters
              if name == "pcache_write_behind"]
    assert [dict(ls)["kind"] for _name, ls in series] == ["evict"]
    assert obs.store.delta(*series[0]) == 4
    spans = [s for s in cluster.tracer.spans
             if s.category == "pcache" and s.name == "write_behind"]
    assert len(spans) == 4
    assert all(s.attrs["kind"] == "evict" and s.attrs["count"] == 1
               for s in spans)
    ids = {s.span_id for s in spans}
    submits = [s for s in cluster.tracer.spans
               if s.category == "rpc" and s.name == "submit:write"]
    assert len(submits) == 4
    assert all(s.parent_id in ids for s in submits)


def test_write_only_stream_is_not_hauled_back_to_its_writer():
    """Regression: Algorithm 1's prefetch half scored the pages *ahead*
    of every stream 1.0 with the caller's node as hint — also for a
    stream without a READ bit, whose pages ahead are about to be
    overwritten whole. The organizer max-merges inside its score
    window, so the 0 sent when the page was written behind never
    replaced that 1, and the next sweep relocated each freshly written
    page from its hashed owner to the node that wrote it. On a
    DRAM-only deployment (nowhere to demote to) a write-only stream
    moves nothing at all."""
    k = 24
    n = k * PAGE
    data = (np.arange(n) % 239).astype(np.uint8)

    def app(ctx):
        vec = yield from ctx.mm.vector("ckpt", dtype=np.uint8, size=n)
        if ctx.rank == 0:
            vec.bound_memory(n)     # the whole stream is "ahead" at first
            yield from vec.tx_begin(SeqTx(0, n, MM_WRITE_ONLY))
            for off in range(0, n, PAGE // 2):
                yield from vec.write_range(off, data[off:off + PAGE // 2])
            yield from vec.tx_end()
            yield from vec.flush(wait=True)
        yield ctx.sim.timeout(2.5 * organizer.SWEEP_PERIOD)

    c = testbed(n_nodes=2, procs_per_node=1, nvme_mb=0, page_size=PAGE)
    c.run(app)
    shared = c.system.vectors["ckpt"]
    assert shared.policy.local_affinity is False    # hash-placed
    where = {p: c.system.hermes.mdm.peek("ckpt", p).node for p in range(k)}
    assert where == {p: shared.owner_node(p, 0) for p in range(k)}
    assert set(where.values()) == {0, 1}
    assert c.monitor.counter("organizer.scores") > 0
    assert c.monitor.counter("hermes.moves") == 0
