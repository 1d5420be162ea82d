"""The asynchronous write path, end to end.

An async submission (``wait=False``: what eviction, write-behind,
``flush`` and ``close`` issue) is *handed off*: the caller pays the
copy out of its pcache and goes on, a background shipment carries the
task to the owner. These tests pin what the hand-off must keep --
per-destination order, read-your-writes, the commit point, failure
delivery, DRAM that stays charged while the bytes are still on the
node, quiescence -- and that the owner's worker pool grows where the
burst arrives, not at the next controller tick.
"""

import numpy as np
import pytest

from benchmarks.common import testbed
from repro.chaos.checker import check_conservation
from repro.chaos.inject import ChaosInjector
from repro.chaos.plan import ChaosPlan, Fault
from repro.core import (
    MM_READ_WRITE,
    MM_WRITE_ONLY,
    RandTx,
    SeqTx,
    organizer,
    runtime,
)
from repro.core.memtask import MemoryTask, TaskKind
from repro.sim import AllOf, Event
from tests.core.conftest import build_system, run_procs

PAGE = 256 * 1024
HOG_BYTES = 8 * 1024 * 1024


def _system(n_nodes=2, **cfg):
    cfg.setdefault("page_size", PAGE)
    cfg.setdefault("pcache_size", 16 * PAGE)
    sim, system = build_system(n_nodes=n_nodes, dram_mb=64, **cfg)
    system.organizer.stop()
    return sim, system


def _page_owned_by(shared, owner, client_node=0, start=0):
    """First page at or after ``start`` that hashes to ``owner``."""
    return next(p for p in range(start, shared.n_pages)
                if shared.owner_node(p, client_node) == owner)


def _saturate_nic(sim, system, src=0, dst=1, until=None):
    """Two processes that keep ``src``'s NIC held and queued for."""
    stop = until if until is not None else Event(sim)

    def hog():
        while not stop.triggered:
            yield from system.network.transfer(src, dst, HOG_BYTES)

    for i in range(2):
        sim.process(hog(), name=f"hog{i}")
    return stop


def _chaos(system, *faults, seed=0):
    plan = ChaosPlan(seed=seed, n_nodes=len(system.dmshs), horizon=1.0,
                     faults=list(faults))
    return ChaosInjector(system, plan).install()


def _write_task(name, page, value, nbytes=PAGE, client_node=0):
    return MemoryTask(kind=TaskKind.WRITE, vector_name=name, page_idx=page,
                      client_node=client_node,
                      fragments=[(0, bytes([value]) * nbytes)])


# -- (i) the writer pays the copy, nothing else ------------------------------

@pytest.mark.parametrize("how", ["evict_page", "write_behind"])
def test_dirty_page_on_a_remote_owner_costs_its_writer_one_memcpy(how):
    """With the node's NIC saturated by someone else, evicting (or
    writing behind) a dirty 256 KB page owned by another node takes
    its writer exactly ``nbytes / memcpy_bw`` of simulated time."""
    sim, system = _system()
    client = system.client(rank=0, node=0)
    data = np.full(PAGE, 7, np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=32 * PAGE)
        page = _page_owned_by(vec.shared, owner=1)
        stop = _saturate_nic(sim, system)
        yield sim.timeout(1e-4)         # the hogs hold the NIC by now
        if how == "evict_page":
            # No stream promise: the page stays dirty until evicted.
            yield from vec.tx_begin(RandTx(0, 32 * PAGE, 1, MM_READ_WRITE))
            yield from vec.write_range(page * PAGE, data)
            t0 = sim.now
            yield from vec.evict_page(page)
        else:
            yield from vec.tx_begin(SeqTx(page * PAGE, PAGE, MM_WRITE_ONLY))
            t0 = sim.now
            yield from vec.write_range(page * PAGE, data)
        out["spent"] = sim.now - t0
        out["in_transit"] = system.in_transit
        yield from client.drain()
        out["drained_after"] = sim.now - t0
        stop.succeed()
        yield from vec.tx_end()

    run_procs(sim, app())
    # (up to the rounding of the clock it was read from)
    assert out["spent"] == pytest.approx(PAGE / system.memcpy_bw, rel=1e-9)
    assert out["in_transit"] == 1       # handed off, not waited for
    # Non-vacuous: the shipment itself queued behind megabytes.
    assert out["drained_after"] > HOG_BYTES / 5e9
    assert system.monitor.counter("scache.writes") == 1


# -- (ii) read-your-writes ---------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_sync_read_goes_behind_the_clients_own_async_writes(seed):
    """Two async writes to one page, then a waited read by the same
    client: the second value, with the NIC saturated and every
    transfer jittered by a seeded chaos ``delay`` window."""
    sim, system = _system()
    _chaos(system, Fault(kind="delay", time=0.0, duration=10.0,
                         param=5e-4), seed=seed)
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=32 * PAGE)
        page = _page_owned_by(vec.shared, owner=1)
        stop = _saturate_nic(sim, system)
        yield sim.timeout(1e-4)
        yield from client.submit(_write_task("v", page, 0xAA), wait=False)
        yield from client.submit(_write_task("v", page, 0xBB, nbytes=64),
                                 wait=False)
        raw = yield from client.submit(MemoryTask(
            kind=TaskKind.READ, vector_name="v", page_idx=page,
            client_node=0, region=(0, 128)), wait=True)
        # The same through the vector API: evict twice, read back.
        other = _page_owned_by(vec.shared, owner=1, start=page + 1)
        yield from vec.tx_begin(RandTx(0, 32 * PAGE, 1, MM_READ_WRITE))
        for value in (1, 2):
            yield from vec.write_range(other * PAGE,
                                       np.full(PAGE, value, np.uint8))
            yield from vec.evict_page(other)
        got = yield from vec.read_range(other * PAGE, PAGE)
        stop.succeed()
        yield from vec.tx_end()
        yield from client.drain()
        return bytes(raw), got

    ((raw, got),) = run_procs(sim, app())
    assert raw == b"\xbb" * 64 + b"\xaa" * 64
    assert np.array_equal(got, np.full(PAGE, 2, np.uint8))
    assert system.monitor.counter("chaos.delays") > 0


# -- (iii) order per destination, independence across destinations -----------

def test_async_writes_reach_one_owner_in_submission_order():
    """Jitter would let a later transfer overtake an earlier one; each
    shipment waits for its predecessor's enqueue, so the owner's queue
    sees submission order."""
    sim, system = _system()
    _chaos(system, Fault(kind="delay", time=0.0, duration=10.0,
                         param=5e-4), seed=1)
    client = system.client(rank=0, node=0)
    arrived = []
    rt = system.runtimes[1]
    enqueue = rt.submit
    rt.submit = lambda task: (arrived.append(task), enqueue(task))
    tasks = []

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=64 * PAGE)
        page, t0 = -1, sim.now
        for i in range(12):
            page = _page_owned_by(vec.shared, owner=1, start=page + 1)
            # Shrinking payloads: without the chain the small late
            # ones would win the race.
            task = _write_task("v", page, i, nbytes=PAGE >> i)
            tasks.append(task)
            yield from client.submit(task, wait=False)
        assert sim.now == t0            # twelve hand-offs, no time
        yield from client.drain()
        return t0

    (t0,) = run_procs(sim, app())
    assert arrived == tasks
    times = [t.submit_time for t in tasks]
    assert times == sorted(times) and times[0] > t0


def test_writes_to_two_owners_do_not_wait_for_each_other():
    """Node 1 is cut off for 10 ms; what is handed off to node 2 in
    the meantime is enqueued there long before the cut heals, and a
    second write to node 1 still lands behind the first."""
    sim, system = _system(n_nodes=3)
    _chaos(system, Fault(kind="partition", time=0.0, duration=0.01,
                         nodes=(1,)))
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=64 * PAGE)
        p1 = _page_owned_by(vec.shared, owner=1)
        p1b = _page_owned_by(vec.shared, owner=1, start=p1 + 1)
        p2 = _page_owned_by(vec.shared, owner=2)
        a = _write_task("v", p1, 1)
        b = _write_task("v", p2, 2)
        c = _write_task("v", p1b, 3)
        for task in (a, b, c):
            yield from client.submit(task, wait=False)
        yield from client.drain()
        return a.submit_time, b.submit_time, c.submit_time

    ((t_a, t_b, t_c),) = run_procs(sim, app())
    assert t_b < 1e-3 < 0.01 <= t_a < t_c


# -- the commit point ---------------------------------------------------------

def test_flush_returns_with_every_handoff_enqueued_at_its_owner():
    """A write may become visible before ``tx_end``, never after the
    writer's ``flush`` returns (the checker's visibility window): whoever
    reads once ``tx_end`` has returned queues behind the write at the
    page's worker, although nobody waited for the write itself."""
    sim, system = _system()
    writer = system.client(rank=0, node=0)
    reader = system.client(rank=1, node=1)
    committed = Event(sim)
    data = np.full(PAGE, 9, np.uint8)
    out = {}

    def write():
        vec = yield from writer.vector("v", dtype=np.uint8, size=32 * PAGE)
        page = out["page"] = _page_owned_by(vec.shared, owner=1)
        stop = _saturate_nic(sim, system)
        yield sim.timeout(1e-4)
        yield from vec.tx_begin(SeqTx(page * PAGE, PAGE, MM_READ_WRITE))
        yield from vec.write_range(page * PAGE, data)   # written behind
        out["handed_off"] = system.in_transit
        yield from vec.tx_end()
        out["in_transit_at_commit"] = system.in_transit
        out["serviced_at_commit"] = system.monitor.counter("scache.writes")
        committed.succeed()
        stop.succeed()
        yield from writer.drain()

    def read():
        yield committed
        vec = yield from reader.vector("v", dtype=np.uint8)
        page = out["page"]
        yield from vec.tx_begin(SeqTx(page * PAGE, PAGE, MM_READ_WRITE))
        got = yield from vec.read_range(page * PAGE, PAGE)
        yield from vec.tx_end()
        return got

    _w, got = run_procs(sim, write(), read())
    assert out["handed_off"] == 1
    assert out["in_transit_at_commit"] == 0
    assert out["serviced_at_commit"] == 0   # enqueued, not waited for
    assert np.array_equal(got, data)


# -- (iv) a shipment that raises ---------------------------------------------

@pytest.mark.parametrize("how", ["drain", "flush"])
def test_failed_shipment_surfaces_where_the_writer_waits(how):
    sim, system = _system()
    client = system.client(rank=0, node=0)
    transfer = system.network.transfer

    def broken(src, dst, nbytes, **kw):
        if (src, dst) == (0, 1) and nbytes > PAGE // 2:
            yield sim.timeout(1e-3)
            raise ConnectionError("wire down")
        yield from transfer(src, dst, nbytes, **kw)

    system.network.transfer = broken
    dram = system.dmshs[0].tiers[0]
    out = {}

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=32 * PAGE)
        page = _page_owned_by(vec.shared, owner=1)
        out["base"], t0 = dram.used, sim.now
        yield from vec.tx_begin(SeqTx(page * PAGE, PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(page * PAGE, np.ones(PAGE, np.uint8))
        assert sim.now - t0 < 1e-3      # handed off before it failed
        with pytest.raises(ConnectionError, match="wire down"):
            if how == "drain":
                yield from client.drain()
            else:
                yield from vec.flush(wait=True)
        out["after"] = sim.now - t0
        vec.tx = None
        # The path is usable again, and nothing is left behind.
        yield from client.drain()

    run_procs(sim, app())
    assert out["after"] == pytest.approx(1e-3 + PAGE / system.memcpy_bw)
    assert client._outstanding == []
    assert system.in_transit == 0
    assert dram.used == out["base"]
    assert not any(rt.inflight for rt in system.runtimes)


# -- (v) the bytes stay charged while they are on the node -------------------

def test_node_dram_covers_the_bytes_in_flight_and_comes_back():
    sim, system = _system()
    client = system.client(rank=0, node=0)
    dram = system.dmshs[0].tiers[0]
    inflight = system.monitor.metrics.gauge("pcache_inflight_bytes",
                                            node=0)
    seen = []

    def watch(stop):
        while not stop.triggered:
            assert dram.used >= inflight.value >= 0
            assert check_conservation(system) == []
            seen.append(inflight.value)
            yield sim.timeout(2e-5)

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=64 * PAGE)
        base = dram.used
        pages, page = [], -1
        for _ in range(6):
            page = _page_owned_by(vec.shared, owner=1, start=page + 1)
            pages.append(page)
        stop = Event(sim)
        sim.process(watch(stop), name="watch")
        yield from vec.tx_begin(RandTx(0, 64 * PAGE, 1, MM_READ_WRITE))
        for p in pages:
            yield from vec.write_range(p * PAGE, np.ones(PAGE, np.uint8))
        for p in pages:
            yield from vec.evict_page(p)
        # Six frames dropped from the handle, still on the node.
        assert vec.pcache_used == 0
        assert inflight.value >= 5 * PAGE
        assert dram.used - base == inflight.value
        yield from client.drain()
        yield from vec.tx_end()
        stop.succeed()
        return base

    (base,) = run_procs(sim, app())
    assert max(seen) >= 5 * PAGE and inflight.value == 0
    assert dram.used == base
    assert system.monitor.counter("pcache.evictions_dirty") == 6


# -- (vi) in flight from the hand-off ----------------------------------------

def test_cluster_run_waits_for_a_handed_off_write():
    """The app returns right after an eviction, while its shipment
    still waits for the NIC: no runtime has heard of the task yet, but
    ``cluster.run`` (``system.quiesce``) must not return before it is
    serviced."""
    c = testbed(n_nodes=2, procs_per_node=1, page_size=PAGE)
    system = c.system
    system.organizer.stop()
    seen = {}

    def app(ctx):
        vec = yield from ctx.mm.vector("v", dtype=np.uint8, size=32 * PAGE)
        if ctx.rank:
            return
        page = _page_owned_by(vec.shared, owner=1)
        _saturate_nic(ctx.sim, system, until=ctx.sim.timeout(0.02))
        yield ctx.sim.timeout(1e-4)
        yield from vec.tx_begin(RandTx(0, 32 * PAGE, 1, MM_READ_WRITE))
        yield from vec.write_range(page * PAGE, np.ones(PAGE, np.uint8))
        yield from vec.evict_page(page)
        seen.update(in_transit=system.in_transit,
                    idle=not any(rt.inflight for rt in system.runtimes))

    c.run(app)
    assert seen == {"in_transit": 1, "idle": True}
    assert system.in_transit == 0
    assert system.monitor.counter("scache.writes") == 1


def test_cluster_run_ends_when_the_last_write_behind_lands():
    """The app returns with its eviction still on the wire: the run
    ends at the instant the owner finishes servicing it, not at the
    next organizer tick after that."""
    c = testbed(n_nodes=2, procs_per_node=1, page_size=PAGE, trace=True)
    c.system.organizer.stop()
    returned = {}

    def app(ctx):
        vec = yield from ctx.mm.vector("v", dtype=np.uint8, size=32 * PAGE)
        if ctx.rank:
            return
        page = _page_owned_by(vec.shared, owner=1)
        yield from vec.tx_begin(RandTx(0, 32 * PAGE, 1, MM_READ_WRITE))
        yield from vec.write_range(page * PAGE, np.ones(PAGE, np.uint8))
        yield from vec.evict_page(page)
        returned["t"] = ctx.sim.now

    res = c.run(app)
    (write,) = [s for s in c.tracer.spans if s.name == "exec:write"]
    assert returned["t"] < write.end
    assert res.runtime == write.end
    assert res.runtime < organizer.SWEEP_PERIOD


@pytest.mark.parametrize("how", ["read_ahead", "unwaited_read", "score"])
def test_cluster_run_ends_when_the_last_unwaited_message_lands(how):
    """The app returns with traffic on the wire that nobody waits for:
    a read-ahead fill, the reply of a read submitted without waiting,
    a SCORE shipment. The run ends when the last of it has landed --
    nothing lands after it, so its bytes are in the run's stats -- and
    not at the next organizer tick."""
    c = testbed(n_nodes=2, procs_per_node=1, page_size=PAGE)
    system = c.system
    system.organizer.stop()
    out = {}

    def app(ctx):
        vec = yield from ctx.mm.vector("v", dtype=np.uint8, size=32 * PAGE)
        if ctx.rank:
            return
        page = _page_owned_by(vec.shared, owner=1)
        yield from vec.write_range(page * PAGE, np.ones(PAGE, np.uint8))
        yield from vec.flush(wait=True)
        vec.pcache.release(vec.pcache.detach(page), dirty=False)
        if how == "read_ahead":
            vec.prefetch_page(page)
        elif how == "unwaited_read":
            yield from ctx.mm.submit(MemoryTask(
                kind=TaskKind.READ, vector_name="v", page_idx=page,
                client_node=0, region=(0, PAGE)), wait=False)
        else:
            yield from ctx.mm.submit_scores(vec.shared, [(page, 1.0, 0)])
        out["returned"] = ctx.sim.now

    res = c.run(app)
    moved = system.network.bytes_moved
    c.sim.run(until=c.sim.now + 1.0)
    assert system.network.bytes_moved == moved
    assert out["returned"] < res.runtime < organizer.SWEEP_PERIOD


# -- (vii) the pool grows where the burst arrives ----------------------------

def test_burst_grows_the_pool_before_the_first_task_completes():
    sim, system = _system(page_size=64 * 1024)
    cfg = system.config
    rt = system.runtimes[0]
    client = system.client(rank=0, node=0)
    first_done = {}

    def app():
        yield from client.vector("v", dtype=np.uint8, size=64 * 65536)
        t0 = sim.now
        tasks = [_write_task("v", p, 1, nbytes=65536)
                 for p in range(4 * cfg.workers_max)]
        for task in tasks:
            task.done = Event(sim)
            rt.submit(task)
        # Same instant: more than two tasks per core were waiting, so
        # the pool is already at its cap.
        assert sim.now == t0
        assert rt.high_cores.capacity == cfg.workers_max
        first = Event(sim)
        for task in tasks:
            task.done.callbacks.append(
                lambda _evt: first.triggered or first.succeed())
        yield first
        first_done["after"] = sim.now - t0
        yield AllOf(sim, [t.done for t in tasks])
        return t0

    (t0,) = run_procs(sim, app())
    grown = cfg.workers_max - cfg.workers_min
    assert grown > 0 and 0 < first_done["after"] < runtime.SCALE_PERIOD
    # Counted once per core.
    assert system.monitor.counter("rt0.scale_up") == grown
    cores = system.monitor.metrics.gauge("rt_cores", node=0, pool="high")
    assert cores.series.samples[0] == (0.0, cfg.workers_min)
    assert cores.series.samples[-1] == (t0, cfg.workers_max)
    assert system.monitor.metrics.gauge(
        "rt_cores", node=0, pool="low").value == cfg.low_latency_workers
