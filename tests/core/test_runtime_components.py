"""Unit tests for runtime scheduling, organizer, stager, MDM cache."""

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx, runtime, stager
from repro.core.errors import MegaMmapError
from repro.core.memtask import BatchTask, MemoryTask, TaskKind
from repro.core.organizer import SCORE_WINDOW
from repro.core.runtime import SCALE_DOWN_PERIODS
from repro.sim import Event
from tests.core.conftest import build_system, run_procs


# -- runtime scheduling -------------------------------------------------------

def test_same_page_tasks_serialize_in_order(dsm):
    """Writes then a read to one page must execute in submission
    order even across task sizes (read-after-write)."""
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=4096)
        # Large write (whole page), then tiny write, then read.
        t1 = MemoryTask(kind=TaskKind.WRITE, vector_name="v", page_idx=0,
                        client_node=0, fragments=[(0, b"\xaa" * 4096)])
        t2 = MemoryTask(kind=TaskKind.WRITE, vector_name="v", page_idx=0,
                        client_node=0, fragments=[(0, b"\xbb")])
        t3 = MemoryTask(kind=TaskKind.READ, vector_name="v", page_idx=0,
                        client_node=0, region=(0, 2))
        yield from client.submit(t1, wait=False)
        yield from client.submit(t2, wait=False)
        out = yield from client.submit(t3, wait=True)
        return out

    (out,) = run_procs(sim, app())
    assert out == b"\xbb\xaa"


def test_single_read_replies_after_its_service():
    """A single remote READ's reply leaves after its service: with one
    low-latency core on the owner, a second remote read starts its
    service while the first one's reply is still on the wire."""
    sim, system = build_system(low_latency_workers=1)
    system.tracer.enabled = True
    writer = system.client(rank=0, node=0)
    reader = system.client(rank=1, node=1)
    done = []

    def write():
        vec = yield from writer.vector("r", dtype=np.uint8, size=8 * 4096)
        pages = [p for p in range(8) if vec.shared.owner_node(p, 1) == 0]
        for p in pages:
            yield from writer.submit(MemoryTask(
                kind=TaskKind.WRITE, vector_name="r", page_idx=p,
                client_node=0, fragments=[(0, bytes([p]) * 4096)]))
        return pages[:2]

    def read(page):
        out = yield from reader.submit(MemoryTask(
            kind=TaskKind.READ, vector_name="r", page_idx=page,
            client_node=1, region=(0, 64)))
        done.append(sim.now)
        return out

    (pages,) = run_procs(sim, write())
    assert len(pages) == 2
    t0 = sim.now
    assert run_procs(sim, *map(read, pages)) == [
        bytes([p]) * 64 for p in pages]
    services = sorted(s.start for s in system.tracer.spans
                      if s.name == "exec:read" and s.start >= t0)
    assert len(services) == 2
    assert services[1] < min(done)


def test_dynamic_core_scaling_grows_under_load(monkeypatch):
    # 64 KB pages so the writes exceed the 16 KB low-latency split and
    # land on the dynamically scaled high-latency core pool; a short
    # controller period so the backlog is observed while it exists.
    monkeypatch.setattr(runtime, "SCALE_PERIOD", 1e-5)
    sim, system = build_system(page_size=64 * 1024)
    client = system.client(rank=0, node=0)
    rt = system.runtimes[0]
    cfg = system.config
    assert rt.high_cores.capacity == cfg.workers_min

    def app():
        vec = yield from client.vector("v", dtype=np.uint8,
                                       size=64 * 65536)
        # Swamp the runtime with large writes.
        for p in range(64):
            t = MemoryTask(kind=TaskKind.WRITE, vector_name="v",
                           page_idx=p, client_node=0,
                           fragments=[(0, b"\0" * 65536)])
            yield from client.submit(t, wait=False)
        yield from client.drain()
        return rt.high_cores.capacity

    run_procs(sim, app())
    assert system.monitor.counter("rt0.scale_up") > 0


def test_scaling_controller_shrinks_on_sustained_low_backlog():
    """Regression: the controller only shrank the high-latency pool
    when the backlog was *exactly zero*, so any trickle of tasks
    pinned it at ``workers_max`` forever. It must shrink after
    ``SCALE_DOWN_PERIODS`` consecutive low-backlog (< capacity)
    observations — and a burst in between must reset the streak."""
    sim, system = build_system()
    rt = system.runtimes[0]
    cfg = system.config

    # Grow to the max under heavy backlog.
    while rt.high_cores.capacity < cfg.workers_max:
        rt._scale_tick(backlog=2 * rt.high_cores.capacity + 1)
    assert rt.high_cores.capacity == cfg.workers_max
    assert system.monitor.counter("rt0.scale_up") > 0

    # A nonzero trickle (backlog 1 < capacity) for N periods shrinks.
    for _ in range(SCALE_DOWN_PERIODS - 1):
        rt._scale_tick(backlog=1)
    assert rt.high_cores.capacity == cfg.workers_max  # not yet
    rt._scale_tick(backlog=1)
    assert rt.high_cores.capacity == cfg.workers_max - 1
    assert system.monitor.counter("rt0.scale_down") == 1

    # A medium burst (capacity <= backlog <= 2*capacity) resets the
    # streak without growing.
    rt._scale_tick(backlog=1)
    rt._scale_tick(backlog=1)
    rt._scale_tick(backlog=rt.high_cores.capacity + 1)
    rt._scale_tick(backlog=1)
    rt._scale_tick(backlog=1)
    assert rt.high_cores.capacity == cfg.workers_max - 1  # streak reset
    rt._scale_tick(backlog=1)
    assert rt.high_cores.capacity == cfg.workers_max - 2

    # Sustained idleness bottoms out at workers_min, never below.
    for _ in range(10 * SCALE_DOWN_PERIODS):
        rt._scale_tick(backlog=0)
    assert rt.high_cores.capacity == cfg.workers_min


def test_failed_task_propagates_to_waiter(dsm):
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=4096)
        bad = MemoryTask(kind=TaskKind.WRITE, vector_name="v",
                         page_idx=0, client_node=0,
                         fragments=[(4000, b"\0" * 1000)])  # overflow
        try:
            yield from client.submit(bad, wait=True)
        except Exception as exc:
            return type(exc).__name__

    (name,) = run_procs(sim, app())
    assert name == "MegaMmapError"


def test_failures_are_counted_under_the_task_or_batch_kind(dsm):
    """A failing task lands in ``rt_task_failures`` under its kind, a
    failing batch under ``batch:<kind>`` -- the labels chaos triage
    reads. A read batch split over two worker FIFOs fails in both
    parts and still counts once: one request, one failure."""
    sim, system = dsm
    rt = system.runtimes[0]
    name = "no such vector"
    other = next(p for p in range(1, 64)
                 if rt._store_idx(name, p) != rt._store_idx(name, 0))

    def read(kind, pages):
        tasks = [MemoryTask(kind=kind, vector_name=name, page_idx=p,
                            client_node=0) for p in pages]
        return BatchTask(kind=kind, vector_name=name, client_node=0,
                         tasks=tasks)

    task = MemoryTask(kind=TaskKind.READ, vector_name=name, page_idx=0,
                      client_node=0)
    units = [task, read(TaskKind.READ, (0, other)),
             read(TaskKind.OBJ_READ, (0, other))]

    def app(unit):
        unit.done = Event(sim)
        system.runtimes[0].submit(unit)
        try:
            yield unit.done
        except MegaMmapError:
            return "failed"

    assert run_procs(sim, *map(app, units)) == ["failed"] * 3
    for kind in ("read", "batch:read", "batch:obj_read"):
        assert system.monitor.metrics.counter(
            "rt_task_failures", node=0, kind=kind,
            error="MegaMmapError").value == 1
    assert system.runtimes[0].inflight == 0


# -- organizer ----------------------------------------------------------------

def test_organizer_demotes_zero_scored_pages():
    sim, system = build_system(dram_mb=4, nvme_mb=16)
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=8192)
        yield from vec.tx_begin(SeqTx(0, 8192, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(8192, dtype=np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        # Wait out the score window first: the tx itself scored these
        # pages hot, and the organizer max-merges within the window.
        yield sim.timeout(2 * SCORE_WINDOW)
        yield from client.submit_scores(vec.shared,
                                        [(0, 0.0, 0), (1, 0.0, 0)])
        yield from client.drain()
        yield sim.timeout(1.0)
        infos = [system.hermes.mdm.peek("v", p) for p in (0, 1)]
        return [i.tier for i in infos]

    (tiers,) = run_procs(sim, app())
    assert all(t in ("nvme", "hdd") for t in tiers)


def test_organizer_score_window_takes_max(dsm):
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=4096)
        system.organizer.ingest(vec.shared, [(0, 0.2, 0)])
        system.organizer.ingest(vec.shared, [(0, 0.9, 1)])
        system.organizer.ingest(vec.shared, [(0, 0.4, 0)])
        pend = system.organizer._pending[("v", 0)]
        yield sim.timeout(0)
        return pend.score, pend.node_hint

    (out,) = run_procs(sim, app())
    assert out == (0.9, 1)


# -- stager ---------------------------------------------------------------------

def test_background_flusher_persists_without_explicit_sync(
        tmp_path, monkeypatch):
    monkeypatch.setattr(stager, "FLUSH_PERIOD", 0.01)
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    url = f"posix://{tmp_path}/bg.bin"
    data = np.arange(2048, dtype=np.float32)

    def app():
        vec = yield from client.vector(url, dtype=np.float32, size=2048)
        yield from vec.tx_begin(SeqTx(0, 2048, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        # No persist() call: the active flusher should stage out dirty
        # pages during "computation".
        yield sim.timeout(2.0)
        return len(vec.shared.dirty_pages)

    (dirty,) = run_procs(sim, app())
    assert dirty == 0
    on_disk = np.fromfile(tmp_path / "bg.bin", dtype=np.float32)
    assert np.array_equal(on_disk[:2048], data)


def test_stage_out_zeroes_page_score(tmp_path):
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    url = f"posix://{tmp_path}/s.bin"

    def app():
        vec = yield from client.vector(url, dtype=np.uint8, size=4096)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(4096, dtype=np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        yield from system.stager.stage_out(vec.shared, [0], 0)
        return system.hermes.mdm.peek(url, 0).score

    (score,) = run_procs(sim, app())
    assert score == 0.0


def test_stage_in_reads_whole_stripe_once(tmp_path):
    sim, system = build_system()
    data = np.arange(16 * 1024, dtype=np.uint8)  # 4 pages of 4096
    path = tmp_path / "in.bin"
    path.write_bytes(data.tobytes())
    client = system.client(rank=0, node=0)
    url = f"posix://{path}"

    def app():
        vec = yield from client.vector(url, dtype=np.uint8)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_READ_ONLY))
        yield from vec.read_range(0, 1)  # fault page 0
        yield from vec.tx_end()
        # All 4 pages of the stripe got materialized by one fault.
        return [system.hermes.mdm.peek(url, p) is not None
                for p in range(4)]

    (present,) = run_procs(sim, app())
    assert all(present)
    assert system.monitor.counter("stager.bytes_in") == 16 * 1024
    assert system.monitor.counter("stager.requests_in") == 1


# -- MDM cache -----------------------------------------------------------------

def test_mdm_cache_hits_skip_rpcs(dsm):
    sim, system = dsm
    mdm = system.hermes.mdm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.uint8, size=4096)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(4096, dtype=np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        before = mdm.rpcs
        for _ in range(5):
            yield from system.hermes.get(0, "v", 0)
        return mdm.rpcs - before

    (extra,) = run_procs(sim, app())
    assert extra == 0
    assert mdm.cache_hits >= 5


def test_mdm_cache_invalidated_on_delete(dsm):
    sim, system = dsm

    def app():
        yield from system.hermes.put(0, "b", "k", b"x" * 10)
        yield from system.hermes.get(0, "b", "k")
        yield from system.hermes.delete(0, "b", "k")
        info = yield from system.hermes.mdm.try_get(0, "b", "k")
        return info

    (info,) = run_procs(sim, app())
    assert info is None
