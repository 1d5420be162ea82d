"""Stage-out is charged to the PFS servers that hold the page's bytes,
not to whichever holds the file's first stripe; a persist writes each
server's pages in one request, and a run keeps claim-before-capture."""

import numpy as np

from repro.core import MM_WRITE_ONLY, SeqTx
from tests.core.conftest import run_procs
from tests.core.test_stage_in import build


def persist_pages(sim, system, url, page, pages, n_pages):
    """Write ``pages`` of a fresh ``n_pages``-page file and persist."""
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector(url, dtype=np.uint8,
                                       size=n_pages * page)
        for p in pages:
            yield from vec.tx_begin(SeqTx(p * page, page, MM_WRITE_ONLY))
            yield from vec.write_range(
                p * page, np.full(page, p + 1, dtype=np.uint8))
            yield from vec.tx_end()
        yield from vec.persist()

    run_procs(sim, app())


def test_pages_in_different_stripes_go_to_different_servers(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    page, stripe = 4096, 64 * 1024
    sim, system = build(page_size=page, stripe=stripe)
    persist_pages(sim, system, "posix://./out.bin", page, [3, 16], 32)
    # Page 3 lies in stripe 0 (server 0), page 16 in stripe 1.
    assert [d.bytes_written for d in system.pfs.devices] == [page, page]
    assert system.monitor.counter("stager.bytes_out") == 2 * page
    on_disk = np.fromfile(tmp_path / "out.bin", dtype=np.uint8)
    assert (on_disk[3 * page:4 * page] == 4).all()
    assert (on_disk[16 * page:17 * page] == 17).all()
    assert not any(system.stager._queued.values())


def test_page_straddling_two_stripes_charges_both_servers(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    page, stripe = 3000, 8192          # page 2 = [6000, 9000) straddles
    sim, system = build(page_size=page, stripe=stripe)
    persist_pages(sim, system, "posix://./out.bin", page, [2], 10)
    assert [d.bytes_written for d in system.pfs.devices] \
        == [stripe - 2 * page, 3 * page - stripe]
    assert not any(system.stager._queued.values())


def test_persist_writes_each_server_run_in_one_request(
        tmp_path, monkeypatch):
    """A fully dirty eight-stripe vector: each server's four stripes
    are back to back in its datafile, so the persist is one request
    and one device operation per server, the two servers at once, and
    the file is bit-exact."""
    monkeypatch.chdir(tmp_path)
    page, stripe = 4096, 64 * 1024
    sim, system = build(page_size=page, stripe=stripe, flush_period=1e9)
    system.tracer.enabled = True
    n_pages = 8 * stripe // page
    persist_pages(sim, system, "posix://./out.bin", page,
                  range(n_pages), n_pages)
    mon = system.monitor
    assert mon.counter("stager.requests_out") == 2
    assert mon.counter("stager.bytes_out") == 8 * stripe
    assert [mon.counter(f"{d.name}.requests")
            for d in system.pfs.devices] == [1, 1]
    assert [d.bytes_written for d in system.pfs.devices] \
        == [4 * stripe, 4 * stripe]
    (s0, s1) = [sp for sp in system.tracer.spans
                if sp.name == "stage_out"]
    assert s0.start < s1.end and s1.start < s0.end
    assert s0.attrs["pages"] == s1.attrs["pages"] == n_pages // 2
    on_disk = np.fromfile(tmp_path / "out.bin", dtype=np.uint8)
    assert np.array_equal(on_disk, np.repeat(
        np.arange(1, n_pages + 1, dtype=np.uint8), page))
    assert not any(system.stager._queued.values())


def test_write_during_a_run_stage_out_is_persisted_by_the_next_pass(
        tmp_path, monkeypatch):
    """A run claims each page's dirty bit before it captures the page:
    a write that lands while the run's backend write is in flight
    re-dirties its page, and the next persist writes the fresh bytes
    (and only that page)."""
    from repro.core.memtask import MemoryTask, TaskKind
    from repro.sim import Lock

    monkeypatch.chdir(tmp_path)
    page, stripe = 4096, 64 * 1024
    sim, system = build(page_size=page, stripe=stripe, flush_period=1e9)
    url = "posix://./race.bin"
    client = system.client(rank=0, node=0)

    def writer():
        vec = yield from client.vector(url, dtype=np.uint8,
                                       size=4 * page)
        yield from vec.tx_begin(SeqTx(0, 4 * page, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.full(4 * page, 1, np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)            # scache yes, backend no

    run_procs(sim, writer())
    svec = system.vectors[url]
    assert svec.dirty_pages == {0, 1, 2, 3}
    gate = Lock(sim)
    run_procs(sim, gate.held())                    # pre-held by the test
    charge = system.stager._charge_backend

    def gated(node, ranges, write):
        yield gate.acquire()
        gate.release()
        yield from charge(node, ranges, write)

    system.stager._charge_backend = gated
    run = sim.process(system.stager.stage_out(svec, [0, 1, 2, 3], 0))
    sim.run(until=sim.now + 1e-3)                  # parked at the gate
    assert not svec.dirty_pages

    def overlap():
        task = MemoryTask(kind=TaskKind.WRITE, vector_name=svec.name,
                          page_idx=2, client_node=0,
                          fragments=[(0, bytes([9]) * page)])
        yield from client.submit(task, wait=True)

    run_procs(sim, overlap())
    gate.release()
    sim.run(until=run)
    assert svec.dirty_pages == {2}
    on_disk = np.fromfile(tmp_path / "race.bin", dtype=np.uint8)
    assert (on_disk == 1).all()                    # the stale snapshot
    system.stager._charge_backend = charge
    sim.run(until=sim.process(system.stager.persist(svec, 0)))
    on_disk = np.fromfile(tmp_path / "race.bin", dtype=np.uint8)
    assert (on_disk[2 * page:3 * page] == 9).all()
    assert (np.delete(on_disk, np.s_[2 * page:3 * page]) == 1).all()
    assert system.monitor.counter("stager.requests_out") == 2
    assert not svec.dirty_pages


def test_crash_of_the_persisting_node_during_a_run_keeps_the_file(
        tmp_path, monkeypatch):
    """The node running a persist crashes while its multi-page run is
    on the wire (the run has claimed its pages' dirty bits and
    captured their bytes; the crash wipes the node's scache copies):
    after the node is back and the vector persisted again, the file
    holds the last acknowledged bytes of every page."""
    from repro.sim import Lock

    monkeypatch.chdir(tmp_path)
    page, stripe = 4096, 64 * 1024
    sim, system = build(n_nodes=3, page_size=page, stripe=stripe,
                        flush_period=1e9)
    url = "posix://./crash.bin"
    client = system.client(rank=0, node=0)
    n_pages = 8
    written = np.repeat(np.arange(1, n_pages + 1, dtype=np.uint8), page)

    def writer():
        vec = yield from client.vector(url, dtype=np.uint8,
                                       size=n_pages * page)
        yield from vec.tx_begin(SeqTx(0, n_pages * page, MM_WRITE_ONLY))
        yield from vec.write_range(0, written)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)            # scache yes, backend no

    run_procs(sim, writer())
    svec = system.vectors[url]
    assert svec.dirty_pages == set(range(n_pages))
    node = svec.owner_node(0, 0)
    assert node in {info.node for info in
                    system.hermes.mdm.list_bucket(url)}
    gate = Lock(sim)
    run_procs(sim, gate.held())                    # pre-held by the test
    charge = system.stager._charge_backend

    def gated(node_, ranges, write):
        yield gate.acquire()
        gate.release()
        yield from charge(node_, ranges, write)

    system.stager._charge_backend = gated
    first = sim.process(system.stager.persist(svec, node))
    sim.run(until=sim.now + 1e-3)                  # the run is on the wire
    assert not svec.dirty_pages
    assert system.reliability.fail_node(node) > 0
    gate.release()
    sim.run(until=first)
    system.stager._charge_backend = charge
    system.reliability.restore_node(node)
    sim.run(until=sim.process(system.stager.persist(svec, node)))
    on_disk = np.fromfile(tmp_path / "crash.bin", dtype=np.uint8)
    assert np.array_equal(on_disk, written)
    assert system.monitor.counter("stager.requests_out") == 1
    assert not svec.dirty_pages


def test_crash_during_a_run_capture_keeps_the_lost_pages_dirty(
        tmp_path, monkeypatch):
    """The crash comes while the run is still capturing its pages: a
    page whose only copy the crash wiped was claimed but never written
    to the backend. It stays dirty, so once the write-ahead log has
    brought it back the next persist writes it, and the file ends with
    the last acknowledged bytes."""
    monkeypatch.chdir(tmp_path)
    page, stripe = 4096, 64 * 1024
    sim, system = build(n_nodes=3, page_size=page, stripe=stripe,
                        flush_period=1e9, durability=True)
    url = "posix://./capture.bin"
    client = system.client(rank=0, node=0)
    n_pages = 8
    written = np.repeat(np.arange(1, n_pages + 1, dtype=np.uint8), page)

    def writer():
        vec = yield from client.vector(url, dtype=np.uint8,
                                       size=n_pages * page)
        yield from vec.tx_begin(SeqTx(0, n_pages * page, MM_WRITE_ONLY))
        yield from vec.write_range(0, written)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)            # the commit barrier

    run_procs(sim, writer())
    svec = system.vectors[url]
    node = svec.owner_node(0, 0)
    victim = next(n for n in range(3) if n != node)
    lost = {p for p in range(1, n_pages) if svec.owner_node(p, 0) == victim}
    assert lost
    hermes, get = system.hermes, system.hermes.get

    def crash_after_first_capture(*args, **kwargs):
        raw = yield from get(*args, **kwargs)
        if victim not in system.reliability.failed_nodes:
            system.reliability.fail_node(victim)
        return raw

    hermes.get = crash_after_first_capture
    sim.run(until=sim.process(system.stager.persist(svec, node)))
    hermes.get = get
    assert svec.dirty_pages == lost
    sim.run(until=system.reliability.restore_node(victim))
    sim.run(until=sim.process(system.stager.persist(svec, node)))
    on_disk = np.fromfile(tmp_path / "capture.bin", dtype=np.uint8)
    assert np.array_equal(on_disk, written)
    assert not svec.dirty_pages
