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
