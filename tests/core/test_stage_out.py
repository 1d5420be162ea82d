"""Stage-out is charged to the PFS servers that hold the page's bytes,
not to whichever holds the file's first stripe."""

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
