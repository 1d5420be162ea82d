"""The drop rule of ``Hermes.demote``: a clean page -- its vector
nonvolatile and live, the page not dirty -- whose demotion would land
on a tier no faster than the backend is deleted instead of moved, and
its next read stages it in again. Anything else still moves."""

import numpy as np
import pytest

from repro.storage import DRAM, HDD, NVME
from repro.storage.tiers import MB
from tests.core.conftest import run_procs
from tests.core.test_stage_in import PAGE, build, cold_file, reader

TIERS = (DRAM.with_capacity(4 * MB), NVME.with_capacity(16 * MB),
         HDD.with_capacity(64 * MB))


@pytest.fixture(autouse=True)
def _path_free(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def staged(tmp_path, nbytes=4 * PAGE):
    """A deployment with an HDD tier and a cold file read whole on
    node 0, so its pages sit in the scache: ``(sim, system, url,
    data)``."""
    sim, system = build(n_nodes=1, tiers=TIERS)
    url, data = cold_file(tmp_path, nbytes)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(0, nbytes)]))
    assert np.array_equal(out[0], data)
    return sim, system, url, data


def fill(system, kind):
    dev = system.dmshs[0].tier(kind)
    dev.reserve(dev.free)


def demote(sim, system, url, page):
    info = system.hermes.mdm.peek(url, page)
    assert info is not None and info.tier == "dram"

    def proc():
        return (yield from system.hermes.demote(info, by="test"))

    return run_procs(sim, proc())[0]


def drops(system, by="test"):
    return system.monitor.metrics.counter("scache.clean_drops",
                                          by=by).value


def test_clean_page_bound_for_hdd_is_dropped_and_restaged(tmp_path):
    sim, system, url, data = staged(tmp_path)
    fill(system, "nvme")
    hdd = system.dmshs[0].tier("hdd")
    staged_in = system.monitor.counter("stager.bytes_in")
    assert demote(sim, system, url, 1) is False
    assert system.hermes.mdm.peek(url, 1) is None
    assert (url, 1) not in system.dmshs[0].tier("dram")
    assert hdd.bytes_written == 0
    assert drops(system) == 1
    assert system.monitor.counter("hermes.moves") == 0
    # The next read of the page stages it in from the backend again,
    # with the same bytes.
    (out,) = run_procs(sim, reader(system, url, 1, 0, [(PAGE, PAGE)]))
    assert np.array_equal(out[0], data[PAGE:2 * PAGE])
    assert system.monitor.counter("stager.bytes_in") > staged_in
    assert system.hermes.mdm.peek(url, 1) is not None


def moved_to(system, url, page):
    info = system.hermes.mdm.peek(url, page)
    assert info is not None
    assert drops(system) == 0
    assert system.monitor.counter("hermes.moves") == 1
    return info.tier


def test_a_dirty_page_still_moves(tmp_path):
    sim, system, url, _data = staged(tmp_path)
    fill(system, "nvme")
    system.vectors[url].dirty_pages.add(1)
    assert demote(sim, system, url, 1) is True
    assert moved_to(system, url, 1) == "hdd"


def test_a_page_whose_stage_out_is_in_flight_still_moves(tmp_path):
    """Its dirty bit is cleared before its bytes reach the backend."""
    sim, system, url, _data = staged(tmp_path)
    fill(system, "nvme")
    lock = system.stager._stageout_lock(system.vectors[url], 1)
    lock.acquire()
    assert demote(sim, system, url, 1) is True
    assert moved_to(system, url, 1) == "hdd"


def test_a_clean_page_bound_for_nvme_still_moves(tmp_path):
    sim, system, url, _data = staged(tmp_path)
    assert demote(sim, system, url, 1) is True
    assert moved_to(system, url, 1) == "nvme"


def test_a_volatile_page_still_moves(tmp_path):
    sim, system = build(n_nodes=1, tiers=TIERS)
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("scratch", dtype=np.uint8,
                                       size=4 * PAGE)
        yield from vec.write_range(0, np.full(4 * PAGE, 7, np.uint8))
        yield from vec.flush(wait=True)

    run_procs(sim, app())
    name = next(iter(system.vectors))
    assert system.vectors[name].volatile
    fill(system, "nvme")
    assert demote(sim, system, name, 1) is True
    assert moved_to(system, name, 1) == "hdd"


def sweep(sim, system, url, page, score):
    """Hand the organizer one score for ``page`` and run node 0's
    sweep."""
    org = system.organizer
    org.ingest(system.vectors[url], [(page, score, 0)])
    run_procs(sim, org.sweep(0))


def test_the_organizer_drops_a_clean_page_it_would_write_to_hdd(tmp_path):
    sim, system, url, _data = staged(tmp_path)
    fill(system, "nvme")
    sweep(sim, system, url, 1, 0.0)
    assert system.hermes.mdm.peek(url, 1) is None
    assert system.dmshs[0].tier("hdd").bytes_written == 0
    assert drops(system, by="organizer") == 1
    assert system.monitor.counter("hermes.moves") == 0


def test_the_organizer_still_moves_a_dirty_page_to_hdd(tmp_path):
    sim, system, url, _data = staged(tmp_path)
    fill(system, "nvme")
    system.vectors[url].dirty_pages.add(1)
    sweep(sim, system, url, 1, 0.0)
    assert system.hermes.mdm.peek(url, 1).tier == "hdd"
    assert drops(system, by="organizer") == 0
    assert system.monitor.counter("hermes.moves") == 1
