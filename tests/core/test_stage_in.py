"""The Data Stager's one stage-in pipeline (``DataStager.materialize``):
stripe-aligned requests, each backend byte read once under concurrent
faults, straddling pages, pages that must not be overwritten, what is
never read ahead, and what happens when a request dies."""

import random

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from repro.core.config import MegaMmapConfig
from repro.core.system import MegaMmapSystem
from repro.hermes.blob import BlobNotFound
from repro.net import LinkSpec, Network
from repro.sim import Monitor, Simulator
from repro.storage import DMSH, DRAM, HDD, NVME
from repro.storage.device import DeviceFullError
from repro.storage.pfs import ParallelFS
from repro.storage.tiers import MB
from tests.core.conftest import run_procs

PAGE = 4096
STRIPE = 64 * 1024


def build(n_nodes=2, page_size=PAGE, stripe=STRIPE, servers=2,
          tiers=(DRAM.with_capacity(4 * MB), NVME.with_capacity(16 * MB)),
          **cfg):
    """A deployment with a modelled PFS (HDD servers: 5 ms + 72 MB/s),
    which ``tests/core/conftest.build_system`` does not have."""
    sim = Simulator()
    mon = Monitor(sim)
    net = Network(sim, n_nodes + servers,
                  intra=LinkSpec(bandwidth=5e9, latency=2e-5))
    dmshs = [DMSH(sim, list(tiers), node_id=i, monitor=mon)
             for i in range(n_nodes)]
    pfs = ParallelFS(sim, net, stripe_size=stripe, monitor=mon,
                     server_nodes=list(range(n_nodes, n_nodes + servers)))
    cfg.setdefault("pcache_size", 64 * 1024)
    # Only what a test reads may fault: no read-ahead from the pcache.
    cfg.setdefault("prefetch_enabled", False)
    system = MegaMmapSystem(
        sim, net, dmshs, pfs=pfs, monitor=mon,
        config=MegaMmapConfig(page_size=page_size, **cfg))
    return sim, system


def log_requests(system):
    """Record every backend read request as (offset, nbytes)."""
    reqs = []
    charge = system.stager._charge_backend

    def logged(node, nbytes, write, offset=0):
        if not write:
            reqs.append((offset, nbytes))
        yield from charge(node, nbytes, write, offset)

    system.stager._charge_backend = logged
    return reqs


def cold_file(tmp_path, nbytes, seed=0, name="cold.bin"):
    data = np.random.default_rng(seed).integers(
        0, 256, nbytes, dtype=np.uint8)
    path = tmp_path / name
    path.write_bytes(data.tobytes())
    return f"posix://{path}", data


def reader(system, url, rank, node, ranges, delays=None, **open_kw):
    """App reading ``ranges`` ([(off, n), ...]) of ``url``; returns the
    arrays (an exception instance where a read failed)."""
    client = system.client(rank=rank, node=node)

    def app():
        vec = yield from client.vector(url, dtype=np.uint8, **open_kw)
        yield from vec.tx_begin(SeqTx(0, vec.size, MM_READ_ONLY))
        out = []
        for i, (off, n) in enumerate(ranges):
            if delays:
                yield system.sim.timeout(delays[i])
            try:
                out.append((yield from vec.read_range(off, n)))
            except Exception as exc:  # noqa: BLE001 - reported to the test
                out.append(exc)
        yield from vec.tx_end()
        return out

    return app()


def blobs(system, url):
    return {info.key for info in system.hermes.mdm.list_bucket(url)}


# -- (a) concurrent faults ----------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_random_interleavings_read_each_backend_byte_once(tmp_path, seed):
    rng = random.Random(seed)
    n_nodes = rng.choice([2, 3, 4])
    sim, system = build(n_nodes=n_nodes)
    nbytes = 3 * STRIPE + rng.randrange(1, STRIPE)
    url, data = cold_file(tmp_path, nbytes, seed)
    reqs = log_requests(system)
    apps, asked = [], []
    for rank in range(rng.randint(2, 8)):
        ranges = []
        for _ in range(rng.randint(1, 4)):
            off = rng.randrange(nbytes - 1)
            ranges.append((off, rng.randint(1, min(6 * PAGE,
                                                   nbytes - off))))
        asked.append(ranges)
        apps.append(reader(system, url, rank, rng.randrange(n_nodes),
                           ranges,
                           [rng.choice([0.0, 1e-4, 3e-3, 2e-2])
                            for _ in ranges]))
    outs = run_procs(sim, *apps)
    for ranges, out in zip(asked, outs):
        for (off, n), got in zip(ranges, out):
            assert np.array_equal(got, data[off:off + n]), (off, n)
    mon = system.monitor
    assert system.pfs.bytes_read == mon.counter("stager.bytes_in")
    assert system.pfs.bytes_read \
        <= nbytes + mon.counter("stager.reread_bytes")
    touched = {s for ranges in asked for off, n in ranges
               for s in range(off // STRIPE, (off + n - 1) // STRIPE + 1)}
    assert len(reqs) == mon.counter("stager.requests_in")
    assert len(reqs) <= len(touched) + mon.counter("stager.holes_skipped")
    assert all(off // STRIPE == (off + n - 1) // STRIPE
               for off, n in reqs)
    assert not system.vectors[url].staging


def test_cold_scan_is_one_request_per_stripe(tmp_path):
    sim, system = build(n_nodes=4)
    nbytes = 2 * STRIPE + 5000
    url, data = cold_file(tmp_path, nbytes)
    reqs = log_requests(system)
    outs = run_procs(sim, *[
        reader(system, url, r, r % 4, [(0, nbytes)]) for r in range(8)])
    assert all(np.array_equal(out[0], data) for out in outs)
    assert sorted(reqs) == [(0, STRIPE), (STRIPE, STRIPE),
                            (2 * STRIPE, 5000)]
    assert system.pfs.bytes_read == nbytes


# -- (b) pages that straddle a stripe boundary --------------------------------

def test_straddling_page_completes_when_both_stripes_are_in(tmp_path):
    page, stripe = 3000, 8192          # page 2 = [6000, 9000) straddles
    sim, system = build(page_size=page, stripe=stripe)
    url, data = cold_file(tmp_path, 30000)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(10, 5)]))
    assert np.array_equal(out[0], data[10:15])
    assert reqs == [(0, stripe)]
    # Pages wholly inside stripe 0 are in; the straddler waits for its
    # other half, its head is kept so stripe 0 is never read again.
    assert blobs(system, url) == {0, 1}
    assert set(system.vectors[url].fragments) == {2}
    (out,) = run_procs(sim, reader(system, url, 1, 1, [(9500, 100)]))
    assert np.array_equal(out[0], data[9500:9600])
    assert reqs == [(0, stripe), (stripe, stripe)]
    assert {0, 1, 2, 3, 4} <= blobs(system, url)
    (out,) = run_procs(sim, reader(system, url, 2, 0, [(6000, 3000)]))
    assert np.array_equal(out[0], data[6000:9000])
    assert len(reqs) == 2 and system.pfs.bytes_read == 2 * stripe


def test_no_request_crosses_a_stripe_or_reads_a_sub_page_sliver(tmp_path):
    page, stripe = 3000, 8192
    sim, system = build(n_nodes=3, page_size=page, stripe=stripe)
    nbytes = 30000
    url, data = cold_file(tmp_path, nbytes)
    reqs = log_requests(system)
    # Three ranks each want one straddling page (2, 5, 8) at once.
    outs = run_procs(sim, *[
        reader(system, url, r, r, [(p * page, page)])
        for r, p in enumerate((2, 5, 8))])
    for out, p in zip(outs, (2, 5, 8)):
        assert np.array_equal(out[0], data[p * page:(p + 1) * page])
    for off, n in reqs:
        assert off // stripe == (off + n - 1) // stripe
        assert n >= page or off + n == nbytes
    assert len(reqs) == len({off // stripe for off, _ in reqs})
    assert system.pfs.bytes_read == sum(n for _off, n in reqs) <= nbytes
    assert not system.vectors[url].staging


# -- (c) a materialized page is never overwritten -----------------------------

def test_page_written_before_its_stripe_is_staged_keeps_its_bytes(tmp_path):
    sim, system = build()
    url, data = cold_file(tmp_path, 16 * PAGE)
    fresh = np.full(PAGE, 7, dtype=np.uint8)
    client = system.client(rank=0, node=0)

    def writer():
        vec = yield from client.vector(url, dtype=np.uint8)
        yield from vec.tx_begin(SeqTx(5 * PAGE, PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(5 * PAGE, fresh)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)

    run_procs(sim, writer())
    assert blobs(system, url) == {5}
    assert system.monitor.counter("stager.bytes_in") == 0
    (out,) = run_procs(sim, reader(system, url, 1, 1,
                                   [(4 * PAGE, 3 * PAGE)]))
    expect = data[4 * PAGE:7 * PAGE].copy()
    expect[PAGE:2 * PAGE] = fresh
    assert np.array_equal(out[0], expect)
    assert blobs(system, url) == set(range(16))
    # The hole (4 KB against a 5 ms seek) was re-read, discarded, and
    # counted -- not fetched around with a second request.
    mon = system.monitor
    assert mon.counter("stager.requests_in") == 1
    assert mon.counter("stager.reread_bytes") == PAGE
    assert mon.counter("stager.bytes_in") == 16 * PAGE


# -- (d) the smallest read -----------------------------------------------------

def test_one_record_read_of_a_cold_vector(tmp_path):
    sim, system = build()
    url, data = cold_file(tmp_path, 2 * STRIPE + 100)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 1, [(STRIPE + 17, 1)]))
    assert out[0][0] == data[STRIPE + 17]
    assert reqs == [(STRIPE, STRIPE)]
    assert blobs(system, url) == set(range(16, 32))


# -- (e) what is never read ahead ----------------------------------------------

def test_volatile_vector_stages_nothing_and_fills_only_what_is_asked():
    sim, system = build()
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, "vol", 0, 0,
                                   [(3 * PAGE + 5, 10), (9 * PAGE, PAGE)],
                                   size=64 * PAGE))
    assert not out[0].any() and not out[1].any()
    assert reqs == [] and system.pfs.bytes_read == 0
    assert blobs(system, "vol") == {3, 9}


def test_concurrent_zero_fills_of_one_page_publish_it_once():
    """A zero-fill is published inline by the call that found the page
    absent, but it is in the in-flight table while it runs: a second
    fault of the same page joins it instead of publishing zeros over
    whatever has been written in between."""
    sim, system = build(n_nodes=2)
    run_procs(sim, reader(system, "vol", 0, 0, [], size=64 * PAGE))
    vec = system.vectors["vol"]
    put_many, published = system.hermes.put_many, []

    def slow(client_node, bucket, items, score=1.0):
        published.extend(key for key, _data, _node in items)
        yield sim.timeout(1e-4)
        return (yield from put_many(client_node, bucket, items,
                                    score=score))

    system.hermes.put_many = slow

    def fault(node, delay):
        yield sim.timeout(delay)
        return (yield from system.runtimes[node].executor.ensure_pages(
            vec, [5], node))

    first, second = run_procs(sim, fault(0, 0.0), fault(1, 5e-5))
    assert first[5] is second[5] is system.hermes.mdm.peek("vol", 5)
    assert published == [5]
    assert not vec.staging


def test_vector_longer_than_its_backend(tmp_path):
    sim, system = build()
    url, data = cold_file(tmp_path, 5 * PAGE)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(12 * PAGE, 100)],
                                   size=20 * PAGE))
    assert not out[0].any()
    assert reqs == [] and blobs(system, url) == {12}
    (out,) = run_procs(sim, reader(system, url, 1, 1,
                                   [(PAGE, 10), (4 * PAGE + 4000, 200)]))
    assert np.array_equal(out[0], data[PAGE:PAGE + 10])
    # The second read runs off the end of the file into page 5.
    assert np.array_equal(out[1][:96], data[4 * PAGE + 4000:])
    assert not out[1][96:].any()
    assert reqs == [(0, 5 * PAGE)]
    assert blobs(system, url) == {0, 1, 2, 3, 4, 5, 12}


def test_no_read_ahead_into_a_tier_no_faster_than_the_backend(tmp_path):
    """Room for two pages of DRAM (the third page's worth also holds
    the reader's pcache bytes) over a node-local HDD: a fault reads
    ahead what fits the DRAM and stops where pages would spill to a
    disk as slow as the PFS -- staging those costs a write and a read
    for nothing."""
    sim, system = build(n_nodes=1, tiers=(DRAM.with_capacity(3 * PAGE),
                                          HDD.with_capacity(64 * MB)))
    url, data = cold_file(tmp_path, 16 * PAGE)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(7, 3)]))
    assert np.array_equal(out[0], data[7:10])
    assert reqs == [(0, 2 * PAGE)] and blobs(system, url) == {0, 1}
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(9 * PAGE, 10)]))
    assert np.array_equal(out[0], data[9 * PAGE:9 * PAGE + 10])
    assert reqs[1:] == [(9 * PAGE, PAGE)]
    assert blobs(system, url) == {0, 1, 9}


# -- a request that dies --------------------------------------------------------

def fail_first_publish(system, exc):
    """Make the first vectored publish fail after it has been queued."""
    put_many = system.hermes.put_many
    state = {"armed": True}

    def flaky(client_node, bucket, items, score=1.0):
        if state["armed"]:
            state["armed"] = False
            yield system.sim.timeout(1e-4)
            raise exc
        return (yield from put_many(client_node, bucket, items,
                                    score=score))

    system.hermes.put_many = flaky


@pytest.mark.parametrize("exc", [DeviceFullError("full"),
                                 BlobNotFound(("x", 0))])
def test_failed_request_fails_its_caller_and_joiners_restage(tmp_path, exc):
    sim, system = build()
    url, data = cold_file(tmp_path, 16 * PAGE)
    reqs = log_requests(system)
    fail_first_publish(system, exc)
    first, second = run_procs(
        sim,
        reader(system, url, 0, 0, [(0, PAGE)]),
        reader(system, url, 1, 1, [(PAGE, PAGE)], [1e-3]))
    # Rank 0's request died: it sees the error. Rank 1 had joined that
    # request; it stages the stripe itself instead of waiting forever.
    assert isinstance(first[0], type(exc))
    assert np.array_equal(second[0], data[PAGE:2 * PAGE])
    assert len(reqs) == 2
    assert not system.vectors[url].staging
    (again,) = run_procs(sim, reader(system, url, 0, 0, [(0, PAGE)]))
    assert np.array_equal(again[0], data[:PAGE])
    assert len(reqs) == 2


def test_node_crash_under_an_inflight_request(tmp_path, monkeypatch):
    # A relative URL: pages are placed by a hash of the URL.
    monkeypatch.chdir(tmp_path)
    sim, system = build(n_nodes=3)
    _url, data = cold_file(tmp_path, 16 * PAGE)
    url = "posix://./cold.bin"

    def saboteur():
        while url not in system.vectors \
                or not system.vectors[url].staging:
            yield sim.timeout(1e-5)
        victim = system.vectors[url].owner_node(0, 0)
        system.reliability.fail_node(victim)
        return victim

    out, victim = run_procs(
        sim, reader(system, url, 0, 0, [(0, 16 * PAGE)]), saboteur())
    assert np.array_equal(out[0], data)
    assert not system.vectors[url].staging
    # Whatever the crash wiped or left on the dead node is recovered
    # (restaged) by the next reader; nobody waits on a dead request.
    survivor = next(n for n in range(3) if n != victim)
    (out,) = run_procs(sim, reader(system, url, 1, survivor,
                                   [(0, 16 * PAGE)]))
    assert np.array_equal(out[0], data)
    assert not system.vectors[url].staging
