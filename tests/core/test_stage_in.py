"""The Data Stager's one stage-in pipeline (``DataStager.materialize``):
stripe-aligned requests, each backend byte read once under concurrent
faults, straddling pages, pages that must not be overwritten, the
read-ahead handed to idle backend servers, what is never read ahead,
and what happens when a request -- asked for or not -- dies."""

import random

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from repro.core.config import MegaMmapConfig
from repro.core.system import MegaMmapSystem
from repro.hermes.blob import BlobNotFound
from repro.hermes.dpe import PlacementError
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


@pytest.fixture(autouse=True)
def _path_free(tmp_path, monkeypatch):
    """Pages are placed by a hash of the vector's URL: every test runs
    inside its ``tmp_path`` and names its file relatively, so that
    what it sees does not depend on where pytest keeps its files."""
    monkeypatch.chdir(tmp_path)


def log_requests(system):
    """Record every backend read request as its list of (offset,
    nbytes) ranges, in the order they were issued, and switch the
    tracer on: ``stage_ins`` then tells when each was issued, when its
    bytes were back and whether anybody had asked for it."""
    reqs = []
    charge = system.stager._charge_backend

    def logged(node, ranges, write):
        if not write:
            reqs.append(list(ranges))
        yield from charge(node, ranges, write)

    system.stager._charge_backend = logged
    system.tracer.enabled = True
    return reqs


def stage_ins(system):
    """The finished backend read requests in the order they were
    issued (the order of ``log_requests``): ``stager:stage_in`` spans,
    ``start`` = issued, ``end`` = bytes back, attrs ``stripe`` (the one
    it reads), ``nbytes``, ``pages``, ``ahead``, ``cause``."""
    return sorted((sp for sp in system.tracer.spans
                   if sp.category == "stager" and sp.name == "stage_in"),
                  key=lambda sp: sp.span_id)


def settle(sim, system, url):
    """Let the read-ahead nobody waits for run out (a request's return
    issues the next one before it unregisters, so the chain is over
    when the in-flight table is empty)."""
    vec = system.vectors[url]
    while vec.staging:
        sim.run(until=sim.now + 1e-3)
    assert not any(vec.earmarked.values())
    assert not any(system.stager._queued.values())
    return vec


def check_requests(system):
    """The per-request invariants. Each request reads inside its one
    stripe. Every read-ahead went to a server on which the stager had
    nothing queued -- each stage-in issued there before it had its
    bytes back by then -- so a demand request never finds more than
    one request nobody asked for ahead of it; and it was issued when
    the request that set it off was issued or had its bytes back."""
    pfs = system.pfs
    spans = stage_ins(system)
    for i, sp in enumerate(spans):
        assert 0 < sp.attrs["nbytes"] <= pfs.stripe_size, sp
        if not sp.attrs["ahead"]:
            continue
        server = pfs.server_of(sp.attrs["stripe"])
        for earlier in spans[:i]:
            if pfs.server_of(earlier.attrs["stripe"]) == server:
                assert earlier.end <= sp.start, (earlier, sp)
        trigger = next(t for t in spans
                       if t.span_id == sp.attrs["cause"])
        assert sp.start in (trigger.start, trigger.end)


def cold_file(tmp_path, nbytes, seed=0, name="cold.bin"):
    data = np.random.default_rng(seed).integers(
        0, 256, nbytes, dtype=np.uint8)
    (tmp_path / name).write_bytes(data.tobytes())
    return f"posix://./{name}", data


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


def pfs_bytes_read(system):
    """Bytes the PFS servers' devices read, over all servers."""
    return sum(d.bytes_read for d in system.pfs.devices)


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
    settle(sim, system, url)
    mon = system.monitor
    assert pfs_bytes_read(system) == mon.counter("stager.bytes_in")
    assert pfs_bytes_read(system) \
        <= nbytes + mon.counter("stager.reread_bytes")
    touched = {s for ranges in asked for off, n in ranges
               for s in range(off // STRIPE, (off + n - 1) // STRIPE + 1)}
    assert len(reqs) == mon.counter("stager.requests_in")
    # One range a request, inside one stripe.
    assert all(len(req) == 1 for req in reqs)
    assert all(off // STRIPE == (off + n - 1) // STRIPE
               for ((off, n),) in reqs)
    # A demand request is one for a stripe somebody touched (a demand
    # that finds its stripe in flight joins instead); every other one
    # is flagged read-ahead and went to an idle server. Between them
    # no stripe of the file is asked for twice.
    spans = stage_ins(system)
    assert [(sp.attrs["stripe"], sp.attrs["nbytes"]) for sp in spans] \
        == [(off // STRIPE, n) for ((off, n),) in reqs]
    demand = [sp for sp in spans if not sp.attrs["ahead"]]
    assert {sp.attrs["stripe"] for sp in demand} <= touched
    assert len(demand) <= len(touched) + mon.counter("stager.holes_skipped")
    assert len(spans) - len(demand) == mon.counter("stager.requests_ahead")
    read = [off // STRIPE for req in reqs for off, _n in req]
    assert len(read) <= -(-nbytes // STRIPE) \
        + mon.counter("stager.holes_skipped")
    check_requests(system)
    # Every node has room faster than the backend: the chain ends with
    # the file materialized, whatever was asked for.
    assert blobs(system, url) == set(range(-(-nbytes // PAGE)))
    assert mon.counter("stager.readahead_failed") == 0


def test_cold_scan_is_one_request_per_server_run(tmp_path):
    sim, system = build(n_nodes=4)
    nbytes = 2 * STRIPE + 5000
    url, data = cold_file(tmp_path, nbytes)
    reqs = log_requests(system)
    outs = run_procs(sim, *[
        reader(system, url, r, r % 4, [(0, nbytes)]) for r in range(8)])
    assert all(np.array_equal(out[0], data) for out in outs)
    # One request per stripe. Stripe 0 and the tail (stripe 2) abut in
    # server 0's datafile: that server's run costs one seek, as server
    # 1's one stripe does. Every byte once.
    assert sorted(reqs) == [[(0, STRIPE)], [(STRIPE, STRIPE)],
                            [(2 * STRIPE, 5000)]]
    assert pfs_bytes_read(system) == nbytes
    assert [d.bytes_read for d in system.pfs.devices] \
        == [STRIPE + 5000, STRIPE]
    mon = system.monitor
    assert mon.counter("pfs4.hdd.seeks") == mon.counter("pfs5.hdd.seeks") \
        == 1
    check_requests(system)


def test_next_stripe_on_a_server_is_read_ahead_at_the_demands_return(
        tmp_path):
    """One record of a cold three-stripe file (1 MiB stripes, as the
    benchmark's): the request for stripe 0 reads that stripe alone;
    stripe 1 goes out on the idle server beside it, and stripe 2, the
    next stripe in server 0's datafile, is its own read-ahead request,
    issued the instant stripe 0's bytes are back. It continues the
    datafile, so server 0 pays one seek for the pair. A demand for
    stripe 2 while it is in flight joins it and reads nothing."""
    sim, system = build(stripe=MB, page_size=64 * 1024,
                        tiers=(DRAM.with_capacity(8 * MB),
                               NVME.with_capacity(16 * MB)))
    nbytes = 2 * MB + 300_000
    url, data = cold_file(tmp_path, nbytes)
    reqs = log_requests(system)
    wire = system.network.transfer_time(system.pfs.server_nodes[0], 0, MB)
    back = HDD.latency + MB / HDD.read_bw + wire
    tail = 2 * MB + 1000
    first, second = run_procs(
        sim, reader(system, url, 0, 0, [(3, 1)]),
        reader(system, url, 1, 1, [(tail, 5)], [back + 1e-3]))
    assert first[0][0] == data[3]
    assert np.array_equal(second[0], data[tail:tail + 5])
    settle(sim, system, url)
    assert reqs == [[(0, MB)], [(MB, MB)], [(2 * MB, 300_000)]]
    demand, beside, nxt = stage_ins(system)
    assert not demand.attrs["ahead"]
    assert demand.end - demand.start == pytest.approx(back)
    assert beside.attrs["ahead"] and beside.start == demand.start
    assert nxt.attrs["ahead"] and nxt.attrs["stripe"] == 2
    assert nxt.start == demand.end and nxt.attrs["cause"] == demand.span_id
    assert system.monitor.counter("pfs2.hdd.requests") == 2
    assert system.monitor.counter("pfs2.hdd.seeks") == 1
    assert system.monitor.gauge("stager.last_byte_s").peak \
        == pytest.approx(nxt.end)
    (join,) = [sp for sp in system.tracer.spans
               if sp.name == "stage_in_join"]
    assert join.attrs["wait_on"] == [nxt.span_id]
    assert nxt.start < join.start < nxt.end <= join.end
    assert blobs(system, url) == set(range(-(-nbytes // (64 * 1024))))
    check_requests(system)


# -- (b) pages that straddle a stripe boundary --------------------------------

def test_straddling_page_completes_when_both_stripes_are_in(tmp_path):
    page, stripe = 3000, 8192          # page 2 = [6000, 9000) straddles
    # One server and a fault in the file's last stripe: stripe 0 is
    # not read ahead while stripe 1 is on its way, so the straddler can
    # be seen waiting for its other half.
    sim, system = build(page_size=page, stripe=stripe, servers=1)
    url, data = cold_file(tmp_path, 2 * stripe)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(9500, 100)]))
    assert np.array_equal(out[0], data[9500:9600])
    # Stripe 1 is in and its server idle again: stripe 0 was asked for
    # the moment stripe 1's bytes were back, by nobody.
    assert reqs == [[(stripe, stripe)], [(0, stripe)]]
    first, = stage_ins(system)
    assert first.attrs["stripe"] == 1 and not first.attrs["ahead"]
    # Pages wholly inside stripe 1 are in; the straddler waits for its
    # other half, its tail is kept so stripe 1 is never read again.
    assert blobs(system, url) == {3, 4, 5}
    assert set(system.vectors[url].fragments) == {2}
    # The fault on the straddler's head joins the request in flight.
    (out,) = run_procs(sim, reader(system, url, 1, 1, [(6000, 100)]))
    assert np.array_equal(out[0], data[6000:6100])
    second = stage_ins(system)[1]
    assert second.attrs["ahead"] and second.start == first.end
    assert second.attrs["cause"] == first.span_id
    assert blobs(system, url) == set(range(6))
    (out,) = run_procs(sim, reader(system, url, 2, 0, [(6000, 3000)]))
    assert np.array_equal(out[0], data[6000:9000])
    settle(sim, system, url)
    assert len(reqs) == 2 and pfs_bytes_read(system) == 2 * stripe
    assert not system.vectors[url].fragments
    check_requests(system)


def test_straddler_is_published_by_the_read_ahead_of_its_tail(tmp_path):
    """One server, a fault in stripe 0: the straddler's head comes back
    with stripe 0 and waits in ``vec.fragments``; stripe 1, read ahead
    the instant stripe 0's bytes are back, brings its tail and that
    request publishes it. A read of the straddler then reads nothing."""
    page, stripe = 3000, 8192
    sim, system = build(page_size=page, stripe=stripe, servers=1)
    url, data = cold_file(tmp_path, 2 * stripe)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(10, 5)]))
    assert np.array_equal(out[0], data[10:15])
    assert blobs(system, url) == {0, 1}
    assert set(system.vectors[url].fragments) == {2}
    settle(sim, system, url)
    assert reqs == [[(0, stripe)], [(stripe, stripe)]]
    demand, ahead = stage_ins(system)
    assert not demand.attrs["ahead"] and ahead.attrs["ahead"]
    assert ahead.start == demand.end and ahead.attrs["stripe"] == 1
    assert blobs(system, url) == set(range(6))
    assert not system.vectors[url].fragments
    (out,) = run_procs(sim, reader(system, url, 1, 0, [(6000, 3000)]))
    assert np.array_equal(out[0], data[6000:9000])
    assert len(reqs) == 2 and pfs_bytes_read(system) == 2 * stripe
    check_requests(system)


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
    settle(sim, system, url)
    ranges = [rng for req in reqs for rng in req]
    for off, n in ranges:
        assert off // stripe == (off + n - 1) // stripe
        assert n >= page or off + n == nbytes
    assert len(ranges) == len({off // stripe for off, _ in ranges})
    assert pfs_bytes_read(system) == sum(n for _off, n in ranges) <= nbytes
    # The straddlers' stripes were asked for, the rest was read ahead.
    assert {sp.attrs["stripe"] for sp in stage_ins(system)
            if not sp.attrs["ahead"]} <= {0, 1, 2, 3}
    check_requests(system)
    assert blobs(system, url) == set(range(10))
    assert not system.vectors[url].fragments


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
    # The record's stripe is the one request anybody asked for, whole;
    # the 100-byte tail on the other server went out with it, and that
    # server, idle again 5 ms later, fetched stripe 0.
    assert reqs[0] == [(STRIPE, STRIPE)]
    assert set(range(16, 32)) <= blobs(system, url)
    settle(sim, system, url)
    assert reqs == [[(STRIPE, STRIPE)], [(2 * STRIPE, 100)], [(0, STRIPE)]]
    assert [sp.attrs["ahead"] for sp in stage_ins(system)] \
        == [False, True, True]
    check_requests(system)
    assert blobs(system, url) == set(range(33))
    assert pfs_bytes_read(system) == 2 * STRIPE + 100


def test_read_ahead_keeps_every_backend_server_busy(tmp_path):
    """One record of a cold four-stripe file on two servers: the
    request for stripe 0 and the read-ahead of stripe 1 on the other
    server are issued at the same instant, and each server is handed
    its next stripe (2, 3) the instant its read returns (not when its
    publish ends). That stripe continues the server's datafile: one
    seek per server. The scans that follow, 6.2 ms in, read the
    file's tail first, while stripes 2 and 3 are in flight: they join
    what is in flight and issue nothing."""
    sim, system = build(n_nodes=4)
    head, tail = 3 * STRIPE, 60000
    nbytes = head + tail
    url, data = cold_file(tmp_path, nbytes)
    reqs = log_requests(system)
    outs = run_procs(
        sim, reader(system, url, 0, 0, [(3, 1)]),
        *[reader(system, url, r, r % 4, [(head, tail), (0, head)],
                 [6.2e-3, 0]) for r in range(1, 4)])
    assert outs[0][0][0] == data[3]
    assert all(np.array_equal(np.concatenate([out[1], out[0]]), data)
               for out in outs[1:])
    settle(sim, system, url)
    assert reqs == [[(0, STRIPE)], [(STRIPE, STRIPE)], [(2 * STRIPE, STRIPE)],
                    [(3 * STRIPE, tail)]]
    s0, s1, s2, s3 = stage_ins(system)
    assert [sp.attrs["ahead"] for sp in (s0, s1, s2, s3)] \
        == [False, True, True, True]
    assert s1.start == s0.start and s1.attrs["cause"] == s0.span_id
    assert s2.start == s0.end and s2.attrs["cause"] == s0.span_id
    assert s3.start == s1.end and s3.attrs["cause"] == s1.span_id
    assert pfs_bytes_read(system) == nbytes
    check_requests(system)
    mon = system.monitor
    assert mon.counter("pfs4.hdd.seeks") == mon.counter("pfs5.hdd.seeks") \
        == 1
    assert mon.counter("stager.requests_in") == 4
    assert mon.counter("stager.requests_ahead") == 3
    # The scans found their pages in flight and waited for the
    # read-ahead requests by name.
    joins = [sp for sp in system.tracer.spans
             if sp.name == "stage_in_join"]
    assert joins and all(
        sp.attrs["wait_on"] and set(sp.attrs["wait_on"])
        <= {s0.span_id, s1.span_id, s2.span_id, s3.span_id} for sp in joins)
    assert s3.span_id in {i for sp in joins for i in sp.attrs["wait_on"]}


def test_demand_joins_the_read_ahead_of_its_stripe(tmp_path):
    sim, system = build()
    url, data = cold_file(tmp_path, 2 * STRIPE)
    reqs = log_requests(system)
    first, second = run_procs(
        sim, reader(system, url, 0, 0, [(5, 3)]),
        reader(system, url, 1, 1, [(STRIPE + 9, 4)], [1e-3]))
    assert np.array_equal(first[0], data[5:8])
    assert np.array_equal(second[0], data[STRIPE + 9:STRIPE + 13])
    assert reqs == [[(0, STRIPE)], [(STRIPE, STRIPE)]]
    demand, ahead = stage_ins(system)
    assert ahead.attrs["ahead"] and ahead.attrs["stripe"] == 1
    # Rank 1 arrived 1 ms into the read-ahead of its stripe: it issued
    # nothing and its wait names that request.
    (join,) = [sp for sp in system.tracer.spans
               if sp.name == "stage_in_join"]
    assert join.attrs["wait_on"] == [ahead.span_id]
    assert ahead.start < join.start < ahead.end <= join.end


# -- (e) what is never read ahead ----------------------------------------------

def test_volatile_vector_stages_nothing_and_fills_only_what_is_asked():
    sim, system = build()
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, "vol", 0, 0,
                                   [(3 * PAGE + 5, 10), (9 * PAGE, PAGE)],
                                   size=64 * PAGE))
    assert not out[0].any() and not out[1].any()
    sim.run(until=sim.now + 0.1)
    assert reqs == [] and pfs_bytes_read(system) == 0
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
    # 20 pages: the vector's last four lie in a stripe (on the other,
    # idle server) that the file does not reach.
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
    settle(sim, system, url)
    assert reqs == [[(0, 5 * PAGE)]]
    assert blobs(system, url) == {0, 1, 2, 3, 4, 5, 12}
    assert system.monitor.counter("stager.requests_ahead") == 0


def test_no_read_ahead_into_a_tier_no_faster_than_the_backend(tmp_path):
    """Room for two pages of DRAM (the third page's worth also holds
    the reader's pcache bytes) over a node-local HDD: a fault reads
    ahead what fits the DRAM and stops where pages would spill to a
    disk as slow as the PFS -- staging those costs a write and a read
    for nothing."""
    sim, system = build(n_nodes=1, tiers=(DRAM.with_capacity(3 * PAGE),
                                          HDD.with_capacity(64 * MB)))
    # Two stripes and a half: one and a half of them on a server that
    # stays idle throughout, and is given nothing to read.
    url, data = cold_file(tmp_path, 40 * PAGE)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(7, 3)]))
    assert np.array_equal(out[0], data[7:10])
    settle(sim, system, url)
    assert reqs == [[(0, 2 * PAGE)]] and blobs(system, url) == {0, 1}
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(9 * PAGE, 10)]))
    assert np.array_equal(out[0], data[9 * PAGE:9 * PAGE + 10])
    settle(sim, system, url)
    assert reqs[1:] == [[(9 * PAGE, PAGE)]]
    assert blobs(system, url) == {0, 1, 9}
    assert system.monitor.counter("stager.requests_ahead") == 0


def test_no_read_ahead_for_a_tenant_at_its_admission_floor(tmp_path):
    """DRAM with room to spare over a node-local HDD, but the tenancy
    admission floor keeps this bucket's new blobs out of the DRAM: a
    page read ahead would land on the disk, so none is -- not inside
    the stripe, not on the idle server. Over NVMe the same floor still
    leaves a tier that beats the backend, and the file comes in."""
    for slow, expect in ((HDD, [[(PAGE, PAGE)]]),
                         (NVME, [[(0, STRIPE)], [(STRIPE, STRIPE)]])):
        sim, system = build(tiers=(DRAM.with_capacity(4 * MB),
                                   slow.with_capacity(16 * MB)))
        system.hermes.admission = lambda node, bucket, nbytes: 1
        url, data = cold_file(tmp_path, 2 * STRIPE)
        reqs = log_requests(system)
        (out,) = run_procs(sim, reader(system, url, 0, 0, [(PAGE + 7, 3)]))
        assert np.array_equal(out[0], data[PAGE + 7:PAGE + 10])
        settle(sim, system, url)
        assert reqs == expect
        assert {info.tier for info in system.hermes.mdm.list_bucket(url)} \
            == {slow.kind}


def test_read_ahead_counts_the_room_requests_in_flight_will_take(tmp_path):
    """The landing rule sees what is promised, not only what is used:
    with DRAM for 20 pages over an HDD, the stripe asked for takes 16
    and the stripe read ahead beside it -- decided at the same
    instant, before a single page is published -- only the four that
    are left."""
    sim, system = build(n_nodes=1, tiers=(DRAM.with_capacity(21 * PAGE),
                                          HDD.with_capacity(64 * MB)))
    url, data = cold_file(tmp_path, 2 * STRIPE)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(7, 3)]))
    assert np.array_equal(out[0], data[7:10])
    settle(sim, system, url)
    assert reqs == [[(0, STRIPE)], [(STRIPE, 4 * PAGE)]]
    assert {info.tier for info in system.hermes.mdm.list_bucket(url)} \
        == {"dram"}
    assert system.dmshs[0].tier("hdd").bytes_written == 0


def test_stopped_stager_reads_nothing_ahead(tmp_path):
    """Neither on the idle server nor beyond the stripe asked for."""
    sim, system = build()
    url, data = cold_file(tmp_path, 3 * STRIPE)
    reqs = log_requests(system)
    system.stager.stop()
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(7, 3)]))
    assert np.array_equal(out[0], data[7:10])
    settle(sim, system, url)
    assert reqs == [[(0, STRIPE)]]


# -- a request that dies --------------------------------------------------------

def fail_first_publish(system, exc, of_page=None):
    """Make the first vectored publish (the first one carrying page
    ``of_page``, if given) fail after it has been queued."""
    put_many = system.hermes.put_many
    state = {"armed": True}

    def flaky(client_node, bucket, items, score=1.0):
        if state["armed"] and (of_page is None or of_page in {
                key for key, _data, _node in items}):
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


@pytest.mark.parametrize("exc", [DeviceFullError("full"),
                                 BlobNotFound(("x", 0)),
                                 PlacementError("no tier")])
def test_failed_read_ahead_is_dropped_and_its_stripe_left_to_demand(
        tmp_path, exc):
    """The same failure in a request nobody waits for: the kernel
    would re-raise it out of ``sim.run``. It is counted and dropped
    instead, its joiner restages, and nothing reads that stripe ahead
    a second time."""
    sim, system = build()
    url, data = cold_file(tmp_path, 3 * STRIPE)
    reqs = log_requests(system)
    fail_first_publish(system, exc, of_page=16)
    first, second = run_procs(
        sim,
        reader(system, url, 0, 0, [(0, PAGE)]),
        reader(system, url, 1, 1, [(16 * PAGE, PAGE)], [1e-3]))
    # Rank 0 asked for stripe 0 and got it. Stripe 1 went out beside
    # it, unasked, and stripe 2 (next on rank 0's server) when stripe
    # 0 was back; rank 1 joined stripe 1's request, saw it die, and
    # staged the stripe itself.
    assert np.array_equal(first[0], data[:PAGE])
    assert np.array_equal(second[0], data[16 * PAGE:17 * PAGE])
    vec = settle(sim, system, url)
    assert system.monitor.counter("stager.readahead_failed") == 1
    assert vec.no_ahead == {1}
    assert reqs == [[(0, STRIPE)], [(STRIPE, STRIPE)], [(2 * STRIPE, STRIPE)],
                    [(STRIPE, STRIPE)]]
    assert [sp.attrs["ahead"] for sp in stage_ins(system)] \
        == [False, True, True, False]
    check_requests(system)
    assert blobs(system, url) == set(range(48))
    (again,) = run_procs(sim, reader(system, url, 0, 0, [(0, 3 * STRIPE)]))
    assert np.array_equal(again[0], data)
    assert len(reqs) == 4


def test_read_ahead_that_keeps_failing_does_not_restart_itself(tmp_path):
    sim, system = build()
    url, data = cold_file(tmp_path, 6 * STRIPE)
    reqs = log_requests(system)
    put_many = system.hermes.put_many

    def only_what_was_asked_for(client_node, bucket, items, score=1.0):
        if 0 not in {key for key, _data, _node in items}:
            yield sim.timeout(1e-4)
            raise DeviceFullError("full")
        return (yield from put_many(client_node, bucket, items,
                                    score=score))

    system.hermes.put_many = only_what_was_asked_for
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(0, PAGE)]))
    assert np.array_equal(out[0], data[:PAGE])
    vec = settle(sim, system, url)
    # Each of the five other stripes was read ahead once, and that was
    # it.
    assert sorted(rng for req in reqs for rng in req) \
        == [(s * STRIPE, STRIPE) for s in range(6)]
    assert len(reqs) == 6
    check_requests(system)
    assert vec.no_ahead == {1, 2, 3, 4, 5}
    assert system.monitor.counter("stager.readahead_failed") == 5
    assert blobs(system, url) == set(range(16))


def test_vector_destroyed_under_an_inflight_read_ahead(tmp_path):
    """One backend server: stripe 1 is read ahead when the demand's
    bytes are back (continuing it in the datafile, no seek) and is
    still in flight when the vector goes."""
    sim, system = build(servers=1)
    url, data = cold_file(tmp_path, 4 * STRIPE)
    reqs = log_requests(system)
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector(url, dtype=np.uint8)
        yield from vec.tx_begin(SeqTx(0, vec.size, MM_READ_ONLY))
        out = yield from vec.read_range(5, 3)
        yield from vec.tx_end()
        assert vec.shared.staging  # stripe 1 is on its way
        yield from vec.destroy(drop=True)
        return out, vec.shared

    ((out, shared),) = run_procs(sim, app())
    assert np.array_equal(out, data[5:8])
    while shared.staging:
        sim.run(until=sim.now + 1e-3)
    # The request in flight came back to a vector that is gone: its
    # bytes were dropped, not published, and the chain stopped there.
    assert reqs == [[(0, STRIPE)], [(STRIPE, STRIPE)]]
    assert system.monitor.counter("stager.readahead_failed") == 1
    assert blobs(system, url) == set()
    assert not any(system.stager._queued.values())


def test_node_crash_under_an_inflight_read_ahead(tmp_path):
    sim, system = build(n_nodes=3)
    url, data = cold_file(tmp_path, 2 * STRIPE)

    def saboteur():
        def ahead():
            return [f for reqs in system.vectors[url].staging.values()
                    for f in reqs.values() if f.trigger is not None] \
                if url in system.vectors else []
        while not ahead():
            yield sim.timeout(1e-5)
        yield sim.timeout(1e-3)
        # Not the node that runs the requests (page 0's owner): a
        # crash in this model wipes a node's data, not its processes.
        vec = system.vectors[url]
        victim = next(n for n in range(3) if n != vec.owner_node(0, 0))
        assert victim in {vec.owner_node(p, 0) for p in range(16, 32)}
        system.reliability.fail_node(victim)
        return victim

    out, victim = run_procs(
        sim, reader(system, url, 0, 0, [(0, PAGE)]), saboteur())
    assert np.array_equal(out[0], data[:PAGE])
    settle(sim, system, url)
    # Nothing of the read-ahead was published onto the dead node, and
    # whatever the crash wiped is restaged by the next reader.
    assert not any(info.node == victim
                   for info in system.hermes.mdm.list_bucket(url)
                   if info.key >= 16)
    survivor = next(n for n in range(3) if n != victim)
    (out,) = run_procs(sim, reader(system, url, 1, survivor,
                                   [(0, 2 * STRIPE)]))
    assert np.array_equal(out[0], data)
    settle(sim, system, url)


def test_node_crash_under_an_inflight_request(tmp_path):
    sim, system = build(n_nodes=3)
    url, data = cold_file(tmp_path, 16 * PAGE)

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


# -- a read is answered from its own stage-in -----------------------------------

def device_reads(system):
    """Bytes read from every scache device of every node."""
    return sum(dev.bytes_read for dmsh in system.dmshs for dev in dmsh)


def test_cold_read_over_a_local_hdd_is_not_read_back(tmp_path):
    """A page that can only land on a node-local HDD (the admission
    floor keeps it out of the DRAM): the fault's stage-in writes it
    there, and the read is answered with the bytes just written -- the
    disk sees one request, a write, and no second seek."""
    sim, system = build(n_nodes=1, tiers=(DRAM.with_capacity(4 * MB),
                                          HDD.with_capacity(16 * MB)))
    system.hermes.admission = lambda node, bucket, nbytes: 1
    url, data = cold_file(tmp_path, 2 * STRIPE)
    reqs = log_requests(system)
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(PAGE, PAGE)]))
    assert np.array_equal(out[0], data[PAGE:2 * PAGE])
    settle(sim, system, url)
    assert reqs == [[(PAGE, PAGE)]]
    hdd = system.dmshs[0].tier("hdd")
    assert system.monitor.counter("node0.hdd.requests") == 1
    assert hdd.bytes_written == PAGE and hdd.bytes_read == 0
    assert system.hermes.mdm.peek(url, 1).tier == "hdd"
    mon = system.monitor
    assert mon.counter("scache.staged_reads") == mon.counter(
        "scache.reads") == 1
    assert mon.counter("hermes.gets") == 0


def test_replicating_read_of_a_just_staged_page_skips_the_primary(tmp_path):
    """A whole page of a READ_ONLY_GLOBAL vector read from the node
    that does not own it: the owner stages its stripe, and the read
    ships the staged bytes to the reader and leaves the replica there
    -- the primary's device is never read."""
    sim, system = build()
    url, data = cold_file(tmp_path, STRIPE)
    # Which node owns a page is known once the vector exists.
    run_procs(sim, reader(system, url, 9, 0, []))
    vec = system.vectors[url]
    page = next(p for p in range(16) if vec.owner_node(p, 1) == 0)
    (out,) = run_procs(sim, reader(system, url, 0, 1,
                                   [(page * PAGE, PAGE)]))
    assert np.array_equal(out[0], data[page * PAGE:(page + 1) * PAGE])
    info = system.hermes.mdm.peek(url, page)
    assert info.node == 0
    assert device_reads(system) == 0
    # The replica still lands where the landing rule allows (DRAM with
    # room on the reader's node), and the vector knows it.
    assert info.replicas == [(1, "dram")]
    assert page in vec.replicated_pages
    assert system.dmshs[1].tier("dram").peek((url, page)) \
        == data[page * PAGE:(page + 1) * PAGE].tobytes()
    mon = system.monitor
    assert mon.counter("hermes.replications") == 1
    assert mon.counter("scache.staged_reads") == 1
    assert mon.counter("hermes.gets") == 0


@pytest.mark.parametrize("stripe", [0, 1])
def test_read_that_joins_a_request_in_flight_is_not_read_back(tmp_path,
                                                             stripe):
    """A second fault 1 ms into the first one's stage-in -- of a page
    of the stripe asked for, or of the stripe read ahead beside it,
    served by the other node's runtime -- joins the request in flight
    and is answered with what that request published: no device is
    read for either."""
    sim, system = build()
    url, data = cold_file(tmp_path, 2 * STRIPE)
    run_procs(sim, reader(system, url, 9, 0, []))
    vec = system.vectors[url]
    page = next(p for p in range(16 * stripe, 16 * stripe + 16)
                if vec.owner_node(p, 0) != vec.owner_node(0, 0))
    offset = page * PAGE + 9
    reqs = log_requests(system)
    first, second = run_procs(
        sim, reader(system, url, 0, 0, [(5, 3)]),
        reader(system, url, 1, 1, [(offset, 4)], [1e-3]))
    assert np.array_equal(first[0], data[5:8])
    assert np.array_equal(second[0], data[offset:offset + 4])
    assert reqs == [[(0, STRIPE)], [(STRIPE, STRIPE)]]
    (join,) = [sp for sp in system.tracer.spans
               if sp.name == "stage_in_join"]
    assert join.node != vec.owner_node(0, 0)
    assert device_reads(system) == 0
    mon = system.monitor
    assert mon.counter("scache.staged_reads") == 2
    assert mon.counter("hermes.gets") == 0


def test_page_written_while_its_stripe_is_in_flight_reads_the_write(
        tmp_path):
    """A write that was past its write-allocate check when the stripe
    went out lands before the publish: the stage-in leaves the page
    alone, and the read of it is not answered from the stage-in -- it
    reads the written bytes from the scache. Its neighbours are."""
    sim, system = build()
    url, data = cold_file(tmp_path, 16 * PAGE)
    fresh = np.full(PAGE, 7, dtype=np.uint8)

    def writer():
        while url not in system.vectors \
                or 5 not in system.vectors[url].staging:
            yield sim.timeout(1e-5)
        vec = system.vectors[url]
        owner = vec.owner_node(5, 0)
        yield from system.hermes.put(owner, url, 5, fresh.tobytes(),
                                     target_node=owner)
        vec.dirty_pages.add(5)
        return 5 in vec.staging

    out, in_flight = run_procs(
        sim, reader(system, url, 0, 0, [(4 * PAGE, 3 * PAGE)]), writer())
    assert in_flight                   # the write landed before the publish
    expect = data[4 * PAGE:7 * PAGE].copy()
    expect[PAGE:2 * PAGE] = fresh
    assert np.array_equal(out[0], expect)
    assert device_reads(system) == PAGE
    assert system.monitor.counter("scache.staged_reads") == 2


def test_first_read_of_a_staged_page_is_a_slow_read_not_a_re_read(
        tmp_path):
    """Tenancy sees a read answered from its stage-in as the read it
    is: bytes from the tier the page landed on (here the HDD), first
    touch -- and the next read of that page is a re-read."""
    from repro.tenancy import QuotaManager, TenantQuota

    sim, system = build(n_nodes=1, tiers=(DRAM.with_capacity(4 * MB),
                                          HDD.with_capacity(16 * MB)))
    qm = QuotaManager(system)
    qm.register(TenantQuota(name="t", dram_quota=0))
    url, data = cold_file(tmp_path, 2 * STRIPE)
    qm.claim_bucket(url, "t")
    (out,) = run_procs(sim, reader(system, url, 0, 0, [(PAGE, PAGE)]))
    assert np.array_equal(out[0], data[PAGE:2 * PAGE])
    assert system.hermes.mdm.peek(url, 1).tier == "hdd"
    assert qm.read_stats("t") == (0, PAGE)
    assert qm.reread_bytes("t") == 0
    # Another rank (its own pcache) reads the page again.
    (out,) = run_procs(sim, reader(system, url, 1, 0, [(PAGE, PAGE)]))
    assert np.array_equal(out[0], data[PAGE:2 * PAGE])
    assert qm.read_stats("t") == (0, 2 * PAGE)
    assert qm.reread_bytes("t") == PAGE
