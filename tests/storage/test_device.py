"""Unit tests for the Device model and DMSH."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.sim import Monitor, Simulator
from repro.storage import (
    DMSH,
    DRAM,
    HDD,
    NVME,
    SATA_SSD,
    Device,
    DeviceFullError,
    DeviceSpec,
)
from repro.storage.tiers import GB, MB


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def test_put_get_roundtrip_bit_exact():
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(MB), "d0")
    data = np.arange(100, dtype=np.float64)

    def proc():
        yield from dev.put("k", data)
        raw = yield from dev.get("k")
        return np.frombuffer(raw, dtype=np.float64)

    out = run(sim, proc())
    assert np.array_equal(out, data)


def test_put_charges_latency_plus_bandwidth_time():
    sim = Simulator()
    spec = DeviceSpec("x", capacity=MB, read_bw=100.0, write_bw=50.0,
                      latency=1.0)
    dev = Device(sim, spec, "d0")

    def proc():
        yield from dev.put("k", b"\0" * 100)

    run(sim, proc())
    assert sim.now == pytest.approx(1.0 + 100 / 50.0)


def test_read_write_bandwidths_differ():
    sim = Simulator()
    spec = DeviceSpec("x", capacity=MB, read_bw=100.0, write_bw=50.0,
                      latency=0.0)
    dev = Device(sim, spec, "d0")

    def proc():
        yield from dev.put("k", b"\0" * 100)
        t_write = sim.now
        yield from dev.get("k")
        return t_write, sim.now - t_write

    t_write, t_read = run(sim, proc())
    assert t_write == pytest.approx(2.0)
    assert t_read == pytest.approx(1.0)


def test_capacity_enforced():
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(100), "d0")

    def proc():
        yield from dev.put("k", b"\0" * 101)

    with pytest.raises(DeviceFullError):
        run(sim, proc())


def test_replace_blob_accounts_delta():
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(100), "d0")

    def proc():
        yield from dev.put("k", b"\0" * 80)
        yield from dev.put("k", b"\0" * 60)  # shrink: must fit
        return dev.used

    assert run(sim, proc()) == 60


def test_delete_frees_capacity():
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(100), "d0")

    def proc():
        yield from dev.put("k", b"\0" * 80)
        freed = dev.delete("k")
        return freed, dev.used, "k" in dev

    assert run(sim, proc()) == (80, 0, False)


def test_get_range_partial_read():
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(MB), "d0")

    def proc():
        yield from dev.put("k", bytes(range(100)))
        part = yield from dev.get_range("k", 10, 5)
        return part

    assert run(sim, proc()) == bytes([10, 11, 12, 13, 14])


def test_get_range_out_of_bounds():
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(MB), "d0")

    def proc():
        yield from dev.put("k", b"\0" * 10)
        yield from dev.get_range("k", 8, 5)

    with pytest.raises(IndexError):
        run(sim, proc())


def test_put_range_partial_overwrite():
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(MB), "d0")

    def proc():
        yield from dev.put("k", b"\0" * 10)
        yield from dev.put_range("k", 3, b"\xff\xff")
        return dev.peek("k")

    assert run(sim, proc()) == b"\0\0\0\xff\xff\0\0\0\0\0"


@pytest.mark.parametrize("spec", [DRAM, NVME], ids=["dram", "nvme"])
def test_put_range_lands_in_the_blob_as_it_is_when_it_ends(spec):
    """A blob deleted while a partial write is in flight stays deleted,
    and one re-put meanwhile takes the write into its new content."""
    sim = Simulator()
    dev = Device(sim, spec.with_capacity(MB), "d0")

    def proc():
        yield from dev.put("gone", b"\0" * 4096)
        yield from dev.put("kept", b"\0" * 4096)
        reput = sim.process(dev.put("kept", b"\1" * 200))
        yield sim.timeout(0)        # the re-put holds the queue
        writes = [sim.process(dev.put_range(key, 0, b"\xff" * 100))
                  for key in ("gone", "kept")]
        yield sim.timeout(0)        # both writes queue behind it
        dev.delete("gone")
        for done in [reput, *writes]:
            yield done

    run(sim, proc())
    assert "gone" not in dev
    assert dev.peek("kept") == b"\xff" * 100 + b"\1" * 100
    assert dev.used == dev.stored_bytes() == 200


def test_device_serializes_concurrent_transfers():
    sim = Simulator()
    spec = DeviceSpec("x", capacity=MB, read_bw=100.0, write_bw=100.0,
                      latency=0.0)
    dev = Device(sim, spec, "d0")

    def writer(key):
        yield from dev.put(key, b"\0" * 100)

    sim.process(writer("a"))
    sim.process(writer("b"))
    sim.run()
    assert sim.now == pytest.approx(2.0)  # serialized, not parallel


def test_wear_counter_tracks_bytes_written():
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(MB), "d0")

    def proc():
        yield from dev.put("a", b"\0" * 100)
        yield from dev.put("a", b"\0" * 100)

    run(sim, proc())
    assert dev.bytes_written == 200


def test_monitor_integration():
    sim = Simulator()
    mon = Monitor(sim)
    dev = Device(sim, NVME.with_capacity(MB), "d0", monitor=mon)

    def proc():
        yield from dev.put("a", b"\0" * 64)

    run(sim, proc())
    assert mon.counter("d0.bytes_write") == 64
    assert mon.peak("d0.used") == 64


# -- rotational devices: a head, and blobs at an append cursor ----------------

KB4 = 4096


def hdd(capacity=MB, monitor=True):
    sim = Simulator()
    mon = Monitor(sim) if monitor else None
    return sim, Device(sim, HDD.with_capacity(capacity), "h0", monitor=mon)


def seeks(dev):
    return dev.monitor.counter(f"{dev.name}.seeks")


def addrs(dev):
    """Each blob's address in the device's blob log."""
    return {key: blob[2] for key, blob in dev._blobs.items()}


def test_random_4k_hdd_reads_pay_a_seek_each():
    sim, dev = hdd()
    keys = list(range(32))

    def fill():
        for k in keys:
            yield from dev.put(k, b"\0" * KB4)

    run(sim, fill())
    order = list(keys)
    np.random.default_rng(0).shuffle(order)
    # No key follows the one before it in the blob log.
    assert all(b != a + 1 for a, b in zip(order, order[1:]))
    t0, s0 = sim.now, seeks(dev)

    def scan():
        for k in order:
            yield from dev.get(k)

    run(sim, scan())
    assert seeks(dev) - s0 == len(keys)
    assert sim.now - t0 == pytest.approx(len(keys) * HDD.xfer_time(KB4, False))


@pytest.mark.parametrize("concurrent", [False, True])
def test_one_stream_pays_one_seek_then_bandwidth(concurrent):
    """Consecutive extents of one stream, issued one after the other
    or all queued at once (the head is read after the queue grant)."""
    sim, dev = hdd()
    ops = [dev.charge(KB4, False, "a", i * KB4) for i in range(8)]
    if concurrent:
        for op in ops:
            sim.process(op)
        sim.run()
    else:
        run(sim, (x for op in ops for x in op))
    assert seeks(dev) == 1
    assert sim.now == pytest.approx(HDD.latency + 8 * KB4 / HDD.read_bw)


def test_two_interleaved_streams_pay_a_seek_per_switch():
    sim, dev = hdd()

    def proc():
        for i in range(4):
            for stream in ("a", "b"):
                yield from dev.charge(KB4, False, stream, i * KB4)

    run(sim, proc())
    assert seeks(dev) == 8
    assert sim.now == pytest.approx(8 * HDD.xfer_time(KB4, False))


def test_an_operation_without_an_address_always_seeks():
    sim, dev = hdd()

    def proc():
        yield from dev.charge(KB4, True)
        yield from dev.charge(KB4, True)

    run(sim, proc())
    assert seeks(dev) == 2


@pytest.mark.parametrize("spec", [NVME, DRAM], ids=["nvme", "dram"])
def test_flash_and_dram_latency_does_not_depend_on_adjacency(spec):
    sim = Simulator()
    mon = Monitor(sim)
    dev = Device(sim, spec.with_capacity(MB), "d0", monitor=mon)

    def proc():
        for i in range(8):
            yield from dev.charge(KB4, False, "a", i * KB4)

    run(sim, proc())
    assert not spec.rotational
    assert sim.now == pytest.approx(8 * spec.xfer_time(KB4, False))
    assert ("d0.seeks", ()) not in mon.metrics.counters


def test_demotion_burst_reads_back_with_one_seek_each_way():
    """Blobs put back to back onto an HDD sit back to back in its blob
    log: the burst is one run, and so is its in-order read-back."""
    sim, dev = hdd()
    n = 16

    def proc():
        for k in range(n):
            yield from dev.put(("vec", k), b"\1" * KB4)
        t_put = sim.now
        for k in range(n):
            yield from dev.get(("vec", k))
        return t_put

    t_put = run(sim, proc())
    one_run = HDD.latency + n * KB4 / HDD.write_bw
    assert t_put == pytest.approx(one_run)
    assert sim.now == pytest.approx(2 * one_run)
    assert seeks(dev) == 2
    assert dev.monitor.counter("h0.requests") == 2 * n


def test_same_size_overwrite_stays_in_place():
    sim, dev = hdd()

    def proc():
        yield from dev.put("a", b"\0" * KB4)          # seek: 0
        yield from dev.put("b", b"\0" * KB4)          # continues: 4K
        yield from dev.get("a")                       # seek back to 0
        yield from dev.put("b", b"\1" * KB4)          # in place at 4K
        yield from dev.put("a", b"\1" * 2 * KB4)      # resized: cursor 8K
        yield from dev.get_range("a", KB4, KB4)       # seek back to 12K

    run(sim, proc())
    assert addrs(dev) == {"a": 2 * KB4, "b": KB4}
    assert seeks(dev) == 3


def test_append_cursor_wraps_at_capacity():
    sim, dev = hdd(capacity=3 * KB4)

    def proc():
        for k in range(3):
            yield from dev.put(k, b"\0" * KB4)
        dev.delete(0)
        yield from dev.put(3, b"\0" * KB4)

    run(sim, proc())
    assert addrs(dev) == {1: KB4, 2: 2 * KB4, 3: 0}


def test_perf_scores_are_ordered():
    assert DRAM.perf_score() > NVME.perf_score() > SATA_SSD.perf_score() \
        > HDD.perf_score()
    assert DRAM.perf_score() == 1.0


def test_hdd_is_6_to_10x_slower_than_ssd():
    ratio = SATA_SSD.read_bw / HDD.read_bw
    assert 6 <= ratio <= 10


def test_dollars_matches_paper_costs():
    assert HDD.cost_per_gb == pytest.approx(0.02)
    assert SATA_SSD.cost_per_gb == pytest.approx(0.04)
    assert NVME.cost_per_gb == pytest.approx(0.08)


def test_dmsh_orders_fastest_first():
    sim = Simulator()
    dmsh = DMSH(sim, [HDD, DRAM, NVME])  # deliberately shuffled
    kinds = [d.spec.kind for d in dmsh]
    assert kinds == ["dram", "nvme", "hdd"]


def test_dmsh_rejects_duplicate_tiers():
    sim = Simulator()
    with pytest.raises(ValueError):
        DMSH(sim, [DRAM, DRAM])


def test_dmsh_fastest_with_room_skips_full_tier():
    sim = Simulator()
    dmsh = DMSH(sim, [DRAM.with_capacity(10), NVME.with_capacity(100)])

    def proc():
        yield from dmsh.tier("dram").put("x", b"\0" * 10)
        return dmsh.fastest_with_room(5)

    dev = run(sim, proc())
    assert dev.spec.kind == "nvme"


def test_dmsh_tier_for_score_maps_extremes():
    sim = Simulator()
    dmsh = DMSH(sim, [DRAM.with_capacity(MB), NVME.with_capacity(MB),
                      HDD.with_capacity(MB)])
    assert dmsh.tier_for_score(1.0, 10).spec.kind == "dram"
    assert dmsh.tier_for_score(0.0, 10).spec.kind == "hdd"


def test_dmsh_tier_for_score_counts_the_current_tier_as_fitting():
    sim = Simulator()
    dmsh = DMSH(sim, [DRAM.with_capacity(MB), NVME.with_capacity(MB),
                      HDD.with_capacity(MB)])
    dram = dmsh.tier("dram")
    dram.reserve(dram.free)
    assert dmsh.tier_for_score(1.0, 10).spec.kind == "nvme"
    assert dmsh.tier_for_score(1.0, 10, current=dram) is dram
    # Only the page's own tier counts: the other full tiers are still
    # skipped.
    for kind in ("nvme", "hdd"):
        dev = dmsh.tier(kind)
        dev.reserve(dev.free)
    assert dmsh.tier_for_score(1.0, 10) is None
    hdd = dmsh.tier("hdd")
    assert dmsh.tier_for_score(1.0, 10, current=hdd) is hdd


def test_dmsh_describe_label():
    sim = Simulator()
    dmsh = DMSH(sim, [DRAM.with_capacity(48 * MB),
                      NVME.with_capacity(16 * MB),
                      SATA_SSD.with_capacity(32 * MB)])
    assert dmsh.describe() == "48D-16N-32S"


def test_dmsh_hardware_cost_composition():
    sim = Simulator()
    dmsh = DMSH(sim, [NVME.with_capacity(GB), HDD.with_capacity(GB)])
    assert dmsh.hardware_cost() == pytest.approx(0.08 + 0.02)


def test_dmsh_deeper_with_room_walks_down():
    sim = Simulator()
    dmsh = DMSH(sim, [DRAM, NVME.with_capacity(1000), HDD])
    dram = dmsh.tier("dram")
    assert dmsh.deeper_with_room(dram, 1000).spec.kind == "nvme"
    assert dmsh.deeper_with_room(dram, 1001).spec.kind == "hdd"
    assert dmsh.deeper_with_room(dmsh.tier("hdd"), 1) is None


# -- where a block tier keeps its bytes: one anonymous file per device ------

def _extents_disjoint(dev):
    spans = sorted((host, host + n) for host, n, _addr in dev._blobs.values())
    return all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("spec", [NVME, HDD], ids=["nvme", "hdd"])
def test_block_store_matches_a_dict_model(spec, seed):
    """Random puts (overwrites at a new size included), partial writes,
    whole and partial reads and deletes against a dict of bytes: every
    read is bit-exact, ``used`` is the model's total, and no two live
    blobs share a byte of the host file."""
    sim = Simulator()
    dev = Device(sim, spec.with_capacity(MB), "d0")
    rng = np.random.default_rng(seed)
    model = {}

    def payload(n):
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()

    def proc():
        for _ in range(400):
            op = rng.integers(5)
            key = int(rng.integers(8))
            if op == 0 or key not in model:
                model[key] = payload(int(rng.choice([0, 16, 100, 4096])))
                yield from dev.put(key, model[key])
            elif op == 1 and model[key]:
                lo = int(rng.integers(len(model[key])))
                part = payload(int(rng.integers(1, len(model[key]) - lo + 1)))
                yield from dev.put_range(key, lo, part)
                old = model[key]
                model[key] = old[:lo] + part + old[lo + len(part):]
            elif op == 2:
                assert bytes((yield from dev.get(key))) == model[key]
            elif op == 3 and model[key]:
                lo = int(rng.integers(len(model[key])))
                n = int(rng.integers(len(model[key]) - lo + 1))
                part = yield from dev.get_range(key, lo, n)
                assert bytes(part) == model[key][lo:lo + n]
            elif op == 4:
                assert dev.delete(key) == len(model.pop(key))
            assert dev.used == sum(map(len, model.values()))
            assert _extents_disjoint(dev)
        assert {k: bytes(dev.peek(k)) for k in dev.keys()} == model

    run(sim, proc())


def test_block_blobs_stay_off_the_python_heap():
    """16 MB of blobs put onto an NVMe device leave the traced heap
    within 1 MB: the bytes went to the device's file."""
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(32 * MB), "d0")

    def proc():
        for k in range(16):
            yield from dev.put(k, bytes([k]) * MB)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(sim, proc())
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < MB
    assert dev.peek(7) == bytes([7]) * MB


def test_freed_extents_are_reused_by_same_size_blobs():
    """1 000 put/delete cycles with at most four blobs alive at once:
    the file never grows past those four."""
    sim = Simulator()
    dev = Device(sim, NVME.with_capacity(MB), "d0")

    def proc():
        for k in range(1000):
            yield from dev.put(k, bytes([k % 256]) * KB4)
            if k >= 3:
                dev.delete(k - 3)

    run(sim, proc())
    assert dev.file_bytes == os.fstat(dev._file.fileno()).st_size \
        <= 4 * KB4
    assert all(dev.peek(k) == bytes([k % 256]) * KB4
               for k in range(997, 1000))


def test_a_run_leaves_no_file_behind(tmp_path, monkeypatch):
    """Device files and PFS files are unlinked at creation: a cluster
    whose NVMe tiers held blobs leaves only its checkpoints in the
    directory it ran in."""
    from repro.apps.grayscott import GSParams, mm_gray_scott
    from repro.pipeline import build_cluster

    monkeypatch.chdir(tmp_path)
    cluster = build_cluster(dict(n_nodes=2, procs_per_node=1, dram_mb=1,
                                 nvme_mb=32, page_size=16 * 1024))
    cluster.run(mm_gray_scott, 32, 2, 1, None, GSParams(), "posix://ck",
                True)
    cluster.sim.run(until=cluster.sim.process(
        cluster.pfs.write(0, "/x", 0, b"payload")))
    cluster.shutdown()
    assert cluster.system.stats()["storage.file_bytes"] > 0
    assert cluster.pfs._file("/x") == b"payload"
    left = sorted(p.name for p in tmp_path.rglob("*"))
    assert left == ["ck_1.u", "ck_1.v", "ck_2.u", "ck_2.v"]
