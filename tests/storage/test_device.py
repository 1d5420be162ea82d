"""Unit tests for the Device model and DMSH."""

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
    assert dev._addr == {"a": 2 * KB4, "b": KB4}
    assert seeks(dev) == 3


def test_append_cursor_wraps_at_capacity():
    sim, dev = hdd(capacity=3 * KB4)

    def proc():
        for k in range(3):
            yield from dev.put(k, b"\0" * KB4)
        dev.delete(0)
        yield from dev.put(3, b"\0" * KB4)

    run(sim, proc())
    assert dev._addr == {1: KB4, 2: 2 * KB4, 3: 0}


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
