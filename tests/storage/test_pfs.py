"""Unit tests for the striped PFS and the Assise-like client-NVM FS."""

import pytest

from repro.net import LinkSpec, Network
from repro.sim import Monitor, Simulator
from repro.storage.assise import AssiseFS
from repro.storage.device import DeviceSpec
from repro.storage.pfs import ParallelFS, PfsError

FAST_DEV = DeviceSpec("hdd", capacity=10 ** 9, read_bw=100.0, write_bw=100.0,
                      latency=0.0, cost_per_gb=0.02)


def make_pfs(n_servers=2, stripe=100, link_bw=1e12, spec=FAST_DEV,
             monitor=None):
    sim = Simulator()
    # Nodes: 0..1 clients, then servers.
    net = Network(sim, 2 + n_servers,
                  intra=LinkSpec(bandwidth=link_bw, latency=0.0))
    pfs = ParallelFS(sim, net, server_nodes=list(range(2, 2 + n_servers)),
                     server_spec=spec, stripe_size=stripe,
                     monitor=monitor(sim) if monitor else None)
    return sim, net, pfs


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def test_pfs_write_read_roundtrip():
    sim, _, pfs = make_pfs()
    data = bytes(range(250))

    def proc():
        yield from pfs.write(0, "/f", 0, data)
        out = yield from pfs.read(0, "/f", 0, 250)
        return out

    assert run(sim, proc()) == data


def test_pfs_striping_parallelizes_across_servers():
    # 200 bytes over 2 servers at 100 B/s: parallel stripes -> ~1s,
    # serial would be 2s.
    sim, _, pfs = make_pfs(n_servers=2, stripe=100)

    def proc():
        yield from pfs.write(0, "/f", 0, b"\0" * 200)

    run(sim, proc())
    assert sim.now == pytest.approx(1.0, rel=0.05)


def test_pfs_single_server_serializes():
    sim, _, pfs = make_pfs(n_servers=1, stripe=100)

    def proc():
        yield from pfs.write(0, "/f", 0, b"\0" * 200)

    run(sim, proc())
    assert sim.now == pytest.approx(2.0, rel=0.05)


SEEK_DEV = DeviceSpec("hdd", capacity=10 ** 9, read_bw=100.0,
                      write_bw=100.0, latency=1.0, cost_per_gb=0.02)


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("ranges, seconds, ops", [
    # Stripes 0 and 2 sit back to back in server 0's datafile: one
    # latency for both.
    ([(0, 100), (200, 100)], 1.0 + 2.0, [1, 0]),
    # Stripes 0 and 4 with stripe 2 absent do not abut: two.
    ([(0, 100), (400, 100)], 2 * 1.0 + 2.0, [2, 0]),
    # One range over stripes 0..3: each server reads its two stripes
    # in one operation, the servers in parallel.
    ([(0, 400)], 1.0 + 2.0, [1, 1]),
    # The tail of stripe 0 and the head of stripe 2 abut too, given in
    # any order.
    ([(200, 50), (50, 50)], 1.0 + 1.0, [1, 0]),
])
def test_one_charge_pays_one_latency_per_server_run(ranges, seconds, ops,
                                                    write):
    """Stripe ``k`` lives at ``(k // n) * stripe`` of server ``k % n``:
    a charge merges the pieces that abut in a server's datafile, and
    each merged extent is one device operation."""
    sim, _, pfs = make_pfs(n_servers=2, stripe=100, spec=SEEK_DEV,
                           monitor=Monitor)
    run(sim, pfs.charge(0, ranges, write=write))
    assert sim.now == pytest.approx(seconds)
    mon = pfs.devices[0].monitor
    assert [mon.counter(f"{d.name}.requests") for d in pfs.devices] == ops
    assert [mon.counter(f"{d.name}.busy_s") for d in pfs.devices] \
        == pytest.approx([n * 1.0 + (d.bytes_written + d.bytes_read) / 100
                          for n, d in zip(ops, pfs.devices)])


def test_pfs_sparse_write_zero_fills():
    sim, _, pfs = make_pfs()

    def proc():
        yield from pfs.write(0, "/f", 10, b"xy")
        out = yield from pfs.read(0, "/f", 0, 12)
        return out

    assert run(sim, proc()) == b"\0" * 10 + b"xy"


def test_pfs_read_missing_file_rejected():
    sim, _, pfs = make_pfs()

    def proc():
        yield from pfs.read(0, "/nope", 0, 1)

    with pytest.raises(PfsError):
        run(sim, proc())


def test_pfs_read_out_of_range_rejected():
    sim, _, pfs = make_pfs()

    def proc():
        yield from pfs.write(0, "/f", 0, b"abc")
        yield from pfs.read(0, "/f", 2, 5)

    with pytest.raises(PfsError):
        run(sim, proc())


def test_pfs_overwrite_and_size():
    sim, _, pfs = make_pfs()

    def proc():
        yield from pfs.write(0, "/f", 0, b"aaaa")
        yield from pfs.write(0, "/f", 2, b"bb")
        return pfs.size("/f")

    assert run(sim, proc()) == 4
    assert bytes(pfs._file("/f")) == b"aabb"


def test_pfs_delete_and_paths():
    sim, _, pfs = make_pfs()

    def proc():
        yield from pfs.write(0, "/a", 0, b"x")
        yield from pfs.write(0, "/b", 0, b"y")
        pfs.delete("/a")
        return pfs.paths()

    assert run(sim, proc()) == ["/b"]


def test_pfs_accounting():
    sim, _, pfs = make_pfs()

    def proc():
        yield from pfs.write(0, "/f", 0, b"\0" * 300)
        yield from pfs.read(0, "/f", 0, 100)

    run(sim, proc())
    assert pfs.bytes_written == 300
    assert pfs.bytes_read == 100


# -- Assise stand-in ------------------------------------------------------------

NVM_DEV = DeviceSpec("nvme", capacity=1000, read_bw=1000.0, write_bw=1000.0,
                     latency=0.0, cost_per_gb=0.08)


def make_assise():
    sim, net, pfs = make_pfs(n_servers=2, stripe=100)
    fs = AssiseFS(sim, pfs, client_nodes=[0, 1], nvm_spec=NVM_DEV)
    return sim, pfs, fs


def test_assise_write_is_locally_fast_then_flushes():
    sim, pfs, fs = make_assise()

    def proc():
        yield from fs.write(0, "/f", 0, b"\0" * 100)
        t_local = sim.now
        yield from fs.drain(0)
        return t_local

    t_local = run(sim, proc())
    # Local NVM write (0.1s) + synchronous chain replication to the
    # peer's NVM (0.1s); the 1s PFS write drains asynchronously.
    assert t_local == pytest.approx(0.2, rel=0.05)
    assert pfs.size("/f") == 100


def test_assise_without_replication_is_local_only():
    sim, net, pfs = make_pfs(n_servers=2, stripe=100)
    fs = AssiseFS(sim, pfs, client_nodes=[0, 1], nvm_spec=NVM_DEV,
                  replicate=False)

    def proc():
        yield from fs.write(0, "/f", 0, b"\0" * 100)
        return sim.now

    assert run(sim, proc()) == pytest.approx(0.1, rel=0.05)


def test_assise_read_your_writes():
    sim, pfs, fs = make_assise()

    def proc():
        yield from fs.write(0, "/f", 0, b"hello world!")
        out = yield from fs.read(0, "/f", 6, 5)
        return out

    assert run(sim, proc()) == b"world"


def test_assise_cache_hit_avoids_pfs_read():
    sim, pfs, fs = make_assise()

    def proc():
        yield from fs.write(0, "/f", 0, b"\0" * 100)
        yield from fs.drain(0)
        before = pfs.bytes_read
        yield from fs.read(0, "/f", 0, 100)  # extent is cached
        return pfs.bytes_read - before

    assert run(sim, proc()) == 0


def test_assise_remote_node_misses_cache():
    sim, pfs, fs = make_assise()

    def proc():
        yield from fs.write(0, "/f", 0, b"\0" * 100)
        yield from fs.drain(0)
        before = pfs.bytes_read
        yield from fs.read(1, "/f", 0, 100)  # other node: cold cache
        return pfs.bytes_read - before

    assert run(sim, proc()) == 100


def test_assise_cache_eviction_when_full():
    sim, pfs, fs = make_assise()

    def proc():
        # NVM capacity is 1000; write 3 x 400-byte extents.
        for i in range(3):
            yield from fs.write(0, f"/f{i}", 0, bytes([i]) * 400)
        yield from fs.drain(0)
        return fs.caches[0].used

    used = run(sim, proc())
    assert used <= 1000
