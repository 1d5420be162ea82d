"""Integration tests for the SimCluster harness."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, OutOfMemoryError, SimCluster
from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from repro.core.config import MegaMmapConfig
from repro.storage.device import DeviceSpec
from repro.storage.tiers import DRAM, MB, NVME, scaled


def small_cluster(**over):
    kwargs = dict(
        n_nodes=2, procs_per_node=2, pfs_servers=1,
        tiers=(scaled(DRAM, 8 * MB), scaled(NVME, 32 * MB)),
        config=MegaMmapConfig(page_size=4096, pcache_size=64 * 1024),
    )
    kwargs.update(over)
    return SimCluster(**kwargs)


def test_run_returns_per_rank_values():
    cluster = small_cluster()

    def app(ctx):
        yield ctx.sim.timeout(0.01 * (ctx.rank + 1))
        return ctx.rank * 10

    res = cluster.run(app)
    assert res.values == [0, 10, 20, 30]
    assert res.runtime >= 0.04


def test_contexts_map_ranks_to_nodes_blockwise():
    cluster = small_cluster()
    ctxs = cluster.contexts()
    assert [c.node for c in ctxs] == [0, 0, 1, 1]


def test_mpi_and_mm_share_the_simulation():
    cluster = small_cluster()

    def app(ctx):
        vec = yield from ctx.mm.vector("v", dtype=np.int32, size=1024)
        tx = yield from vec.tx_begin(SeqTx(0, 1024, MM_WRITE_ONLY))
        if ctx.rank == 0:
            yield from vec.write_range(0, np.arange(1024, dtype=np.int32))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        yield from ctx.barrier()
        tx = yield from vec.tx_begin(SeqTx(0, 1024, MM_READ_ONLY))
        out = yield from vec.read_range(0, 1024)
        yield from vec.tx_end()
        total = yield from ctx.comm.allreduce(int(out.sum()),
                                              op=lambda a, b: a + b)
        return total

    res = cluster.run(app)
    expected = 4 * (1023 * 1024 // 2)
    assert res.values == [expected] * 4


def test_alloc_oom_crashes_run():
    cluster = small_cluster()

    def app(ctx):
        ctx.alloc(100 * MB)  # far beyond the 8 MB node DRAM
        yield ctx.sim.timeout(0)

    with pytest.raises(OutOfMemoryError):
        cluster.run(app)


def test_allow_oom_reports_crash():
    cluster = small_cluster()

    def app(ctx):
        ctx.alloc(100 * MB)
        yield ctx.sim.timeout(0)

    res = cluster.run(app, allow_oom=True)
    assert res.oom
    assert res.oom


def test_alloc_free_balance():
    cluster = small_cluster()

    def app(ctx):
        ctx.alloc(MB)
        yield ctx.sim.timeout(0.001)
        ctx.free(MB)
        return True

    cluster.run(app)
    assert all(d.tiers[0].used == 0 for d in cluster.dmshs)


def test_peak_dram_recorded():
    cluster = small_cluster()

    def app(ctx):
        ctx.alloc(2 * MB)
        yield ctx.sim.timeout(0.001)
        ctx.free_all()

    res = cluster.run(app)
    assert res.peak_dram_node >= 4 * MB  # two procs per node
    assert res.peak_dram_total >= 8 * MB


def test_compute_bytes_charges_time():
    cluster = small_cluster()
    bw = cluster.spec.config.compute_bw

    def app(ctx):
        yield from ctx.compute_bytes(bw)  # exactly one second

    res = cluster.run(app)
    assert res.runtime == pytest.approx(1.0, rel=0.01)


def test_shutdown_persists_nonvolatile(tmp_path):
    cluster = small_cluster()
    url = f"posix://{tmp_path}/data.bin"
    data = np.arange(4096, dtype=np.float32)

    def app(ctx):
        if ctx.rank == 0:
            vec = yield from ctx.mm.vector(url, dtype=np.float32,
                                           size=4096)
            tx = yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
            yield from vec.write_range(0, data)
            yield from vec.tx_end()
            yield from vec.flush(wait=True)
        else:
            yield ctx.sim.timeout(0)

    cluster.run(app)
    cluster.shutdown()
    on_disk = np.fromfile(tmp_path / "data.bin", dtype=np.float32)
    assert np.array_equal(on_disk, data)


def test_spec_nprocs_and_cost():
    spec = ClusterSpec(n_nodes=3, procs_per_node=5)
    assert spec.nprocs == 15
    cluster = small_cluster()
    assert cluster.hardware_cost() > 0
    assert "D" in cluster.describe_tiers()


def test_spec_and_kwargs_mutually_exclusive():
    with pytest.raises(TypeError):
        SimCluster(ClusterSpec(), n_nodes=2)


def test_deterministic_across_identical_runs():
    def app(ctx):
        vec = yield from ctx.mm.vector("v", dtype=np.int64, size=4096)
        vec.bound_memory(4 * 4096)
        tx = yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
        yield from vec.write_range(
            0, ctx.rng.integers(0, 100, size=4096).astype(np.int64))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        return None

    r1 = small_cluster().run(app)
    r2 = small_cluster().run(app)
    assert r1.runtime == r2.runtime
    assert r1.stats["net.bytes_moved"] == r2.stats["net.bytes_moved"]
