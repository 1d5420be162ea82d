"""Gray-Scott: stencil unit tests + distributed correctness + I/O."""

import numpy as np
import pytest

from repro.apps.grayscott import (
    GSParams,
    HermesIo,
    gs_reference,
    init_fields,
    init_slab,
    mm_gray_scott,
    mpi_gray_scott,
)
from repro.cluster import OutOfMemoryError
from repro.storage.tiers import MB
from tests.apps.conftest import make_cluster

L = 24
STEPS = 3


def test_init_slab_matches_full_grid():
    u, v = init_fields(L)
    us, vs = init_slab(L, 5, 7)
    assert np.array_equal(us, u[5:12])
    assert np.array_equal(vs, v[5:12])


def test_reference_conserves_reasonable_ranges():
    u, v = gs_reference(16, 5)
    assert np.isfinite(u).all() and np.isfinite(v).all()
    assert (u >= 0).all()
    assert u.max() <= 1.0 + 1e-9


def test_reference_evolves():
    u0, v0 = init_fields(16)
    u, v = gs_reference(16, 5)
    assert not np.array_equal(u, u0)


def test_mpi_gray_scott_matches_reference():
    cluster = make_cluster()
    res = cluster.run(mpi_gray_scott, L, STEPS, 0, None, GSParams(),
                      "/gs/ckpt", True)
    u_ref, v_ref = gs_reference(L, STEPS)
    got_u = np.concatenate([u for u, _ in res.values], axis=0)
    got_v = np.concatenate([v for _, v in res.values], axis=0)
    assert np.allclose(got_u, u_ref, atol=1e-12)
    assert np.allclose(got_v, v_ref, atol=1e-12)


def test_mm_gray_scott_matches_reference():
    cluster = make_cluster(page_size=16 * 1024)
    res = cluster.run(mm_gray_scott, L, STEPS, 0, 128 * 1024,
                      GSParams(), None, True)
    u_ref, v_ref = gs_reference(L, STEPS)
    got_u = np.concatenate([u for u, _ in res.values], axis=0)
    got_v = np.concatenate([v for _, v in res.values], axis=0)
    assert np.allclose(got_u, u_ref, atol=1e-12)
    assert np.allclose(got_v, v_ref, atol=1e-12)


def test_mm_and_mpi_checksums_agree():
    c1 = make_cluster()
    mpi_res = c1.run(mpi_gray_scott, L, STEPS)
    c2 = make_cluster(page_size=16 * 1024)
    mm_res = c2.run(mm_gray_scott, L, STEPS, 0, 128 * 1024)
    mpi_sum = mpi_res.values[0]
    mm_sum = mm_res.values[0]
    assert mpi_sum == pytest.approx(mm_sum, rel=1e-12)


def test_mpi_checkpoints_land_on_pfs():
    cluster = make_cluster()
    cluster.run(mpi_gray_scott, 16, 2, 1, cluster.pfs, GSParams(),
                "/gs/ckpt")
    assert len(cluster.pfs._file("/gs/ckpt_1.u")) == 16 ** 3 * 8
    assert len(cluster.pfs._file("/gs/ckpt_2.v")) == 16 ** 3 * 8


def test_mpi_checkpoint_content_is_the_grid():
    cluster = make_cluster()
    cluster.run(mpi_gray_scott, 16, 2, 2, cluster.pfs, GSParams(),
                "/gs/ckpt")
    u_ref, _ = gs_reference(16, 2)
    raw = bytes(cluster.pfs._file("/gs/ckpt_2.u"))
    got = np.frombuffer(raw, dtype=np.float64).reshape(16, 16, 16)
    assert np.allclose(got, u_ref, atol=1e-12)


def test_hermes_io_buffers_then_drains():
    cluster = make_cluster()
    io = HermesIo(cluster)

    def app(ctx):
        if ctx.rank == 0:
            yield from io.write(ctx.node, "/x", 0, b"payload")
            buffered = "/x" not in cluster.pfs._files
            yield ctx.sim.timeout(0.1)
            return buffered
        yield ctx.sim.timeout(0)

    res = cluster.run(app)
    assert res.values[0]        # the write returned before the PFS had it
    assert bytes(cluster.pfs._file("/x")) == b"payload"


def test_hermes_io_is_faster_than_direct_pfs():
    """The Fig. 6 ordering: buffered checkpoints beat synchronous PFS
    writes because compute overlaps the drain."""
    c1 = make_cluster()
    t_pfs = c1.run(mpi_gray_scott, 16, 4, 1, c1.pfs).runtime
    c2 = make_cluster()
    t_hermes = c2.run(mpi_gray_scott, 16, 4, 1, HermesIo(c2)).runtime
    assert t_hermes < t_pfs


def test_mm_checkpoints_persist_via_stager(tmp_path):
    cluster = make_cluster(page_size=16 * 1024)
    prefix = f"posix://{tmp_path}/gs"
    cluster.run(mm_gray_scott, 16, 2, 1, 128 * 1024, GSParams(), prefix)
    cluster.shutdown()
    u_ref, v_ref = gs_reference(16, 2)
    got = np.fromfile(tmp_path / "gs_2.u", dtype=np.float64)
    assert np.allclose(got.reshape(16, 16, 16), u_ref, atol=1e-12)


def test_mpi_gray_scott_ooms_when_grid_exceeds_dram():
    """Fig. 6: the MPI version crashes past the DRAM boundary."""
    cluster = make_cluster(dram_mb=1)
    with pytest.raises(OutOfMemoryError):
        cluster.run(mpi_gray_scott, 48, 1)  # 48^3*8*4 bytes / 4 procs


def test_mm_gray_scott_survives_where_mpi_ooms():
    """Fig. 6: MegaMmap keeps running by spilling to NVMe."""
    cluster = make_cluster(dram_mb=1, nvme_mb=64, page_size=16 * 1024)
    res = cluster.run(mm_gray_scott, 48, 1, 0, 64 * 1024)
    assert not res.oom
    nvme_used = sum(d.tier("nvme").used for d in cluster.dmshs)
    assert nvme_used > 0
