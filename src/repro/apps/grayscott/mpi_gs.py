"""MPI Gray-Scott baseline with pluggable checkpoint I/O.

The structure of the original code the paper compares against: slab
decomposition, sendrecv ghost exchange, slab memory allocated up front
(subject to the OOM kill when L outgrows DRAM — the Fig. 6 crash), and
*synchronous* checkpoint writes every ``plotgap`` steps through an I/O
service: the striped PFS (OrangeFS), the client-local-NVM AssiseFS, or
:class:`HermesIo` (buffer in local tiers, drain to the PFS in the
background).
"""

from __future__ import annotations

import numpy as np

from repro.apps.grayscott.stencil import GSParams, gs_step_slab, init_slab
from repro.hermes.dpe import PlacementError
from repro.storage.device import DeviceFullError


def _slab_bounds(L: int, rank: int, nprocs: int):
    base, rem = divmod(L, nprocs)
    z0 = rank * base + min(rank, rem)
    nz = base + (1 if rank < rem else 0)
    return z0, nz


def mpi_gray_scott(ctx, L, steps, plotgap=0, io=None,
                   params=GSParams(), ckpt_prefix="/gs/ckpt",
                   verify_tail=False):
    """Returns (checksum_u, checksum_v) reduced to rank 0 (None
    elsewhere), or the local slabs when ``verify_tail``."""
    z0, nz = _slab_bounds(L, ctx.rank, ctx.nprocs)
    plane_bytes = L * L * 8
    # Two fields, two time levels (current + padded temporaries).
    ctx.alloc(4 * nz * plane_bytes)
    u, v = init_slab(L, z0, nz)
    up_rank = (ctx.rank + 1) % ctx.nprocs
    down_rank = (ctx.rank - 1) % ctx.nprocs

    for step in range(steps):
        # Ghost exchange: my top plane goes up, bottom plane comes
        # from below (and vice versa), periodic in z.
        u_lo = yield from ctx.comm.sendrecv(u[-1], dest=up_rank,
                                            source=down_rank, tag=1)
        u_hi = yield from ctx.comm.sendrecv(u[0], dest=down_rank,
                                            source=up_rank, tag=2)
        v_lo = yield from ctx.comm.sendrecv(v[-1], dest=up_rank,
                                            source=down_rank, tag=3)
        v_hi = yield from ctx.comm.sendrecv(v[0], dest=down_rank,
                                            source=up_rank, tag=4)
        yield from ctx.compute_bytes(u.nbytes + v.nbytes, factor=8.0)
        u, v = gs_step_slab(u, v, u_lo, u_hi, v_lo, v_hi, params)
        if plotgap and (step + 1) % plotgap == 0 and io is not None:
            # Synchronous checkpoint: compute stalls until I/O lands.
            path = f"{ckpt_prefix}_{step + 1}"
            yield from io.write(ctx.node, path + ".u", z0 * plane_bytes,
                                u.tobytes())
            yield from io.write(ctx.node, path + ".v", z0 * plane_bytes,
                                v.tobytes())
        yield from ctx.barrier()

    local = (float(u.sum()), float(v.sum()))
    if verify_tail:
        ctx.free_all()
        return u, v
    total = yield from ctx.comm.reduce(
        np.asarray(local), op=lambda a, b: a + b, root=0)
    ctx.free_all()
    return None if total is None else (float(total[0]), float(total[1]))


class HermesIo:
    """Checkpoint service buffering in node-local tiers via Hermes and
    draining to the PFS asynchronously (the Fig. 6 'Hermes' baseline).
    """

    def __init__(self, cluster, bucket: str = "hermes-io"):
        self.cluster = cluster
        self.hermes = cluster.system.hermes
        self.pfs = cluster.pfs
        self.bucket = bucket

    def write(self, node: int, path: str, offset: int, data):
        data = bytes(data)
        try:
            yield from self.hermes.put(node, self.bucket,
                                       (path, offset), data, score=0.5)
        except (PlacementError, DeviceFullError):
            # Local tiers full: fall through to the PFS directly.
            yield from self.pfs.write(node, path, offset, data)
            return

        def drain():
            yield from self.pfs.write(node, path, offset, data)
            try:
                yield from self.hermes.delete(node, self.bucket,
                                              (path, offset))
            except KeyError:
                pass

        self.cluster.sim.process(drain(), name="hermes-io.drain")
