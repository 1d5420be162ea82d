"""MegaMmap Gray-Scott (paper IV-A2, the Fig. 6/7 headline app).

The grid lives in shared vectors (double-buffered by parity), so no
process ever holds its slab in private memory: each step streams
plane-by-plane through bounded pcaches — reads of the previous-parity
field (ghost planes come straight from the DSM, replacing MPI ghost
exchange) and writes of the next parity under a write-only
transaction whose eviction is asynchronous. Checkpoints are
file-backed vectors the Data Stager's flusher persists every
``stager.FLUSH_PERIOD`` (0.25 s), overlapping compute (Fig. 7) only in
longer runs: ``grayscott_ckpt`` (0.122 s) persists them all at
shutdown.
"""

from __future__ import annotations

import numpy as np

from repro.apps.grayscott.stencil import GSParams, gs_step_slab, init_slab
from repro.core import MM_LOCAL, MM_READ_ONLY, MM_READ_WRITE, \
    MM_WRITE_ONLY, SeqTx

#: The Fig.-3 policy for stencil state: every process owns its slab's
#: pages (placed node-locally); ghost planes are explicit remote reads.
RW_LOCAL = MM_READ_WRITE | MM_LOCAL


def _slab_bounds(L, rank, nprocs):
    base, rem = divmod(L, nprocs)
    z0 = rank * base + min(rank, rem)
    return z0, base + (1 if rank < rem else 0)


def mm_gray_scott(ctx, L, steps, plotgap=0, pcache=None,
                  params=GSParams(), ckpt_prefix=None,
                  verify_tail=False):
    """Returns (checksum_u, checksum_v) on rank 0 (None elsewhere), or
    the local final slabs when ``verify_tail``."""
    z0, nz = _slab_bounds(L, ctx.rank, ctx.nprocs)
    plane = L * L
    n = L * L * L
    fields = {}
    for name in ("u0", "v0", "u1", "v1"):
        vec = yield from ctx.mm.vector(f"gs:{name}", dtype=np.float64,
                                       size=n)
        if pcache:
            vec.bound_memory(pcache)
        fields[name] = vec

    # Initial condition into parity 0.
    u_s, v_s = init_slab(L, z0, nz)
    for name, data in (("u0", u_s), ("v0", v_s)):
        vec = fields[name]
        yield from vec.tx_begin(SeqTx(z0 * plane, nz * plane, RW_LOCAL))
        yield from vec.write_range(z0 * plane, data.ravel())
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
    del u_s, v_s
    yield from ctx.barrier()

    def read_plane(vec, z):
        raw = yield from vec.read_range(((z % L) + L) % L * plane, plane)
        return raw.reshape(L, L)

    for step in range(steps):
        cur, nxt = step % 2, (step + 1) % 2
        uc, vc = fields[f"u{cur}"], fields[f"v{cur}"]
        un, vn = fields[f"u{nxt}"], fields[f"v{nxt}"]
        for vec in (uc, vc, un, vn):
            yield from vec.tx_begin(SeqTx(z0 * plane, nz * plane,
                                          RW_LOCAL))
        # Acquire the neighbor-owned ghost planes: drop any cached
        # copy, then the reads below refault fresh data.
        for vec in (uc, vc):
            yield from vec.invalidate_range(
                (((z0 - 1) % L) + L) % L * plane, plane)
            yield from vec.invalidate_range(
                (((z0 + nz) % L) + L) % L * plane, plane)
        # Checkpoint vectors for this step (written inline from the
        # freshly computed planes — no re-read; the Data Stager's
        # flusher persists them in the background, or shutdown does).
        ck_u = ck_v = None
        if plotgap and (step + 1) % plotgap == 0 \
                and ckpt_prefix is not None:
            ck_u = yield from ctx.mm.vector(
                f"{ckpt_prefix}_{step + 1}.u", dtype=np.float64,
                size=n, volatile=False)
            ck_v = yield from ctx.mm.vector(
                f"{ckpt_prefix}_{step + 1}.v", dtype=np.float64,
                size=n, volatile=False)
            for ck in (ck_u, ck_v):
                if pcache:
                    ck.bound_memory(pcache)
                yield from ck.tx_begin(SeqTx(z0 * plane, nz * plane,
                                             MM_WRITE_ONLY))
        # 3-plane rolling window over [z0-1, z0+nz].
        u_win = {}
        v_win = {}
        for z in (z0 - 1, z0, z0 + 1):
            u_win[z] = yield from read_plane(uc, z)
            v_win[z] = yield from read_plane(vc, z)
        for z in range(z0, z0 + nz):
            yield from ctx.compute_bytes(2 * plane * 8, factor=8.0)
            nu, nv = gs_step_slab(
                u_win[z][None], v_win[z][None],
                u_win[z - 1], u_win[z + 1],
                v_win[z - 1], v_win[z + 1], params)
            yield from un.write_range(z * plane, nu.ravel())
            yield from vn.write_range(z * plane, nv.ravel())
            if ck_u is not None:
                yield from ck_u.write_range(z * plane, nu.ravel())
                yield from ck_v.write_range(z * plane, nv.ravel())
            u_win.pop(z - 1)
            v_win.pop(z - 1)
            if z + 2 <= z0 + nz:
                u_win[z + 2] = yield from read_plane(uc, z + 2)
                v_win[z + 2] = yield from read_plane(vc, z + 2)
        for vec in (uc, vc, un, vn):
            yield from vec.tx_end()
        if ck_u is not None:
            yield from ck_u.tx_end()
            yield from ck_v.tx_end()
        # Local-policy writes must be visible before neighbors read
        # ghosts next step (their READ tasks go to *their* runtime, so
        # queue ordering alone does not serialize them after ours).
        yield from un.flush(wait=True)
        yield from vn.flush(wait=True)
        yield from ctx.barrier()

    # Final checksum from the last-written parity.
    cur = steps % 2
    u_sum = v_sum = 0.0
    uc, vc = fields[f"u{cur}"], fields[f"v{cur}"]
    yield from uc.tx_begin(SeqTx(z0 * plane, nz * plane, RW_LOCAL))
    yield from vc.tx_begin(SeqTx(z0 * plane, nz * plane, RW_LOCAL))
    if verify_tail:
        u_out = np.empty((nz, L, L))
        v_out = np.empty((nz, L, L))
    for z in range(z0, z0 + nz):
        up = yield from read_plane(uc, z)
        vp = yield from read_plane(vc, z)
        u_sum += float(up.sum())
        v_sum += float(vp.sum())
        if verify_tail:
            u_out[z - z0] = up
            v_out[z - z0] = vp
    yield from uc.tx_end()
    yield from vc.tx_end()
    if ckpt_prefix is not None:
        # The job is not done until its checkpoints are acknowledged:
        # the last step's writer tasks were written behind, nothing
        # above waited for them.
        yield from ctx.mm.drain()
    if verify_tail:
        return u_out, v_out
    total = yield from ctx.comm.reduce(
        np.asarray([u_sum, v_sum]), op=lambda a, b: a + b, root=0)
    return None if total is None else (float(total[0]), float(total[1]))
