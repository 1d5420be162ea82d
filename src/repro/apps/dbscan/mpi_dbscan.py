"""MPI µDBSCAN baseline: explicit I/O partitioning and staging.

The original-style implementation the paper compares against: each
rank computes its byte range of the dataset file, reads it from the
PFS synchronously, manages its own memory, and writes the assignment
file with explicit offset bookkeeping — all the code MegaMmap removes.
"""

from __future__ import annotations

import numpy as np

from repro.apps.datagen import POINT3D, as_xyz
from repro.apps.dbscan.driver import cluster_cell, partition_points
from repro.storage.backend import open_backend


def mpi_dbscan(ctx, url, eps, min_pts, seed=0, assign_path=None):
    """Returns (orig_indices, global_labels) for this rank's cell."""
    backend = open_backend(url, dtype=POINT3D)
    itemsize = POINT3D.itemsize
    n = backend.size() // itemsize
    # Explicit I/O partitioning: every rank computes its record range.
    base, rem = divmod(n, ctx.nprocs)
    lo = ctx.rank * base + min(ctx.rank, rem)
    cnt = base + (1 if ctx.rank < rem else 0)
    nbytes = cnt * itemsize
    ctx.alloc(nbytes + cnt * 4 * 8)  # records + float rows
    pfs = ctx.cluster.pfs
    if pfs is not None:
        yield from pfs.charge(ctx.node, [(lo * itemsize, max(1, nbytes))],
                              write=False, file=url)
    raw = backend.read_range(lo * itemsize, nbytes)
    recs = np.frombuffer(raw, dtype=POINT3D)
    yield from ctx.compute_bytes(nbytes, factor=2.0)
    pts = np.column_stack([
        as_xyz(recs),
        np.arange(lo, lo + cnt, dtype=np.float64)])

    cell = yield from partition_points(ctx, pts, seed=seed)
    orig, labels = yield from cluster_cell(ctx, cell, eps, min_pts)

    if assign_path is not None and pfs is not None:
        # Explicit staged write-back: sort by original index, coalesce
        # contiguous runs, write each run at its byte offset.
        order = np.argsort(orig)
        sorted_orig = orig[order]
        sorted_labels = labels[order]
        run_start = 0
        for i in range(1, len(sorted_orig) + 1):
            if i == len(sorted_orig) \
                    or sorted_orig[i] != sorted_orig[i - 1] + 1:
                run = sorted_labels[run_start:i]
                off = int(sorted_orig[run_start]) * 8
                yield from pfs.write(ctx.node, assign_path, off,
                                     run.astype(np.int64).tobytes())
                run_start = i
    ctx.free_all()
    return orig, labels
