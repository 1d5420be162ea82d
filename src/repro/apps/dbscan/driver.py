"""The distributed µDBSCAN driver: space partitioning + merge.

Shared by the MegaMmap and MPI implementations (they differ in how
points are loaded and results stored). Steps:

1. recursive median splits — each round estimates the highest-variance
   axis and its median from an allgathered subsample, splits the
   process group in two (``comm.split``), and alltoalls points to the
   owning side (the paper's kd-tree construction, IV-A2);
2. local DBSCAN in each process's cell;
3. boundary merge — points within eps of the cell's bounding box are
   allgathered with their µcluster ids and core flags; the connected
   components of the µclusters joined by eps-close pairs are the
   global clusters.
"""

from __future__ import annotations

import numpy as np

from repro.apps.dbscan.common import (
    encode_gid,
    local_dbscan,
    merge_labels,
)
from repro.sim.rand import rng_stream

SAMPLE = 64  # per-process subsample for median estimation


def partition_points(ctx, pts: np.ndarray, seed: int = 0):
    """Recursively redistribute (n, 4) [x, y, z, orig_idx] rows so each
    process owns one spatial cell. Generator; returns the local cell's
    rows."""
    group = ctx.comm
    level = 0
    while group.size > 1:
        rng = rng_stream(seed, "dbscan-split", level, group.members[0])
        k = min(SAMPLE, len(pts))
        sample = pts[rng.choice(len(pts), size=k, replace=False), :3] \
            if k else np.empty((0, 3))
        pools = yield from group.allgather(sample)
        pool = np.vstack([p for p in pools if len(p)]) \
            if any(len(p) for p in pools) else np.zeros((1, 3))
        yield from ctx.compute_bytes(pool.nbytes, factor=2.0)
        axis = int(np.argmax(pool.var(axis=0)))
        median = float(np.median(pool[:, axis]))
        half = group.size // 2
        go_left = pts[:, axis] <= median
        left_pts, right_pts = pts[go_left], pts[~go_left]
        # Deal each side's points round-robin to that side's ranks.
        outgoing = []
        for dst in range(group.size):
            if dst < half:
                outgoing.append(left_pts[dst::half])
            else:
                outgoing.append(right_pts[dst - half::group.size - half])
        incoming = yield from group.alltoall(outgoing)
        pts = np.vstack([p for p in incoming if len(p)]) \
            if any(len(p) for p in incoming) else np.empty((0, 4))
        color = 0 if group.rank < half else 1
        group = yield from group.split(color)
        level += 1
    return pts


def cluster_cell(ctx, pts: np.ndarray, eps: float, min_pts: int):
    """Local DBSCAN + global boundary merge. Generator; returns
    (orig_indices, global_labels) for the points this process owns."""
    xyz = pts[:, :3]
    yield from ctx.compute_bytes(xyz.nbytes, factor=16.0)
    labels, is_core = local_dbscan(xyz, eps, min_pts)
    gids = encode_gid(ctx.rank, labels)
    # Boundary points: within eps of the local cell's bounding box.
    if len(xyz):
        lo, hi = xyz.min(axis=0), xyz.max(axis=0)
        near = ((xyz - lo <= eps) | (hi - xyz <= eps)).any(axis=1)
        near &= labels >= 0
    else:
        near = np.zeros(0, dtype=bool)
    b_xyz = yield from ctx.comm.allgather(xyz[near])
    b_gid = yield from ctx.comm.allgather(gids[near])
    b_core = yield from ctx.comm.allgather(is_core[near])
    yield from ctx.compute_bytes(
        sum(b.nbytes for b in b_xyz if len(b)) + 1, factor=8.0)
    merged = merge_labels(b_xyz, b_gid, b_core, eps)
    # Global id by local label; the appended entry maps noise (-1).
    n_local = labels.max(initial=-1) + 1
    table = np.append(encode_gid(ctx.rank, np.arange(n_local)), -1)
    mine = np.unique(labels[near])
    table[mine] = [merged[int(g)] for g in table[mine]]
    return pts[:, 3].astype(np.int64), table[labels]
