"""MegaMmap KMeans‖ (the paper's Listing-1 application, complete).

Each process maps the dataset as a shared read-only vector, takes its
PGAS partition, and streams it through sequential read-only
transactions: KMeans‖ oversampling rounds to seed centroids, then
Lloyd iterations, then a persisted file-backed assignment vector —
"The assignments are persisted automatically using a file-backed
MegaMmap" (IV-A2).
"""

from __future__ import annotations

import numpy as np

from repro.apps.datagen import POINT3D, as_xyz
from repro.apps.kmeans.common import assign, oversample, recluster, \
    select
from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from repro.sim.rand import rng_stream


def mm_kmeans(ctx, url, k, max_iter=4, seed=0, pcache=None,
              init_rounds=3, assign_url=None):
    """Returns (centroids, inertia) on every rank."""
    pts = yield from ctx.mm.vector(url, dtype=POINT3D)
    if pcache:
        pts.bound_memory(pcache)
    pts.pgas(ctx.rank, ctx.nprocs)
    rng = rng_stream(seed, "kmeans", ctx.rank)

    def scan(fn):
        tx = yield from pts.tx_begin(SeqTx(pts.local_off(),
                                           pts.local_size(),
                                           MM_READ_ONLY))
        while True:
            chunk = yield from pts.next_chunk()
            if chunk is None:
                break
            yield from ctx.compute_bytes(chunk.data.nbytes, factor=4.0)
            fn(as_xyz(chunk.data), chunk.start)
        yield from pts.tx_end()

    # --- KMeans|| initialization: oversample by distance ---
    first = None
    if ctx.rank == 0:
        i = int(rng.integers(pts.size))
        yield from pts.tx_begin(SeqTx(i, 1, MM_READ_ONLY))
        rec = yield from pts.read_range(i, 1)
        yield from pts.tx_end()
        first = as_xyz(rec)[0]
    first = yield from ctx.comm.bcast(first, root=0)
    candidates = np.asarray([first])
    ell = 2 * k  # oversampling factor per round
    for _ in range(init_rounds):
        share = [0.0, [np.empty((0, 5))]]  # running cost, kept rows

        def sample(xyz, _start, share=share, cand=candidates):
            share[0], rows = oversample(xyz, cand, rng.random(len(xyz)),
                                        ell, share[0])
            share[1].append(rows)

        yield from scan(sample)
        gathered = yield from ctx.comm.allgather(
            (share[0], np.concatenate(share[1])))
        candidates = np.vstack([candidates, select(gathered)])

    # Weight candidates by attraction and recluster on rank 0.
    weights = np.zeros(len(candidates))

    def weigh(xyz, _start, cand=candidates, w=weights):
        labels, _ = assign(xyz, cand)
        np.add.at(w, labels, 1.0)

    yield from scan(weigh)
    weights = yield from ctx.comm.allreduce(weights, op=lambda a, b: a + b)
    if ctx.rank == 0:
        centroids = recluster(candidates, weights, k, seed)
    else:
        centroids = None
    centroids = yield from ctx.comm.bcast(centroids, root=0)

    # --- Lloyd iterations ---
    inertia = 0.0
    for _ in range(max_iter):
        acc = [np.zeros((k, 3)), np.zeros(k), 0.0]

        def step(xyz, _start, acc=acc, cent=centroids):
            labels, d2 = assign(xyz, cent)
            np.add.at(acc[0], labels, xyz)
            np.add.at(acc[1], labels, 1.0)
            acc[2] += float(d2.sum())

        yield from scan(step)
        sums = yield from ctx.comm.allreduce(acc[0],
                                             op=lambda a, b: a + b)
        counts = yield from ctx.comm.allreduce(acc[1],
                                               op=lambda a, b: a + b)
        inertia = yield from ctx.comm.allreduce(acc[2],
                                                op=lambda a, b: a + b)
        nonzero = counts > 0
        centroids = centroids.copy()
        centroids[nonzero] = sums[nonzero] / counts[nonzero, None]

    # --- persist assignments through a file-backed vector ---
    if assign_url is not None:
        out = yield from ctx.mm.vector(assign_url, dtype=np.int32,
                                       size=pts.size, volatile=False)
        out.pgas(ctx.rank, ctx.nprocs)
        tx = yield from out.tx_begin(SeqTx(out.local_off(),
                                           out.local_size(),
                                           MM_WRITE_ONLY))
        tx2 = yield from pts.tx_begin(SeqTx(pts.local_off(),
                                            pts.local_size(),
                                            MM_READ_ONLY))
        while True:
            chunk = yield from pts.next_chunk()
            if chunk is None:
                break
            labels, _ = assign(as_xyz(chunk.data), centroids)
            yield from out.write_range(chunk.start,
                                       labels.astype(np.int32))
        yield from pts.tx_end()
        yield from out.tx_end()
        yield from out.persist()
    return centroids, inertia
