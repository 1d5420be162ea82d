"""A 16-node deployment is one ``SimCluster``: one simulator, one
placement function over every node, ghost planes from the DSM."""

import numpy as np

from repro.apps.datagen import as_xyz, generate_points, \
    write_parquet_points
from repro.apps.grayscott import GSParams, gs_reference, mm_gray_scott
from repro.apps.kmeans import inertia_of, mm_kmeans
from repro.mpi.comm import COLLECTIVE_TAG_BASE, Comm
from tests.apps.conftest import make_cluster

N_NODES = 16


def _page_owners(cluster):
    return {info.node for info in cluster.system.hermes.mdm.all_blobs()}


def test_kmeans_pages_hash_over_all_sixteen_nodes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)     # placement is salted with the URL
    write_parquet_points("pts.parquet", 4000, 4, seed=11)
    cluster = make_cluster(n_nodes=N_NODES, page_size=512,
                           pcache=8 * 1024)
    res = cluster.run(mm_kmeans, "parquet://pts.parquet", 4, 2)
    centroids, inertia = res.values[0]
    for c, i in res.values[1:]:
        assert np.array_equal(c, centroids) and i == inertia
    pts, _ = generate_points(4000, 4, seed=11)
    final = inertia_of(as_xyz(pts), centroids)
    assert final - 1e-6 <= inertia <= 1.05 * final
    assert _page_owners(cluster) == set(range(N_NODES))


def test_gray_scott_ghost_planes_come_from_the_dsm(monkeypatch):
    L, steps = 32, 2
    tags = []
    send = Comm.send

    def spy(self, payload, dest, tag=0):
        tags.append(tag)
        return send(self, payload, dest, tag)

    monkeypatch.setattr(Comm, "send", spy)
    cluster = make_cluster(n_nodes=N_NODES, page_size=8192)
    res = cluster.run(mm_gray_scott, L, steps, 0, 64 * 1024,
                      GSParams(), None, True)
    u_ref, v_ref = gs_reference(L, steps)
    assert np.allclose(np.concatenate([u for u, _ in res.values]),
                       u_ref, atol=1e-12)
    assert np.allclose(np.concatenate([v for _, v in res.values]),
                       v_ref, atol=1e-12)
    assert _page_owners(cluster) == set(range(N_NODES))
    # Barriers only: not one point-to-point message.
    assert tags and min(tags) >= COLLECTIVE_TAG_BASE
