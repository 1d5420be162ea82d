"""Shared DBSCAN machinery: local clustering, boundary merge, oracle."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree


def local_dbscan(xyz: np.ndarray, eps: float, min_pts: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Classic DBSCAN on one process's points.

    Returns (labels, is_core); labels are local ids starting at 0, -1
    is noise.
    """
    n = len(xyz)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels, np.zeros(0, dtype=bool)
    tree = cKDTree(xyz)
    neighbor_counts = tree.query_ball_point(xyz, eps,
                                            return_length=True)
    is_core = neighbor_counts >= min_pts
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not is_core[i]:
            continue
        # BFS flood fill from this core point.
        frontier = [i]
        labels[i] = cluster
        while frontier:
            j = frontier.pop()
            if not is_core[j]:
                continue
            for nb in tree.query_ball_point(xyz[j], eps):
                if labels[nb] == -1:
                    labels[nb] = cluster
                    if is_core[nb]:
                        frontier.append(nb)
        cluster += 1
    return labels, is_core


def merge_labels(boundary_xyz: List[np.ndarray],
                 boundary_ids: List[np.ndarray],
                 boundary_core: List[np.ndarray],
                 eps: float) -> Dict[int, int]:
    """Merge µclusters joined across processes by an eps-close pair.

    ``boundary_ids`` carries (rank, local_label) pairs encoded as
    rank * 2^32 + label. Two µclusters merge when an eps-close pair of
    their points has at least one core side (border points attach to
    the core's cluster; two cores always merge). Returns each gid's
    global id: the smallest gid of its connected component, so the
    result depends only on the boundary sets, not on their order.
    """
    pts = [p for p in boundary_xyz if len(p)]
    if not pts:
        return {}
    all_xyz = np.vstack(pts)
    all_ids = np.concatenate([i for i in boundary_ids if len(i)])
    all_core = np.concatenate([c for c in boundary_core if len(c)])
    gids, node = np.unique(all_ids, return_inverse=True)
    # cKDTree.query's bound is strict, and a pair at exactly eps joins.
    bound = np.nextafter(eps, np.inf)
    edges = [np.empty((2, 0), dtype=np.int64)]
    for u in np.unique(node[all_core]):
        others = node != u
        tree = cKDTree(all_xyz[(node == u) & all_core])
        dist, _ = tree.query(all_xyz[others], distance_upper_bound=bound)
        hit = np.unique(node[others][np.isfinite(dist)])
        edges.append(np.vstack([np.full(len(hit), u), hit]))
    rows, cols = np.hstack(edges)
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)),
                       shape=(len(gids), len(gids)))
    _, comp = connected_components(graph, directed=False)
    # gids is sorted, so a component's first node holds its smallest gid.
    smallest = gids[np.unique(comp, return_index=True)[1]]
    return dict(zip(gids.tolist(), smallest[comp].tolist()))


def encode_gid(rank: int, label: np.ndarray) -> np.ndarray:
    """(rank, local label) -> global µcluster id; noise stays -1."""
    gid = rank * (1 << 32) + label
    return np.where(label < 0, -1, gid)


def reference_dbscan(xyz: np.ndarray, eps: float,
                     min_pts: int) -> np.ndarray:
    """Single-process oracle (same algorithm, no partitioning)."""
    labels, _ = local_dbscan(xyz, eps, min_pts)
    return labels
