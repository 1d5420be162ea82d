"""Shared KMeans math: assignment, inertia, the KMeans‖ sampler and
recluster, the NumPy reference."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.sim.rand import rng_stream


def assign(xyz: np.ndarray, centroids: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment. Returns (labels, squared dists)."""
    # ||p - c||^2 = ||p||^2 - 2 p.c + ||c||^2, vectorized (n, k).
    d2 = (np.einsum("ij,ij->i", xyz, xyz)[:, None]
          - 2.0 * xyz @ centroids.T
          + np.einsum("ij,ij->i", centroids, centroids)[None, :])
    labels = np.argmin(d2, axis=1)
    return labels, np.maximum(d2[np.arange(len(xyz)), labels], 0.0)


def inertia_of(xyz: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances to nearest centroids (Listing 1)."""
    return float(assign(xyz, centroids)[1].sum())


#: Weighted kmeans++ + Lloyd runs the recluster keeps the cheapest of
#: (sklearn's ``n_init``).
N_INIT = 10


def oversample(xyz: np.ndarray, candidates: np.ndarray, u: np.ndarray,
               ell: float, cost: float) -> Tuple[float, np.ndarray]:
    """One chunk of a KMeans‖ round, in one pass over the data.

    Bahmani et al. pick ``x`` when ``u·φ < ℓ·d²(x)``, with φ the cost
    of the whole dataset, known only once every rank has scanned.
    ``cost`` is the running cost before this chunk; a point is kept
    when ``u·(cost + this chunk's cost) < ℓ·d²``. The running cost never
    exceeds φ (float addition of non-negative terms is monotone), so
    the kept rows are a superset of the final picks. Returns the new
    running cost and the kept rows ``(x, y, z, ℓ·d², u)``.
    """
    _, d2 = assign(xyz, candidates)
    cost += float(d2.sum())
    w = ell * d2
    keep = u * cost < w
    return cost, np.column_stack([xyz[keep], w[keep], u[keep]])


def select(shares: Sequence[Tuple[float, np.ndarray]]) -> np.ndarray:
    """The round's picks from every rank's ``(cost, kept rows)``, in
    rank order: φ is the sum of the costs, and a kept row is picked
    when ``u·φ < ℓ·d²``. Returns an ``(m, 3)`` array, maybe empty."""
    phi = 0.0
    for cost, _ in shares:  # plain float adds: sum() compensates (3.12+)
        phi += cost
    kept = np.concatenate([rows for _, rows in shares])
    return kept[kept[:, 4] * phi < kept[:, 3], :3]


def weighted_kmeans(points: np.ndarray, weights: np.ndarray, k: int,
                    rng: np.random.Generator,
                    iters: int = 20) -> np.ndarray:
    """Weighted kmeans++ seeding, then weighted Lloyd, on a small
    point set."""
    if len(points) <= k:
        pad = points[rng.integers(0, len(points),
                                  size=k - len(points))] \
            if len(points) < k else np.empty((0, 3))
        return np.vstack([points, pad])[:k]
    # kmeans++ seeding over the weighted candidates.
    centroids = [points[rng.integers(len(points))]]
    for _ in range(k - 1):
        _, d2 = assign(points, np.asarray(centroids))
        p = d2 * weights
        total = p.sum()
        if total <= 0:
            centroids.append(points[rng.integers(len(points))])
            continue
        centroids.append(points[rng.choice(len(points), p=p / total)])
    centroids = np.asarray(centroids)
    for _ in range(iters):
        labels, _ = assign(points, centroids)
        for j in range(k):
            mask = labels == j
            w = weights[mask]
            if w.sum() > 0:
                centroids[j] = np.average(points[mask], axis=0,
                                          weights=w)
    return centroids


def recluster(candidates: np.ndarray, weights: np.ndarray, k: int,
              seed: int) -> np.ndarray:
    """The KMeans‖ recluster step (run on the driver / rank 0): the
    cheapest, by weighted cost, of :data:`N_INIT` weighted kmeans++ +
    Lloyd runs, each on its own random stream."""
    best, best_cost = None, np.inf
    for t in range(N_INIT):
        centroids = weighted_kmeans(candidates, weights, k,
                                    rng_stream(seed, "recluster", t))
        cost = float(weights @ assign(candidates, centroids)[1])
        if cost < best_cost:
            best, best_cost = centroids, cost
    return best


def reference_kmeans(xyz: np.ndarray, k: int, seed: int = 0,
                     max_iter: int = 10) -> Tuple[np.ndarray, float]:
    """Single-process NumPy KMeans (kmeans++ init + Lloyd) used to
    verify the distributed implementations."""
    centroids = weighted_kmeans(xyz, np.ones(len(xyz)), k,
                                rng_stream(seed, "recluster"))
    for _ in range(max_iter):
        labels, _ = assign(xyz, centroids)
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = xyz[mask].mean(axis=0)
    return centroids, inertia_of(xyz, centroids)


def match_accuracy(labels: np.ndarray, truth: np.ndarray) -> float:
    """Cluster-label agreement under the best greedy label matching
    (ground-truth halos vs predicted clusters; -1 truth = background,
    excluded)."""
    mask = truth >= 0
    labels, truth = labels[mask], truth[mask]
    if len(labels) == 0:
        return 0.0
    correct = 0
    for t in np.unique(truth):
        sel = truth == t
        if sel.any():
            vals, counts = np.unique(labels[sel], return_counts=True)
            correct += counts.max()
    return correct / len(labels)
