"""MLlib-style KMeans‖ and RandomForest on the mini-Spark substrate.

Behavioural mirrors of ``pyspark.ml.clustering.KMeans`` (kmeans||
init) and ``pyspark.ml.classification.RandomForestClassifier``: each
stage materializes a fresh RDD (cached parents resident), centroids /
split decisions broadcast from the driver, partials tree-aggregated.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.apps.datagen import POINT3D, as_xyz
from repro.apps.kmeans.common import assign, oversample, recluster, \
    select
from repro.apps.rf.common import (
    best_split,
    class_counts,
    edges_from_minmax,
    hist_stats,
    leaf_label,
    merge_hists,
    merge_minmax,
    minmax_stats,
    to_features,
)
from repro.sim.rand import rng_stream
from repro.spark.core import RDD, SparkSim


def mllib_kmeans(spark: SparkSim, url: str, k: int, max_iter: int = 4,
                 seed: int = 0, init_rounds: int = 3):
    """Driver generator. Returns (centroids, inertia)."""
    raw = yield from spark.read_records(url, POINT3D)
    # The "several copies ... when initially loading" — MLlib converts
    # rows to vectors, materializing a second copy of the dataset.
    pts = yield from raw.map_partitions(as_xyz, name="toVectors",
                                        factor=1.0)
    rng = rng_stream(seed, "mllib-kmeans")

    first = pts.partitions[0][1]
    candidates = np.asarray([first[rng.integers(len(first))]])
    ell = 2 * k
    for _ in range(init_rounds):
        candidates_b = yield from spark.broadcast(candidates)

        def sample(xyz, cand=candidates_b, r=rng):
            return oversample(xyz, cand, r.random(len(xyz)), ell, 0.0)

        share = yield from pts.tree_aggregate(
            sample, lambda a, b: (a[0] + b[0], np.vstack([a[1], b[1]])),
            factor=4.0)
        candidates = np.vstack([candidates, select([share])])

    candidates_b = yield from spark.broadcast(candidates)
    weights = yield from pts.tree_aggregate(
        lambda xyz: np.bincount(assign(xyz, candidates_b)[0],
                                minlength=len(candidates_b)).astype(float),
        lambda a, b: a + b, factor=4.0)
    centroids = recluster(candidates, weights, k, seed)

    inertia = 0.0
    for _ in range(max_iter):
        cent_b = yield from spark.broadcast(centroids)

        def step(xyz, cent=cent_b):
            labels, d2 = assign(xyz, cent)
            sums = np.zeros((len(cent), 3))
            np.add.at(sums, labels, xyz)
            counts = np.bincount(labels, minlength=len(cent)).astype(float)
            return sums, counts, float(d2.sum())

        sums, counts, inertia = yield from pts.tree_aggregate(
            step, lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
            factor=4.0)
        nz = counts > 0
        centroids = centroids.copy()
        centroids[nz] = sums[nz] / counts[nz, None]
    return centroids, inertia


def mllib_random_forest(spark: SparkSim, url: str, labels_url: str,
                        num_trees: int = 1, max_depth: int = 10,
                        oob: int = 4, seed: int = 0,
                        feature_dtype=None):
    """Driver generator. Returns the list of trees (nested dict
    nodes)."""
    from repro.apps.rf.common import FEATURE6
    dtype = feature_dtype or FEATURE6
    raw = yield from spark.read_records(url, dtype)
    feats = yield from raw.map_partitions(to_features, name="toFeatures")
    labs = yield from spark.read_records(labels_url, np.int32)
    # Pair features with labels per partition index (a zip RDD — one
    # more materialized copy, as pyspark's zip produces).
    pairs = RDD(spark,
                [(feats.partitions[i][0],
                  (feats.partitions[i][1],
                   labs.partitions[i][1].astype(np.int64)))
                 for i in range(feats.n_partitions)],
                name="zipped")

    trees = []
    for t in range(num_trees):
        frac = 1.0 / max(1, oob)

        def bag(part, r=rng_stream(seed, "bag", t), f=frac):
            X, y = part
            m = max(1, int(len(X) * f))
            idx = r.integers(0, max(1, len(X)), size=m) \
                if len(X) else np.empty(0, dtype=np.int64)
            return X[idx], y[idx]

        bagged = yield from pairs.map_partitions(bag, name="bagged")
        tree = yield from _build_tree(spark, bagged, max_depth,
                                      rng_stream(seed, "tree", t))
        trees.append(tree)
        bagged.unpersist()
    return trees


def _build_tree(spark, data_rdd, max_depth, rng, depth=0):
    """Distributed greedy binned tree construction (driver
    generator)."""
    counts = yield from data_rdd.tree_aggregate(
        lambda p: class_counts(p[1]), lambda a, b: a + b)
    total = counts.sum()
    if depth >= max_depth or total < 8 or (counts > 0).sum() <= 1:
        return {"leaf": leaf_label(counts)}
    n_features = 0
    for _node, (X, _y) in data_rdd.partitions:
        if X.ndim == 2:
            n_features = X.shape[1]
            break
    if n_features == 0:
        return {"leaf": leaf_label(counts)}
    subset = sorted(rng.choice(n_features,
                               size=max(1, int(np.sqrt(n_features))),
                               replace=False))
    mm = yield from data_rdd.tree_aggregate(
        lambda p: minmax_stats(p[0], subset), merge_minmax)
    edges = edges_from_minmax(*mm)
    edges_b = yield from spark.broadcast(edges)
    hists = yield from data_rdd.tree_aggregate(
        lambda p: hist_stats(p[0], p[1], subset, edges_b), merge_hists,
        factor=3.0)
    feature, threshold, gain = best_split(subset, edges, hists)
    if feature is None or gain <= 1e-9:
        return {"leaf": leaf_label(counts)}

    def split(part, f=feature, th=threshold, left=True):
        X, y = part
        m = X[:, f] <= th if left else X[:, f] > th
        return X[m], y[m]

    left_rdd = yield from data_rdd.map_partitions(
        lambda p: split(p, left=True), "left")
    right_rdd = yield from data_rdd.map_partitions(
        lambda p: split(p, left=False), "right")
    left = yield from _build_tree(spark, left_rdd, max_depth, rng,
                                  depth + 1)
    right = yield from _build_tree(spark, right_rdd, max_depth, rng,
                                   depth + 1)
    left_rdd.unpersist()
    right_rdd.unpersist()
    return {"feature": int(feature), "threshold": float(threshold),
            "left": left, "right": right}
