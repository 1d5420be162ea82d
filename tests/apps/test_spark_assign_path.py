"""Spark KMeans assignment write-back path (driver collect -> PFS)."""

import numpy as np
import pytest

from repro.apps.datagen import as_xyz, generate_points, \
    write_parquet_points
from repro.apps.kmeans import assign, match_accuracy, spark_kmeans
from tests.apps.conftest import make_cluster


def test_spark_kmeans_writes_assignments_to_pfs(tmp_path):
    path = tmp_path / "pts.parquet"
    truth = write_parquet_points(str(path), 3000, 4, seed=9)
    cluster = make_cluster()
    res = cluster.run_driver(spark_kmeans(
        cluster, f"parquet://{path}", 4, 3, 0, "/out/assignments"))
    centroids, _ = res.values[0]
    raw = bytes(cluster.pfs._file("/out/assignments"))
    labels = np.frombuffer(raw, dtype=np.int32)
    assert len(labels) == 3000
    assert match_accuracy(labels, truth) > 0.85
    # The written labels match a direct prediction with the model.
    pts, _ = generate_points(3000, 4, seed=9)
    pred, _ = assign(as_xyz(pts), centroids)
    assert (labels == pred).mean() > 0.999
