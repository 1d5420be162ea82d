"""MPI DBSCAN's explicit staged write-back (run coalescing to PFS)."""

import numpy as np
import pytest

from repro.apps.datagen import write_parquet_points
from repro.apps.dbscan import mpi_dbscan, reference_dbscan
from repro.apps.datagen import as_xyz, generate_points
from repro.apps.kmeans.common import match_accuracy
from tests.apps.conftest import make_cluster


def test_mpi_dbscan_writes_assignment_file(tmp_path):
    path = tmp_path / "pts.parquet"
    truth = write_parquet_points(str(path), 2000, 4, seed=17)
    cluster = make_cluster()
    cluster.run(mpi_dbscan, f"parquet://{path}", 2.5, 8, 0,
                "/out/assign.bin")
    raw = bytes(cluster.pfs._file("/out/assign.bin"))
    labels = np.frombuffer(raw, dtype=np.int64)
    assert len(labels) == 2000
    assert match_accuracy(labels, truth) > 0.85
    # Agrees with the single-process oracle up to label renaming.
    pts, _ = generate_points(2000, 4, seed=17)
    ref = reference_dbscan(as_xyz(pts), 2.5, 8)
    assert match_accuracy(labels, ref) > 0.95
