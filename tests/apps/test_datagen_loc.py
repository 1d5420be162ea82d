"""Unit tests for the dataset generator and the LOC counter."""

import numpy as np
import pytest

from repro.apps.datagen import (
    PARTICLE,
    POINT3D,
    as_xyz,
    generate_points,
    write_gadget_like,
    write_parquet_points,
)
from repro.apps.loc import count_loc
from repro.storage import open_backend


def test_generate_points_shapes_and_labels():
    pts, labels = generate_points(1000, 8, seed=1)
    assert pts.dtype == POINT3D
    assert len(pts) == len(labels) == 1000
    assert set(np.unique(labels)) <= set(range(-1, 8))
    # Roughly 10% background.
    assert 50 <= (labels == -1).sum() <= 150


def test_generate_points_deterministic():
    a, la = generate_points(500, 4, seed=7)
    b, lb = generate_points(500, 4, seed=7)
    assert np.array_equal(a, b)
    assert np.array_equal(la, lb)


def test_generate_points_halos_are_tight():
    pts, labels = generate_points(2000, 4, seed=2, spread=1.0)
    xyz = as_xyz(pts)
    for h in range(4):
        cluster = xyz[labels == h]
        spread = cluster.std(axis=0).mean()
        assert spread < 3.0  # clustered, not uniform


def test_generate_with_velocity():
    pts, _ = generate_points(100, 2, seed=0, with_velocity=True)
    assert pts.dtype == PARTICLE


def test_generate_invalid_args():
    with pytest.raises(ValueError):
        generate_points(0, 1)
    with pytest.raises(ValueError):
        generate_points(10, 0)


def test_write_gadget_like_roundtrip(tmp_path):
    path = f"{tmp_path}/snap.h5"
    labels = write_gadget_like(path, 300, 3, seed=5)
    be = open_backend(f"hdf5://{path}:parttype0")
    recs = np.frombuffer(be.read_range(0, be.size()), dtype=PARTICLE)
    expect, _ = generate_points(300, 3, seed=5, with_velocity=True)
    assert np.array_equal(recs, expect)
    assert len(labels) == 300


def test_write_parquet_points_roundtrip(tmp_path):
    path = f"{tmp_path}/pts.parquet"
    write_parquet_points(path, 200, 2, seed=3)
    be = open_backend(f"parquet://{path}", dtype=POINT3D)
    assert be.size() == 200 * POINT3D.itemsize
    recs = np.frombuffer(be.read_range(0, be.size()), dtype=POINT3D)
    expect, _ = generate_points(200, 2, seed=3)
    assert np.array_equal(recs, expect)


@pytest.mark.parametrize("writer, url", [
    (write_parquet_points, "parquet://{}"),
    (write_gadget_like, "hdf5://{}:parttype0")])
def test_writing_twice_to_one_path_replaces_the_file(tmp_path, writer,
                                                     url):
    """Two calls on one path leave ``n`` records, and the same file
    bytes as one call."""
    once, twice = f"{tmp_path}/once", f"{tmp_path}/twice"
    writer(once, 300, 3, seed=5)
    writer(twice, 300, 3, seed=5)
    writer(twice, 300, 3, seed=5)
    with open(once, "rb") as a, open(twice, "rb") as b:
        assert a.read() == b.read()
    be = open_backend(url.format(twice))
    itemsize = POINT3D.itemsize if writer is write_parquet_points \
        else PARTICLE.itemsize
    assert be.size() == 300 * itemsize


def test_count_loc_ignores_blanks_comments_docstrings():
    src = '''
"""Module docstring."""

# a comment
import os


def f(x):
    """Doc."""
    # inline comment explains
    return x + 1  # trailing
'''
    assert count_loc(src) == 3  # import, def, return


def test_count_loc_multiline_statement():
    src = "x = [1,\n     2,\n     3]\n"
    assert count_loc(src) == 3


def test_count_loc_garbage_fallback():
    assert count_loc("def broken(:\n  x\n# c\n") >= 1
