"""Unit + property tests for URL parsing and the format backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BackendError, open_backend, parse_url
from repro.storage.formats.hdf5sim import HEADER, Hdf5SimBackend
from repro.storage.formats.parquetsim import ParquetSimBackend


# -- URL parsing -------------------------------------------------------------

def test_parse_simple_posix():
    u = parse_url("posix:///data/points.bin")
    assert (u.scheme, u.path, u.params) == ("posix", "/data/points.bin", "")


def test_parse_hdf5_with_group_params():
    u = parse_url("hdf5:///path/to/df.h5:mygroup")
    assert u.scheme == "hdf5"
    assert u.path == "/path/to/df.h5"
    assert u.params == "mygroup"


def test_parse_colon_inside_directory_is_not_params():
    u = parse_url("file:///odd:dir/data.bin")
    assert u.path == "/odd:dir/data.bin"
    assert u.params == ""


def test_parse_wildcard_is_multi():
    u = parse_url("file:///path/to/dataset.parquet*")
    assert u.is_multi


def test_parse_rejects_non_url():
    with pytest.raises(BackendError):
        parse_url("/just/a/path")


def test_parse_rejects_empty_scheme():
    with pytest.raises(BackendError):
        parse_url("://x")


def test_unknown_scheme_rejected(tmp_path):
    with pytest.raises(BackendError, match="unknown scheme"):
        open_backend(f"ftp://{tmp_path}/x")


def test_scheme_is_case_insensitive():
    assert parse_url("HDF5:///a/b.h5:g").scheme == "hdf5"


# -- posix backend -----------------------------------------------------------

def test_posix_create_write_read(tmp_path):
    be = open_backend(f"posix://{tmp_path}/a.bin", create=True)
    be.ensure_size(100)
    be.write_range(10, b"hello")
    assert be.size() == 100
    assert be.read_range(10, 5) == b"hello"
    assert be.read_range(0, 10) == b"\0" * 10


def test_posix_missing_file_rejected(tmp_path):
    with pytest.raises(BackendError):
        open_backend(f"posix://{tmp_path}/nope.bin")


def test_posix_write_past_end_grows(tmp_path):
    be = open_backend(f"posix://{tmp_path}/a.bin", create=True)
    be.write_range(5, b"xy")
    assert be.size() == 7
    assert be.read_range(0, 7) == b"\0" * 5 + b"xy"


def test_posix_read_past_end_rejected(tmp_path):
    be = open_backend(f"posix://{tmp_path}/a.bin", create=True)
    be.ensure_size(10)
    with pytest.raises(BackendError):
        be.read_range(5, 10)


def test_posix_destroy(tmp_path):
    be = open_backend(f"posix://{tmp_path}/a.bin", create=True)
    assert be.exists()
    be.destroy()
    assert not be.exists()


# -- hdf5sim backend ----------------------------------------------------------

def _group(path, name, dtype):
    """Group ``name`` of the container at ``path``, read as a flat image."""
    be = open_backend(f"hdf5://{path}:{name}")
    return np.frombuffer(be.read_range(0, be.size()), dtype=dtype)


def test_hdf5_group_roundtrip(tmp_path):
    path = f"{tmp_path}/sim.h5"
    be = open_backend(f"hdf5://{path}:pos", dtype=np.float32, create=True)
    data = np.arange(12, dtype=np.float32)
    be.write_group("pos", data)
    assert np.array_equal(_group(path, "pos", np.float32), data)
    assert open_backend(f"hdf5://{path}:pos")._index["pos"] \
        == {"offset": HEADER.size, "nbytes": data.nbytes}


def test_hdf5_multiple_groups_independent(tmp_path):
    path = f"{tmp_path}/sim.h5"
    be = Hdf5SimBackend(parse_url(f"hdf5://{path}:a"), create=True)
    be.write_group("a", np.arange(4, dtype=np.int32))
    be.write_group("b", np.arange(8, dtype=np.float64))
    assert np.array_equal(_group(path, "a", np.int32),
                          np.arange(4, dtype=np.int32))
    assert np.array_equal(_group(path, "b", np.float64),
                          np.arange(8, dtype=np.float64))
    assert sorted(be._index) == ["a", "b"]


def test_hdf5_flat_image_range_io(tmp_path):
    path = f"{tmp_path}/sim.h5"
    be = open_backend(f"hdf5://{path}:g", create=True)
    be.ensure_size(64)
    be.write_range(8, b"ABCD")
    assert be.size() == 64
    assert be.read_range(8, 4) == b"ABCD"
    assert be.read_range(0, 8) == b"\0" * 8


def test_hdf5_grow_preserves_content(tmp_path):
    path = f"{tmp_path}/sim.h5"
    be = open_backend(f"hdf5://{path}:g", create=True)
    be.ensure_size(16)
    be.write_range(0, b"0123456789abcdef")
    be.ensure_size(64)
    assert be.read_range(0, 16) == b"0123456789abcdef"
    assert be.read_range(16, 48) == b"\0" * 48


def test_hdf5_grow_non_tail_group(tmp_path):
    path = f"{tmp_path}/sim.h5"
    be = Hdf5SimBackend(parse_url(f"hdf5://{path}:g1"), create=True)
    be.write_group("g1", np.arange(4, dtype=np.uint8))
    be.write_group("g2", np.arange(10, 14, dtype=np.uint8))
    be.ensure_size(8)  # g1 is no longer last -> relocation path
    assert be.read_range(0, 4) == bytes([0, 1, 2, 3])
    assert np.array_equal(_group(path, "g2", np.uint8),
                          np.arange(10, 14, dtype=np.uint8))


def test_hdf5_missing_group_rejected(tmp_path):
    path = f"{tmp_path}/sim.h5"
    Hdf5SimBackend(parse_url(f"hdf5://{path}:g"), create=True)
    with pytest.raises(BackendError, match="no group"):
        open_backend(f"hdf5://{path}:other").size()


def test_hdf5_bad_magic_rejected(tmp_path):
    path = tmp_path / "fake.h5"
    path.write_bytes(b"NOTHDF5" + b"\0" * 100)
    with pytest.raises(BackendError, match="not an hdf5sim"):
        open_backend(f"hdf5://{path}:g")


# -- parquetsim backend --------------------------------------------------------

POINT3D = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4")])


def _points(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.zeros(n, dtype=POINT3D)
    for f in POINT3D.names:
        pts[f] = rng.normal(size=n).astype(np.float32)
    return pts


def test_parquet_append_and_read_records(tmp_path):
    be = open_backend(f"parquet://{tmp_path}/d.parquet", dtype=POINT3D,
                      create=True)
    pts = _points(100)
    be.append_records(pts)
    out = be.read_records(0, 100)
    assert np.array_equal(out, pts)


def test_parquet_read_spanning_row_groups(tmp_path):
    be = open_backend(f"parquet://{tmp_path}/d.parquet", dtype=POINT3D,
                      create=True)
    a, b = _points(50, 1), _points(30, 2)
    be.append_records(a)
    be.append_records(b)
    out = be.read_records(40, 60)
    assert np.array_equal(out[:10], a[40:])
    assert np.array_equal(out[10:], b[:10])


def test_parquet_flat_image_roundtrip(tmp_path):
    be = open_backend(f"parquet://{tmp_path}/d.parquet", dtype=POINT3D,
                      create=True)
    pts = _points(64)
    be.append_records(pts)
    assert be.size() == 64 * POINT3D.itemsize
    raw = be.read_range(0, be.size())
    assert raw == pts.tobytes()


def test_parquet_unaligned_byte_range(tmp_path):
    be = open_backend(f"parquet://{tmp_path}/d.parquet", dtype=POINT3D,
                      create=True)
    pts = _points(16)
    be.append_records(pts)
    full = pts.tobytes()
    # A range that starts and ends mid-record.
    assert be.read_range(5, 17) == full[5:22]


def test_parquet_write_range_read_modify_write(tmp_path):
    be = open_backend(f"parquet://{tmp_path}/d.parquet", dtype=POINT3D,
                      create=True)
    pts = _points(16)
    be.append_records(pts)
    patch = b"\x01\x02\x03\x04\x05"
    be.write_range(7, patch)
    expected = bytearray(pts.tobytes())
    expected[7:12] = patch
    assert be.read_range(0, be.size()) == bytes(expected)


def test_parquet_ensure_size_appends_zero_records(tmp_path):
    be = open_backend(f"parquet://{tmp_path}/d.parquet", dtype=POINT3D,
                      create=True)
    be.ensure_size(10 * POINT3D.itemsize + 1)  # rounds up to 11 records
    assert be.n_records == 11
    assert be.read_range(0, POINT3D.itemsize) == b"\0" * POINT3D.itemsize


def test_parquet_scalar_dtype_wrapped(tmp_path):
    be = open_backend(f"parquet://{tmp_path}/d.parquet", dtype=np.float64,
                      create=True)
    be.append_records(np.arange(10, dtype=np.float64).view(be.dtype))
    raw = be.read_range(0, 80)
    assert np.array_equal(np.frombuffer(raw, dtype=np.float64),
                          np.arange(10, dtype=np.float64))


def test_parquet_dtype_mismatch_rejected(tmp_path):
    url = f"parquet://{tmp_path}/d.parquet"
    open_backend(url, dtype=POINT3D, create=True)
    with pytest.raises(BackendError, match="dtype mismatch"):
        open_backend(url, dtype=np.float64)


def test_parquet_create_without_dtype_rejected(tmp_path):
    with pytest.raises(BackendError, match="requires a dtype"):
        open_backend(f"parquet://{tmp_path}/d.parquet", create=True)


# -- multi-file (wildcard) backend ----------------------------------------------

def test_multifile_concatenates_sorted(tmp_path):
    for i in range(3):
        be = open_backend(f"posix://{tmp_path}/part{i}.bin", create=True)
        be.write_range(0, bytes([i]) * 4)
    multi = open_backend(f"file://{tmp_path}/part*.bin")
    assert multi.size() == 12
    assert multi.read_range(0, 12) == b"\0" * 4 + b"\x01" * 4 + b"\x02" * 4
    assert multi.read_range(3, 2) == b"\0\x01"


def test_multifile_is_read_only(tmp_path):
    be = open_backend(f"posix://{tmp_path}/p0.bin", create=True)
    be.write_range(0, b"abcd")
    multi = open_backend(f"file://{tmp_path}/p*.bin")
    with pytest.raises(BackendError, match="read-only"):
        multi.write_range(0, b"x")


def test_multifile_no_match_rejected(tmp_path):
    with pytest.raises(BackendError, match="matched no files"):
        open_backend(f"file://{tmp_path}/zzz*.bin")


# -- property-based round trips --------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=512),
       st.data())
def test_posix_range_io_matches_bytearray_model(tmp_path_factory, data, data2):
    base = tmp_path_factory.mktemp("prop")
    be = open_backend(f"posix://{base}/m.bin", create=True)
    be.ensure_size(len(data))
    be.write_range(0, data)
    model = bytearray(data)
    for _ in range(5):
        off = data2.draw(st.integers(0, len(data) - 1))
        n = data2.draw(st.integers(0, len(data) - off))
        patch = data2.draw(st.binary(min_size=n, max_size=n))
        be.write_range(off, patch)
        model[off:off + n] = patch
        assert be.read_range(0, len(data)) == bytes(model)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 200), st.data())
def test_parquet_range_io_matches_bytearray_model(tmp_path_factory, n, data):
    base = tmp_path_factory.mktemp("prop")
    be = open_backend(f"parquet://{base}/m.parquet", dtype=POINT3D,
                      create=True)
    pts = _points(n, seed=n)
    be.append_records(pts)
    model = bytearray(pts.tobytes())
    for _ in range(4):
        off = data.draw(st.integers(0, len(model) - 1))
        k = data.draw(st.integers(0, min(40, len(model) - off)))
        patch = bytes(data.draw(st.binary(min_size=k, max_size=k)))
        be.write_range(off, patch)
        model[off:off + k] = patch
    assert be.read_range(0, len(model)) == bytes(model)
