"""DBSCAN: unit tests for the pieces + integration for both versions."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from repro.apps.datagen import as_xyz, generate_points, \
    write_parquet_points
from repro.apps.dbscan.common import (
    encode_gid,
    local_dbscan,
    merge_labels,
    reference_dbscan,
)
from repro.apps.dbscan.mm_dbscan import mm_dbscan
from repro.apps.dbscan.mpi_dbscan import mpi_dbscan
from repro.apps.kmeans.common import match_accuracy
from tests.apps.conftest import make_cluster


def two_blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0, 0, 0], 0.5, size=(n // 2, 3))
    b = rng.normal([10, 10, 10], 0.5, size=(n // 2, 3))
    return np.vstack([a, b])


def test_local_dbscan_separates_blobs():
    xyz = two_blobs()
    labels, is_core = local_dbscan(xyz, eps=2.0, min_pts=5)
    assert len(np.unique(labels[labels >= 0])) == 2
    assert (labels[:100] == labels[0]).all()
    assert (labels[100:] == labels[100]).all()
    assert labels[0] != labels[100]
    assert is_core.sum() > 0


def test_local_dbscan_flags_noise():
    xyz = np.vstack([two_blobs(), [[100.0, 100, 100]]])
    labels, _ = local_dbscan(xyz, eps=2.0, min_pts=5)
    assert labels[-1] == -1


def test_local_dbscan_empty():
    labels, core = local_dbscan(np.empty((0, 3)), 1.0, 3)
    assert len(labels) == 0 and len(core) == 0


def test_encode_gid_preserves_noise():
    labels = np.array([-1, 0, 3])
    gids = encode_gid(2, labels)
    assert gids[0] == -1
    assert gids[1] == 2 * (1 << 32)
    assert gids[2] == 2 * (1 << 32) + 3


def test_merge_labels_joins_across_processes():
    # Two halves of one blob assigned to different "processes".
    cut = two_blobs()[:100]
    ga = encode_gid(0, np.zeros(50, dtype=np.int64))
    gb = encode_gid(1, np.zeros(50, dtype=np.int64))
    merged = merge_labels(
        [cut[:50], cut[50:]], [ga, gb],
        [np.ones(50, bool), np.ones(50, bool)], eps=2.0)
    assert merged == {int(ga[0]): int(ga[0]), int(gb[0]): int(ga[0])}


def local_dbscan_by_definition(xyz, eps, min_pts):
    """DBSCAN from its definition: a point is core when its closed
    eps-ball holds >= min_pts points; clusters are the components of
    the core-core eps graph, numbered by their first core point; a
    border point takes the lowest id among its core neighbours'."""
    near = cdist(xyz, xyz) <= eps
    core = near.sum(axis=1) >= min_pts
    _, comp = connected_components(near & core[:, None] & core[None, :],
                                   directed=False)
    first = {}
    for i in np.flatnonzero(core):
        first.setdefault(comp[i], len(first))
    labels = np.full(len(xyz), -1, dtype=np.int64)
    labels[core] = [first[c] for c in comp[core]]
    for i in np.flatnonzero(~core):
        ids = labels[near[i] & core]
        if len(ids):
            labels[i] = ids.min()
    return labels, core


def test_local_dbscan_matches_the_definition():
    rng = np.random.default_rng(11)
    for case in range(120):
        n = int(rng.integers(1, 60))
        if case % 2:
            # Integer grid at eps 1: many pairs at exactly eps.
            xyz = rng.integers(0, 5, size=(n, 3)).astype(float)
            eps = 1.0
        else:
            xyz = rng.normal(0.0, 2.0, size=(n, 3))
            eps = float(rng.uniform(0.5, 2.0))
        min_pts = int(rng.integers(1, 6))
        labels, core = local_dbscan(xyz, eps, min_pts)
        want_labels, want_core = local_dbscan_by_definition(
            xyz, eps, min_pts)
        np.testing.assert_array_equal(core, want_core)
        np.testing.assert_array_equal(labels, want_labels)


def merge_by_all_pairs(xyz, ids, core, eps):
    """Oracle for merge_labels: every eps-close pair of distinct
    µclusters with a core side joins them; each gid maps to the
    smallest gid of its class."""
    close = (cdist(xyz, xyz) <= eps) & (core[:, None] | core[None, :])
    glob = {int(g): int(g) for g in ids}
    changed = True
    while changed:
        changed = False
        for a, b in zip(*np.nonzero(close)):
            lo = min(glob[int(ids[a])], glob[int(ids[b])])
            for g in (int(ids[a]), int(ids[b])):
                if glob[g] != lo:
                    glob[g], changed = lo, True
    return glob


def random_boundaries(rng, n_ranks=3):
    """Per-rank boundary sets on an integer grid (eps 1 pairs are
    exact), a few µclusters per rank, random core flags."""
    xyz, ids, core = [], [], []
    for rank in range(n_ranks):
        n = int(rng.integers(0, 14))
        xyz.append(rng.integers(0, 5, size=(n, 3)).astype(float))
        ids.append(encode_gid(rank, rng.integers(0, 3, size=n)))
        core.append(rng.random(n) < 0.5)
    return xyz, ids, core


def _merge_cases():
    eps = 1.0
    g = [int(encode_gid(r, np.array([label]))[0])
         for r, label in ((0, 0), (0, 1), (1, 0), (2, 0), (2, 1))]
    at = np.array
    cases = [
        # A pair at exactly eps, core on one side only.
        ([at([[0.0, 0, 0]]), at([[eps, 0, 0]])],
         [at([g[0]]), at([g[2]])], [at([True]), at([False])]),
        # Same-rank border bridge: rank 0's µcluster 1 touches its
        # µcluster 0's core through a border point.
        ([at([[0.0, 0, 0], [0.0, 0, 1]])], [at([g[0], g[1]])],
         [at([True, False])]),
        # A chain 0 - 1 - 2 whose ends are 2 eps apart, and a
        # µcluster with no core point that touches only a border.
        ([at([[0.0, 0, 0]]), at([[1.0, 0, 0], [9.0, 9, 9]]),
          at([[2.0, 0, 0], [9.0, 9, 8]])],
         [at([g[0]]), at([g[2], g[2]]), at([g[3], g[4]])],
         [at([True]), at([True, False]), at([True, False])]),
    ]
    rng = np.random.default_rng(5)
    cases += [random_boundaries(rng) for _ in range(150)]
    return eps, cases


def test_merge_labels_matches_all_pairs_oracle():
    eps, cases = _merge_cases()
    for xyz, ids, core in cases:
        got = merge_labels(xyz, ids, core, eps)
        flat = [np.concatenate(a) for a in (ids, core)]
        if not len(flat[0]):
            assert got == {}
            continue
        want = merge_by_all_pairs(np.vstack(xyz), flat[0], flat[1], eps)
        assert got == want
    # The hand-made cases: exact-eps pair (its rank-1 side has no core
    # point), same-rank bridge, chain; the core-less µcluster that
    # touches only a border stays apart.
    first = [merge_labels(x, i, c, eps) for x, i, c in cases[:3]]
    assert len(set(first[0].values())) == 1
    assert len(set(first[1].values())) == 1
    chain = first[2]
    assert chain[int(cases[2][1][0][0])] == chain[int(cases[2][1][2][0])]
    assert chain[int(cases[2][1][2][1])] == int(cases[2][1][2][1])


def test_merge_labels_is_a_function_of_the_boundary_sets():
    rng = np.random.default_rng(9)
    for _ in range(40):
        xyz, ids, core = random_boundaries(rng, n_ranks=4)
        got = merge_labels(xyz, ids, core, 1.0)
        rev = merge_labels(xyz[::-1], ids[::-1], core[::-1], 1.0)
        perm = rng.permutation(4)
        shuf = merge_labels([xyz[i] for i in perm], [ids[i] for i in perm],
                            [core[i] for i in perm], 1.0)
        assert got == rev == shuf
        for gid, glob in got.items():
            assert glob == min(g for g, h in got.items() if h == glob)


def test_reference_dbscan_recovers_halos():
    pts, truth = generate_points(2000, 4, seed=3, spread=0.8)
    xyz = as_xyz(pts)
    labels = reference_dbscan(xyz, eps=2.0, min_pts=8)
    assert match_accuracy(labels, truth) > 0.9


@pytest.fixture(scope="module")
def db_dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("dbscan")
    path = base / "pts.parquet"
    truth = write_parquet_points(str(path), 3000, 4, seed=13)
    pts, _ = generate_points(3000, 4, seed=13)
    xyz = as_xyz(pts)
    ref = reference_dbscan(xyz, eps=2.5, min_pts=8)
    return f"parquet://{path}", truth, xyz, ref


def _assemble(values, n):
    labels = np.full(n, -2, dtype=np.int64)
    for orig, lab in values:
        labels[orig] = lab
    assert (labels != -2).all()  # every point assigned exactly once
    return labels


def test_mm_dbscan_matches_reference(db_dataset):
    url, truth, xyz, ref = db_dataset
    cluster = make_cluster()
    res = cluster.run(mm_dbscan, url, 2.5, 8)
    labels = _assemble(res.values, 3000)
    # Same clustering as the single-process oracle (cluster ids
    # differ; compare by matching) and good halo recovery.
    assert match_accuracy(labels, ref) > 0.95
    assert match_accuracy(labels, truth) > 0.85


def test_mm_dbscan_cluster_count(db_dataset):
    url, _, _, ref = db_dataset
    cluster = make_cluster()
    res = cluster.run(mm_dbscan, url, 2.5, 8)
    labels = _assemble(res.values, 3000)
    n_ref = len(np.unique(ref[ref >= 0]))
    n_got = len(np.unique(labels[labels >= 0]))
    assert abs(n_got - n_ref) <= 1


def test_mpi_dbscan_matches_reference(db_dataset):
    url, truth, xyz, ref = db_dataset
    cluster = make_cluster()
    res = cluster.run(mpi_dbscan, url, 2.5, 8)
    labels = _assemble(res.values, 3000)
    assert match_accuracy(labels, ref) > 0.95


def test_mm_and_mpi_dbscan_agree(db_dataset):
    url, _, _, _ = db_dataset
    c1 = make_cluster()
    mm_labels = _assemble(c1.run(mm_dbscan, url, 2.5, 8).values, 3000)
    c2 = make_cluster()
    mpi_labels = _assemble(c2.run(mpi_dbscan, url, 2.5, 8).values, 3000)
    np.testing.assert_array_equal(mm_labels, mpi_labels)


def test_mm_dbscan_performs_close_to_mpi(db_dataset):
    """Fig. 5 claim: MegaMmap performs similarly to the MPI-based
    implementation (within a modest factor at small scale)."""
    url, _, _, _ = db_dataset
    c1 = make_cluster()
    mm_t = c1.run(mm_dbscan, url, 2.5, 8).runtime
    c2 = make_cluster()
    mpi_t = c2.run(mpi_dbscan, url, 2.5, 8).runtime
    assert mm_t < 2.0 * mpi_t


def test_mm_dbscan_persists_assignments(db_dataset, tmp_path):
    url, truth, _, _ = db_dataset
    cluster = make_cluster()
    out_url = f"posix://{tmp_path}/labels.bin"
    res = cluster.run(mm_dbscan, url, 2.5, 8, 0, None, out_url)
    cluster.shutdown()
    on_disk = np.fromfile(tmp_path / "labels.bin", dtype=np.int64)
    assert len(on_disk) == 3000
    assert match_accuracy(on_disk, truth) > 0.85
