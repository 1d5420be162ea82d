"""KMeans: unit tests for the math + integration for both versions."""

import importlib

import numpy as np
import pytest

from repro.apps.datagen import POINT3D, as_xyz, generate_points, \
    write_parquet_points
from repro.apps.kmeans import (
    assign,
    inertia_of,
    match_accuracy,
    mm_kmeans,
    reference_kmeans,
    spark_kmeans,
)
from repro.apps.kmeans.common import N_INIT, oversample, recluster, \
    select, weighted_kmeans
from repro.sim.rand import rng_stream
from repro.storage.backend import parse_url
from repro.storage.formats.parquetsim import ParquetSimBackend
from tests.apps.conftest import make_cluster

# The package re-exports the function under the submodule's name.
mm_kmeans_module = importlib.import_module("repro.apps.kmeans.mm_kmeans")
mllib_module = importlib.import_module("repro.spark.mllib")


def test_assign_picks_nearest():
    xyz = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    cents = np.array([[1.0, 0, 0], [9.0, 0, 0]])
    labels, d2 = assign(xyz, cents)
    assert list(labels) == [0, 1]
    assert d2 == pytest.approx([1.0, 1.0])


def test_inertia_zero_at_points():
    xyz = np.array([[1.0, 2, 3], [4.0, 5, 6]])
    assert inertia_of(xyz, xyz) == pytest.approx(0.0)


def test_reference_kmeans_recovers_halos():
    pts, labels = generate_points(2000, 4, seed=1, spread=1.0)
    xyz = as_xyz(pts)
    cents, inertia = reference_kmeans(xyz, 4, seed=0, max_iter=10)
    pred, _ = assign(xyz, cents)
    assert match_accuracy(pred, labels) > 0.9
    assert inertia > 0


def test_match_accuracy_bounds():
    truth = np.array([0, 0, 1, 1])
    assert match_accuracy(np.array([5, 5, 9, 9]), truth) == 1.0
    assert match_accuracy(np.array([5, 9, 5, 9]), truth) == 0.5


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("kmeans") / "pts.parquet"
    labels = write_parquet_points(str(path), 4000, 4, seed=11)
    return f"parquet://{path}", labels


def test_mm_kmeans_clusters_correctly(dataset):
    url, truth = dataset
    cluster = make_cluster()

    res = cluster.run(mm_kmeans, url, 4, 4)
    centroids, inertia = res.values[0]
    # All ranks agree on the result.
    for c, i in res.values[1:]:
        assert np.allclose(c, centroids)
        assert i == pytest.approx(inertia)
    pts, _ = generate_points(4000, 4, seed=11)
    pred, _ = assign(as_xyz(pts), centroids)
    assert match_accuracy(pred, truth) > 0.85
    assert res.runtime > 0


def test_mm_kmeans_inertia_matches_direct_computation(dataset):
    url, _ = dataset
    cluster = make_cluster()
    res = cluster.run(mm_kmeans, url, 4, 3)
    centroids, inertia = res.values[0]
    pts, _ = generate_points(4000, 4, seed=11)
    # The reported inertia is measured during the final assignment
    # pass (against pre-update centroids), so it upper-bounds the
    # post-update value and must sit within a few percent of it.
    final = inertia_of(as_xyz(pts), centroids)
    assert inertia >= final - 1e-6
    assert inertia == pytest.approx(final, rel=0.05)


def test_mm_kmeans_persists_assignments(dataset, tmp_path):
    url, truth = dataset
    cluster = make_cluster()
    assign_url = f"posix://{tmp_path}/assign.bin"
    res = cluster.run(mm_kmeans, url, 4, 3, 0, None, 3, assign_url)
    cluster.shutdown()
    labels = np.fromfile(tmp_path / "assign.bin", dtype=np.int32)
    assert len(labels) == 4000
    assert match_accuracy(labels, truth) > 0.85


def test_mm_kmeans_bounded_memory_still_correct(dataset):
    url, truth = dataset
    cluster = make_cluster()
    res = cluster.run(mm_kmeans, url, 4, 3, 0, 64 * 1024)  # 8 pages
    centroids, _ = res.values[0]
    pts, _ = generate_points(4000, 4, seed=11)
    pred, _ = assign(as_xyz(pts), centroids)
    assert match_accuracy(pred, truth) > 0.8


def test_spark_kmeans_clusters_correctly(dataset):
    url, truth = dataset
    cluster = make_cluster()
    res = cluster.run_driver(spark_kmeans(cluster, url, 4, 4))
    centroids, inertia = res.values[0]
    pts, _ = generate_points(4000, 4, seed=11)
    pred, _ = assign(as_xyz(pts), centroids)
    assert match_accuracy(pred, truth) > 0.85


def test_spark_uses_more_dram_than_megammap(tmp_path):
    """The Fig. 5 memory claim: Spark materializes several copies of
    the dataset; MegaMmap's caches are bounded."""
    path = tmp_path / "big.parquet"
    write_parquet_points(str(path), 50_000, 4, seed=4)
    url = f"parquet://{path}"
    c1 = make_cluster()
    mm_res = c1.run(mm_kmeans, url, 4, 2, 0, 64 * 1024)
    c2 = make_cluster()
    sp_res = c2.run_driver(spark_kmeans(c2, url, 4, 2))
    assert sp_res.peak_dram_total > 1.5 * mm_res.peak_dram_total


def test_spark_is_slower_than_megammap(tmp_path):
    """Fig. 5's compute-dominated regime (the paper runs 2 GB/node,
    entirely in memory): Spark's JVM factor, extra materialization
    stages, and TCP shuffles make it slower than MegaMmap."""
    path = tmp_path / "big.parquet"
    write_parquet_points(str(path), 200_000, 4, seed=4)
    url = f"parquet://{path}"
    c1 = make_cluster()
    mm_res = c1.run(mm_kmeans, url, 4, 4)
    c2 = make_cluster()
    sp_res = c2.run_driver(spark_kmeans(c2, url, 4, 4))
    assert sp_res.runtime > mm_res.runtime


# ---------------------------------------------------------------------------
# KMeans‖ initialisation: the one-pass sampler and the recluster
# ---------------------------------------------------------------------------

#: ``kmeans_scan``'s shape: 200 000 points, k = 8, ℓ = 2k, 3 rounds,
#: one 64 KB page (5 461 POINT3D records) a chunk.
SCAN_N, SCAN_K, SCAN_ROUNDS, SCAN_CHUNK = 200_000, 8, 3, 64 * 1024 // 12


def _chunks(xyz, nranks, chunk):
    """Each rank's partition, cut into chunks of ``chunk`` points."""
    return [[part[i:i + chunk] for i in range(0, len(part), chunk)]
            for part in np.array_split(xyz, nranks)]


def _one_pass_round(ranks, cand, ell, seed, rnd):
    shares = []
    for r, chunks in enumerate(ranks):
        rng = rng_stream(seed, "test", rnd, r)
        cost, kept = 0.0, [np.empty((0, 5))]
        for xyz in chunks:
            cost, rows = oversample(xyz, cand, rng.random(len(xyz)), ell,
                                    cost)
            kept.append(rows)
        shares.append((cost, np.concatenate(kept)))
    return select(shares)


def _two_pass_round(ranks, cand, ell, seed, rnd):
    """Bahmani's rule with φ computed first, then the same draws."""
    costs, scored = [], []
    for r, chunks in enumerate(ranks):
        rng = rng_stream(seed, "test", rnd, r)
        cost = 0.0
        for xyz in chunks:
            _, d2 = assign(xyz, cand)
            cost += float(d2.sum())
            scored.append((xyz, ell * d2, rng.random(len(xyz))))
        costs.append(cost)
    phi = 0.0
    for cost in costs:
        phi += cost
    return np.concatenate([xyz[u * phi < w] for xyz, w, u in scored])


def _init(xyz, nranks, chunk, round_fn, k=SCAN_K, rounds=SCAN_ROUNDS,
          seed=0):
    ranks = _chunks(xyz, nranks, chunk)
    cand = xyz[:1]
    for rnd in range(rounds):
        cand = np.vstack([cand, round_fn(ranks, cand, 2 * k, seed, rnd)])
    return cand


@pytest.mark.parametrize("nranks", [1, 2, 8])
@pytest.mark.parametrize("chunk", [337, 2000, SCAN_CHUNK])
def test_one_pass_sampler_equals_two_pass_reference(nranks, chunk):
    pts, _ = generate_points(30_000, SCAN_K, seed=3)
    xyz = as_xyz(pts)
    one = _init(xyz, nranks, chunk, _one_pass_round)
    two = _init(xyz, nranks, chunk, _two_pass_round)
    assert len(one) > 1 + SCAN_ROUNDS  # the rounds really pick
    assert np.array_equal(one, two)


@pytest.mark.parametrize("nranks", [1, 2, 8])
def test_candidates_stay_within_the_kmeans_parallel_bound(nranks):
    """About ℓ picks a round in total, not ℓ per chunk: at most
    1 + 2·r·ℓ candidates after r rounds."""
    pts, _ = generate_points(SCAN_N, SCAN_K, seed=0)
    cand = _init(as_xyz(pts), nranks, SCAN_CHUNK, _one_pass_round)
    assert len(cand) <= 1 + 2 * SCAN_ROUNDS * 2 * SCAN_K


def test_recluster_keeps_the_cheapest_try():
    pts, _ = generate_points(400, 4, seed=5)
    cand = as_xyz(pts)
    weights = rng_stream(0, "w").integers(1, 50, len(cand)).astype(float)
    tries = [weighted_kmeans(cand, weights, 4, rng_stream(7, "recluster", t))
             for t in range(N_INIT)]
    costs = [float(weights @ assign(cand, c)[1]) for c in tries]
    assert len(set(costs)) > 1
    assert np.array_equal(recluster(cand, weights, 4, 7),
                          tries[int(np.argmin(costs))])


def test_mm_and_mllib_build_candidates_with_the_shared_functions(
        dataset, monkeypatch):
    url, _ = dataset
    for module in (mm_kmeans_module, mllib_module):
        calls = {"oversample": 0, "select": 0, "recluster": []}

        def counting(name, fn, calls=calls):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def recording(cand, weights, k, seed, calls=calls):
            calls["recluster"].append(len(cand))
            return recluster(cand, weights, k, seed)

        monkeypatch.setattr(module, "oversample",
                            counting("oversample", oversample))
        monkeypatch.setattr(module, "select", counting("select", select))
        monkeypatch.setattr(module, "recluster", recording)
        cluster = make_cluster()
        if module is mm_kmeans_module:
            cluster.run(mm_kmeans, url, 4, 1)
            assert calls["select"] == 3 * cluster.spec.nprocs
        else:
            cluster.run_driver(spark_kmeans(cluster, url, 4, 1))
            assert calls["select"] == 3
        assert calls["oversample"] >= calls["select"]
        (n_cand,) = calls["recluster"]
        assert 1 < n_cand <= 1 + 2 * 3 * 2 * 4


def test_identical_points_give_equal_centroids_and_zero_inertia(
        tmp_path, monkeypatch):
    """Every round picks nothing (φ = 0), and that is not an error."""
    monkeypatch.chdir(tmp_path)
    pts = np.zeros(4000, dtype=POINT3D)
    pts["x"], pts["y"], pts["z"] = 10.0, 20.0, 30.0
    ParquetSimBackend(parse_url("parquet://./same.parquet"),
                      dtype=POINT3D, create=True).append_records(pts)
    cluster = make_cluster()
    res = cluster.run(mm_kmeans, "parquet://./same.parquet", 4, 2)
    assert len(res.values) == cluster.spec.nprocs
    for centroids, inertia in res.values:
        assert centroids.shape == (4, 3)
        assert np.array_equal(centroids, np.tile([10.0, 20.0, 30.0],
                                                 (4, 1)))
        assert inertia == 0.0
