"""Unit tests for the mini-Spark substrate."""

import numpy as np
import pytest

from repro.apps.datagen import POINT3D, as_xyz, write_parquet_points
from repro.spark.core import SparkOom, SparkSim
from tests.apps.conftest import make_cluster


def make_spark(**over):
    cluster = make_cluster(**over)
    return cluster, SparkSim(cluster)


def run(cluster, gen):
    return cluster.sim.run(until=cluster.sim.process(gen))


def load(cluster, spark, tmp_path, n=1000):
    """A cached RDD of ``n`` points, read from a file as the apps do."""
    path = tmp_path / "pts.parquet"
    write_parquet_points(str(path), n, 2, seed=1)
    return run(cluster, spark.read_records(f"parquet://{path}", POINT3D))


def dram_used(cluster):
    return sum(d.tiers[0].used for d in cluster.dmshs)


def test_map_partitions_materializes_new_rdd(tmp_path):
    cluster, spark = make_spark()
    rdd = load(cluster, spark, tmp_path)

    def driver():
        doubled = yield from rdd.map_partitions(lambda a: as_xyz(a) * 2)
        return doubled

    doubled = run(cluster, driver())
    assert doubled.n_partitions == rdd.n_partitions
    for (n0, src), (n1, out) in zip(rdd.partitions, doubled.partitions):
        assert n0 == n1 and np.array_equal(out, as_xyz(src) * 2)


def test_memory_amplification_parents_stay_resident(tmp_path):
    cluster, spark = make_spark()
    before = dram_used(cluster)
    rdd = load(cluster, spark, tmp_path)

    def driver():
        stage2 = yield from rdd.map_partitions(lambda a: a.copy())
        return stage2

    run(cluster, driver())
    nbytes = sum(part.nbytes for _node, part in rdd.partitions)
    # Two materialized copies x mem_factor (JVM overhead).
    assert dram_used(cluster) - before == pytest.approx(
        2 * nbytes * spark.mem_factor)


def test_unpersist_releases_memory(tmp_path):
    cluster, spark = make_spark()
    rdd = load(cluster, spark, tmp_path)
    assert dram_used(cluster) > 0
    rdd.unpersist()
    rdd.unpersist()  # idempotent
    assert dram_used(cluster) == 0


def test_executor_oom(tmp_path):
    cluster, spark = make_spark(dram_mb=1)
    with pytest.raises(SparkOom):
        # 1.2 MB of points, 2x JVM overhead, over two 1 MB nodes.
        load(cluster, spark, tmp_path, n=100_000)


def test_tree_aggregate_sums_partitions(tmp_path):
    cluster, spark = make_spark()
    rdd = load(cluster, spark, tmp_path)

    def driver():
        total = yield from rdd.tree_aggregate(
            lambda a: float(as_xyz(a).sum()), lambda x, y: x + y)
        return total

    expected = sum(float(as_xyz(p).sum()) for _n, p in rdd.partitions)
    assert rdd.n_partitions > 2
    assert run(cluster, driver()) == pytest.approx(expected)


def test_read_records_loads_real_file(tmp_path):
    cluster, spark = make_spark()
    path = tmp_path / "pts.parquet"
    write_parquet_points(str(path), 1000, 2, seed=1)

    def driver():
        rdd = yield from spark.read_records(f"parquet://{path}", POINT3D)
        parts = yield from rdd.collect()
        return sum(len(p) for p in parts), rdd.n_partitions

    n, parts = run(cluster, driver())
    assert n == 1000
    assert parts == spark.partitions_per_node * spark.n_nodes


def test_broadcast_charges_tcp():
    cluster, spark = make_spark()
    before = cluster.network.bytes_moved

    def driver():
        yield from spark.broadcast(np.zeros(1000))

    run(cluster, driver())
    # One copy to every non-driver node.
    assert cluster.network.bytes_moved - before >= \
        (spark.n_nodes - 1) * 8000


def test_tcp_is_slower_than_fabric():
    cluster, spark = make_spark()
    t_tcp = spark.tcp.xfer_time(10 ** 6)
    t_fab = cluster.network.intra.xfer_time(10 ** 6)
    assert t_tcp > t_fab


def test_jvm_factor_scales_compute_time(tmp_path):
    cluster, spark = make_spark()
    rdd = load(cluster, spark, tmp_path, n=60_000)

    def driver():
        t0 = cluster.sim.now
        yield from rdd.map_partitions(lambda a: a, factor=4.0)
        return cluster.sim.now - t0

    elapsed = run(cluster, driver())
    # The partitions run in parallel: the largest one sets the time.
    largest = max(part.nbytes for _node, part in rdd.partitions)
    expected = spark.jvm_factor * 5.0 * largest \
        / cluster.spec.config.compute_bw
    assert elapsed == pytest.approx(expected, rel=0.01)
