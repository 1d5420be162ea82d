"""SparkSim driver + RDDs over the simulated cluster."""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.net.fabric import ETH_10G, LinkSpec
from repro.sim import AllOf
from repro.storage.backend import open_backend
from repro.storage.device import DeviceFullError


def _nbytes(part: Any) -> int:
    if isinstance(part, np.ndarray):
        return part.nbytes
    if isinstance(part, (bytes, bytearray)):
        return len(part)
    if isinstance(part, (list, tuple)):
        return 64 + sum(_nbytes(p) for p in part)
    return 64


class RDD:
    """A materialized, partitioned dataset (eager model).

    Spark RDDs are lazy, but the evaluation workloads cache their
    inputs and materialize every stage; this model materializes each
    transformation while keeping the parent resident until explicitly
    unpersisted — which is exactly the memory-amplification behaviour
    the paper measures (IV-B1: "Spark creates several copies of the
    dataset when initially loading data from the backend and during
    the map/reduce phases").
    """

    def __init__(self, spark: "SparkSim",
                 partitions: List[Tuple[int, Any]], name: str = "rdd"):
        self.spark = spark
        self.partitions = partitions  # (node, data)
        self.name = name
        self._freed = False
        for node, data in partitions:
            spark._reserve(node, _nbytes(data))

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def unpersist(self) -> None:
        """Release executor memory for this RDD."""
        if not self._freed:
            for node, data in self.partitions:
                self.spark._unreserve(node, _nbytes(data))
            self._freed = True

    # -- transformations (driver generators) ---------------------------------
    def map_partitions(self, fn: Callable[[Any], Any],
                       name: str = "map", factor: float = 1.0):
        """Materialize ``fn(partition)`` per partition, in parallel
        across executors. Generator; returns the new RDD. ``factor``
        is the kernel's native per-byte compute cost (multiplied by
        the JVM factor)."""
        results = yield from self.spark._run_tasks(
            [(node, fn, data) for node, data in self.partitions],
            factor=factor)
        return RDD(self.spark,
                   [(node, res) for (node, _d), res in
                    zip(self.partitions, results)],
                   name=f"{self.name}.{name}")

    # -- actions --------------------------------------------------------------------
    def collect(self):
        """Ship every partition to the driver. Generator."""
        out = []
        for node, data in self.partitions:
            yield from self.spark._to_driver(node, _nbytes(data))
            out.append(data)
        return out

    def tree_aggregate(self, seq_fn: Callable[[Any], Any],
                       comb_fn: Callable[[Any, Any], Any],
                       factor: float = 1.0):
        """Per-partition ``seq_fn`` then tree combine to the driver
        (MLlib's treeAggregate). Generator."""
        partials = yield from self.spark._run_tasks(
            [(node, seq_fn, data) for node, data in self.partitions],
            factor=factor)
        # Tree combine: log2 rounds of pairwise merges, each shipping
        # a partial over TCP.
        items = [(node, val) for (node, _), val in
                 zip(self.partitions, partials)]
        while len(items) > 1:
            nxt = []
            for i in range(0, len(items) - 1, 2):
                (n0, v0), (n1, v1) = items[i], items[i + 1]
                yield from self.spark._tcp(n1, n0, _nbytes(v1))
                nxt.append((n0, comb_fn(v0, v1)))
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        node, value = items[0]
        yield from self.spark._to_driver(node, _nbytes(value))
        return value


class SparkOom(RuntimeError):
    """An executor exceeded node memory."""


class SparkSim:
    """Driver-side handle: builds RDDs, runs stages on executors."""

    def __init__(self, cluster, jvm_factor: float = 2.5,
                 mem_factor: float = 2.0,
                 tcp: LinkSpec = ETH_10G,
                 partitions_per_node: int = 2,
                 driver_node: int = 0):
        self.cluster = cluster
        self.sim = cluster.sim
        self.jvm_factor = jvm_factor
        #: JVM object/boxing overhead on resident data: MLlib rows and
        #: vectors cost a multiple of their packed size on the heap.
        self.mem_factor = mem_factor
        self.tcp = tcp
        self.partitions_per_node = partitions_per_node
        self.driver_node = driver_node
        self.n_nodes = cluster.spec.n_nodes

    # -- memory accounting ------------------------------------------------------
    def _reserve(self, node: int, nbytes: int) -> None:
        dram = self.cluster.dmshs[node].tiers[0]
        try:
            dram.reserve(int(nbytes * self.mem_factor), strict=True)
        except DeviceFullError as exc:
            raise SparkOom(str(exc)) from exc

    def _unreserve(self, node: int, nbytes: int) -> None:
        self.cluster.dmshs[node].tiers[0].unreserve(
            int(nbytes * self.mem_factor))

    # -- communication -----------------------------------------------------------
    def _tcp(self, src: int, dst: int, nbytes: int):
        yield from self.cluster.network.transfer(src, dst, nbytes,
                                                 link=self.tcp)

    def _to_driver(self, node: int, nbytes: int):
        yield from self._tcp(node, self.driver_node, nbytes)

    # -- task execution -------------------------------------------------------------
    def _run_tasks(self, tasks: List[Tuple[int, Callable, Any]],
                   factor: float = 1.0):
        """Run (node, fn, data) tasks concurrently; one executor core
        per partition. Charges ``factor`` (the kernel's native cost) x
        ``jvm_factor`` compute per byte, plus a deserialization pass."""
        cfg = self.cluster.spec.config

        def one(node, fn, data):
            yield self.sim.timeout(
                self.jvm_factor * (factor + 1.0)
                * _nbytes(data) / cfg.compute_bw)
            return fn(data)

        procs = [self.sim.process(one(node, fn, data), name="spark.task")
                 for node, fn, data in tasks]
        results = yield AllOf(self.sim, procs)
        return results

    # -- data sources -----------------------------------------------------------------
    def read_records(self, url: str, dtype) -> "RDD":
        """Load a dataset file into a cached RDD (generator).

        Reads the real backing file, splits records round-robin into
        ``partitions_per_node * n_nodes`` partitions, charges the PFS
        read plus the TCP scatter — and leaves both the load-time copy
        and the cached RDD resident, as Spark does.
        """
        backend = open_backend(url, dtype=np.dtype(dtype))
        total = backend.size()
        n_parts = self.partitions_per_node * self.n_nodes
        itemsize = np.dtype(dtype).itemsize
        n_records = total // itemsize
        per = -(-n_records // n_parts)
        partitions = []
        pfs = self.cluster.pfs
        for p in range(n_parts):
            lo = min(p * per, n_records)
            hi = min(lo + per, n_records)
            node = p % self.n_nodes
            raw = backend.read_range(lo * itemsize, (hi - lo) * itemsize)
            if pfs is not None:
                yield from pfs.charge(self.driver_node,
                                      [(lo * itemsize, max(1, len(raw)))],
                                      write=False, file=url)
            yield from self._tcp(self.driver_node, node, len(raw))
            partitions.append(
                (node, np.frombuffer(raw, dtype=dtype).copy()))
        rdd = RDD(self, partitions, name="input")
        return rdd

    def broadcast(self, value):
        """Driver -> all executors (generator)."""
        for node in range(self.n_nodes):
            if node != self.driver_node:
                yield from self._tcp(self.driver_node, node,
                                     _nbytes(value))
        return value
