"""The simulated-cluster harness: nodes, fabric, PFS, MegaMmap, MPI.

:class:`SimCluster` builds the paper's testbed in miniature — a
compute rack of nodes each with a DMSH, a storage rack of PFS servers,
the 40 Gb/s fabric between them, a deployed MegaMmap runtime, and an
MPI world — and launches SPMD applications written as generator
functions ``app(ctx, *args)`` where ``ctx`` is an
:class:`AppContext`. Runtime, resource usage, and OOM behaviour are
recorded per run (the role jarvis-cd + pymonitor play in the paper's
artifact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.core.config import MegaMmapConfig
from repro.core.client import MegaMmapClient
from repro.core.system import MegaMmapSystem
from repro.mpi import Comm, MpiWorld
from repro.net.fabric import ETH_40G, LinkSpec, Network
from repro.sim import AllOf, Monitor, Simulator, rng_stream
from repro.storage.device import DeviceFullError, DeviceSpec
from repro.storage.dmsh import DMSH
from repro.storage.pfs import ParallelFS
from repro.storage.tiers import DRAM, HDD, MB, NVME, scaled


class OutOfMemoryError(RuntimeError):
    """A process exceeded its node's DRAM (the simulated OOM kill)."""


@dataclass
class ClusterSpec:
    """Shape of the simulated testbed.

    Defaults follow the paper's per-node hardware with capacities
    scaled GB -> MB (DESIGN.md, scaled units) and a modest process
    count for simulation tractability.
    """

    n_nodes: int = 4
    procs_per_node: int = 4
    tiers: Sequence[DeviceSpec] = field(default_factory=lambda: (
        scaled(DRAM, 48 * MB),
        scaled(NVME, 128 * MB),
    ))
    intra: LinkSpec = ETH_40G
    inter: Optional[LinkSpec] = None
    pfs_servers: int = 2
    pfs_spec: DeviceSpec = field(
        default_factory=lambda: scaled(HDD, 4096 * MB))
    pfs_stripe: int = MB
    config: MegaMmapConfig = field(default_factory=MegaMmapConfig)
    seed: int = 0
    #: Record latency spans (see :mod:`repro.sim.trace`); off by
    #: default — the tracer costs nothing when disabled.
    trace: bool = False

    @property
    def nprocs(self) -> int:
        return self.n_nodes * self.procs_per_node


@dataclass
class RunResult:
    """Outcome of one application run."""

    values: List[Any]
    runtime: float
    oom: bool
    peak_dram_node: float     # max over nodes of peak DRAM bytes
    peak_dram_total: float    # sum over nodes of peak DRAM bytes
    stats: dict

    @property
    def crashed(self) -> bool:
        return self.oom


class AppContext:
    """Everything one application process sees."""

    def __init__(self, cluster: "SimCluster", rank: int, comm: Comm,
                 mm: MegaMmapClient, nprocs: int, rng, name: str):
        self.cluster = cluster
        self.sim = cluster.sim
        self.rank = rank
        self.nprocs = nprocs
        self.comm = comm
        self.node = comm.node
        self.mm = mm
        self.rng = rng
        #: The rank's process (and trace track) name.
        self.name = name
        self._allocs = 0

    # -- compute charging ------------------------------------------------------
    def compute_bytes(self, nbytes: float, factor: float = 1.0):
        """Charge compute time for touching ``nbytes`` of data
        (generator). ``factor`` scales per-byte cost (heavier kernels,
        JVM overheads...)."""
        bw = self.cluster.spec.config.compute_bw
        yield self.sim.timeout(factor * nbytes / bw)

    def compute_seconds(self, seconds: float):
        yield self.sim.timeout(seconds)

    # -- explicit memory accounting (baselines) -----------------------------------
    def alloc(self, nbytes: int) -> int:
        """Reserve working DRAM; raises :class:`OutOfMemoryError` when
        the node's memory is exhausted (the Linux OOM kill of paper
        IV-B2)."""
        dram = self.cluster.dmshs[self.node].tiers[0]
        try:
            dram.reserve(int(nbytes), strict=True)
        except DeviceFullError as exc:
            raise OutOfMemoryError(str(exc)) from exc
        self._allocs += int(nbytes)
        return int(nbytes)

    def free(self, nbytes: int) -> None:
        dram = self.cluster.dmshs[self.node].tiers[0]
        dram.unreserve(int(nbytes))
        self._allocs -= int(nbytes)

    def free_all(self) -> None:
        if self._allocs:
            self.free(self._allocs)

    def barrier(self):
        return self.comm.barrier()


class SimCluster:
    """One simulated deployment; reusable across several app runs."""

    def __init__(self, spec: Optional[ClusterSpec] = None, **kwargs):
        if spec is None:
            spec = ClusterSpec(**kwargs)
        elif kwargs:
            raise TypeError("pass either a spec or keyword overrides")
        self.spec = spec
        self.sim = Simulator()
        self.monitor = Monitor(self.sim)
        # Node ids: the compute rack first, then the storage rack's
        # PFS servers, reached over the inter-rack link.
        self.network = Network(
            self.sim, spec.n_nodes + spec.pfs_servers,
            intra=spec.intra, inter=spec.inter, rack_size=spec.n_nodes,
            monitor=self.monitor)
        self.dmshs = [
            DMSH(self.sim, spec.tiers, node_id=i, monitor=self.monitor)
            for i in range(spec.n_nodes)
        ]
        self.pfs = None
        if spec.pfs_servers > 0:
            self.pfs = ParallelFS(
                self.sim, self.network,
                server_nodes=list(range(
                    spec.n_nodes, spec.n_nodes + spec.pfs_servers)),
                server_spec=spec.pfs_spec, stripe_size=spec.pfs_stripe,
                monitor=self.monitor)
        self.system = MegaMmapSystem(
            self.sim, self.network, self.dmshs, config=spec.config,
            pfs=self.pfs, monitor=self.monitor)
        self.tracer = self.system.tracer
        self.tracer.enabled = spec.trace
        if spec.trace and spec.config.trace_sample_rate < 1.0:
            from repro.sim.rand import py_rng
            from repro.sim.trace import TraceSampler
            # A dedicated seeded stream: sampling draws never perturb
            # application or placement randomness.
            self.tracer.sampler = TraceSampler(
                py_rng(spec.seed, "trace-sample"),
                spec.config.trace_sample_rate)
        rank_to_node = [r // spec.procs_per_node
                        for r in range(spec.nprocs)]
        self.world = MpiWorld(self.sim, self.network, rank_to_node)

    # -- running applications ------------------------------------------------------
    def contexts(self, world: Optional[MpiWorld] = None,
                 job: Optional[str] = None, tenant=None
                 ) -> List[AppContext]:
        """One :class:`AppContext` per rank of ``world``. The default
        is the cluster's own world: blocked rank→node map, ``proc``
        rng streams, ``rank<r>`` names. A colocated job brings its own
        world; its name keys its rng streams and process names, and
        its clients are bound to ``tenant``."""
        world = world or self.world
        stream, prefix = ("proc",), ""
        if job is not None:
            stream, prefix = ("tenant", job, "proc"), f"{job}:"
        out = []
        for rank in range(world.size):
            comm = world.comm(rank)
            mm = self.system.client(rank, comm.node)
            if tenant is not None:
                mm.bind_tenant(tenant)
            out.append(AppContext(
                self, rank, comm, mm, world.size,
                rng_stream(self.spec.seed, *stream, rank),
                f"{prefix}rank{rank}"))
        return out

    def start(self, app: Callable, args: tuple = (), **whose):
        """Spawn ``app(ctx, *args)`` on every rank :meth:`contexts`
        builds for ``whose``; returns ``(contexts, processes)``."""
        ctxs = self.contexts(**whose)
        return ctxs, [self.sim.process(app(ctx, *args), name=ctx.name)
                      for ctx in ctxs]

    def run(self, app: Callable, *args, allow_oom: bool = False,
            quiesce: bool = True) -> RunResult:
        """Launch ``app(ctx, *args)`` on every rank and run to
        completion."""
        _ctxs, procs = self.start(app, args)
        t0 = self.sim.now
        oom = False
        values: List[Any] = []
        try:
            values = self.sim.run(until=AllOf(self.sim, procs))
        except OutOfMemoryError:
            oom = True
            if not allow_oom:
                raise
        return self._result(values, t0, oom, quiesce and not oom)

    def run_driver(self, gen, quiesce: bool = True) -> RunResult:
        """Run a single driver-style generator (Spark jobs) to
        completion."""
        t0 = self.sim.now
        value = self.sim.run(until=self.sim.process(gen, name="driver"))
        return self._result([value], t0, False, quiesce)

    def _result(self, values: List[Any], t0: float, oom: bool,
                quiesce: bool) -> RunResult:
        if quiesce:
            self.sim.run(until=self.sim.process(
                self.system.quiesce(), name="quiesce"))
        peaks = [self.monitor.peak(f"{dmsh.tiers[0].name}.used")
                 for dmsh in self.dmshs]
        return RunResult(
            values=values, runtime=self.sim.now - t0, oom=oom,
            peak_dram_node=max(peaks, default=0.0),
            peak_dram_total=sum(peaks),
            stats=self.system.stats())

    def shutdown(self) -> None:
        """Drain and persist everything (end of the job)."""
        self.sim.run(until=self.sim.process(self.system.shutdown(),
                                            name="shutdown"))

    def export_trace(self, path: str) -> str:
        """Write recorded spans as Chrome-trace-format JSON (load in
        ``chrome://tracing`` / Perfetto); returns ``path``."""
        return self.tracer.export_chrome(path)

    # -- introspection --------------------------------------------------------------
    def hardware_cost(self) -> float:
        """$ of the per-node DMSH composition × node count (Fig. 7)."""
        return sum(d.hardware_cost() for d in self.dmshs)

    def describe_tiers(self) -> str:
        return self.dmshs[0].describe() if self.dmshs else ""
