"""The deployed MegaMmap runtime across the cluster.

Owns: the Hermes buffering substrate over each node's DMSH, one
:class:`~repro.core.runtime.NodeRuntime` per node, the Data Organizer,
the Data Stager, the shared-vector registry, and the configuration.
Constructed by :class:`repro.cluster.SimCluster` (or directly in
tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import MegaMmapConfig
from repro.core.client import MegaMmapClient
from repro.core.organizer import DataOrganizer
from repro.core.runtime import NodeRuntime
from repro.core.shared import SharedVector
from repro.core.stager import DataStager
from repro.hermes import Hermes
from repro.net.fabric import Network
from repro.sim import Monitor, Simulator, Tracer
from repro.storage.dmsh import DMSH
from repro.storage.pfs import ParallelFS


class MegaMmapSystem:
    """One MegaMmap deployment."""

    def __init__(self, sim: Simulator, network: Network,
                 dmshs: List[DMSH],
                 config: Optional[MegaMmapConfig] = None,
                 pfs: Optional[ParallelFS] = None,
                 monitor: Optional[Monitor] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.network = network
        self.dmshs = dmshs
        self.config = (config or MegaMmapConfig()).validated()
        self.pfs = pfs
        self.monitor = monitor or Monitor(sim)
        self.tracer = tracer or Tracer(sim,
                                       metrics=self.monitor.metrics)
        self.monitor.tracer = self.tracer
        network.tracer = self.tracer
        if network.monitor is None:
            network.monitor = self.monitor
        self.memcpy_bw = dmshs[0].tiers[0].spec.read_bw
        self.hermes = Hermes(sim, network, dmshs, monitor=self.monitor)
        self.hermes.tracer = self.tracer
        self.hermes.evictor = self._evict_clean_pages
        self.hermes.backend = pfs.server_spec if pfs is not None else None
        self.vectors: Dict[str, SharedVector] = {}
        #: Chaos history recorder (``repro.chaos.checker``). When set,
        #: every client-boundary read/write/append/flush and every RPC
        #: submission is logged for coherence model-checking. ``None``
        #: (the default) keeps all hooks on the one-attribute-test fast
        #: path.
        self.history = None
        #: Tenancy quota manager (``repro.tenancy.QuotaManager``), set
        #: by the colocation scheduler. ``None`` (the default) keeps
        #: every tenancy hook on the one-attribute-test fast path.
        self.tenancy = None
        #: Async tasks handed to a client's outbound path that have not
        #: reached their runtime yet (``MegaMmapClient._hand_off``).
        self.in_transit = 0
        #: Work :meth:`quiesce` waits for (:meth:`begin_work`), and
        #: the event it waits on while there is any.
        self._work = 0
        self._quiescing = None
        #: In-flight collective page fetches: (vector, page) -> entry.
        self._collective: Dict = {}
        self.organizer = DataOrganizer(self)
        self.stager = DataStager(self)
        from repro.core.durability import DurabilityManager
        self.durability = DurabilityManager(self)
        from repro.core.reliability import ReliabilityManager
        self.reliability = ReliabilityManager(self)
        if self.reliability.enabled:
            sim.process(self.reliability.repair_loop(),
                        name="replica-repair")
        self.runtimes = [NodeRuntime(self, i) for i in range(len(dmshs))]
        self._services = []
        for node in range(len(dmshs)):
            self._services.append(sim.process(
                self.organizer.run(node), name=f"organizer{node}"))
            self._services.append(sim.process(
                self.stager.flusher(node), name=f"flusher{node}"))

    def collective_read(self, vec: SharedVector, page_idx: int,
                        region, client_node: int, submit):
        """Tree-based collective page fetch (paper III-C, Collective).

        When several processes fault the same page under a COLLECTIVE
        transaction, only the *first* reads it from the scache; every
        later requester receives the bytes through a binary tree of
        process-to-process forwards, "to avoid overloading a single
        node, similar to allgather operations in MPICH". Generator;
        ``submit`` is the root's fetch thunk (a generator factory).
        """
        key = (vec.name, page_idx)
        entry = self._collective.get(key)
        if entry is None:
            ready = self.sim.event()
            entry = {"nodes": [client_node], "ready": [ready],
                     "data": None}
            self._collective[key] = entry
            try:
                data = yield from submit()
            except BaseException as exc:
                del self._collective[key]
                # The failure reaches joiners through their parent
                # events; when none joined, nothing waits on `ready`,
                # so mark it observed before failing.
                ready.callbacks.append(lambda _e: None)
                ready.fail(exc)
                raise
            entry["data"] = data
            del self._collective[key]
            ready.succeed()
            self.monitor.count("collective.roots")
            return data
        idx = len(entry["nodes"])
        ready = self.sim.event()
        entry["nodes"].append(client_node)
        entry["ready"].append(ready)
        parent = (idx - 1) // 2
        try:
            yield entry["ready"][parent]    # wait for my tree parent
        except BaseException as exc:
            ready.callbacks.append(lambda _e: None)
            ready.fail(exc)                 # release my own subtree
            raise
        data = entry["data"]
        yield from self.network.transfer(entry["nodes"][parent],
                                         client_node, len(data))
        ready.succeed()
        self.monitor.count("collective.forwards")
        return data

    def _evict_clean_pages(self, node: int, nbytes: int):
        """Drop persisted (clean, cold) scache pages on ``node`` to
        free ``nbytes`` — the OS-page-cache analogue for nonvolatile
        vectors whose data is already safe on the backend. Generator;
        returns True when enough capacity was freed."""
        dmsh = self.dmshs[node]
        candidates = sorted(
            (info for info in self.hermes.residents(node)
             if info.score <= 0.05),
            key=lambda i: i.score)
        for info in candidates:
            vec = self.vectors.get(info.bucket)
            if vec is None or vec.volatile or vec.destroyed:
                continue
            if info.key in vec.dirty_pages:
                continue  # not persisted yet; dropping would lose data
            try:
                yield from self.hermes.delete(node, info.bucket,
                                              info.key)
                self.monitor.count("scache.clean_drops")
            except KeyError:
                continue
            if dmsh.fastest_with_room(nbytes) is not None:
                return True
        return dmsh.fastest_with_room(nbytes) is not None

    def client(self, rank: int, node: int) -> MegaMmapClient:
        """Library handle for one application process."""
        if not 0 <= node < len(self.dmshs):
            raise ValueError(f"node {node} outside deployment")
        return MegaMmapClient(self, rank, node)

    @property
    def quiet(self) -> bool:
        """No work is left that :meth:`quiesce` waits for."""
        return not self._work

    def begin_work(self, n: int = 1) -> None:
        """Count ``n`` units of work :meth:`quiesce` waits for: a task
        from its submit to a runtime until it is answered (its reply
        landed), a shipment from its hand-off until its task is
        enqueued, a background process a client or an owner started
        (:meth:`spawn_work`). Each is closed by :meth:`end_work`."""
        self._work += n

    def end_work(self, n: int = 1) -> None:
        """Close ``n`` units of :meth:`begin_work`; the last one wakes
        :meth:`quiesce`."""
        self._work -= n
        if not self._work and self._quiescing is not None:
            self._quiescing, wake = None, self._quiescing
            wake.succeed()

    def spawn_work(self, gen, name: str):
        """Run ``gen`` in a process of its own that counts as work
        (:meth:`begin_work`) from this call until it ends, however it
        ends; returns the process."""
        self.begin_work()

        def run():
            try:
                return (yield from gen)
            finally:
                self.end_work()

        return self.sim.process(run(), name=name)

    def quiesce(self):
        """Wait until the deployment is :attr:`quiet` (generator): it
        returns at the instant the last unit of work ends, not at a
        polling tick."""
        while not self.quiet:
            if self._quiescing is None:
                self._quiescing = self.sim.event()
            yield self._quiescing

    def shutdown(self):
        """Drain queues and persist all nonvolatile vectors (the
        paper's runtime-termination staging). Generator."""
        yield from self.quiesce()
        yield from self.stager.persist_all(node=0)
        self.stager.stop()
        self.organizer.stop()

    # -- introspection -----------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        out = dict(self.monitor.summary())
        out["net.bytes_moved"] = self.network.bytes_moved
        for dmsh in self.dmshs:
            for dev in dmsh:
                out[f"{dev.name}.bytes_read"] = dev.bytes_read
                out[f"{dev.name}.bytes_written"] = dev.bytes_written
        return out
