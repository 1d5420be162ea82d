"""Point-to-point transfer cost model over a two-rack topology.

A call that talks to several peers -- a vectored request's per-owner
batches, a read's per-source replies, a metadata round per owner shard
-- sends through :func:`fan_out`: messages to different peers leave
together (their flights overlap; one sending NIC still puts them on
the wire one after another), messages to one peer go in call order,
and the call waits once, for the last landing, instead of one flight
per peer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.sim import AllOf, Monitor, Resource, Simulator
from repro.sim.trace import NOOP_TRACER


@dataclass(frozen=True)
class LinkSpec:
    """Bandwidth (bytes/s) and one-way latency (s) of a link class."""

    bandwidth: float
    latency: float

    def xfer_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


#: 40 Gb/s RoCE-enabled Ethernet (the testbed's fast network).
ETH_40G = LinkSpec(bandwidth=40e9 / 8, latency=20e-6)
#: 10 Gb/s Ethernet (the testbed's slow network; Spark's TCP path).
ETH_10G = LinkSpec(bandwidth=10e9 / 8, latency=60e-6)
#: Same-node "transfer": a memcpy at DRAM speed.
LOOPBACK = LinkSpec(bandwidth=12e9, latency=5e-7)


class Network:
    """The cluster fabric: per-node NICs plus link cost classes.

    ``rack_size`` splits node ids into racks; intra-rack and inter-rack
    transfers may use different link classes (defaults model the
    paper's 40 Gb/s network for both, with extra hops inter-rack).
    """

    def __init__(self, sim: Simulator, n_nodes: int,
                 intra: LinkSpec = ETH_40G,
                 inter: Optional[LinkSpec] = None,
                 rack_size: Optional[int] = None,
                 loopback: LinkSpec = LOOPBACK,
                 monitor: Optional[Monitor] = None):
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        self.sim = sim
        self.n_nodes = n_nodes
        self.intra = intra
        self.inter = inter or LinkSpec(intra.bandwidth,
                                       intra.latency * 2.5)
        self.rack_size = rack_size or n_nodes
        self.loopback = loopback
        self.monitor = monitor
        self._nics = [Resource(sim, capacity=1, name=f"nic{i}")
                      for i in range(n_nodes)]
        # When the last message sent from src to dst lands, per pair.
        self._landed: dict = {}
        self.bytes_moved = 0
        #: Span tracer; the embedding system installs its own.
        self.tracer = NOOP_TRACER
        #: Fault-injection hook (``repro.chaos``). When set, every
        #: transfer yields through ``chaos.on_transfer`` before paying
        #: the link cost, which may add partition stalls, delay jitter,
        #: or drop-with-retry re-sends. ``None`` (the default) leaves
        #: the data path untouched.
        self.chaos = None
        # ``(net.bytes, net.transfers)`` handles per source node,
        # filled on the node's first transfer.
        self._m_per_src: dict = {}

    def rack_of(self, node: int) -> int:
        return node // self.rack_size

    def link_for(self, src: int, dst: int) -> LinkSpec:
        if src == dst:
            return self.loopback
        if self.rack_of(src) == self.rack_of(dst):
            return self.intra
        return self.inter

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside [0, {self.n_nodes})")

    def transfer(self, src: int, dst: int, nbytes: int,
                 link: Optional[LinkSpec] = None,
                 cause: Optional[int] = None):
        """Timed movement of ``nbytes`` from ``src`` to ``dst``.

        Generator: ``yield from net.transfer(...)``. Same-node
        transfers cost a memcpy. The sending NIC is pipelined: it is
        held only while it puts the bytes on the wire (``nbytes /
        bandwidth``), serializing concurrent sends from one node; the
        message then flies for the link's latency while the NIC sends
        the next one. Messages between one ``(src, dst)`` pair land in
        the order they left. ``link`` overrides the route's link class
        (e.g. a TCP stack pinned to the slow 10 Gb/s network).
        ``cause`` is the id of the span this message answers from
        another process (an RPC reply names its request), stamped on
        the ``net`` span, which covers the NIC wait, the send and the
        flight.
        """
        self._check_node(src)
        self._check_node(dst)
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if link is None or src == dst:
            link = self.link_for(src, dst)
        if self.chaos is not None:
            yield from self.chaos.on_transfer(self, src, dst, nbytes,
                                              link)
        causal = {} if cause is None else {"cause": cause}
        with self.tracer.span("memcpy" if src == dst else "transfer",
                              "net", node=src, src=src, dst=dst,
                              nbytes=nbytes, **causal):
            if src == dst:
                yield self.sim.timeout(link.xfer_time(nbytes))
            else:
                nic = self._nics[src]
                req = nic.request()
                yield req
                try:
                    yield self.sim.timeout(nbytes / link.bandwidth)
                finally:
                    nic.release(req)
                # A pair's messages leave in NIC order; one on a slower
                # link class must not be overtaken by the next.
                land = max(self.sim.now + link.latency,
                           self._landed.get((src, dst), 0.0))
                self._landed[(src, dst)] = land
                yield self.sim.timeout(land - self.sim.now)
        self.bytes_moved += nbytes
        if self.monitor is not None:
            handles = self._m_per_src.get(src)
            if handles is None:
                handles = self._m_per_src[src] = (
                    self.monitor.metrics.counter("net.bytes", node=src),
                    self.monitor.metrics.counter("net.transfers",
                                                 node=src))
            handles[0].inc(nbytes)
            handles[1].inc()

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Uncontended estimate (used by the prefetcher's score model)."""
        return self.link_for(src, dst).xfer_time(nbytes)


def fan_out(sim: Simulator, sends: Iterable[Tuple[int, object]]):
    """Run one call's per-peer messages together (generator).

    ``sends`` lists ``(peer, generator)`` pairs: one message or RPC
    each (a :meth:`Network.transfer`, a round trip, a shipment).
    Every peer's sends start at once, each peer in a process of its
    own, and the call returns when the last one has landed: messages
    to different peers leave together, messages to one peer run one
    after another in list order, so they land in that order whatever
    the wire does to either. A call with a single peer runs inline,
    in the caller's process: no extra process or event, the schedule
    of a plain loop. A send that raises fails the call.

    Inline, a send's spans nest under the caller's open span; spawned,
    they have no parent in the caller's process, so a send spawned by
    a traced call names the span that waits for it as its ``cause``.
    """
    chains: dict = {}
    for peer, send in sends:
        chains.setdefault(peer, []).append(send)
    if len(chains) == 1:
        yield from _in_order(*chains.values())
    elif chains:
        yield AllOf(sim, [
            sim.process(_in_order(chain), name=f"fan-out ->{peer}")
            for peer, chain in chains.items()])


def _in_order(chain):
    for send in chain:
        yield from send
