"""Client-local NVM write-back filesystem (Assise stand-in).

Assise (OSDI '20) keeps a client-local NVM log in front of the shared
filesystem: writes land in local NVM and are flushed back
asynchronously. This model reproduces that write timing (synchronous
local-NVM cost, synchronous chain replication, asynchronous remote
flush) over :class:`ParallelFS` as the shared tier, which holds the
file content. The Fig. 6 baselines only write checkpoints, so the
read side (local-cache hits, read-your-writes drains) is not modelled.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim import Simulator
from repro.storage.device import Device, DeviceSpec
from repro.storage.pfs import ParallelFS
from repro.storage.tiers import NVME


class AssiseFS:
    """Per-client-node NVM write-back cache over a PFS.

    Writes follow Assise's crash-consistency protocol: append to the
    local NVM log, then **chain-replicate synchronously** to the next
    client's NVM before acknowledging (the availability guarantee of
    the original system), then drain to the shared FS asynchronously.
    """

    def __init__(self, sim: Simulator, pfs: ParallelFS,
                 client_nodes: List[int],
                 nvm_spec: DeviceSpec = NVME,
                 replicate: bool = True):
        self.sim = sim
        self.pfs = pfs
        self.replicate = replicate and len(client_nodes) > 1
        self._nodes = list(client_nodes)
        self.caches: Dict[int, Device] = {
            node: Device(sim, nvm_spec, name=f"assise{node}.nvm")
            for node in client_nodes
        }

    def write(self, client_node: int, path: str, offset: int, data):
        """Local NVM write + synchronous chain replication, then an
        async flush to the PFS."""
        data = bytes(data)
        cache = self.caches[client_node]
        yield from cache.charge(len(data), write=True)
        if self.replicate:
            peer = self._nodes[(self._nodes.index(client_node) + 1)
                               % len(self._nodes)]
            yield from self.pfs.network.transfer(client_node, peer,
                                                 len(data))
            yield from self.caches[peer].charge(len(data), write=True)
        self.sim.process(self.pfs.write(client_node, path, offset, data),
                         name=f"assise.flush@{client_node}")
