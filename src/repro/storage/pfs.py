"""A striped parallel filesystem (OrangeFS stand-in).

Files are striped round-robin across server devices living on the
storage rack; client I/O charges network transfer to each server plus
the server device's transfer time, servers proceeding in parallel (the
source of PFS aggregate bandwidth). Each server operation names its
file and the offset in that file's datafile on the server, so an HDD
server pays its seek only where an operation does not continue the one
before it. Content is functional: each file's bytes sit in an
unlinked host file in the current directory, written where the
baselines wrote them; a hole reads as zeros.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from typing import Dict, List, Optional

from repro.net.fabric import Network
from repro.sim import AllOf, Monitor, Simulator
from repro.storage.device import Device, DeviceSpec
from repro.storage.tiers import HDD, MB


#: Default stripe unit; the Data Stager's stage-in unit where a
#: deployment models no PFS.
STRIPE_SIZE = MB


class PfsError(RuntimeError):
    """Raised for bad paths/ranges on the parallel filesystem."""


class ParallelFS:
    """OrangeFS-like striped file service."""

    def __init__(self, sim: Simulator, network: Network,
                 server_nodes: List[int],
                 server_spec: DeviceSpec = HDD,
                 stripe_size: int = STRIPE_SIZE,
                 monitor: Optional[Monitor] = None):
        if not server_nodes:
            raise ValueError("PFS needs at least one server node")
        if stripe_size < 1:
            raise ValueError(f"stripe_size must be >= 1, got {stripe_size}")
        self.sim = sim
        self.network = network
        self.server_nodes = list(server_nodes)
        self.stripe_size = stripe_size
        #: What one server is made of (every server alike): the speed a
        #: node-local tier is measured against.
        self.server_spec = server_spec
        self.devices = [
            Device(sim, server_spec, name=f"pfs{node}.{server_spec.kind}",
                   monitor=monitor)
            for node in server_nodes
        ]
        self._files: Dict[str, object] = {}  # path -> host file

    # -- namespace ----------------------------------------------------------
    def _file(self, path: str) -> bytes:
        """Untimed read of a whole file's content."""
        if path not in self._files:
            raise PfsError(f"no such PFS file: {path}")
        fd = self._files[path].fileno()
        return os.pread(fd, os.fstat(fd).st_size, 0)

    def server_of(self, stripe_idx: int) -> int:
        """Index (into ``devices`` / ``server_nodes``) of the server
        that holds stripe ``stripe_idx`` of every file."""
        return stripe_idx % len(self.devices)

    # -- striped timed I/O ----------------------------------------------------
    def _server_op(self, client_node: int, srv: int, file, lo: int,
                   nbytes: int, write: bool):
        dev = self.devices[srv]
        if write:
            yield from self.network.transfer(
                client_node, self.server_nodes[srv], nbytes)
            yield from dev.charge(nbytes, True, file, lo)
        else:
            yield from dev.charge(nbytes, False, file, lo)
            yield from self.network.transfer(
                self.server_nodes[srv], client_node, nbytes)

    def charge(self, client_node: int, ranges, write: bool, file=None):
        """Timed striped transfer of the byte ranges ``[(offset,
        nbytes), ...]`` of ``file``, whose content lives elsewhere (the
        Data Stager's backends are real files). Generator.

        Stripe ``k`` sits at offset ``(k // n_servers) * stripe_size``
        of server ``k % n_servers``'s datafile, so each range is cut
        into pieces of the servers' datafiles; pieces that abut there
        merge, and each merged extent costs one device operation at its
        datafile offset and one network transfer. The extents run in
        parallel, the servers' FIFOs order what shares a server."""
        n, unit = len(self.devices), self.stripe_size
        extents, last = [], {}       # [server, lo, hi]; server -> extent
        for offset, nbytes in sorted(ranges):
            pos, end = offset, offset + nbytes
            while pos < end:
                stripe = pos // unit
                take = min(end - pos, (stripe + 1) * unit - pos)
                srv = self.server_of(stripe)
                lo = (stripe // n) * unit + pos - stripe * unit
                ext = last.get(srv)
                if ext is None or ext[2] != lo:
                    ext = last[srv] = [srv, lo, lo]
                    extents.append(ext)
                ext[2] += take
                pos += take
        procs = [self.sim.process(
            self._server_op(client_node, srv, file, lo, hi - lo, write),
            name=f"pfs.server{srv}") for srv, lo, hi in extents]
        if procs:
            yield AllOf(self.sim, procs)

    def write(self, client_node: int, path: str, offset: int, data):
        """Timed striped write; creates/grows the file as needed.
        Generator."""
        if offset < 0:
            raise PfsError(f"negative offset {offset}")
        data = bytes(data)
        if path not in self._files:
            f = self._files[path] = tempfile.TemporaryFile(dir=".")
            weakref.finalize(self, f.close)
        yield from self.charge(client_node, [(offset, len(data))],
                               write=True, file=path)
        if os.pwrite(self._files[path].fileno(), data, offset) != len(data):
            raise PfsError(f"short write to the host file of {path}")
