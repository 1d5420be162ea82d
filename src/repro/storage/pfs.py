"""A striped parallel filesystem (OrangeFS stand-in).

Files are striped round-robin across server devices living on the
storage rack; client I/O charges network transfer to each server plus
the server device's transfer time, servers proceeding in parallel (the
source of PFS aggregate bandwidth) and each sequential run of a
server's datafile paying one device latency. Content is functional: each
file is a real bytearray, so baselines can read back what they wrote.
"""

from __future__ import annotations

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
        self._files: Dict[str, bytearray] = {}

    # -- namespace ----------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def create(self, path: str) -> None:
        self._files.setdefault(path, bytearray())

    def size(self, path: str) -> int:
        return len(self._file(path))

    def delete(self, path: str) -> None:
        self._files.pop(path, None)

    def paths(self) -> List[str]:
        return sorted(self._files)

    def _file(self, path: str) -> bytearray:
        if path not in self._files:
            raise PfsError(f"no such PFS file: {path}")
        return self._files[path]

    def server_of(self, stripe_idx: int) -> int:
        """Index (into ``devices`` / ``server_nodes``) of the server
        that holds stripe ``stripe_idx`` of every file."""
        return stripe_idx % len(self.devices)

    # -- striped timed I/O ----------------------------------------------------
    def _server_op(self, client_node: int, srv: int, nbytes: int,
                   write: bool):
        if write:
            yield from self.network.transfer(
                client_node, self.server_nodes[srv], nbytes)
            yield from self.devices[srv].charge(nbytes, write=True)
        else:
            yield from self.devices[srv].charge(nbytes, write=False)
            yield from self.network.transfer(
                self.server_nodes[srv], client_node, nbytes)

    def charge(self, client_node: int, ranges, write: bool):
        """Timed striped transfer of the byte ranges ``[(offset,
        nbytes), ...]`` of one file whose content lives elsewhere (the
        Data Stager's backends are real files). Generator.

        Stripe ``k`` sits at offset ``(k // n_servers) * stripe_size``
        of server ``k % n_servers``'s datafile, so each range is cut
        into pieces of the servers' datafiles; pieces that abut there
        merge, and each merged extent costs one device operation (one
        latency) and one network transfer. The extents run in parallel,
        the servers' FIFOs order what shares a server."""
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
            self._server_op(client_node, srv, hi - lo, write),
            name=f"pfs.server{srv}") for srv, lo, hi in extents]
        if procs:
            yield AllOf(self.sim, procs)

    def write(self, client_node: int, path: str, offset: int, data):
        """Timed striped write; creates/grows the file as needed.
        Generator."""
        data = bytes(data)
        self.create(path)
        buf = self._files[path]
        if offset < 0:
            raise PfsError(f"negative offset {offset}")
        if offset > len(buf):
            buf.extend(b"\0" * (offset - len(buf)))
        yield from self.charge(client_node, [(offset, len(data))],
                               write=True)
        end = offset + len(data)
        if end > len(buf):
            buf.extend(b"\0" * (end - len(buf)))
        buf[offset:end] = data

    def read(self, client_node: int, path: str, offset: int, nbytes: int):
        """Timed striped read; returns bytes. Generator."""
        buf = self._file(path)
        if offset < 0 or offset + nbytes > len(buf):
            raise PfsError(
                f"range [{offset}, {offset + nbytes}) outside {path} "
                f"of {len(buf)} bytes")
        yield from self.charge(client_node, [(offset, nbytes)], write=False)
        return bytes(buf[offset:offset + nbytes])

    @property
    def bytes_written(self) -> int:
        return sum(d.bytes_written for d in self.devices)

    @property
    def bytes_read(self) -> int:
        return sum(d.bytes_read for d in self.devices)
