"""Communicators: point-to-point transport and rank bookkeeping."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.net.fabric import Network
from repro.net.message import (
    ANY_SOURCE,
    ANY_TAG,
    Mailbox,
    Message,
    payload_nbytes,
)
from repro.sim import Process, Simulator

#: Tag space reserved for collective algorithms (user tags must stay
#: below this; collectives use COLLECTIVE_TAG_BASE + sequence number).
COLLECTIVE_TAG_BASE = 1 << 24


class MpiWorld:
    """Owns the mailboxes and rank→node mapping for one parallel job."""

    def __init__(self, sim: Simulator, network: Network,
                 rank_to_node: List[int]):
        for node in rank_to_node:
            if not 0 <= node < network.n_nodes:
                raise ValueError(f"rank mapped to unknown node {node}")
        self.sim = sim
        self.network = network
        self.rank_to_node = list(rank_to_node)
        self.size = len(rank_to_node)
        self._mailboxes: Dict[Tuple[int, int], Mailbox] = {}
        self._next_comm_id = 1

    def mailbox(self, comm_id: int, rank: int) -> Mailbox:
        key = (comm_id, rank)
        if key not in self._mailboxes:
            self._mailboxes[key] = Mailbox(self.sim)
        return self._mailboxes[key]

    def alloc_comm_id(self) -> int:
        cid = self._next_comm_id
        self._next_comm_id += 1
        return cid

    def comm(self, rank: int) -> "Comm":
        """COMM_WORLD view for one rank."""
        return Comm(self, comm_id=0, rank=rank,
                    members=list(range(self.size)))


class Comm:
    """One rank's handle on a communicator.

    SPMD contract (as in MPI): all member ranks call collectives in the
    same order. Collective tags are sequenced per rank under that
    contract, isolating overlapping collectives.
    """

    def __init__(self, world: MpiWorld, comm_id: int, rank: int,
                 members: List[int]):
        self.world = world
        self.comm_id = comm_id
        self.rank = rank            # rank within this communicator
        self.members = members      # comm rank -> world rank
        self.size = len(members)
        self._coll_seq = 0
        if rank < 0 or rank >= self.size:
            raise ValueError(f"rank {rank} outside communicator of "
                             f"size {self.size}")

    # -- helpers -----------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        return self.world.sim

    def node_of(self, comm_rank: int) -> int:
        return self.world.rank_to_node[self.members[comm_rank]]

    @property
    def node(self) -> int:
        return self.node_of(self.rank)

    def _mailbox(self, comm_rank: int) -> Mailbox:
        return self.world.mailbox(self.comm_id, self.members[comm_rank])

    # -- point to point ------------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0):
        """Blocking-ish send: returns after the wire transfer completes.

        NumPy payloads are copied at the call boundary (the simulated
        receiver must not alias the sender's live buffer).
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} outside communicator")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        nbytes = payload_nbytes(payload)
        dst_node = self.node_of(dest)
        yield from self.world.network.transfer(
            self.node, dst_node, nbytes)
        self._mailbox(dest).deliver(
            Message(src=self.rank, dst=dest, tag=tag, payload=payload,
                    nbytes=nbytes))

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Process:
        """Nonblocking send; yield the returned process to wait.

        The payload is captured (NumPy arrays copied) *now*, so the
        caller may reuse its buffer immediately — eager-send semantics.
        """
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        return self.sim.process(self.send(payload, dest, tag),
                                name=f"isend r{self.rank}->r{dest}")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload."""
        msg = yield self._mailbox(self.rank).receive(source, tag)
        return msg.payload

    def sendrecv(self, payload: Any, dest: int, source: int,
                 tag: int = 0):
        """Simultaneous exchange (deadlock-free)."""
        req = self.isend(payload, dest, tag)
        msg = yield self._mailbox(self.rank).receive(source, tag)
        yield req
        return msg.payload

    # -- collectives (implemented in collectives.py, bound here) -------------
    def _next_coll_tag(self) -> int:
        # Stride leaves room for per-round sub-tags (alltoall uses
        # tag + round for up to size-1 rounds).
        tag = COLLECTIVE_TAG_BASE + self._coll_seq * 65536
        self._coll_seq += 1
        return tag

    def barrier(self):
        from repro.mpi.collectives import barrier
        return barrier(self)

    def bcast(self, payload: Any, root: int = 0):
        from repro.mpi.collectives import bcast
        return bcast(self, payload, root)

    def reduce(self, value: Any, op: Callable[[Any, Any], Any],
               root: int = 0):
        from repro.mpi.collectives import reduce as _reduce
        return _reduce(self, value, op, root)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]):
        from repro.mpi.collectives import allreduce
        return allreduce(self, value, op)

    def allgather(self, value: Any):
        from repro.mpi.collectives import allgather
        return allgather(self, value)

    def alltoall(self, values: List[Any]):
        from repro.mpi.collectives import alltoall
        return alltoall(self, values)

    # -- communicator management ----------------------------------------------
    def split(self, color: int, key: Optional[int] = None):
        """Partition into sub-communicators by color (``MPI_Comm_split``).

        Generator returning this rank's new :class:`Comm` (or ``None``
        for a negative color). Collective over this communicator.
        """
        from repro.mpi.collectives import allgather
        key = self.rank if key is None else key
        triples = yield from allgather(self, (color, key, self.rank))
        # Communicator ids must be identical across members: derive the
        # id deterministically from the split sequence, not allocation
        # order. Reserve a block of ids on the world per split.
        base_id = None
        if self.rank == 0:
            base_id = self.world.alloc_comm_id() * 4096
        base_id = yield from self.bcast(base_id, root=0)
        if color < 0:
            return None
        same = sorted(
            [(k, r) for c, k, r in triples if c == color])
        members = [self.members[r] for _, r in same]
        my_index = [r for _, r in same].index(self.rank)
        colors = sorted({c for c, _, _ in triples if c >= 0})
        new_id = base_id + colors.index(color)
        return Comm(self.world, comm_id=new_id, rank=my_index,
                    members=members)
