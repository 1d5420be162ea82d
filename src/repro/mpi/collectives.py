"""Tree-based collective algorithms over point-to-point sends.

MPICH-style (paper III-C, *Collective*: "Memory accesses will follow a
tree-based pattern to avoid overloading a single node, similar to
allgather operations in MPICH"): bcast and reduce use binomial trees,
barrier uses dissemination, allgather uses the ring algorithm, and
alltoall uses pairwise exchange — the classic algorithm choices of
Thakur & Gropp's MPICH collectives paper, which the paper cites.

Every function is a generator taking a bound :class:`~repro.mpi.comm.Comm`.
"""

from __future__ import annotations

from typing import Any, Callable, List


def _relative(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _absolute(rel: int, root: int, size: int) -> int:
    return (rel + root) % size


def bcast(comm, payload: Any, root: int = 0):
    """Binomial-tree broadcast; returns the payload on every rank."""
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    rel = _relative(rank, root, size)
    mask = 1
    while mask < size:
        if rel & mask:
            payload = yield from comm.recv(
                source=_absolute(rel - mask, root, size), tag=tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < size:
            yield from comm.send(
                payload, _absolute(rel + mask, root, size), tag=tag)
        mask >>= 1
    return payload


def reduce(comm, value: Any, op: Callable[[Any, Any], Any], root: int = 0):
    """Binomial-tree reduction; root returns the combined value,
    non-roots return ``None``. ``op`` must be associative."""
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    rel = _relative(rank, root, size)
    acc = value
    mask = 1
    while mask < size:
        if rel & mask:
            # Send to parent and stop participating.
            parent_rel = rel & ~mask
            yield from comm.send(acc, _absolute(parent_rel, root, size),
                                 tag=tag)
            return None
        # Receive from the child at rel | mask, if it exists.
        child_rel = rel | mask
        if child_rel < size:
            child_val = yield from comm.recv(
                source=_absolute(child_rel, root, size), tag=tag)
            acc = op(acc, child_val)
        mask <<= 1
    return acc if rel == 0 else None


def allreduce(comm, value: Any, op: Callable[[Any, Any], Any]):
    """Reduce to rank 0 then broadcast (reduce+bcast composition)."""
    acc = yield from reduce(comm, value, op, root=0)
    result = yield from bcast(comm, acc, root=0)
    return result


def barrier(comm):
    """Dissemination barrier: ceil(log2(p)) rounds of pairwise tokens."""
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    dist = 1
    while dist < size:
        dest = (rank + dist) % size
        src = (rank - dist) % size
        req = comm.isend(None, dest, tag=tag)
        yield from comm.recv(source=src, tag=tag)
        yield req
        dist <<= 1


def allgather(comm, value: Any):
    """Ring allgather: p-1 rounds, each forwarding the next slice."""
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    result: List[Any] = [None] * size
    result[rank] = value
    if size == 1:
        return result
    right = (rank + 1) % size
    left = (rank - 1) % size
    held = rank  # index of the slice this rank forwards next
    for _ in range(size - 1):
        req = comm.isend((held, result[held]), right, tag=tag)
        idx, val = yield from comm.recv(source=left, tag=tag)
        yield req
        result[idx] = val
        held = idx
    return result


def alltoall(comm, values: List[Any]):
    """Pairwise-exchange alltoall; returns the list indexed by source."""
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    if len(values) != size:
        raise ValueError(f"alltoall needs exactly {size} values")
    result: List[Any] = [None] * size
    result[rank] = values[rank]
    for round_ in range(1, size):
        partner = rank ^ round_ if (size & (size - 1)) == 0 else \
            (rank + round_) % size
        src = partner if (size & (size - 1)) == 0 else \
            (rank - round_) % size
        req = comm.isend(values[partner], partner, tag=tag + round_)
        result[src] = yield from comm.recv(source=src, tag=tag + round_)
        yield req
    return result
