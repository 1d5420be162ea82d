"""Unit tests for the MPI-like layer: p2p and collectives at many sizes."""

import numpy as np
import pytest

from repro.mpi import Comm, MpiWorld
from repro.net import Network
from repro.sim import Simulator


def make_world(nprocs, nodes=None):
    sim = Simulator()
    n_nodes = nodes or nprocs
    net = Network(sim, n_nodes)
    rank_to_node = [r % n_nodes for r in range(nprocs)]
    world = MpiWorld(sim, net, rank_to_node)
    return sim, world


def run_spmd(sim, world, fn):
    """Run fn(comm) on every rank; returns list of per-rank results."""
    procs = [sim.process(fn(world.comm(r)), name=f"rank{r}")
             for r in range(world.size)]
    sim.run()
    return [p.value for p in procs]


def test_send_recv_roundtrip():
    sim, world = make_world(2)

    def fn(comm):
        if comm.rank == 0:
            yield from comm.send({"a": 7}, dest=1, tag=11)
            return None
        data = yield from comm.recv(source=0, tag=11)
        return data

    res = run_spmd(sim, world, fn)
    assert res[1] == {"a": 7}


def test_send_copies_numpy_payload():
    sim, world = make_world(2)
    buf = np.arange(4, dtype=np.int64)

    def fn(comm):
        if comm.rank == 0:
            req = comm.isend(buf, dest=1)
            buf[:] = -1  # mutate after isend; receiver must see original
            yield req
            return None
        data = yield from comm.recv(source=0)
        return data

    res = run_spmd(sim, world, fn)
    assert np.array_equal(res[1], np.arange(4, dtype=np.int64))


def test_sendrecv_exchange_no_deadlock():
    sim, world = make_world(2)

    def fn(comm):
        other = 1 - comm.rank
        got = yield from comm.sendrecv(comm.rank, dest=other, source=other)
        return got

    assert run_spmd(sim, world, fn) == [1, 0]


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 8, 16])
def test_bcast_all_sizes(nprocs):
    sim, world = make_world(nprocs)

    def fn(comm):
        data = "payload" if comm.rank == 2 % nprocs else None
        out = yield from comm.bcast(data, root=2 % nprocs)
        return out

    assert run_spmd(sim, world, fn) == ["payload"] * nprocs


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8, 16])
def test_reduce_sum(nprocs):
    sim, world = make_world(nprocs)

    def fn(comm):
        out = yield from comm.reduce(comm.rank + 1, op=lambda a, b: a + b,
                                     root=0)
        return out

    res = run_spmd(sim, world, fn)
    assert res[0] == nprocs * (nprocs + 1) // 2
    assert all(r is None for r in res[1:])


@pytest.mark.parametrize("nprocs", [1, 2, 3, 6, 8])
def test_allreduce_max(nprocs):
    sim, world = make_world(nprocs)

    def fn(comm):
        out = yield from comm.allreduce(comm.rank, op=max)
        return out

    assert run_spmd(sim, world, fn) == [nprocs - 1] * nprocs


@pytest.mark.parametrize("nprocs", [2, 3, 4, 9])
def test_barrier_synchronizes(nprocs):
    sim, world = make_world(nprocs)
    arrive = []

    def fn(comm):
        yield comm.sim.timeout(float(comm.rank))
        arrive.append(comm.rank)
        yield from comm.barrier()
        return comm.sim.now

    res = run_spmd(sim, world, fn)
    # Nobody leaves the barrier before the slowest rank arrives.
    assert all(t >= nprocs - 1 for t in res)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8, 16])
def test_allgather_ring(nprocs):
    sim, world = make_world(nprocs)

    def fn(comm):
        out = yield from comm.allgather(comm.rank ** 2)
        return out

    expected = [r ** 2 for r in range(nprocs)]
    assert run_spmd(sim, world, fn) == [expected] * nprocs


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
def test_alltoall(nprocs):
    sim, world = make_world(nprocs)

    def fn(comm):
        values = [(comm.rank, dst) for dst in range(nprocs)]
        out = yield from comm.alltoall(values)
        return out

    res = run_spmd(sim, world, fn)
    for rank, out in enumerate(res):
        assert out == [(src, rank) for src in range(nprocs)]


def test_consecutive_collectives_do_not_cross_talk():
    sim, world = make_world(4)

    def fn(comm):
        a = yield from comm.allreduce(1, op=lambda x, y: x + y)
        b = yield from comm.allreduce(10, op=lambda x, y: x + y)
        c = yield from comm.allgather(comm.rank)
        return a, b, c

    res = run_spmd(sim, world, fn)
    assert res == [(4, 40, [0, 1, 2, 3])] * 4


def test_comm_split_partitions():
    sim, world = make_world(6)

    def fn(comm):
        color = comm.rank % 2
        sub = yield from comm.split(color)
        total = yield from sub.allreduce(comm.rank, op=lambda a, b: a + b)
        return sub.size, sub.rank, total

    res = run_spmd(sim, world, fn)
    # Even ranks: 0+2+4=6; odd: 1+3+5=9.
    for r, (size, sub_rank, total) in enumerate(res):
        assert size == 3
        assert sub_rank == r // 2
        assert total == (6 if r % 2 == 0 else 9)


def test_comm_split_negative_color_excluded():
    sim, world = make_world(3)

    def fn(comm):
        color = -1 if comm.rank == 2 else 0
        sub = yield from comm.split(color)
        if sub is None:
            return None
        return sub.size

    res = run_spmd(sim, world, fn)
    assert res == [2, 2, None]


def test_bcast_time_scales_logarithmically():
    """Tree fan-out: bcast to 8 ranks should take ~3 serial hops,
    not 7 (the point of the Collective access pattern in III-C)."""
    payload = np.zeros(1_000_000, dtype=np.uint8)

    def run_for(nprocs):
        sim, world = make_world(nprocs)

        def fn(comm):
            out = yield from comm.bcast(
                payload if comm.rank == 0 else None, root=0)
            assert out is not None
            yield from comm.barrier()

        run_spmd(sim, world, fn)
        return sim.now

    t8 = run_for(8)
    t2 = run_for(2)
    assert t8 < 4 * t2  # linear would be ~7x


def test_ranks_packed_on_same_node_use_loopback():
    sim, world = make_world(4, nodes=2)  # ranks 0,2 on node0; 1,3 on node1
    comm = world.comm(0)
    assert comm.node_of(0) == comm.node_of(2)
    assert comm.node_of(0) != comm.node_of(1)


def test_rank_outside_comm_rejected():
    sim, world = make_world(2)
    with pytest.raises(ValueError):
        Comm(world, comm_id=0, rank=5, members=[0, 1])
