"""MPI layer edge cases: wildcards and message ordering."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MpiWorld
from repro.net import Network
from repro.sim import Simulator

from tests.mpi.test_collectives import make_world, run_spmd


def test_recv_any_source_any_tag():
    sim, world = make_world(3)

    def fn(comm):
        if comm.rank == 0:
            a = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            b = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            return sorted([a, b])
        yield from comm.send(comm.rank * 10, dest=0, tag=comm.rank)
        return None

    res = run_spmd(sim, world, fn)
    assert res[0] == [10, 20]


def test_message_ordering_same_source_same_tag():
    sim, world = make_world(2)

    def fn(comm):
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(i, dest=1, tag=0)
            return None
        got = []
        for _ in range(5):
            got.append((yield from comm.recv(source=0, tag=0)))
        return got

    res = run_spmd(sim, world, fn)
    assert res[1] == [0, 1, 2, 3, 4]


def test_tag_selective_receive_out_of_order():
    sim, world = make_world(2)

    def fn(comm):
        if comm.rank == 0:
            yield from comm.send("first", dest=1, tag=1)
            yield from comm.send("second", dest=1, tag=2)
            return None
        b = yield from comm.recv(source=0, tag=2)
        a = yield from comm.recv(source=0, tag=1)
        return a, b

    res = run_spmd(sim, world, fn)
    assert res[1] == ("first", "second")


def test_send_to_invalid_rank_rejected():
    sim, world = make_world(2)

    def fn(comm):
        if comm.rank == 0:
            yield from comm.send(1, dest=7)
        else:
            yield comm.sim.timeout(0)

    with pytest.raises(ValueError):
        run_spmd(sim, world, fn)


def test_world_rejects_bad_node_mapping():
    sim = Simulator()
    net = Network(sim, 2)
    with pytest.raises(ValueError):
        MpiWorld(sim, net, [0, 5])


def test_transfer_time_scales_with_payload():
    sim, world = make_world(2)
    big = np.zeros(1_000_000, dtype=np.uint8)
    small = np.zeros(10, dtype=np.uint8)

    def timed_send(payload):
        def fn(comm):
            if comm.rank == 0:
                t0 = comm.sim.now
                yield from comm.send(payload, dest=1)
                return comm.sim.now - t0
            yield from comm.recv(source=0)
            return None

        return fn

    t_big = run_spmd(*make_world(2), timed_send(big))[0]
    t_small = run_spmd(*make_world(2), timed_send(small))[0]
    assert t_big > 10 * t_small
