"""Unit tests for Lock."""

import pytest

from repro.sim import Lock, SimulationError, Simulator


def test_lock_mutual_exclusion():
    sim = Simulator()
    lock = Lock(sim)
    inside = [0]
    max_inside = [0]

    def proc():
        yield lock.acquire()
        inside[0] += 1
        max_inside[0] = max(max_inside[0], inside[0])
        yield sim.timeout(1.0)
        inside[0] -= 1
        lock.release()

    for _ in range(4):
        sim.process(proc())
    sim.run()
    assert max_inside[0] == 1
    assert sim.now == 4.0


def test_lock_release_unlocked_rejected():
    sim = Simulator()
    lock = Lock(sim)
    with pytest.raises(SimulationError):
        lock.release()


def test_lock_fifo():
    sim = Simulator()
    lock = Lock(sim)
    order = []

    def proc(n):
        yield lock.acquire()
        order.append(n)
        yield sim.timeout(1.0)
        lock.release()

    for i in range(3):
        sim.process(proc(i))
    sim.run()
    assert order == [0, 1, 2]
