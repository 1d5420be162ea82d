"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


def test_resource_capacity_limits_concurrency():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    active = []
    peak = []

    def worker(n):
        req = res.request()
        yield req
        active.append(n)
        peak.append(len(active))
        yield sim.timeout(10.0)
        active.remove(n)
        res.release(req)

    for i in range(5):
        sim.process(worker(i))
    sim.run()
    assert max(peak) == 2
    assert sim.now == 30.0  # 5 jobs, 2 at a time: ceil(5/2)*10


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(n):
        req = res.request()
        yield req
        order.append(n)
        yield sim.timeout(1.0)
        res.release(req)

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_resource_release_unheld_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    res.release(r1)
    with pytest.raises(SimulationError):
        res.release(r1)


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r2)  # cancel while queued
    res.release(r1)
    sim.run()
    assert not r2.triggered  # the cancelled request is never granted
    r3 = res.request()
    assert r3.triggered      # and holds no slot: the next one is free


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")

    def proc():
        item = yield store.get()
        return item

    p = sim.process(proc())
    sim.run()
    assert p.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (item, sim.now)

    def producer():
        yield sim.timeout(5.0)
        store.put("late")

    c = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert c.value == ("late", 5.0)


def test_store_fifo_across_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(n):
        item = yield store.get()
        got.append((n, item))

    def producer():
        yield sim.timeout(1.0)
        store.put("a")
        store.put("b")

    sim.process(consumer(0))
    sim.process(consumer(1))
    sim.process(producer())
    sim.run()
    assert got == [(0, "a"), (1, "b")]
