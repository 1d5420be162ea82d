"""Unit tests for the network fabric and mailboxes."""

import pytest

from repro.net import LinkSpec, Mailbox, Message, Network
from repro.net.fabric import ETH_40G
from repro.net.message import ANY_SOURCE, ANY_TAG, payload_nbytes
from repro.sim import Simulator

import numpy as np


def test_transfer_time_is_latency_plus_bw():
    sim = Simulator()
    net = Network(sim, 2, intra=LinkSpec(bandwidth=100.0, latency=1.0))

    def proc():
        yield from net.transfer(0, 1, 200)

    sim.run(until=sim.process(proc()))
    assert sim.now == pytest.approx(1.0 + 2.0)


def test_same_node_transfer_uses_loopback():
    sim = Simulator()
    net = Network(sim, 2, intra=LinkSpec(bandwidth=1.0, latency=100.0),
                  loopback=LinkSpec(bandwidth=1e9, latency=0.0))

    def proc():
        yield from net.transfer(1, 1, 1000)

    sim.run(until=sim.process(proc()))
    assert sim.now < 1.0


def test_sender_nic_serializes_concurrent_sends():
    sim = Simulator()
    net = Network(sim, 3, intra=LinkSpec(bandwidth=100.0, latency=0.0))

    def send(dst):
        yield from net.transfer(0, dst, 100)

    sim.process(send(1))
    sim.process(send(2))
    sim.run()
    assert sim.now == pytest.approx(2.0)


def test_sender_nic_pipelines_messages_in_flight():
    """The NIC is held only to put a message on the wire: the second
    send leaves while the first one flies, so two 100 B sends finish at
    3 s (1 s each on the NIC, then 1 s of flight), not 4."""
    sim = Simulator()
    net = Network(sim, 3, intra=LinkSpec(bandwidth=100.0, latency=1.0))

    def send(dst):
        yield from net.transfer(0, dst, 100)

    sim.process(send(1))
    sim.process(send(2))
    sim.run()
    assert sim.now == pytest.approx(3.0)


def test_one_pair_delivers_in_send_order():
    """Messages between one (src, dst) pair land in the order they
    left: a small message queued behind a large one lands after it,
    and one on a faster link class does not overtake a slower one."""
    sim = Simulator()
    net = Network(sim, 2, intra=LinkSpec(bandwidth=100.0, latency=1.0))
    slow = LinkSpec(bandwidth=100.0, latency=5.0)
    landed = []

    def send(name, nbytes, link=None):
        yield from net.transfer(0, 1, nbytes, link=link)
        landed.append((name, sim.now))

    sim.process(send("large", 200))
    sim.process(send("small", 100))
    sim.run()
    assert landed == [("large", pytest.approx(3.0)),
                      ("small", pytest.approx(4.0))]
    landed.clear()
    t0 = sim.now
    sim.process(send("slow", 100, link=slow))
    sim.process(send("fast", 100))
    sim.run()
    assert landed == [("slow", pytest.approx(t0 + 6.0)),
                      ("fast", pytest.approx(t0 + 6.0))]


def test_different_senders_do_not_contend():
    sim = Simulator()
    net = Network(sim, 4, intra=LinkSpec(bandwidth=100.0, latency=0.0))

    def send(src, dst):
        yield from net.transfer(src, dst, 100)

    sim.process(send(0, 1))
    sim.process(send(2, 3))
    sim.run()
    assert sim.now == pytest.approx(1.0)


def test_inter_rack_latency_is_higher():
    sim = Simulator()
    net = Network(sim, 4, rack_size=2)
    assert net.rack_of(1) == 0 and net.rack_of(2) == 1
    intra = net.transfer_time(0, 1, 1000)
    inter = net.transfer_time(0, 2, 1000)
    assert inter > intra


def test_unknown_node_rejected():
    sim = Simulator()
    net = Network(sim, 2)

    def proc():
        yield from net.transfer(0, 5, 10)

    with pytest.raises(ValueError):
        sim.run(until=sim.process(proc()))


def test_bytes_moved_accounting():
    sim = Simulator()
    net = Network(sim, 2)

    def proc():
        yield from net.transfer(0, 1, 123)

    sim.run(until=sim.process(proc()))
    assert net.bytes_moved == 123


def test_eth40g_preset_reasonable():
    # 5 GB/s: 1 GB takes ~0.2 s.
    assert ETH_40G.xfer_time(10 ** 9) == pytest.approx(0.2, rel=0.01)


def test_mailbox_tag_matching():
    sim = Simulator()
    box = Mailbox(sim)
    box.deliver(Message(src=1, dst=0, tag=7, payload="a", nbytes=1))
    box.deliver(Message(src=2, dst=0, tag=9, payload="b", nbytes=1))

    def proc():
        m9 = yield box.receive(tag=9)
        m7 = yield box.receive(tag=7)
        return m9.payload, m7.payload

    p = sim.process(proc())
    sim.run()
    assert p.value == ("b", "a")


def test_mailbox_source_matching_and_wildcards():
    sim = Simulator()
    box = Mailbox(sim)
    box.deliver(Message(src=3, dst=0, tag=1, payload="x", nbytes=1))

    def proc():
        m = yield box.receive(source=3, tag=ANY_TAG)
        return m.src

    p = sim.process(proc())
    sim.run()
    assert p.value == 3


def test_mailbox_waiter_woken_on_delivery():
    sim = Simulator()
    box = Mailbox(sim)

    def consumer():
        m = yield box.receive(source=ANY_SOURCE)
        return m.payload, sim.now

    def producer():
        yield sim.timeout(4.0)
        box.deliver(Message(src=0, dst=0, tag=0, payload="late", nbytes=4))

    c = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert c.value == ("late", 4.0)


def test_mailbox_fifo_among_matching():
    sim = Simulator()
    box = Mailbox(sim)
    box.deliver(Message(src=1, dst=0, tag=0, payload="first", nbytes=1))
    box.deliver(Message(src=1, dst=0, tag=0, payload="second", nbytes=1))

    def proc():
        a = yield box.receive()
        b = yield box.receive()
        return a.payload, b.payload

    p = sim.process(proc())
    sim.run()
    assert p.value == ("first", "second")


def test_payload_nbytes_numpy_exact():
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80


def test_payload_nbytes_containers():
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes([np.zeros(4, np.float32)]) == 64 + 16
    assert payload_nbytes({"k": b"xy"}) > 2
    assert payload_nbytes(object()) == 64
