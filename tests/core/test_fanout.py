"""A call that talks to several peers sends to all of them at once.

:func:`repro.net.fan_out` starts every per-peer message of one call
together and returns when the last has landed; messages to one peer
keep their order. On a 4-node deployment (20 us links) each vectored
site below -- a ``read_objects`` over three remote owners, a metadata
round over three shards, a ``Hermes.put_many`` to three nodes, a read
reply from three source nodes -- must cost one flight (one round trip
for a request that is answered), not one per peer; a one-peer call
runs inline with no extra event; and one owner's batches still reach
its runtime in submission order under chaos delay jitter.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos.inject import ChaosInjector
from repro.chaos.plan import ChaosPlan, Fault
from repro.core import memtask
from repro.core.memtask import MemoryTask, TaskKind
from repro.hermes.blob import BlobInfo
from repro.net import LinkSpec, Network, fan_out
from repro.sim import Event, Simulator
from tests.core.conftest import build_system, run_procs

PAGE = 4096
#: One-way link latency of ``build_system``'s fabric.
LAT = 2e-5
#: Slack for what a flight costs beyond its latency: NIC serialization
#: of a few small messages at 5 GB/s (ns each) and DRAM-tier service.
SLACK = LAT / 4


def _pages_by_owner(shared, client_node, n_pages):
    by_owner = {}
    for p in range(n_pages):
        by_owner.setdefault(shared.owner_node(p, client_node), []).append(p)
    return by_owner


def _timed(sim, gen):
    """Run ``gen`` to completion; its elapsed simulated time."""
    out = {}

    def proc():
        t0 = sim.now
        out["value"] = yield from gen
        out["elapsed"] = sim.now - t0

    run_procs(sim, proc())
    return out["elapsed"], out["value"]


def test_read_objects_over_three_owners_costs_one_round_trip():
    sim, system = build_system(n_nodes=4, object_threshold_bytes=256)
    system.tracer.enabled = True
    writer = system.client(rank=0, node=1)
    reader = system.client(rank=1, node=0)
    n_pages = 16
    pattern = (np.arange(n_pages * PAGE) % 251).astype(np.uint8)

    def setup():
        vec = yield from writer.vector("fan:objs", dtype=np.uint8,
                                       size=n_pages * PAGE)
        yield from vec.write_range(0, pattern)
        yield from vec.flush(wait=True)
        rvec = yield from reader.vector("fan:objs")
        owners = _pages_by_owner(rvec.shared, 0, n_pages)
        pages = [owners[o][0] for o in (1, 2, 3)]
        # Warm every owner's metadata for these pages: the timed read
        # below is then the same DRAM-tier service on each owner.
        yield from rvec.read_objects([(p * PAGE, 8) for p in pages])
        return rvec, pages

    (rvec, pages), = run_procs(sim, setup())
    t0 = sim.now
    remote0 = system.monitor.counter("object.remote_tasks")
    elapsed, outs = _timed(sim, rvec.read_objects(
        [(p * PAGE + 64, 8) for p in pages]))
    assert system.monitor.counter("object.remote_tasks") - remote0 == 3
    for p, out in zip(pages, outs):
        assert np.array_equal(out, pattern[p * PAGE + 64:p * PAGE + 72])
    service = max(sp.duration for sp in system.tracer.spans
                  if sp.category == "rt.service" and sp.start >= t0)
    # Request out, service, reply back: one round trip. Sending the
    # owners' requests one landing after another costs 2 LAT more.
    assert elapsed <= 2 * LAT + service + SLACK, (elapsed, service)


def test_metadata_round_over_three_shards_costs_one_round_trip():
    sim, system = build_system(n_nodes=4)
    mdm = system.hermes.mdm
    keys = {}
    k = 0
    while len(keys) < 3:
        owner = mdm.owner_of("fan:mdm", k)
        if owner != 0:
            keys.setdefault(owner, k)
        k += 1
    rpcs0 = mdm.rpcs
    elapsed, found = _timed(sim, mdm.try_get_many(0, "fan:mdm",
                                                  list(keys.values())))
    assert mdm.rpcs - rpcs0 == 3
    assert set(found) == set(keys.values())
    assert 2 * LAT <= elapsed <= 2 * LAT + SLACK, elapsed


def test_put_many_to_three_nodes_costs_one_flight():
    sim, system = build_system(n_nodes=4)
    hermes = system.hermes
    # Keys whose metadata lives on the client node: the metadata rounds
    # are free, the payload transfers are all that crosses the wire.
    keys = []
    k = 0
    while len(keys) < 3:
        if hermes.mdm.owner_of("fan:put", k) == 0:
            keys.append(k)
        k += 1
    items = [(key, np.full(64, key, dtype=np.uint8), node)
             for key, node in zip(keys, (1, 2, 3))]
    elapsed, out = _timed(sim, hermes.put_many(0, "fan:put", items))
    assert sorted(info.node for info in out.values()) == [1, 2, 3]
    assert LAT <= elapsed <= LAT + SLACK, elapsed


def test_read_reply_from_three_sources_costs_one_flight():
    sim, system = build_system(n_nodes=4)
    done = Event(sim)
    unit = SimpleNamespace(reply={1: 64, 2: 64, 3: 64}, client_node=0,
                           ctx=None, done=done)
    elapsed, _ = _timed(sim, system.runtimes[1]._reply(unit, "ok"))
    assert done.value == "ok"
    assert LAT <= elapsed <= LAT + SLACK, elapsed


@pytest.mark.parametrize("nbytes", [0, 64, 1 << 20])
def test_one_peer_call_schedules_no_extra_event(nbytes):
    def events(send):
        sim = Simulator()
        net = Network(sim, 4, intra=LinkSpec(bandwidth=5e9, latency=LAT))
        sim.process(send(net))
        sim.run()
        return sim._seq, sim.heap_events, sim.now

    direct = events(lambda net: net.transfer(0, 2, nbytes))
    fanned = events(lambda net: fan_out(
        net.sim, [(2, net.transfer(0, 2, nbytes))]))
    assert fanned == direct


def test_one_owners_batches_enqueue_in_submission_order_under_jitter(
        monkeypatch):
    """With one page per batch, a call carries several batches to each
    owner; chaos delays every cross-node transfer by up to 5 LAT, so
    two concurrent sends to one owner would land in random order."""
    monkeypatch.setattr(memtask, "BATCH_MAX_PAGES", 1)
    for seed in range(4):
        sim, system = build_system(n_nodes=4)
        plan = ChaosPlan(seed=seed, n_nodes=4, horizon=1.0, faults=[
            Fault(kind="delay", time=0.0, duration=1.0, param=5 * LAT)])
        ChaosInjector(system, plan).install()
        client = system.client(rank=0, node=0)
        arrived = {}
        for node, rt in enumerate(system.runtimes):
            def submit(task, _rt=rt, _node=node, _orig=rt.submit):
                if isinstance(task, memtask.BatchTask):
                    arrived.setdefault(_node, []).append(
                        task.tasks[0].page_idx)
                return _orig(task)
            monkeypatch.setattr(rt, "submit", submit)

        def app():
            vec = yield from client.vector("fan:order", dtype=np.uint8,
                                           size=32 * PAGE)
            tasks = [MemoryTask(kind=TaskKind.READ,
                                vector_name="fan:order", page_idx=p,
                                client_node=0, region=(0, PAGE))
                     for p in range(32)]
            raws = yield from client.submit_batch(tasks, wait=True)
            return vec, raws

        (vec, raws), = run_procs(sim, app())
        assert len(raws) == 32
        expected = _pages_by_owner(vec.shared, 0, 32)
        assert arrived == expected, seed
        assert system.monitor.counter("chaos.delays") > 0


def test_fan_out_failure_fails_the_call():
    sim = Simulator()
    net = Network(sim, 3, intra=LinkSpec(bandwidth=5e9, latency=LAT))

    def boom():
        yield sim.timeout(LAT / 2)
        raise RuntimeError("lost")

    def call():
        try:
            yield from fan_out(sim, [(1, net.transfer(0, 1, 64)),
                                     (2, boom())])
        except RuntimeError as exc:
            return str(exc), sim.now

    proc = sim.process(call())
    sim.run()
    assert proc.value == ("lost", LAT / 2)
