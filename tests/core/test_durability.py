"""End-to-end tests for the durable scache tier (core/durability.py).

The contract under test is the committed-barrier clause: bytes flushed
before a transaction barrier survive crash+restart bit-exactly; bytes
shipped after the last barrier may roll back to the committed version
but never tear. Volatile vectors are the interesting case — they have
no persistent backend, so before this subsystem a crash without
replication simply lost them.
"""

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from repro.core.config import MegaMmapConfig
from repro.core.memtask import MemoryTask, TaskKind
from repro.core.system import MegaMmapSystem
from repro.net import LinkSpec, Network
from repro.sim import AllOf, Monitor, Simulator
from repro.storage import DMSH, DRAM
from repro.storage.tiers import MB
from tests.core.conftest import build_system, run_procs

N = 4096  # int32 elements -> 4 pages of 4 KiB


def _writer(client, data, key="v"):
    def app():
        vec = yield from client.vector(key, dtype=np.int32,
                                       size=len(data))
        yield from vec.tx_begin(SeqTx(0, len(data), MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)

    return app


def _reader(client, n, key="v"):
    def app():
        vec = yield from client.vector(key, dtype=np.int32)
        yield from vec.tx_begin(SeqTx(0, n, MM_READ_ONLY))
        out = yield from vec.read_range(0, n)
        yield from vec.tx_end()
        return out

    return app


def _fail_holders(system, key="v"):
    nodes = {i.node for i in system.hermes.mdm.list_bucket(key)}
    for n in sorted(nodes):
        system.reliability.fail_node(n)
    return nodes


def _join(sim, procs):
    procs = [p for p in procs if p is not None]
    if procs:
        sim.run(until=AllOf(sim, procs))


def test_durability_off_by_default():
    sim, system = build_system()
    assert system.durability.enabled is False
    assert system.durability.wals == []
    data = np.arange(N, dtype=np.int32)
    run_procs(sim, _writer(system.client(0, 0), data)())
    assert system.monitor.counter("durability.barriers") == 0
    assert system.durability.covers_clean("v", 0) is False


def test_durability_requires_a_durable_tier():
    sim = Simulator()
    net = Network(sim, 1, intra=LinkSpec(bandwidth=5e9, latency=2e-5))
    dmshs = [DMSH(sim, [DRAM.with_capacity(8 * MB)], node_id=0)]
    with pytest.raises(ValueError, match="no durable tier"):
        MegaMmapSystem(sim, net, dmshs,
                       config=MegaMmapConfig(durability=True),
                       monitor=Monitor(sim))


def test_flush_is_the_transaction_barrier():
    sim, system = build_system(durability=True)
    data = np.arange(N, dtype=np.int32)
    run_procs(sim, _writer(system.client(0, 0), data)())
    dur = system.durability
    assert system.monitor.counter("durability.barriers") >= 1
    # Every page's flushed bytes are committed in some node's log and
    # nothing newer is staged.
    page_elems = system.config.page_size // 4
    for page in range(N // page_elems):
        assert dur.covers_clean("v", page)
        _node, raw, _crc = dur.lookup("v", page)
        start = page * page_elems
        assert raw == data[start:start + page_elems].tobytes()
    # The log lives on the durable tier (NVMe here), as a reservation.
    assert all(w.device.spec.durable for w in dur.wals)
    assert any(w.durable_bytes > 0 and w.device.used >= w._reserved
               for w in dur.wals)


def test_crash_restart_recovers_committed_volatile_data():
    """The headline path: a volatile vector (no backend), no
    replication, every holder node crashes — the WAL replay at restart
    brings back exactly the barrier-committed bytes."""
    sim, system = build_system(durability=True)
    data = np.arange(N, dtype=np.int32)
    run_procs(sim, _writer(system.client(0, 0), data)())
    nodes = _fail_holders(system)
    assert nodes
    # Dead entries: primaries had no replicas to promote.
    dead = [i for i in system.hermes.mdm.list_bucket("v")
            if i.node < 0]
    assert dead, "fail_node should orphan the volatile pages"
    _join(sim, [system.reliability.restore_node(n)
                for n in sorted(nodes)])
    assert system.monitor.counter("durability.recoveries") >= 1
    assert system.monitor.counter("durability.pages_restored") > 0
    for info in system.hermes.mdm.list_bucket("v"):
        assert info.node >= 0
    out, = run_procs(sim, _reader(system.client(1, 0), N)())
    assert np.array_equal(out, data)


def test_read_during_outage_recovers_from_wal():
    """A read that arrives before (or instead of) node recovery takes
    the recover_page WAL fallback: replica -> WAL -> backend."""
    sim, system = build_system(durability=True)
    data = np.arange(N, dtype=np.int32)
    run_procs(sim, _writer(system.client(0, 0), data)())
    _fail_holders(system)
    # No restore_node: the nodes are still down; the read must be
    # served from the durable log.
    out, = run_procs(sim, _reader(system.client(1, 0), N)())
    assert np.array_equal(out, data)
    assert system.monitor.counter("durability.wal_reads") > 0


def test_uncommitted_tail_rolls_back_without_tearing():
    """Bytes shipped after the last barrier may roll back to the
    committed version after a crash — but reads must return a whole
    committed page, never a mix."""
    sim, system = build_system(durability=True)
    v1 = np.arange(N, dtype=np.int32)
    run_procs(sim, _writer(system.client(0, 0), v1)())
    # Ship a full-page overwrite of page 0 WITHOUT a flush barrier:
    # the scache has v2, the WAL has only a staged (volatile) intent.
    page_elems = system.config.page_size // 4
    v2_page = (v1[:page_elems] + 1000).astype(np.int32)

    def ship_unbarriered():
        client = system.client(0, 0)
        task = MemoryTask(kind=TaskKind.WRITE, vector_name="v",
                          page_idx=0, client_node=0,
                          fragments=[(0, v2_page.tobytes())])
        yield from client.submit(task, wait=True)

    run_procs(sim, ship_unbarriered())
    assert system.durability.covers_clean("v", 0) is False
    nodes = _fail_holders(system)
    _join(sim, [system.reliability.restore_node(n)
                for n in sorted(nodes)])
    out, = run_procs(sim, _reader(system.client(1, 0), N)())
    # Page 0 rolled back to the barrier-committed v1 — bit-exact, not
    # torn — and every other page is untouched v1.
    assert np.array_equal(out, v1)


def test_recovering_twice_yields_identical_tier_state():
    """Log-replay idempotence at the tier level: a second recovery
    pass (crash during recovery, belated restart) restores nothing and
    leaves devices + metadata bit-identical."""
    sim, system = build_system(durability=True)
    data = np.arange(N, dtype=np.int32)
    run_procs(sim, _writer(system.client(0, 0), data)())
    nodes = _fail_holders(system)
    for n in nodes:  # restart without the auto-spawned recovery
        system.reliability.failed_nodes.discard(n)

    def fingerprint():
        state = {}
        for info in system.hermes.mdm.list_bucket("v"):
            dev = system.dmshs[info.node].tier(info.tier)
            state[(info.bucket, info.key)] = (
                info.node, info.tier, bytes(dev.peek((info.bucket,
                                                      info.key))))
        return state

    def recover(node):
        return (yield from system.durability.recover_node(node))

    first = [s for s, in [run_procs(sim, recover(n))
                          for n in sorted(nodes)]]
    assert sum(s["restored"] for s in first) > 0
    state_one = fingerprint()
    second = [s for s, in [run_procs(sim, recover(n))
                           for n in sorted(nodes)]]
    assert sum(s["restored"] for s in second) == 0
    assert fingerprint() == state_one
    out, = run_procs(sim, _reader(system.client(1, 0), N)())
    assert np.array_equal(out, data)


def test_durable_and_nondurable_modes_agree_on_results():
    """Fault-free runs: durable mode pays WAL commits but must produce
    bit-identical application-visible data."""
    outs = []
    for durable in (False, True):
        sim, system = build_system(durability=durable)
        data = (np.arange(N, dtype=np.int32) * 3 + 1).astype(np.int32)
        run_procs(sim, _writer(system.client(0, 0), data)())
        out, = run_procs(sim, _reader(system.client(1, 1), N)())
        outs.append(out)
    assert np.array_equal(outs[0], outs[1])
