"""Tests for the §V extensions: replication, node failure, integrity."""

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from repro.core.reliability import NodeFailedError, corrupt_page
from tests.core.conftest import build_system, run_procs

N = 4096  # int32 elements


def _write(system, client, key="v", value_fn=None):
    data = np.arange(N, dtype=np.int32) if value_fn is None \
        else value_fn()

    def app():
        vec = yield from client.vector(key, dtype=np.int32, size=N)
        yield from vec.tx_begin(SeqTx(0, N, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        # Let async durability replication (and the repair loop,
        # which tops up replicas absorbed by organizer moves) land.
        yield system.sim.timeout(0.5)

    return app, data


def _read(client, key="v"):
    def app():
        vec = yield from client.vector(key, dtype=np.int32)
        yield from vec.tx_begin(SeqTx(0, N, MM_READ_ONLY))
        out = yield from vec.read_range(0, N)
        yield from vec.tx_end()
        return out

    return app


def test_replication_places_durability_copies():
    sim, system = build_system(n_nodes=3, replication_factor=2)
    client = system.client(rank=0, node=0)
    app, _ = _write(system, client)
    run_procs(sim, app())
    infos = list(system.hermes.mdm.list_bucket("v"))
    assert infos
    for info in infos:
        assert len(info.replicas) >= 1
        assert all(node != info.node for node, _ in info.replicas)
    assert system.monitor.counter("reliability.replicas") > 0


def test_no_replication_by_default():
    sim, system = build_system(n_nodes=3)
    client = system.client(rank=0, node=0)
    app, _ = _write(system, client)
    run_procs(sim, app())
    assert system.monitor.counter("reliability.replicas") == 0


def test_read_survives_node_failure_with_replication():
    sim, system = build_system(n_nodes=3, replication_factor=2)
    c0 = system.client(rank=0, node=0)
    app, data = _write(system, c0)
    run_procs(sim, app())
    # Crash every node holding a primary copy of some page.
    victim = next(iter(system.hermes.mdm.list_bucket("v"))).node
    lost = system.reliability.fail_node(victim)
    assert lost > 0
    reader_node = (victim + 1) % 3
    out, = run_procs(sim, _read(system.client(1, reader_node))())
    assert np.array_equal(out, data)
    assert system.monitor.counter("reliability.promotions") > 0


def test_volatile_data_lost_without_replication():
    sim, system = build_system(n_nodes=2)
    c0 = system.client(rank=0, node=0)
    app, _ = _write(system, c0)
    run_procs(sim, app())
    # Fail every node that holds pages of the volatile vector.
    nodes = {i.node for i in system.hermes.mdm.list_bucket("v")}
    for n in nodes:
        system.reliability.fail_node(n)
    survivor = next(n for n in range(2) if n not in nodes) \
        if len(nodes) < 2 else 0
    with pytest.raises(NodeFailedError):
        run_procs(sim, _read(system.client(1, survivor))())


def test_nonvolatile_data_restaged_from_backend_after_failure(tmp_path):
    sim, system = build_system(n_nodes=2)
    c0 = system.client(rank=0, node=0)
    url = f"posix://{tmp_path}/d.bin"
    data = np.arange(N, dtype=np.int32)

    def writer():
        vec = yield from c0.vector(url, dtype=np.int32, size=N)
        yield from vec.tx_begin(SeqTx(0, N, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.persist()

    run_procs(sim, writer())
    nodes = {i.node for i in system.hermes.mdm.list_bucket(url)}
    for n in nodes:
        system.reliability.fail_node(n)
    # Reads recover by re-staging from the real backing file.
    reader_node = 0 if 0 not in nodes else 1
    if reader_node in nodes:
        reader_node = 0  # both failed: restage targets client_node
    out, = run_procs(sim, _read(system.client(1, reader_node), url)())
    assert np.array_equal(out, data)
    assert system.monitor.counter("reliability.restages") > 0


def test_corruption_detected_and_recovered_from_replica():
    sim, system = build_system(n_nodes=3, replication_factor=2,
                               integrity_checks=True)
    c0 = system.client(rank=0, node=0)
    app, data = _write(system, c0)
    run_procs(sim, app())
    assert corrupt_page(system, "v", 0, byte_offset=5)
    # Read from the corrupted primary's own node, so the fetch cannot
    # be served by a clean replica elsewhere.
    primary = system.hermes.mdm.peek("v", 0).node

    def reread():
        client = system.client(1, primary)
        vec = yield from client.vector("v", dtype=np.int32)
        # Fresh client: its pcache is cold, so the read really hits
        # the (corrupted) scache page.
        yield from vec.tx_begin(SeqTx(0, N, MM_READ_ONLY))
        out = yield from vec.read_range(0, N)
        yield from vec.tx_end()
        return out

    out, = run_procs(sim, reread())
    assert np.array_equal(out, data)
    assert system.monitor.counter("reliability.corruptions") > 0


def test_corruption_recovered_from_backend(tmp_path):
    sim, system = build_system(n_nodes=2, integrity_checks=True)
    c0 = system.client(rank=0, node=0)
    url = f"posix://{tmp_path}/c.bin"
    data = np.arange(N, dtype=np.int32)

    def writer():
        vec = yield from c0.vector(url, dtype=np.int32, size=N)
        yield from vec.tx_begin(SeqTx(0, N, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.persist()

    run_procs(sim, writer())
    assert corrupt_page(system, url, 1, byte_offset=9)
    out, = run_procs(sim, _read(system.client(1, 1), url)())
    assert np.array_equal(out, data)


def test_corrupt_page_missing_blob_is_noop():
    sim, system = build_system()
    assert corrupt_page(system, "nothing", 0) is False


def test_recover_page_restages_when_every_replica_node_failed(
        tmp_path):
    """All copies of a persisted page die (primary *and* replica
    node): recover_page must fall through replica failover to a
    backend re-stage — the fault path the chaos campaign exercises
    with crash faults on replicated nonvolatile vectors."""
    sim, system = build_system(n_nodes=3, replication_factor=2)
    c0 = system.client(rank=0, node=0)
    url = f"posix://{tmp_path}/r.bin"
    data = np.arange(N, dtype=np.int32)

    def writer():
        vec = yield from c0.vector(url, dtype=np.int32, size=N)
        yield from vec.tx_begin(SeqTx(0, N, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.persist()
        yield system.sim.timeout(0.5)  # let replication land

    run_procs(sim, writer())
    info = system.hermes.mdm.peek(url, 0)
    assert info.replicas, "replication should have landed"
    holders = {info.node} | {n for n, _ in info.replicas}
    assert len(holders) >= 2
    for n in holders:
        system.reliability.fail_node(n)
    survivor = next(n for n in range(3) if n not in holders)
    out, = run_procs(sim, _read(system.client(1, survivor), url)())
    assert np.array_equal(out, data)
    assert system.monitor.counter("reliability.restages") > 0


def test_ensure_pages_restages_dead_extent_in_one_round(tmp_path):
    """Batched stage-in over an extent whose placements died: the old
    batch path kept the dead metadata entries and handed back a
    partially-restaged extent (callers then tripped over each page one
    by one). ensure_pages must rebuild the dead pages alongside the
    missing ones with the extent's single backend read."""
    sim, system = build_system(n_nodes=2)
    c0 = system.client(rank=0, node=0)
    url = f"posix://{tmp_path}/e.bin"
    data = np.arange(2 * N, dtype=np.int32)  # 8 pages of 4 KiB

    def writer():
        vec = yield from c0.vector(url, dtype=np.int32, size=2 * N)
        yield from vec.tx_begin(SeqTx(0, 2 * N, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.persist()

    run_procs(sim, writer())
    shared = system.vectors[url]
    pages = list(range(shared.n_pages))
    for n in {i.node for i in system.hermes.mdm.list_bucket(url)}:
        system.reliability.fail_node(n)
    dead = [p for p in pages
            if system.hermes.mdm.peek(url, p).node < 0]
    assert dead, "fail_node should leave dead entries"

    def probe():
        ex = system.runtimes[0].executor
        return (yield from ex.ensure_pages(shared, pages, 0))

    infos, = run_procs(sim, probe())
    assert set(infos) == set(pages)
    for p in pages:
        assert infos[p] is not None, f"page {p} left unresolved"
        assert infos[p].node >= 0, f"page {p} still dead"
    assert system.monitor.counter("reliability.extent_restages") > 0
    out, = run_procs(sim, _read(system.client(1, 1), url)())
    assert np.array_equal(out[:N], data[:N])


def test_fail_node_mid_batch_without_replication_restages(
        tmp_path, monkeypatch):
    """fail_node landing mid-batch on an unreplicated persisted
    vector: the batched read loses its source with no replica to
    promote and must restage from the backend — the partially-restaged
    extent hole this PR closes."""
    sim, system = build_system(n_nodes=2)
    c0 = system.client(rank=0, node=0)
    # A relative URL: pages are placed by a hash of the URL, and under
    # about one absolute tmp path in 200 all eight land on one node,
    # the read does no ``hermes.gets`` and the saboteur polls forever.
    monkeypatch.chdir(tmp_path)
    url = "posix://./m.bin"
    data = np.arange(2 * N, dtype=np.int32)

    def writer():
        vec = yield from c0.vector(url, dtype=np.int32, size=2 * N)
        yield from vec.tx_begin(SeqTx(0, 2 * N, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.persist()

    run_procs(sim, writer())
    victim = system.hermes.mdm.peek(url, 1).node
    reader_node = 1 - victim
    base = system.monitor.counter("hermes.gets")

    def reader():
        client = system.client(1, reader_node)
        vec = yield from client.vector(url, dtype=np.int32)
        yield from vec.tx_begin(SeqTx(0, 2 * N, MM_READ_ONLY))
        out = yield from vec.read_range(0, 2 * N)
        yield from vec.tx_end()
        return out

    def saboteur():
        # Wait for the vectored fetch to start, then crash the
        # primary while its pages are still in flight.
        while system.monitor.counter("hermes.gets") <= base:
            yield sim.timeout(1e-7)
        system.reliability.fail_node(victim)
        return system.sim.now

    out, when = run_procs(sim, reader(), saboteur())
    assert when > 0.0
    assert np.array_equal(out, data)
    assert system.monitor.counter("reliability.restages") > 0 \
        or system.monitor.counter("reliability.extent_restages") > 0


def test_node_failure_during_inflight_batched_read():
    """fail_node racing an in-flight batched read: the vectored fetch
    loses its source mid-batch and must fail over to a replica (the
    crash race the chaos engine originally flushed out)."""
    sim, system = build_system(n_nodes=3, replication_factor=2)
    c0 = system.client(rank=0, node=0)
    app, data = _write(system, c0)
    run_procs(sim, app())
    victim = system.hermes.mdm.peek("v", 0).node
    reader_node = (victim + 1) % 3
    base = system.monitor.counter("hermes.gets")

    def saboteur():
        # Wait for the batch to start fetching, then crash the
        # primary while its pages are still in flight.
        while system.monitor.counter("hermes.gets") <= base:
            yield sim.timeout(1e-7)
        system.reliability.fail_node(victim)
        return system.sim.now

    out, when = run_procs(
        sim, _read(system.client(1, reader_node))(), saboteur())
    assert when > 0.0  # the crash really happened mid-run
    assert np.array_equal(out, data)
    assert system.monitor.counter("reliability.promotions") > 0


def test_crash_under_background_copy_and_move_is_a_typed_miss():
    """A node crash between a page's WRITE and the background work
    queued behind it (the async replica, an organizer move, a partial
    overwrite) must not surface as a bare KeyError that kills the run:
    the replica copy gives up, move/put_partial raise BlobNotFound."""
    from repro.hermes.blob import BlobNotFound
    sim, system = build_system(n_nodes=2)
    client = system.client(rank=0, node=0)
    app, _ = _write(system, client)
    run_procs(sim, app())
    info = next(iter(system.hermes.mdm.list_bucket("v")))
    vec = system.vectors["v"]
    # Wipe the primary's device the way fail_node does, keeping the
    # metadata entry (the window a crash opens).
    system.dmshs[info.node].tier(info.tier).delete(("v", info.key))
    system.config.replication_factor = 2
    assert run_procs(
        sim, system.reliability.replicate_page(vec, info.key)) == [None]
    assert info.replicas == []
    other_tier = next(d.spec.kind for d in system.dmshs[info.node]
                      if d.spec.kind != info.tier)
    with pytest.raises(BlobNotFound):
        run_procs(sim, system.hermes.move("v", info.key, info.node,
                                          other_tier))
    with pytest.raises(BlobNotFound):
        run_procs(sim, system.hermes.put_partial(0, "v", info.key, 0,
                                                 b"\x01" * 8))


@pytest.mark.parametrize("batching", [True, False],
                         ids=["put_many", "put"])
def test_crash_between_device_put_and_metadata_publish_keeps_the_write(
        batching):
    """Regression: a first write whose owner crashed while its service
    sat between the device put and the metadata publish left an entry
    pointing at a wiped device -- no replica, no committed version, a
    declared loss at the next read. The put still holds the bytes and
    stores them again, so the write it acknowledges is there (and
    replicates) like one that arrived just after the crash."""
    sim, system = build_system(n_nodes=2, replication_factor=2,
                               batching_enabled=batching)
    rel, mdm = system.reliability, system.hermes.mdm
    crashed = []

    def crash_then(publish):
        def wrapped(client_node, infos):
            if not crashed:
                first = infos[0] if isinstance(infos, list) else infos
                crashed.append(first.node)
                assert rel.fail_node(first.node) > 0   # wipes the blob
            yield from publish(client_node, infos)
        return wrapped

    mdm.put = crash_then(mdm.put)
    mdm.put_many = crash_then(mdm.put_many)
    c0 = system.client(rank=0, node=0)
    app, data = _write(system, c0)
    run_procs(sim, app())
    (victim,) = crashed
    rel.restore_node(victim)
    for info in mdm.list_bucket("v"):
        dev = system.dmshs[info.node].tier(info.tier)
        assert ("v", info.key) in dev
    assert system.monitor.counter("reliability.replicas") > 0
    out, = run_procs(sim, _read(system.client(1, 1 - victim))())
    assert np.array_equal(out, data)
