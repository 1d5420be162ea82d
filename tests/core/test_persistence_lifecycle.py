"""Durability across deployments: C1's 'durable, persistent' claim.

A dataset produced by one MegaMmap job must be consumable, bit-exact,
by a *later* job (new cluster, new runtime) mapping the same URL — the
producer-consumer workflow pattern of the paper's introduction.
"""

import numpy as np
import pytest

from repro.apps.datagen import POINT3D
from repro.core import MM_APPEND_ONLY, MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from tests.core.conftest import build_system, run_procs


def test_producer_job_then_consumer_job(tmp_path):
    url = f"posix://{tmp_path}/stage.bin"
    data = np.arange(6000, dtype=np.float32)

    # --- job 1: produce ---
    sim1, system1 = build_system()
    c = system1.client(rank=0, node=0)

    def producer():
        vec = yield from c.vector(url, dtype=np.float32, size=6000)
        yield from vec.tx_begin(SeqTx(0, 6000, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)

    run_procs(sim1, producer())
    # Runtime termination persists everything (paper III-B).
    sim1.run(until=sim1.process(system1.shutdown(), name="shutdown"))

    # --- job 2: consume on a brand-new deployment ---
    sim2, system2 = build_system(n_nodes=3)
    out = {}

    def consumer(rank, node):
        client = system2.client(rank=rank, node=node)

        def app():
            vec = yield from client.vector(url, dtype=np.float32)
            assert vec.size == 6000  # size discovered from the file
            vec.pgas(rank, 2)
            yield from vec.tx_begin(SeqTx(vec.local_off(),
                                          vec.local_size(),
                                          MM_READ_ONLY))
            got = yield from vec.read_range(vec.local_off(),
                                            vec.local_size())
            yield from vec.tx_end()
            out[rank] = got

        return app

    run_procs(sim2, consumer(0, 0)(), consumer(1, 2)())
    joined = np.concatenate([out[0], out[1]])
    assert np.array_equal(joined, data)


def test_append_log_survives_restart(tmp_path):
    url = f"posix://{tmp_path}/log.bin"

    sim1, system1 = build_system()
    c1 = system1.client(rank=0, node=0)

    def job1():
        vec = yield from c1.vector(url, dtype=np.int64, size=0)
        yield from vec.tx_begin(SeqTx(0, 0, MM_APPEND_ONLY))
        yield from vec.append(np.arange(100, dtype=np.int64))
        yield from vec.tx_end()
        yield from vec.persist()

    run_procs(sim1, job1())

    sim2, system2 = build_system()
    c2 = system2.client(rank=0, node=0)
    out = {}

    def job2():
        vec = yield from c2.vector(url, dtype=np.int64)
        assert vec.size == 100
        yield from vec.tx_begin(SeqTx(0, 100, MM_APPEND_ONLY))
        yield from vec.append(np.arange(100, 150, dtype=np.int64))
        yield from vec.tx_end()
        yield from vec.persist()
        yield from vec.tx_begin(SeqTx(0, 150, MM_READ_ONLY))
        out["data"] = yield from vec.read_range(0, 150)
        yield from vec.tx_end()

    run_procs(sim2, job2())
    assert np.array_equal(out["data"], np.arange(150, dtype=np.int64))


def test_dirty_data_not_persisted_without_flush_or_shutdown(tmp_path):
    """Negative control: un-staged modifications stay in the scache
    only; the backing file keeps its old content until the stager
    runs (explicitly or at termination)."""
    url = f"posix://{tmp_path}/lazy.bin"
    (tmp_path / "lazy.bin").write_bytes(
        np.zeros(1000, dtype=np.float32).tobytes())

    sim, system = build_system(flush_period=1e9)  # flusher never fires
    c = system.client(rank=0, node=0)

    def app():
        vec = yield from c.vector(url, dtype=np.float32)
        yield from vec.tx_begin(SeqTx(0, 1000, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(1000, dtype=np.float32))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)  # scache yes, backend no

    run_procs(sim, app())
    on_disk = np.fromfile(tmp_path / "lazy.bin", dtype=np.float32)
    assert np.all(on_disk == 0)  # still the old content
    sim.run(until=sim.process(system.shutdown(), name="shutdown"))
    on_disk = np.fromfile(tmp_path / "lazy.bin", dtype=np.float32)
    assert np.all(on_disk == 1)  # termination staged it out


def test_destroy_drop_discards_everything(tmp_path):
    url = f"posix://{tmp_path}/drop.bin"
    sim, system = build_system()
    c = system.client(rank=0, node=0)

    def app():
        vec = yield from c.vector(url, dtype=np.int32, size=100)
        yield from vec.tx_begin(SeqTx(0, 100, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(100, dtype=np.int32))
        yield from vec.tx_end()
        yield from vec.destroy(drop=True)

    run_procs(sim, app())
    assert url.split("//")[1] not in system.vectors
    on_disk = np.fromfile(tmp_path / "drop.bin", dtype=np.int32)
    assert not np.any(on_disk == 1)


def test_stage_out_never_loses_a_concurrent_write(tmp_path):
    """Regression (flushed out by a placement-dependent chaos flake):
    a write landing between stage_out's page snapshot and its backend
    write used to be lost twice over — the stale snapshot became the
    file's content AND the completion-time dirty-bit clear wiped the
    write's re-dirty mark, so the termination flush skipped the page.
    The claim-before-capture protocol keeps the re-dirty mark alive."""
    from repro.core.memtask import MemoryTask, TaskKind
    from repro.sim import AllOf, Lock

    url = f"posix://{tmp_path}/race.bin"
    sim, system = build_system(flush_period=1e9)
    c = system.client(rank=0, node=0)
    v1 = np.arange(1024, dtype=np.int32)          # exactly one page
    v2 = (v1 + 7777).astype(np.int32)

    def writer():
        vec = yield from c.vector(url, dtype=np.int32, size=1024)
        yield from vec.tx_begin(SeqTx(0, 1024, MM_WRITE_ONLY))
        yield from vec.write_range(0, v1)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)           # scache yes, backend no

    run_procs(sim, writer())
    svec = system.vectors[url]
    assert 0 in svec.dirty_pages

    # Gate the backend charge so the stage-out parks *after* it
    # snapshotted the page but *before* the file write.
    gate = Lock(sim)
    run_procs(sim, gate.held())                   # pre-held by the test
    orig = system.stager._charge_backend

    def gated_charge(node, ranges, write):
        yield gate.acquire()
        gate.release()
        yield from orig(node, ranges, write)

    system.stager._charge_backend = gated_charge
    so = sim.process(system.stager.stage_out(svec, [0], 0), name="so")
    sim.run(until=sim.now + 1e-3)                 # park at the gate
    assert not (tmp_path / "race.bin").exists() \
        or not np.array_equal(np.fromfile(tmp_path / "race.bin",
                                          dtype=np.int32), v1)

    # The overlapping write: lands in the scache while the stale
    # snapshot is still waiting on the backend.
    def overlap():
        task = MemoryTask(kind=TaskKind.WRITE, vector_name=svec.name,
                          page_idx=0, client_node=0,
                          fragments=[(0, v2.tobytes())])
        yield from c.submit(task, wait=True)

    run_procs(sim, overlap())
    gate.release()                                # let the stale write land
    sim.run(until=AllOf(sim, [so]))
    # The write's dirty mark must have survived the stale stage-out...
    assert 0 in svec.dirty_pages
    # ...so runtime termination persists the fresh bytes.
    sim.run(until=sim.process(system.shutdown(), name="shutdown"))
    on_disk = np.fromfile(tmp_path / "race.bin", dtype=np.int32)
    assert np.array_equal(on_disk, v2)


def test_shutdown_waits_for_a_stage_out_in_flight(tmp_path):
    """Regression (a placement-dependent flake of the shipped
    Gray-Scott pipeline: one checkpoint page of zeros in the file on
    ~1 workdir path in 15): a stage-out claims the page's dirty bit
    before it writes, so a page a background flusher was still writing
    when the runtime terminated was in nobody's dirty set -- the
    termination flush skipped it, the simulation ended, and the write
    never reached the file. A vector is persisted only once the
    stage-outs in flight on it are down too."""
    url = f"posix://{tmp_path}/tail.bin"
    sim, system = build_system(flush_period=1e9)
    c = system.client(rank=0, node=0)
    data = np.arange(1024, dtype=np.int32)        # exactly one page

    def writer():
        vec = yield from c.vector(url, dtype=np.int32, size=1024)
        yield from vec.tx_begin(SeqTx(0, 1024, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)           # scache yes, backend no

    run_procs(sim, writer())
    svec = system.vectors[url]
    orig = system.stager._charge_backend

    def slow_charge(node, ranges, write):
        yield sim.timeout(1.0)                    # a busy PFS server
        yield from orig(node, ranges, write)

    system.stager._charge_backend = slow_charge
    # The flusher's pass: claims the dirty bit, parks on the backend.
    sim.process(system.stager.stage_out(svec, [0], 0), name="flusher")
    sim.run(until=sim.now + 1e-3)
    assert 0 not in svec.dirty_pages and sim.now < 0.5
    sim.run(until=sim.process(system.shutdown(), name="shutdown"))
    assert sim.now >= 1.0                         # it waited the write out
    assert np.array_equal(
        np.fromfile(tmp_path / "tail.bin", dtype=np.int32), data)
