"""Focused scache-executor tests: task kinds, fragment semantics."""

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, SeqTx
from repro.core.errors import MegaMmapError
from repro.core.memtask import MemoryTask, TaskKind
from tests.core.conftest import build_system, run_procs


def test_write_allocate_skips_stage_in(tmp_path, dsm):
    """A whole-page write to a nonvolatile vector never reads the
    backend (write-allocate)."""
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    path = tmp_path / "wa.bin"
    path.write_bytes(b"\xff" * 8192)

    def app():
        vec = yield from client.vector(f"posix://{path}",
                                       dtype=np.uint8)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.zeros(4096, dtype=np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        return system.monitor.counter("stager.bytes_in")

    (staged_in,) = run_procs(sim, app())
    assert staged_in == 0


def test_partial_write_to_cold_page_stages_in_first(tmp_path):
    """A fragment write to a nonvolatile page must preserve the
    backend bytes it does not touch."""
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    path = tmp_path / "frag.bin"
    path.write_bytes(bytes(range(256)) * 16)  # 4096 bytes

    def app():
        vec = yield from client.vector(f"posix://{path}",
                                       dtype=np.uint8)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_READ_ONLY
                                      | MM_WRITE_ONLY))
        yield from vec.set(100, 0xAB)
        yield from vec.tx_end()
        yield from vec.persist()

    run_procs(sim, app())
    data = path.read_bytes()
    assert data[100] == 0xAB
    assert data[99] == 99 and data[101] == 101  # untouched bytes kept


def test_multiple_fragments_in_one_task(dsm):
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("m", dtype=np.uint8, size=4096)
        t = MemoryTask(kind=TaskKind.WRITE, vector_name="m",
                       page_idx=0, client_node=0,
                       fragments=[(0, b"AA"), (100, b"BB"),
                                  (4094, b"CC")])
        yield from client.submit(t, wait=True)
        r = MemoryTask(kind=TaskKind.READ, vector_name="m",
                       page_idx=0, client_node=0, region=None)
        raw = yield from client.submit(r, wait=True)
        return raw

    (raw,) = run_procs(sim, app())
    assert raw[:2] == b"AA"
    assert raw[100:102] == b"BB"
    assert raw[4094:] == b"CC"
    assert raw[2:100] == bytes(98)


def test_replica_fast_path_requires_whole_page_region(dsm):
    """Regression: under READ_ONLY_GLOBAL the replica fast-path
    predicate was ``region[1] >= page_nbytes``, which also fired for
    offset regions — silently returning a slice from ``off`` truncated
    at the page end (short *and* shifted) instead of treating the
    region as partial. The tightened predicate routes any region that
    is not exactly ``(0, page_nbytes)`` to the partial-read path,
    which validates bounds loudly."""
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("rg", dtype=np.uint8, size=4096)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
        yield from vec.write_range(
            0, (np.arange(4096) % 251).astype(np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        # Enter a read-only phase so the replica fast path is armed.
        yield from vec.tx_begin(SeqTx(0, 4096, MM_READ_ONLY))
        # A remote client's offset region with a degenerate size
        # (off > 0, size = page size): the old predicate sent this to
        # the replicate path, silently returning 3996 shifted bytes.
        owner = vec.shared.owner_node(0, 0)
        remote = 1 - owner
        bad = MemoryTask(kind=TaskKind.READ, vector_name="rg",
                         page_idx=0, client_node=remote,
                         region=(100, 4096))
        try:
            yield from system.runtimes[owner].executor.execute(bad)
        except IndexError:
            outcome = "error"
        else:
            outcome = "silent"
        # A *valid* offset region must return exactly the asked bytes
        # (not page-start bytes) on the same path.
        ok = MemoryTask(kind=TaskKind.READ, vector_name="rg",
                        page_idx=0, client_node=remote,
                        region=(100, 64))
        raw = yield from system.runtimes[owner].executor.execute(ok)
        yield from vec.tx_end()
        return outcome, raw

    (res,) = run_procs(sim, app())
    outcome, raw = res
    assert outcome == "error"      # old code: "silent" wrong data
    assert len(raw) == 64
    assert raw == bytes((np.arange(100, 164) % 251).astype(np.uint8))


def test_task_for_destroyed_vector_fails(dsm):
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        t = MemoryTask(kind=TaskKind.READ, vector_name="ghost",
                       page_idx=0, client_node=0, region=(0, 10))
        system.vectors  # no such vector registered
        try:
            # submit() needs the vector for routing; call the executor
            # directly, as a runtime worker would.
            yield from system.runtimes[0].executor.execute(t)
        except MegaMmapError as exc:
            return "unknown" in str(exc)

    (ok,) = run_procs(sim, app())
    assert ok


def test_delete_task_is_idempotent(dsm):
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("d", dtype=np.uint8, size=4096)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(4096, dtype=np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        for _ in range(2):  # second delete must be a no-op
            t = MemoryTask(kind=TaskKind.DELETE, vector_name="d",
                           page_idx=0, client_node=0)
            yield from client.submit(t, wait=True)
        return system.hermes.mdm.peek("d", 0)

    (info,) = run_procs(sim, app())
    assert info is None
