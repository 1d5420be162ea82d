"""Ablation: coherence policy choice (paper Fig. 3 / III-C).

Read-only replication should make repeated cross-node reads cheap
(local replicas); forcing the same workload through the read-write
policy disables replication and keeps paying remote fetches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from benchmarks.common import emit_result, print_table, testbed, \
    write_csv

N = 64 * 1024  # float64 = 512 KB, a few pages per node


def _app(read_flags, repeats=4):
    def app(ctx):
        vec = yield from ctx.mm.vector("shared", dtype=np.float64,
                                       size=N)
        vec.bound_memory(256 * 1024)
        if ctx.rank == 0:
            tx = yield from vec.tx_begin(SeqTx(0, N, MM_WRITE_ONLY))
            yield from vec.write_range(
                0, np.arange(N, dtype=np.float64))
            yield from vec.tx_end()
            yield from vec.flush(wait=True)
        yield from ctx.barrier()
        total = 0.0
        for _ in range(repeats):
            tx = yield from vec.tx_begin(SeqTx(0, N, read_flags))
            while True:
                chunk = yield from vec.next_chunk()
                if chunk is None:
                    break
                total += float(chunk.data.sum())
            yield from vec.tx_end()
        return total

    return app


def run_coherence_ablation():
    rows = []
    for label, flags in (("read_only_global", MM_READ_ONLY),
                         ("read_write_global", MM_READ_WRITE)):
        cluster = testbed(n_nodes=4)
        res = cluster.run(_app(flags))
        expected = 4 * (N * (N - 1) / 2)
        assert res.values[0] == pytest.approx(expected)
        rows.append(dict(
            policy=label,
            runtime_s=round(res.runtime, 4),
            replications=int(res.stats.get("hermes.replications", 0)),
            net_mb=round(res.stats["net.bytes_moved"] / 2 ** 20, 2)))
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_coherence(benchmark):
    rows = benchmark.pedantic(run_coherence_ablation, rounds=1,
                              iterations=1)
    print_table("Ablation — coherence policy", rows)
    write_csv("ablation_coherence", rows)
    ro = next(r for r in rows if r["policy"] == "read_only_global")
    rw = next(r for r in rows if r["policy"] == "read_write_global")
    # Replication only happens under the read-only policy...
    assert ro["replications"] > 0
    assert rw["replications"] == 0
    # ...and repeated global reads are much faster with it (1.83x at
    # 4 nodes). A run end rounded up to a 50 ms polling tick would
    # bury both ~2 ms bodies and read ~1.03x.
    assert rw["runtime_s"] / ro["runtime_s"] >= 1.5
    emit_result("ablation_coherence", "coherence.ro_speedup",
                rw["runtime_s"] / max(ro["runtime_s"], 1e-9), "x",
                dict(n_nodes=4, elements=N))
