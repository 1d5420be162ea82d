#!/usr/bin/env python
"""Profile the simulation kernel's hot paths under cProfile.

Runs the same workloads ``benchmarks/bench_kernel.py`` times —
immediate-event churn through the microqueue fast path and the
two-node data-plane exchange through pcache/scache/net — but under
``cProfile``, printing the top cumulative hotspots so optimization
work starts from measurement, not guesswork.

Usage::

    PYTHONPATH=src python scripts/profile_kernel.py
    PYTHONPATH=src python scripts/profile_kernel.py --workload churn \
        --events 500000 --top 30
    PYTHONPATH=src python scripts/profile_kernel.py --pstats out.prof
    # then: python -m pstats out.prof   (or snakeviz, gprof2dot, ...)

The script has no dependencies beyond the repo itself and the stdlib.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

PAGE = 64 * 1024


def churn_workload(n_events: int) -> dict:
    """Immediate-event churn: every yield is already triggered.

    Mirrors ``bench_kernel._churn`` — the workload that exercises the
    microqueue + trampoline fast path exclusively.
    """
    from repro.sim.engine import Event, Simulator

    sim = Simulator()

    def proc():
        for _ in range(n_events):
            e = Event(sim)
            e.succeed()
            yield e

    sim.process(proc())
    sim.run()
    return {"fast_events": sim.fast_events, "heap_events": sim.heap_events}


def timer_workload(n_events: int) -> dict:
    """Heap-bound churn: every event carries a nonzero delay."""
    from repro.sim.engine import Simulator

    sim = Simulator()

    def proc(delay):
        for _ in range(n_events):
            yield sim.timeout(delay)

    sim.process(proc(1e-4))
    sim.run()
    return {"heap_events": sim.heap_events}


def exchange_workload(pages_per_rank: int) -> dict:
    """Two-node page exchange through the full data plane — the
    end-to-end loop ``bench_kernel.test_two_node_exchange_dataplane``
    measures (pcache faults, scache, hermes placement, net transfers).
    """
    import numpy as np

    from repro.core import MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
    from benchmarks.common import testbed

    def app(ctx, n_pages):
        half = n_pages * PAGE
        vec = yield from ctx.mm.vector("profile", dtype=np.uint8,
                                       size=2 * half)
        lo = ctx.rank * half
        data = ((np.arange(half) + ctx.rank) % 199).astype(np.uint8)
        yield from vec.tx_begin(SeqTx(lo, half, MM_WRITE_ONLY))
        yield from vec.write_range(lo, data)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        yield from ctx.barrier()
        other = (1 - ctx.rank) * half
        yield from vec.tx_begin(SeqTx(other, half, MM_READ_WRITE))
        out = yield from vec.read_range(other, half)
        yield from vec.tx_end()
        yield from ctx.mm.drain()
        return int(out.sum())

    cluster = testbed(n_nodes=2, procs_per_node=1,
                      pcache=(pages_per_rank + 4) * PAGE,
                      prefetch_enabled=False, trace=False)
    res = cluster.run(app, pages_per_rank)
    return {"faults": res.stats.get("pcache.faults", 0),
            "net_bytes": res.stats.get("net.bytes", 0)}


WORKLOADS = {
    "churn": lambda a: churn_workload(a.events),
    "timer": lambda a: timer_workload(a.events),
    "exchange": lambda a: exchange_workload(a.pages),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"),
                    default="all",
                    help="which loop to profile (default: all)")
    ap.add_argument("--events", type=int, default=200_000,
                    help="event count for churn/timer (default 200k)")
    ap.add_argument("--pages", type=int, default=64,
                    help="pages per rank for exchange (default 64)")
    ap.add_argument("--top", type=int, default=20,
                    help="rows of the hotspot table (default 20)")
    ap.add_argument("--sort", default="cumulative",
                    choices=("cumulative", "tottime", "calls"),
                    help="pstats sort key (default cumulative)")
    ap.add_argument("--pstats", metavar="OUT.PROF", default=None,
                    help="also dump raw stats for snakeviz/pstats")
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # Pull the heavy imports in before enabling the profiler so module
    # loading does not pollute the hotspot table.
    import numpy  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import benchmarks.common  # noqa: F401

    profiler = cProfile.Profile()
    for name in names:
        print(f"--- profiling {name} ---")
        profiler.enable()
        result = WORKLOADS[name](args)
        profiler.disable()
        print(f"    {result}")

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort)
    print(f"\n=== top {args.top} by {args.sort} "
          f"({'+'.join(names)}) ===")
    stats.print_stats(args.top)

    if args.pstats:
        profiler.dump_stats(args.pstats)
        print(f"raw profile written to {args.pstats} "
              f"(open with: python -m pstats {args.pstats})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
