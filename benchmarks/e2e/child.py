"""One run of one workload, in a fresh interpreter.

``python -m benchmarks.e2e.child <workload> <seed> <size> <mode>
<spawn_epoch> <out_dir>`` prints one JSON object as its last line.
Modes: ``plain`` (all tracing off: the end-to-end numbers), ``setup``
(set-up only, for extra ``setup_s`` samples), ``simtrace`` (the
simulator's own tracer on: simulated seconds per category) and
``spans`` (under the host-span harness: host seconds per layer).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time

from repro.apps.kmeans import assign

from .spans import SpanProfiler
from .workloads import HERE, SIZES, WORKLOADS


def main(argv) -> int:
    name, seed, size_name, mode, spawn_epoch, out_dir = argv
    seed = int(seed)
    wl = WORKLOADS[name]
    size = SIZES[size_name][name]
    # A constant, wiped work directory entered before any dataset is
    # named: placement hashes see "points.parquet", never the path of
    # the checkout.
    workdir = os.path.join(HERE, "work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)
    try:
        state = wl.setup(seed, size)
        state["trace"] = mode == "simtrace"
        if state["cluster"] is not None:
            state["cluster"].tracer.enabled = state["trace"]
        gc.collect()
        out = {"workload": name, "seed": seed, "size": size_name,
               "mode": mode,
               # Interpreter start (the parent's spawn time) to the
               # timed region: imports, datasets, cluster build.
               "setup_s": time.time() - float(spawn_epoch)}
        if mode != "setup":
            out.update(_measure(wl, state, mode, size_name, out_dir))
    finally:
        os.chdir(HERE)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _measure(wl, state, mode, size_name, out_dir) -> dict:
    prof = SpanProfiler(watch=[assign]) if mode == "spans" else None
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if prof is not None:
        prof.start()
    wl.run(state)
    if prof is not None:
        prof.stop()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = wl.finish(state, size_name == "full")
    out = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
           "sim": res.sim, "counts": res.counts, "checks": res.checks,
           "ops_total": res.ops_total, "ops_failed": res.ops_failed,
           "jobs_ok": res.jobs_ok, "checksum": res.checksum}
    if prof is not None:
        calls, secs = prof.watch_stats()["assign"]
        out["host_self_s"] = prof.layer_self_s()
        out["assign"] = {"calls": calls, "host_s": secs}
        out["spans"] = {"total": prof.total_spans,
                        "unmatched_returns": prof.unmatched,
                        "profiled_wall_s": prof.wall_s}
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{wl.name}.spans.json")
        run_id = f"{wl.name}:{state['seed']}:{size_name}"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(prof.to_json(run_id), fh)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
