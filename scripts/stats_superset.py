#!/usr/bin/env python
"""Did a change keep every stats key and value of the five e2e workloads?

Run ``dump`` once in each checkout (parent clone and change; the
checkout on ``PYTHONPATH`` is the one measured), then ``diff``::

    cd /root/scratch/parent && PYTHONPATH=src:. python scripts/stats_superset.py dump /root/scratch/parent.json
    cd /root/repo && PYTHONPATH=src:. python scripts/stats_superset.py dump /root/scratch/change.json
    python scripts/stats_superset.py diff /root/scratch/parent.json /root/scratch/change.json

``dump`` records, per workload, ``cluster.system.stats()``, the
simulated metrics, per-layer counts, output digest and op counts.
``diff`` exits 1 if a key of the first file is missing from the second
or its value differs (``kernel.*`` keys are host-side and skipped) and
lists the keys the second file adds.
"""

import json
import os
import sys
import tempfile


def dump(out_path: str, seed: int = 0, size: str = "full") -> None:
    from benchmarks.e2e.workloads import SIZES, WORKLOADS
    out_path, doc = os.path.abspath(out_path), {}
    for name, wl in WORKLOADS.items():
        os.chdir(tempfile.mkdtemp())    # dataset URLs are relative
        state = wl.setup(seed, SIZES[size][name])
        state["trace"] = False
        wl.run(state)
        out = wl.finish(state, size == "full")
        doc[name] = {
            "sim": out.sim, "counts": out.counts,
            "checksum": out.checksum,
            "ops": [out.ops_total, out.ops_failed, out.jobs_ok],
            "stats": state["cluster"].system.stats()}
        print(name, out.checksum, flush=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True, default=float)


def diff(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, \
            open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    bad = 0
    for wl, rec in a.items():
        for part in ("sim", "counts", "stats"):
            for key, value in rec[part].items():
                if key.startswith("kernel."):
                    continue
                other = b[wl][part].get(key, "MISSING")
                if other != value:
                    bad += 1
                    print(f"{wl} {part} {key}: {value} -> {other}")
        if (rec["checksum"], rec["ops"]) != (b[wl]["checksum"],
                                             b[wl]["ops"]):
            bad += 1
            print(f"{wl}: digest or op counts differ")
        print(f"{wl} added: {sorted(set(b[wl]['stats']) - set(rec['stats']))}")
    print("differences:", bad)
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "dump":
        dump(sys.argv[2], *map(int, sys.argv[3:4]))
    else:
        raise SystemExit(diff(sys.argv[2], sys.argv[3]))
