#!/usr/bin/env python
"""Did a change keep every stats key and value of the five e2e workloads?

Run ``dump`` once in each checkout (parent clone and change; the
checkout on ``PYTHONPATH`` is the one measured), then ``diff``::

    cd ../parent && PYTHONPATH=src:. python scripts/stats_superset.py dump ../parent.json
    cd ../change && PYTHONPATH=src:. python scripts/stats_superset.py dump ../change.json
    python scripts/stats_superset.py diff ../parent.json ../change.json

``dump OUT [SEED] [--traced]`` records, per workload,
``cluster.system.stats()``, the simulated metrics, per-layer counts,
output digest and op counts. ``--traced`` runs with the simulator's
tracer on, so the record also holds the ``trace.*`` span totals (and
the counts read from them); compare traced with traced.
It also records the per-seed summary line (trace hash, faults
applied, reads checked) of the four chaos campaigns CI runs
(:data:`CAMPAIGNS`, seeds from 0, each in a temporary workdir; the
trace hash does not depend on the workdir).
``diff`` exits 1 if a key of the first file is missing from the second
or its value differs (``kernel.*`` keys are host-side and skipped), or
a campaign's seed lines differ, and lists the keys the second file
adds.
"""

import json
import os
import sys
import tempfile

#: The CI chaos campaigns: name -> (spec, seeds, ``run_campaign``
#: keywords), as ``python -m repro chaos`` runs them with ``--faults
#: crash,partition,corrupt``, ``--perturb`` and ``--durability``.
CAMPAIGNS = {
    "kmeans": ("pipelines/chaos_kmeans_2n.yaml", 10,
               {"kinds": ("crash", "partition", "corrupt")}),
    "kmeans_perturb": ("pipelines/chaos_kmeans_2n.yaml", 5,
                       {"perturb": True}),
    "kmeans_durability": ("pipelines/chaos_kmeans_2n.yaml", 25,
                          {"kinds": ("crash",)}),
    "serving": ("pipelines/chaos_serving_2n.yaml", 6,
                {"kinds": ("crash", "partition", "corrupt")}),
}


def dump_chaos() -> dict:
    """{campaign: [per-seed summary line]} of :data:`CAMPAIGNS`."""
    from repro.chaos.campaign import run_campaign
    out = {}
    for name, (spec, seeds, kw) in CAMPAIGNS.items():
        with tempfile.TemporaryDirectory() as work:
            results = run_campaign(os.path.abspath(spec), range(seeds),
                                   workdir=work, **kw)
        out[name] = [r.summary() for r in results]
        print(name, sum(r.ok for r in results), "/", seeds, "clean",
              flush=True)
    return out


def dump(out_path: str, seed: int = 0, traced: bool = False,
         size: str = "full") -> None:
    from benchmarks.e2e.workloads import SIZES, WORKLOADS
    out_path, doc, home = os.path.abspath(out_path), {}, os.getcwd()
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)    # dataset URLs are relative
            state = wl.setup(seed, SIZES[size][name])
            state["trace"] = traced
            if state["cluster"] is not None:
                state["cluster"].tracer.enabled = traced
            wl.run(state)
            out = wl.finish(state, size == "full")
            doc[name] = {
                "sim": out.sim, "counts": out.counts,
                "checksum": out.checksum,
                "ops": [out.ops_total, out.ops_failed, out.jobs_ok],
                "stats": state["cluster"].system.stats()}
            os.chdir(home)
        print(name, out.checksum, flush=True)
    doc["chaos"] = dump_chaos()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True, default=float)


def diff(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, \
            open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    bad = 0
    for name, lines in a.pop("chaos", {}).items():
        other = b.get("chaos", {}).get(name, [])
        if lines != other:
            bad += 1
            print(f"chaos {name}: {len(lines)} -> {len(other)} seeds")
            for x, y in zip(lines, other):
                if x != y:
                    print(f"  {x}\n  -> {y}")
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
        args = [a for a in sys.argv[2:] if a != "--traced"]
        dump(args[0], *map(int, args[1:2]),
             traced="--traced" in sys.argv[2:])
    else:
        raise SystemExit(diff(sys.argv[2], sys.argv[3]))
