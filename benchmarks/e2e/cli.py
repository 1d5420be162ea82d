"""The benchmark's command line (see ``README.md`` here).

Two front ends over the same child runs:

* ``PYTHONPATH=src python -m benchmarks.e2e [--workload W] [--seed S]
  [--runs N] [--traced] [--check] [--record] [--smoke]`` prints every
  metric by name with its unit, checks the outputs and stores the
  records in ``results/latest.json``;
* ``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T
  --trace 0|1`` (the ``BENCHMARK.json`` command) prints one JSON
  object as its last line.

Every run happens in a fresh child interpreter with
``PYTHONHASHSEED=0``, one at a time.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from .spans import LAYERS
from .workloads import HERE, SIZES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
BASELINE = os.path.join(HERE, "baseline.json")
HOST_METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
#: A simulated metric at a fixed seed is deterministic; ``--check``
#: holds it to this share of the recorded value. (The bounds in
#: BENCHMARK.json are for medians over different seeds.)
SIM_SAME_SEED_BOUND = 0.001
#: ``--check``'s bound on ``wall_s`` / ``cpu_s``. BENCHMARK.json gives
#: them none (they sit in its unbounded list): two ten-run sets of the
#: same commit on the reference host differ by up to 38% in median.
HOST_TIME_BOUND = 0.10
#: Set-up samples per driver run (extra set-up-only children fill in).
SETUP_SAMPLES = 3
#: The slowest child (serving_zipf under the host-span harness) takes
#: 50-80 s on the reference host; the driver allows a run 180 s.
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Child runs
# ---------------------------------------------------------------------------

def spawn(workload: str, seed: int, size: str, mode: str) -> dict:
    """Run one child; returns its record (``{"crashed": ...}`` when it
    died, which ``failed_frac`` counts)."""
    # One thread: NumPy's BLAS would otherwise fan the KMeans distance
    # pass out over every core, and its scheduling is the largest
    # source of run-to-run noise.
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               # glibc keeps freed memory instead of unmapping it. With
               # the default thresholds every large NumPy temporary is
               # a fresh mmap: 2-3.5 s of kmeans_scan's 5-7 s and half
               # of grayscott_ckpt went to the kernel faulting pages
               # in, and that share alone swung 2x with the VM's memory
               # state (wall_s spread 35-85% across ten runs).
               MALLOC_MMAP_MAX_="0",
               MALLOC_TRIM_THRESHOLD_=str(16 << 30))
    paths = [ROOT, os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [sys.executable, "-m", "benchmarks.e2e.child", workload,
           str(seed), size, mode, repr(time.time()), RESULTS]
    try:
        # run() kills and reaps the child if it overruns.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed, "mode": mode,
                "crashed": [f"no result after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"workload": workload, "seed": seed, "mode": mode,
                "crashed": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# Folding child records into metrics
# ---------------------------------------------------------------------------

def end_to_end(plain: list, setups: list) -> dict:
    """Native end-to-end metrics of one workload from its untraced
    runs: host metrics as ``(q1, median, q3, n)``, simulated metrics as
    plain values, plus ops/failed and the checks that failed."""
    ok = [r for r in plain if "crashed" not in r]
    out = {"host": {}, "sim": {}, "failed_checks": [],
           "ops_total": 0, "ops_failed": 0, "jobs_ok": 0}
    for r in plain:
        if "crashed" in r:
            out["ops_total"] += 1
            out["ops_failed"] += 1
            out["failed_checks"].append(f"crashed: {r['crashed']}")
    if not ok:
        return out
    first = ok[0]
    for name in HOST_METRICS:
        values = [r[name] for r in ok]
        if name == "setup_s":
            values += setups
        out["host"][name] = quartiles(values) + (len(values),)
    out["sim"] = dict(first["sim"])
    out["jobs_ok"] = first["jobs_ok"]
    out["ops_total"] += first["ops_total"] + len(first["checks"])
    out["ops_failed"] += first["ops_failed"]
    failed = [k for k, passed in first["checks"].items() if not passed]
    # Same seed, fresh interpreter: simulated metrics, counts and the
    # output digest must repeat exactly.
    if len(ok) > 1:
        out["ops_total"] += 1
        same = all(r["sim"] == first["sim"]
                   and r["checksum"] == first["checksum"]
                   and _exact(r["counts"]) == _exact(first["counts"])
                   for r in ok[1:])
        if not same:
            failed.append("same_seed_rerun_identical")
    out["ops_failed"] += len(failed)
    out["failed_checks"] += failed
    return out


def _exact(counts: dict) -> dict:
    """Counts that must repeat exactly (simulated seconds come only
    from traced runs and host-derived entries are added later)."""
    return {k: v for k, v in counts.items() if ".sim_" not in k
            and k != "obs.spans_recorded"}


def fill_slots(sim: dict, jobs_ok: int) -> dict:
    """Every BENCHMARK.json end-to-end metric for a workload that has
    only some of them natively.

    The driver's contract wants all metrics from every workload. A
    workload is one request per job where it has no request stream of
    its own: an empty rate slot is jobs/makespan and an empty latency
    slot is the makespan, so a filled slot moves exactly with
    ``sim_runtime_s`` and can neither hide nor invent a regression.
    The human front end prints native metrics only.
    """
    out = dict(sim)
    runtime = sim["sim_runtime_s"]
    for name in ("sim_jobs_per_s", "sim_capacity_qps",
                 "sim_slo_rate_qps"):
        out.setdefault(name, jobs_ok / runtime)
    for name in ("sim_p50_ms", "sim_p99_ms", "sim_victim_p99_ms"):
        out.setdefault(name, runtime * 1e3)
    return out


def per_layer(plain: dict, simtrace: dict, spans: dict) -> dict:
    """Per-layer metrics from one untraced, one simulator-traced and
    one host-span run of the same workload and seed."""
    out = dict(plain["counts"], wall_s=plain["wall_s"],
               cpu_s=plain["cpu_s"])
    for key, value in simtrace["counts"].items():
        if ".sim_" in key or key == "obs.spans_recorded":
            out[key] = value
    for layer in LAYERS:
        out[f"{layer}.host_self_s"] = spans["host_self_s"][layer]
    out["apps.assign_calls"] = float(spans["assign"]["calls"])
    out["apps.assign_host_s"] = spans["assign"]["host_s"]
    events = out["sim.events"]
    out["sim.host_us_per_event"] = \
        out["sim.host_self_s"] / events * 1e6 if events else 0.0
    out["sim.events_per_wall_s"] = events / plain["wall_s"]
    out["obs.trace_overhead_pct"] = \
        (simtrace["wall_s"] / plain["wall_s"] - 1.0) * 100.0
    out["harness.profile_overhead_pct"] = \
        (spans["wall_s"] / plain["wall_s"] - 1.0) * 100.0
    return out


def traced_checks(plain: dict, simtrace: dict, spans: dict) -> list:
    """Names of the traced-run checks that failed."""
    failed = []
    for r in (simtrace, spans):
        if (r["sim"] != plain["sim"] or r["checksum"] != plain["checksum"]
                or _exact(r["counts"]) != _exact(plain["counts"])):
            failed.append(f"{r['mode']}_run_matches_untraced")
    total = sum(spans["host_self_s"].values())
    if abs(total - spans["wall_s"]) > 0.02 * spans["wall_s"]:
        failed.append("layer_self_times_sum_to_traced_wall")
    return failed


# ---------------------------------------------------------------------------
# Provenance and the results file
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"      # a checkout that is not a repository
    return {
        "commit": commit,
        "utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "host_cpus": os.cpu_count(),
        "host": f"{platform.system()} {platform.machine()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def store(records: dict) -> None:
    """Replace (never append) the records keyed by workload and seed
    in ``results/latest.json``."""
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "latest.json")
    latest = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            latest = json.load(fh)
    latest.update(records)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(latest, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Human front end
# ---------------------------------------------------------------------------

def _units(spec: dict) -> dict:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "1"
    return units


def print_workload(name, seed, why, e2e, layers, profiled_wall_s, units,
                   out=sys.stdout):
    w = out.write
    w(f"\n== {name}  (seed {seed})\n   {why}\n")
    for metric, (q1, med, q3, n) in e2e["host"].items():
        w(f"  {metric:<26}{med:>14.4f} {units[metric]:<6}"
          f" q1 {q1:.4f}  q3 {q3:.4f}  n={n}\n")
    for metric, value in e2e["sim"].items():
        w(f"  {metric:<26}{value:>14.6g} {units[metric]:<6}\n")
    total, failed = e2e["ops_total"], e2e["ops_failed"]
    w(f"  {'failed_frac':<26}{failed / max(total, 1):>14.6g} 1     "
      f" ops_failed {failed}  ops_total {total}\n")
    for check in e2e["failed_checks"]:
        w(f"  FAILED CHECK: {check}\n")
    if layers is None:
        return
    w("  -- per layer (traced runs)\n")
    for metric in sorted(set(layers) - set(HOST_METRICS)):
        w(f"  {metric:<34}{layers[metric]:>16.6g} {units[metric]}\n")
    self_total = sum(layers[f"{layer}.host_self_s"] for layer in LAYERS)
    w(f"  {'sum of <layer>.host_self_s':<34}{self_total:>16.6g} s"
      f"   (profiled wall {profiled_wall_s:.6g} s)\n")


def measure(names, seed, runs, traced, size, setup_samples=0,
            progress=lambda msg: None):
    """Run every workload ``runs`` times untraced (interleaved across
    workloads), top ``setup_s`` up to ``setup_samples`` samples with
    set-up-only children and, when ``traced``, run once under each
    tracer. Returns ``{name: (e2e, layers or None, profiled wall_s or
    None)}``."""
    plain = {name: [] for name in names}
    for rep in range(runs):
        for name in names:
            progress(f"{name} run {rep + 1}/{runs}")
            plain[name].append(spawn(name, seed, size, "plain"))
    out = {}
    for name in names:
        ok = [r for r in plain[name] if "crashed" not in r]
        setups = [spawn(name, seed, size, "setup").get("setup_s")
                  for _ in range(setup_samples - runs) if ok]
        e2e = end_to_end(plain[name], [s for s in setups if s])
        layers = profiled_wall_s = None
        if traced and ok:
            progress(f"{name} traced runs")
            simtrace = spawn(name, seed, size, "simtrace")
            spans = spawn(name, seed, size, "spans")
            if "crashed" in simtrace or "crashed" in spans:
                failed = ["traced_run_crashed"]
            else:
                base = min(ok, key=lambda r: r["wall_s"])
                layers = per_layer(base, simtrace, spans)
                profiled_wall_s = spans["wall_s"]
                failed = traced_checks(base, simtrace, spans)
            e2e["ops_total"] += 3
            e2e["ops_failed"] += len(failed)
            e2e["failed_checks"] += failed
        out[name] = (e2e, layers, profiled_wall_s)
    return out


def check(results, baseline, spec, seed, out=sys.stdout) -> int:
    """Compare against the recorded baseline; returns the number of
    regressed rows (a rise in ``failed_frac`` counts as one)."""
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0
    if baseline.get("seed") != seed:
        out.write(f"baseline was recorded at seed {baseline.get('seed')}"
                  f", not {seed}: simulated rows will differ\n")
    out.write(f"\n{'workload':<18}{'metric':<24}{'baseline':>12}"
              f"{'now':>12}{'change':>9}  verdict\n")
    for name, (e2e, _layers, _wall) in results.items():
        base = baseline["workloads"].get(name)
        if base is None:
            continue
        rows = [(m, med, (q3 - q1) / med if med else 0.0)
                for m, (q1, med, q3, _n) in e2e["host"].items()]
        rows += [(m, v, 0.0) for m, v in e2e["sim"].items()]
        for metric, now, spread in rows:
            if metric not in base["metrics"]:
                continue
            ref = base["metrics"][metric]
            if metric.startswith("sim_"):
                bound = SIM_SAME_SEED_BOUND
            else:
                bound = info[metric].get("bound", HOST_TIME_BOUND)
            worse = (now - ref) / ref \
                if info[metric]["better"] == "lower" \
                else (ref - now) / ref
            if metric == "setup_s" and abs(now - ref) < 0.05:
                worse = 0.0
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            out.write(f"{name:<18}{metric:<24}{ref:>12.5g}{now:>12.5g}"
                      f"{(now - ref) / ref * 100:>+8.2f}%  {verdict}\n")
        frac = e2e["ops_failed"] / max(e2e["ops_total"], 1)
        verdict = "ok" if frac <= base["failed_frac"] else "regressed"
        bad += verdict == "regressed"
        out.write(f"{name:<18}{'failed_frac':<24}"
                  f"{base['failed_frac']:>12.5g}{frac:>12.5g}"
                  f"{'':>9}  {verdict}\n")
    return bad


def record_baseline(results, seed, stamp) -> None:
    """Write (or, for a subset of workloads, update) baseline.json."""
    base = {"seed": seed, "recorded": stamp, "workloads": {}}
    if os.path.exists(BASELINE) and len(results) < len(WORKLOADS):
        with open(BASELINE, encoding="utf-8") as fh:
            base["workloads"] = json.load(fh)["workloads"]
    for name, (e2e, layers, _wall) in results.items():
        metrics = {m: q[1] for m, q in e2e["host"].items()}
        metrics.update(e2e["sim"])
        base["workloads"][name] = dict(
            sizes=SIZES["full"][name], metrics=metrics,
            failed_frac=e2e["ops_failed"] / max(e2e["ops_total"], 1),
            per_layer=layers or {})
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(base, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nbaseline recorded in {BASELINE}")


def human(args) -> int:
    spec = load_spec()
    if args.record and args.smoke:
        print("--record needs full sizes", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = measure(
        names, args.seed, args.runs, args.traced, size,
        progress=lambda msg: print(f"[e2e] {msg}", file=sys.stderr))
    units = _units(spec)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    stamp = provenance(args.seed)
    records = {}
    for name, (e2e, layers, profiled_wall_s) in results.items():
        print_workload(name, args.seed, why[name], e2e, layers,
                       profiled_wall_s, units)
        key = f"{name}:{args.seed}" + ("" if size == "full" else ":smoke")
        records[key] = dict(
            stamp, workload=name, sizes=SIZES[size][name],
            host={m: dict(q1=q[0], median=q[1], q3=q[2], n=q[3])
                  for m, q in e2e["host"].items()},
            sim=e2e["sim"], ops_total=e2e["ops_total"],
            ops_failed=e2e["ops_failed"],
            failed_checks=e2e["failed_checks"], per_layer=layers)
    store(records)
    status = int(any(e2e["ops_failed"]
                     for e2e, _l, _w in results.values()))
    if args.record:
        record_baseline(results, args.seed, stamp)
    if args.check:
        with open(BASELINE, encoding="utf-8") as fh:
            baseline = json.load(fh)
        if check(results, baseline, spec, args.seed):
            status = 1
    return status


# ---------------------------------------------------------------------------
# BENCHMARK.json front end
# ---------------------------------------------------------------------------

def driver(args) -> int:
    spec = load_spec()
    name = args.workload
    size = "smoke" if args.smoke else "full"
    if args.trace:
        runs, setup_samples, group = 1, 0, "per_layer"
    else:
        runs = max(1, int(args.seconds // SIZES["full"][name]["unit_s"]))
        setup_samples, group = SETUP_SAMPLES, "end_to_end"
    e2e, layers, _wall = measure([name], args.seed, runs,
                                 bool(args.trace), size,
                                 setup_samples)[name]
    for failure in e2e["failed_checks"]:
        print(f"[e2e] failed check: {failure}", file=sys.stderr)
    if not e2e["host"] or (args.trace and layers is None):
        return 1            # a run crashed: no result line
    if args.trace:
        values = layers
    else:
        values = {m: q[1] for m, q in e2e["host"].items()}
        values.update(fill_slots(e2e["sim"], e2e["jobs_ok"]))
    units = _units(spec)
    print(json.dumps({
        "correct": e2e["ops_failed"] == 0,
        "attempted": e2e["ops_total"],
        "failed": e2e["ops_failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": units[m["name"]]}
                    for m in spec[group]},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs", type=int, default=3,
                    help="untraced repeats per workload (default 3)")
    ap.add_argument("--traced", action="store_true",
                    help="add the two traced runs and print per-layer "
                         "metrics")
    ap.add_argument("--check", action="store_true",
                    help="compare against baseline.json; exit 1 on a "
                         "regression")
    ap.add_argument("--record", action="store_true",
                    help="write this run to baseline.json")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (the smoke test)")
    ap.add_argument("--seconds", type=float, default=16.0,
                    help="driver mode: measurement budget of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver mode: 0 end-to-end, 1 per-layer; "
                         "prints one JSON object as the last line")
    args = ap.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            ap.error("--trace needs --workload")
        return driver(args)
    return human(args)
