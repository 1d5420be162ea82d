#!/usr/bin/env python
"""``colocate_mixed`` over a family of name variants, not one run.

The benchmark's ``colocate_mixed`` spec places every blob by a hash of
its dataset's name, so one spec is one draw of that placement lottery
(seeds move it only by arrival jitter). Variant 0 is the spec as
shipped; variant ``i`` > 0 renames every ``path: <x>.parquet`` to
``<x>_v<i>.parquet``, which re-deals every placement. Each of the
``VARIANTS`` variants is the benchmark's own ``colocate_mixed`` run
(its set-up, run and checks, full size, seed ``SEED``), in a fresh
interpreter inside a temporary directory, so nothing is written to
the checkout. Every run is the whole family: no variant is dropped::

    python scripts/colocate_family.py [--out family.json]
        [--baseline parent_family.json]

It prints one row per variant (jobs/s, victim p99, makespan, failed
checks), then the median, min and max over the family; with
``--baseline`` (the ``--out`` file of another tree) also each
variant's change and the win counts. In a GitHub Actions job the
table is appended to ``$GITHUB_STEP_SUMMARY``. It exits 1 only when a
variant crashed or failed a check; no number is a gate.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "benchmarks", "e2e", "workloads",
                    "colocate_mixed.yaml")
#: The family: variant 0 (the spec as shipped) and 11 renamings.
VARIANTS = 12
SEED = 0
#: Per-variant values kept, and which way is better.
METRICS = {"sim_jobs_per_s": "higher", "sim_victim_p99_ms": "lower",
           "sim_runtime_s": "lower", "sim_peak_dram_node_mb": "lower"}


def variant_spec(text: str, i: int) -> str:
    """The spec of variant ``i``: every dataset path renamed."""
    if i == 0:
        return text
    return re.sub(r"\bpath: (\S+)\.parquet\b",
                  lambda m: f"path: {m.group(1)}_v{i}.parquet", text)


def child(spec: str) -> None:
    """Run the benchmark's ``colocate_mixed`` on ``spec`` in the
    current directory; print one JSON object."""
    from benchmarks.e2e import workloads
    workloads.COLOCATE_SPEC = spec
    wl = workloads.WORKLOADS["colocate_mixed"]
    state = wl.setup(SEED, workloads.SIZES["full"]["colocate_mixed"])
    state["trace"] = False
    wl.run(state)
    out = wl.finish(state, True)
    row = {k: out.sim[k] for k in METRICS}
    row["failed"] = [k for k, ok in out.checks.items() if not ok]
    if out.ops_failed:
        row["failed"].append(f"{out.ops_failed} jobs not ok")
    print(json.dumps(row))


def run_variant(text: str, i: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [ROOT, os.path.join(ROOT, "src")]
                   + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    with tempfile.TemporaryDirectory(prefix="colo-family-") as work:
        spec = os.path.join(work, "family.yaml")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(variant_spec(text, i))
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", spec],
            cwd=work, env=env, text=True, capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"variant": i, "failed": ["crashed"]}
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    row["variant"] = i
    return row


def summary(rows: list) -> dict:
    """Median, min and max of every metric over the variants that
    ran."""
    out = {}
    for k in METRICS:
        vals = [r[k] for r in rows if k in r]
        if vals:
            out[k] = {"median": statistics.median(vals),
                      "min": min(vals), "max": max(vals)}
    return out


def wins(rows: list, base: list) -> dict:
    """Per metric: variants better / worse / equal than the
    baseline's same variant."""
    by = {r["variant"]: r for r in base}
    out = {}
    for k, better in METRICS.items():
        up = down = same = 0
        for r in rows:
            b = by.get(r["variant"], {})
            if k not in r or k not in b:
                continue
            d = (r[k] - b[k]) * (1 if better == "higher" else -1)
            up += d > 0
            down += d < 0
            same += d == 0
        out[k] = {"better": up, "worse": down, "equal": same}
    return out


def table(rows: list, base: list = None) -> str:
    by = {r["variant"]: r for r in base or []}
    head = "| variant | jobs/s | victim p99 ms | makespan s | failed |"
    rule = "|---|---|---|---|---|"
    if base:
        head += " baseline jobs/s | baseline victim p99 ms |"
        rule += "---|---|"
    lines = [head, rule]
    for r in rows:
        if "sim_jobs_per_s" not in r:
            lines.append(f"| v{r['variant']} | – | – | – | "
                         f"{', '.join(r['failed'])} |")
            continue
        line = (f"| v{r['variant']} | {r['sim_jobs_per_s']:.3f} "
                f"| {r['sim_victim_p99_ms']:.2f} "
                f"| {r['sim_runtime_s']:.4f} "
                f"| {', '.join(r['failed']) or '–'} |")
        b = by.get(r["variant"])
        if base:
            line += (f" {b['sim_jobs_per_s']:.3f} "
                     f"| {b['sim_victim_p99_ms']:.2f} |"
                     if b and "sim_jobs_per_s" in b else " – | – |")
        lines.append(line)
    lines.append("")
    for name, rs in (("this tree", rows), ("baseline", base)):
        if not rs:
            continue
        s = summary(rs)
        if "sim_jobs_per_s" in s:
            j, v = s["sim_jobs_per_s"], s["sim_victim_p99_ms"]
            lines.append(
                f"{name}: jobs/s median {j['median']:.3f}, min "
                f"{j['min']:.3f}, max {j['max']:.3f}; victim p99 median "
                f"{v['median']:.2f} ms, max {v['max']:.2f} ms")
    if base:
        w = wins(rows, base)
        lines.append(
            "wins against the baseline (better/worse/equal): "
            + "; ".join(f"{k} {c['better']}/{c['worse']}/{c['equal']}"
                        for k, c in w.items()))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the rows and summary as JSON")
    ap.add_argument("--baseline",
                    help="an --out file of another tree to compare with")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    with open(SPEC, encoding="utf-8") as fh:
        text = fh.read()
    rows = []
    for i in range(VARIANTS):
        rows.append(run_variant(text, i))
        print(json.dumps(rows[-1]), flush=True)
    base = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            base = json.load(fh)["rows"]
    report = table(rows, base)
    print(report)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a",
                  encoding="utf-8") as fh:
            fh.write(f"### colocate_mixed name family, seed "
                     f"{SEED}\n\n{report}")
    if args.out:
        record = {"seed": SEED, "variants": VARIANTS,
                  "rows": rows, "summary": summary(rows)}
        if base:
            record["wins"] = wins(rows, base)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 1 if any(r["failed"] for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
