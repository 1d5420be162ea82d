#!/usr/bin/env python3
"""Gate CI on the kernel wall-clock floors (and overhead ceilings).

Reads the ``{name, metric, value, unit, sim_config}`` records emitted
by ``benchmarks.common.emit_result`` (``benchmarks/results/
BENCH_*.json``) and compares the *latest* record of each gated metric
against the floors in ``benchmarks/perf_floor.json``. Exits non-zero,
listing every violation, when a metric runs below its floor; metrics
with no emitted record fail too (the benchmark did not run).

The floors file may also carry a ``ceilings`` section — metrics that
must stay *at or below* a bound (e.g. ``obs.overhead_pct``, the
always-on observability wall-clock tax). Ceilings are gated with the
same matching/exclusion flags and the same no-record-is-a-failure
rule.

Usage::

    python scripts/check_perf_floor.py [--results DIR] [--floors FILE]
                                       [--match SUBSTR]
                                       [--exclude SUBSTR] [--json]

``--match`` restricts the gate to floors whose metric name contains
the substring — e.g. ``--match recovery`` lets the durability-smoke CI
job enforce only the recovery floors without requiring the kernel
benchmarks to have run in that job. ``--exclude`` is the complement
and may repeat: ``--exclude colocation --exclude serving --exclude
recovery --exclude obs.`` lets the otherwise-unfiltered bench-perf job
skip the bounds whose benchmarks run in the colocation-smoke,
serving-smoke, durability-smoke and obs-smoke jobs. ``--json`` prints
the full machine-readable verdict (per-metric status + failures) to
stdout instead of the human table; the exit code is unchanged.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
DEFAULT_RESULTS = os.path.join(REPO, "benchmarks", "results")
DEFAULT_FLOORS = os.path.join(REPO, "benchmarks", "perf_floor.json")


def load_latest_metrics(results_dir: str) -> dict:
    """{metric: (value, unit)} from the newest record of each metric."""
    latest = {}
    for path in sorted(glob.glob(os.path.join(results_dir,
                                              "BENCH_*.json"))):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
        for rec in records:  # in emit order; later records win
            latest[rec["metric"]] = (rec["value"], rec.get("unit", ""))
    return latest


def _filter(bounds: dict, match: str, exclude) -> dict:
    if match:
        bounds = {m: b for m, b in bounds.items() if match in m}
    for sub in exclude:
        bounds = {m: b for m, b in bounds.items() if sub not in m}
    return bounds


def evaluate(metrics: dict, floors: dict, ceilings: dict) -> list:
    """Per-metric verdicts: ``{metric, kind, bound, value, unit, ok}``
    rows (value/unit None when the benchmark never ran)."""
    rows = []
    for kind, bounds in (("floor", floors), ("ceiling", ceilings)):
        for metric, bound in sorted(bounds.items()):
            got = metrics.get(metric)
            if got is None:
                rows.append({"metric": metric, "kind": kind,
                             "bound": bound, "value": None,
                             "unit": None, "ok": False})
                continue
            value, unit = got
            ok = value >= bound if kind == "floor" else value <= bound
            rows.append({"metric": metric, "kind": kind,
                         "bound": bound, "value": value, "unit": unit,
                         "ok": ok})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--results", default=DEFAULT_RESULTS)
    ap.add_argument("--floors", default=DEFAULT_FLOORS)
    ap.add_argument("--match", default="",
                    help="only enforce bounds whose metric name "
                         "contains this substring")
    ap.add_argument("--exclude", action="append", default=[],
                    help="skip bounds whose metric name contains "
                         "this substring (repeatable)")
    ap.add_argument("--json", action="store_true",
                    help="print the machine-readable verdict instead "
                         "of the human table")
    args = ap.parse_args(argv)

    with open(args.floors, encoding="utf-8") as fh:
        doc = json.load(fh)
    floors = _filter(doc["floors"], args.match, args.exclude)
    ceilings = _filter(doc.get("ceilings", {}), args.match,
                       args.exclude)
    if not floors and not ceilings:
        msg = (f"no bounds match {args.match!r}" if args.match else
               f"--exclude {args.exclude!r} leaves no bounds")
        print(msg, file=sys.stderr)
        return 1
    metrics = load_latest_metrics(args.results)
    rows = evaluate(metrics, floors, ceilings)

    failures = []
    for row in rows:
        rel = ">=" if row["kind"] == "floor" else "<="
        if row["value"] is None:
            failures.append(f"{row['metric']}: no emitted record "
                            f"({row['kind']} {row['bound']})")
            continue
        status = "ok" if row["ok"] else \
            f"ABOVE CEILING" if row["kind"] == "ceiling" else \
            "BELOW FLOOR"
        if not args.json:
            print(f"{row['metric']}: {row['value']:,.4g} "
                  f"{row['unit']} ({row['kind']} {rel} "
                  f"{row['bound']:,g}) {status}")
        if not row["ok"]:
            failures.append(
                f"{row['metric']}: {row['value']:,.4g} violates "
                f"{row['kind']} {row['bound']:,g}")

    if args.json:
        print(json.dumps({"results": rows, "failures": failures,
                          "ok": not failures}, indent=2))
    if failures:
        if not args.json:
            print("\nPerf bound violations:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
        return 1
    if not args.json:
        print("All perf bounds satisfied.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
