#!/usr/bin/env python
"""ASCII plots from benchmarks/results/*.csv (no plotting deps).

    python scripts/plot_results.py            # every figure found
    python scripts/plot_results.py fig6       # one figure

Renders each figure's series as horizontal bar charts, grouped the way
the paper's panels group them — a quick visual check that the shapes
match before reading EXPERIMENTS.md.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from collections import defaultdict

RESULTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "results")
WIDTH = 46


def bars(rows, label_fn, value_fn, title):
    print(f"\n## {title}")
    items = [(label_fn(r), value_fn(r)) for r in rows]
    items = [(l, v) for l, v in items if v is not None]
    if not items:
        print("(no data)")
        return
    top = max(v for _, v in items) or 1.0
    wl = max(len(l) for l, _ in items)
    for label, value in items:
        bar = "#" * max(1, int(WIDTH * value / top))
        print(f"  {label.ljust(wl)} |{bar} {value:g}")


def _f(row, key):
    v = row.get(key, "")
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def plot_fig5(rows):
    by_app = defaultdict(list)
    for r in rows:
        by_app[r["app"]].append(r)
    for app, app_rows in by_app.items():
        bars(app_rows,
             lambda r: f"{r['nodes']}n {'MM':>5}",
             lambda r: _f(r, "mm_s"),
             f"Fig.5 {app} — MegaMmap (s)")
        bars(app_rows,
             lambda r: f"{r['nodes']}n {r['baseline']:>5}",
             lambda r: _f(r, "baseline_s"),
             f"Fig.5 {app} — baseline (s)")


def plot_fig6(rows):
    by_l = defaultdict(list)
    for r in rows:
        by_l[r["L"]].append(r)
    for L, l_rows in sorted(by_l.items(), key=lambda kv: int(kv[0])):
        bars(l_rows,
             lambda r: f"{r['system']}{' [OOM]' if r['crashed'] == 'True' else ''}",
             lambda r: _f(r, "runtime_s"),
             f"Fig.6 L={L} ({l_rows[0]['dataset_mb']} MB)")


def plot_fig7(rows):
    bars(rows, lambda r: r["composition"],
         lambda r: _f(r, "runtime_s"), "Fig.7 runtime (s)")
    bars(rows, lambda r: r["composition"],
         lambda r: _f(r, "cost_dollars"), "Fig.7 hardware cost ($)")


def plot_fig8(rows):
    by_app = defaultdict(list)
    for r in rows:
        by_app[r["app"]].append(r)
    for app, app_rows in by_app.items():
        bars(app_rows, lambda r: f"DRAM x{r['dram_frac']}",
             lambda r: _f(r, "runtime_s"), f"Fig.8 {app} (s)")


def plot_fig4(rows):
    bars(rows, lambda r: f"{r['app']} MegaMmap",
         lambda r: _f(r, "megammap_loc"), "Fig.4 LOC — MegaMmap")
    bars(rows, lambda r: f"{r['app']} original",
         lambda r: _f(r, "original_loc"), "Fig.4 LOC — original")


#: Fill characters for stacked critical-path segments, assigned to
#: categories in descending-duration order.
_STACK_CHARS = "#=+*:%@o."


def plot_breakdowns(want=None) -> bool:
    """Stacked per-category critical-path bars from BENCH_*.json.

    Only records carrying a ``critical_path`` field (written by traced
    benchmark runs) are plotted; old records without it are skipped, so
    this renders nothing — gracefully — on pre-breakdown trajectories.
    Returns True if anything was plotted.
    """
    plotted = False
    for name in sorted(os.listdir(RESULTS)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        stem = name[len("BENCH_"):-len(".json")]
        if want and want not in stem and want not in name:
            continue
        try:
            with open(os.path.join(RESULTS, name),
                      encoding="utf-8") as fh:
                records = json.load(fh)
        except (OSError, ValueError):
            continue
        if not isinstance(records, list):
            continue
        # Latest record per metric wins (one per configuration).
        latest = {}
        for rec in records:
            if isinstance(rec, dict) and rec.get("critical_path"):
                latest[rec.get("metric", "?")] = rec
        if not latest:
            continue
        print(f"\n## Critical-path breakdown — {stem}")
        for metric, rec in sorted(latest.items()):
            cp = rec["critical_path"]
            cats = sorted((cp.get("by_category") or {}).items(),
                          key=lambda kv: -kv[1])
            total = cp.get("total") or sum(d for _, d in cats) or 1.0
            bar, legend = [], []
            for i, (cat, dur) in enumerate(cats):
                ch = _STACK_CHARS[i % len(_STACK_CHARS)]
                bar.append(ch * max(1, int(WIDTH * dur / total))
                           if dur > 0 else "")
                legend.append(f"{ch}={cat} {dur / total * 100:.0f}%")
            overlap = cp.get("overlap_ratio")
            extra = f"  overlap={overlap * 100:.0f}%" \
                if overlap is not None else ""
            print(f"  {metric}")
            print(f"    |{''.join(bar)}| total={total:.4g}s{extra}")
            print(f"    {'  '.join(legend)}")
            plotted = True
    return plotted


PLOTTERS = {
    "fig4_loc": plot_fig4,
    "fig5_weak_scaling": plot_fig5,
    "fig6_resolution": plot_fig6,
    "fig7_tiering": plot_fig7,
    "fig8_mem_scaling": plot_fig8,
}


def main(argv) -> int:
    want = argv[1] if len(argv) > 1 else None
    if not os.path.isdir(RESULTS):
        print(f"no results directory at {RESULTS}; run the benchmarks "
              f"first", file=sys.stderr)
        return 1
    found = False
    for name in sorted(os.listdir(RESULTS)):
        stem = name[:-4]
        if not name.endswith(".csv"):
            continue
        if want and want not in stem:
            continue
        with open(os.path.join(RESULTS, name), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        plotter = PLOTTERS.get(stem)
        print(f"\n=== {stem} ===")
        if plotter:
            plotter(rows)
        else:
            # Generic: first column labels, runtime-ish column values.
            value_key = next((k for k in rows[0]
                              if "runtime" in k or k.endswith("_s")),
                             None) if rows else None
            if value_key:
                label_key = list(rows[0])[0]
                bars(rows, lambda r: str(r[label_key]),
                     lambda r: _f(r, value_key), stem)
        found = True
    if plot_breakdowns(want):
        found = True
    if not found:
        print("no matching results", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
