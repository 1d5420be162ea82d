"""CLI: run pipeline workflow files against the simulated cluster.

    python -m repro run pipelines/mm_kmeans_mega.yaml [--workdir DIR]
    python -m repro trace pipelines/mm_kmeans_mega.yaml [--out T.json]
    python -m repro report <pipeline.yaml | trace.json> [--json]
    python -m repro diff A.trace.json B.trace.json [--json]
    python -m repro chaos pipelines/chaos_kmeans_2n.yaml --seeds 25
    python -m repro colocate pipelines/colocate_mixed.yaml
    python -m repro top pipelines/colocate_mixed.yaml
    python -m repro slo pipelines/colocate_mixed.yaml --slos slos.yaml

Mirrors the artifact's ``jarvis ppl run yaml /path/to/workflow.yaml``;
the ``trace`` subcommand additionally records latency spans and writes
a Chrome-trace-format JSON timeline (load in ``chrome://tracing`` or
Perfetto). ``report`` analyzes where the time went — critical-path
breakdown, overlap ratio, top spans, queueing stats — either live (run
a pipeline with tracing on) or post-hoc (from a trace JSON file).
``diff`` aligns two trace files by span category and reports which
categories account for the runtime delta. ``chaos`` runs seeded
fault-injection campaigns with the coherence model-checker attached,
shrinks the first failing seed's fault schedule to a minimal repro,
and writes a replay file. ``top`` runs a pipeline or colocation spec
with the live observability plane attached and prints the final
windowed dashboard (rates, gauges, latency quantiles, firing alerts,
anomalies); ``slo`` additionally evaluates declarative SLOs with
burn-rate alerting and exits 1 when any objective is violated. The
bare form ``python -m repro <file.yaml>`` is kept as an alias for
``run``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.pipeline import run_pipeline

_SUBCOMMANDS = ("run", "trace", "report", "diff", "chaos", "colocate",
                "top", "slo")


def _print_rows(rows) -> None:
    cols = list(rows[0])
    print("  ".join(cols))
    for row in rows:
        print("  ".join(
            f"{row[c]:.4f}" if isinstance(row[c], float) else str(row[c])
            for c in cols))


def _is_trace_file(path: str) -> bool:
    """A JSON file is a trace; anything else is a pipeline YAML."""
    if not path.endswith(".json"):
        return False
    try:
        with open(path, encoding="utf-8") as fh:
            head = fh.read(512).lstrip()
    except OSError:
        return False
    return head.startswith("{") or head.startswith("[")


def _analyze_trace_file(path: str, top_k: int):
    from repro.obs import analyze, load_trace
    return analyze(load_trace(path), top_k=top_k)


def _cmd_report(args) -> int:
    from repro.obs import SpanGraph, analyze, render_report
    analyses = []  # (title, analysis)
    if _is_trace_file(args.target):
        analyses.append((os.path.basename(args.target),
                         _analyze_trace_file(args.target, args.top)))
    else:
        workdir = args.workdir or tempfile.mkdtemp(prefix="megammap-ppl-")
        trace_path = os.path.abspath(os.path.join(workdir, "trace.json"))

        def on_variant(cluster, variant, row):
            graph = SpanGraph.from_tracer(cluster.tracer)
            analyses.append((row.get("app", "run"),
                             analyze(graph, monitor=cluster.monitor,
                                     top_k=args.top)))

        run_rows = run_pipeline(args.target, workdir=workdir,
                                trace_path=trace_path,
                                on_variant=on_variant)
        if not run_rows:
            print("pipeline produced no rows", file=sys.stderr)
            return 1
    if not analyses:
        print("no spans recorded — nothing to report", file=sys.stderr)
        return 1
    if args.out:
        payload = [a for _, a in analyses]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload[0] if len(payload) == 1 else payload,
                      fh, indent=2)
        print(f"report JSON written to {os.path.abspath(args.out)}",
              file=sys.stderr)
    if args.json:
        payload = [a for _, a in analyses]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
    else:
        for i, (title, analysis) in enumerate(analyses):
            if i:
                print()
            print(render_report(analysis, title=title))
    return 0


def _cmd_diff(args) -> int:
    from repro.obs import diff_analyses, render_diff
    for path in (args.a, args.b):
        if not _is_trace_file(path):
            print(f"error: {path} is not a trace/report JSON file",
                  file=sys.stderr)
            return 2

    def load_analysis(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "critical_path" in data:
            return data  # already an analysis (repro report --out)
        return _analyze_trace_file(path, top_k=5)

    diff = diff_analyses(load_analysis(args.a), load_analysis(args.b))
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_diff(diff, label_a=os.path.basename(args.a),
                          label_b=os.path.basename(args.b)))
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos import ChaosPlan
    from repro.chaos.campaign import (detection_stats, run_campaign,
                                      run_case, shrink_case,
                                      write_replay)
    workdir = args.workdir or tempfile.mkdtemp(prefix="megammap-chaos-")
    if args.faults is not None:
        kinds = tuple(k.strip() for k in args.faults.split(",")
                      if k.strip())
    elif args.durability:
        # Durability campaigns are crash campaigns: the clause under
        # test is committed-barrier survival across crash+restart.
        kinds = ("crash",)
    else:
        kinds = ("crash", "partition", "delay", "drop", "stall",
                 "corrupt")

    def log(msg):
        print(msg, flush=True)

    if args.durability:
        from repro.core.config import load_yaml_subset
        with open(args.pipeline, encoding="utf-8") as fh:
            spec = load_yaml_subset(fh.read())
        cluster_cfg = (spec or {}).get("cluster") or {}
        if not cluster_cfg.get("durability"):
            print(f"error: --durability needs the pipeline to declare "
                  f"'durability: true' in its cluster section "
                  f"({args.pipeline} does not)", file=sys.stderr)
            return 2

    if args.replay:
        plan = ChaosPlan.from_json(args.replay)
        res = run_case(args.pipeline, plan.seed, horizon=plan.horizon,
                       plan=plan, workdir=workdir)
        log(res.summary())
        for v in res.violations[:10]:
            log(f"  violation: {v}")
        for c in res.conservation[:10]:
            log(f"  conservation: {c}")
        return 0 if res.ok else 1

    seeds = range(args.seed_base, args.seed_base + args.seeds)
    results = run_campaign(args.pipeline, seeds, kinds=kinds,
                           intensity=args.intensity,
                           perturb=args.perturb,
                           horizon=args.horizon, workdir=workdir,
                           log=log, obs=args.obs)
    bad = [r for r in results if not r.ok]
    log(f"campaign: {len(results) - len(bad)}/{len(results)} seeds "
        f"clean")
    if args.obs:
        stats = detection_stats(results)
        log("detection latency by fault kind "
            "(first anomaly/alert at or after onset):")
        for kind in sorted(stats):
            row = stats[kind]
            if row["detected"]:
                log(f"  {kind:<10} {row['detected']}/{row['faults']} "
                    f"detected, mean {row['mean_s'] * 1e3:.2f} ms, "
                    f"max {row['max_s'] * 1e3:.2f} ms")
            else:
                log(f"  {kind:<10} 0/{row['faults']} detected")
    if not bad:
        return 0
    first = bad[0]
    for v in first.violations[:10]:
        log(f"  violation: {v}")
    for c in first.conservation[:10]:
        log(f"  conservation: {c}")
    minimal = None
    if first.plan is not None and len(first.plan.faults) > 1:
        log(f"shrinking seed {first.seed} "
            f"({len(first.plan.faults)} faults)...")
        minimal, keep = shrink_case(args.pipeline, first,
                                    workdir=workdir, log=log)
        log(f"minimal repro: faults {keep} of seed {first.seed}")
        for f in minimal.faults:
            log(f"  {f}")
    out = args.out or os.path.join(workdir,
                                   f"chaos-replay-{first.seed}.json")
    write_replay(out, first, minimal)
    log(f"replay file written to {os.path.abspath(out)}")
    return 1


def _is_colocation_spec(path: str) -> bool:
    from repro.core.config import load_yaml_subset
    with open(path, encoding="utf-8") as fh:
        spec = load_yaml_subset(fh.read())
    return isinstance(spec, dict) and "jobs" in spec


def _run_with_obs(args, workdir, slos=None):
    """Run the target (pipeline or colocation spec) with the live
    observability plane attached; returns ``[(title, obs, result)]``
    where ``result`` is the ColocationResult or the pipeline row."""
    from repro.obs import LiveObs
    window = getattr(args, "window", None)
    out = []
    if _is_colocation_spec(args.target):
        from repro.tenancy import run_colocation

        def hook(cluster):
            out.append((os.path.basename(args.target),
                        LiveObs.attach(cluster, window=window), None))

        result = run_colocation(args.target, workdir=workdir,
                                on_cluster=hook, slos=slos)
        out[:] = [(t, o, result) for t, o, _r in out]
    else:
        def hook(cluster, variant):
            out.append((variant.get("name", "run"),
                        LiveObs.attach(cluster, window=window,
                                       slos=slos), None))

        run_pipeline(args.target, workdir=workdir, on_cluster=hook)
    return out


def _fmt_series(name: str, labels) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _render_top(title: str, obs, limit: int) -> str:
    store = obs.store
    now = store.last_tick
    lines = [f"== top: {title} @ t={now:.3f}s  "
             f"(window {store.window * 1e3:g} ms x {store.retention}, "
             f"{obs.ticks} ticks) =="]

    counters = sorted(
        ((store.delta(name, ls), name, ls)
         for name, ls in store.counters), reverse=True)[:limit]
    if counters:
        lines.append("-- counters (retained window) --")
        width = max(len(_fmt_series(n, ls)) for _d, n, ls in counters)
        for delta, name, ls in counters:
            lines.append(f"  {_fmt_series(name, ls).ljust(width)}  "
                         f"+{delta:.6g}  "
                         f"({store.rate(name, ls):.6g}/s)")

    gauges = sorted(store.gauges)[:limit]
    if gauges:
        lines.append("-- gauges (last sample) --")
        width = max(len(_fmt_series(n, ls)) for n, ls in gauges)
        for name, ls in gauges:
            lines.append(f"  {_fmt_series(name, ls).ljust(width)}  "
                         f"{store.gauge_last(name, ls):.6g}")

    hists = []
    for name, ls in sorted(store.histograms):
        stats = store.window_stats(name, ls)
        if stats is not None and stats.count:
            hists.append((stats.count, name, ls, stats))
    hists.sort(reverse=True, key=lambda h: (h[0], h[1]))
    if hists:
        lines.append("-- latencies (retained window, ms) --")
        width = max(len(_fmt_series(n, ls))
                    for _c, n, ls, _s in hists[:limit])
        for count, name, ls, stats in hists[:limit]:
            p50 = stats.sketch.quantile(50) * 1e3
            p99 = stats.sketch.quantile(99) * 1e3
            lines.append(f"  {_fmt_series(name, ls).ljust(width)}  "
                         f"n={count:<6d} mean={stats.mean * 1e3:.4g} "
                         f"p50={p50:.4g} p99={p99:.4g}")

    if obs.slo is not None and obs.slo.history:
        lines.append("-- alerts --")
        for alert in obs.slo.history:
            state = ("firing" if alert.firing else
                     f"resolved at {alert.resolved_at:.3f}s")
            lines.append(f"  {alert.slo}: fired at "
                         f"{alert.fired_at:.3f}s, {state} "
                         f"(burn fast {alert.fast_burn:.2f}x / "
                         f"slow {alert.slow_burn:.2f}x)")

    if obs.events:
        lines.append("-- anomalies --")
        for e in obs.events[-limit:]:
            lines.append(f"  t={e['t']:.3f}s {e['detector']} "
                         f"{e['direction']} z={e['zscore']:.1f} "
                         f"value={e['value']:.6g}")
    return "\n".join(lines)


def _top_json(obs) -> dict:
    store = obs.store
    doc = {"t": store.last_tick, "ticks": obs.ticks,
           "window_s": store.window, "retention": store.retention,
           "counters": {}, "gauges": {}, "histograms": {},
           "anomalies": list(obs.events)}
    for name, ls in sorted(store.counters):
        doc["counters"][_fmt_series(name, ls)] = {
            "delta": store.delta(name, ls),
            "rate": store.rate(name, ls)}
    for name, ls in sorted(store.gauges):
        doc["gauges"][_fmt_series(name, ls)] = store.gauge_last(name, ls)
    for name, ls in sorted(store.histograms):
        stats = store.window_stats(name, ls)
        if stats is None or not stats.count:
            continue
        doc["histograms"][_fmt_series(name, ls)] = {
            "count": stats.count, "mean": stats.mean,
            "p50": stats.sketch.quantile(50),
            "p99": stats.sketch.quantile(99)}
    if obs.slo is not None:
        doc["alerts"] = [a.to_dict() for a in obs.slo.history]
    return doc


def _cmd_top(args) -> int:
    workdir = args.workdir or tempfile.mkdtemp(prefix="megammap-top-")
    runs = _run_with_obs(args, workdir)
    if not runs:
        print("run produced no output", file=sys.stderr)
        return 1
    if args.json:
        payload = [_top_json(obs) for _t, obs, _r in runs]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
    else:
        for i, (title, obs, _result) in enumerate(runs):
            if i:
                print()
            print(_render_top(title, obs, args.limit))
    return 0


def _render_slo(title: str, report: dict) -> str:
    lines = [f"== slo: {title} @ t={report['t']:.3f}s =="]
    rows = report["slos"]
    if rows:
        cols = ("name", "tenant", "objective", "target", "compliance",
                "samples", "alerts", "ok")

        def cell(s, col):
            if col == "alerts":
                return str(len(s["alerts"]))
            if col == "ok":
                return "ok" if s["ok"] else "VIOLATED"
            v = s.get(col)
            if isinstance(v, float):
                return f"{v:.4f}" if col == "compliance" else f"{v:g}"
            return str(v if v is not None else "-")

        table = [[cell(s, c) for c in cols] for s in rows]
        widths = [max(len(c), *(len(r[i]) for r in table))
                  for i, c in enumerate(cols)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in table:
            lines.append("  ".join(v.ljust(w)
                                   for v, w in zip(r, widths)))
    for alert in report["alerts"]:
        state = ("still firing" if alert["resolved_at"] is None else
                 f"resolved at {alert['resolved_at']:.3f}s")
        lines.append(f"  alert {alert['slo']}: fired at "
                     f"{alert['fired_at']:.3f}s, {state}")
    n = len(report["slos"])
    lines.append(f"{n - report['violations']}/{n} SLOs met"
                 + (f", {report['violations']} violated"
                    if report["violations"] else ""))
    return "\n".join(lines)


def _cmd_slo(args) -> int:
    from repro.obs import load_slos
    extra = load_slos(args.slos) if args.slos else []
    workdir = args.workdir or tempfile.mkdtemp(prefix="megammap-slo-")
    if not extra and not _is_colocation_spec(args.target):
        print("error: pipeline targets need --slos <spec.yaml>",
              file=sys.stderr)
        return 2
    runs = _run_with_obs(args, workdir, slos=extra)
    if not runs:
        print("run produced no output", file=sys.stderr)
        return 1
    reports = []
    for title, obs, _result in runs:
        if obs.slo is None:
            print(f"error: no SLOs attached for {title} (use --slos "
                  f"or embed 'slos:'/per-job 'slo:' blocks in the "
                  f"spec)", file=sys.stderr)
            return 2
        reports.append((title, obs.slo.report()))
    if args.json:
        payload = [r for _t, r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
    else:
        for i, (title, report) in enumerate(reports):
            if i:
                print()
            print(_render_slo(title, report))
    violations = sum(r["violations"] for _t, r in reports)
    return 1 if violations else 0


def _cmd_colocate(args) -> int:
    from repro.tenancy import run_colocation
    workdir = args.workdir or tempfile.mkdtemp(prefix="megammap-colo-")
    result = run_colocation(args.spec, workdir=workdir)
    if not result.rows:
        print("colocation produced no rows", file=sys.stderr)
        return 1
    _print_rows(result.rows)
    ok = [r for r in result.rows if r["status"] == "ok"]
    print(f"\n{len(ok)}/{len(result.rows)} jobs completed in "
          f"{result.makespan:.3f}s simulated "
          f"({len(result.decisions)} scheduler decisions)")
    if args.decisions:
        for d in result.decisions:
            print("  " + json.dumps(d))
    rates = [1.0 / r["service_s"] for r in ok if r["service_s"]]
    if len(rates) > 1:
        jain = (sum(rates) ** 2) / (len(rates) * sum(x * x
                                                     for x in rates))
        print(f"Jain fairness index over per-job service rates: "
              f"{jain:.4f}")
    print(f"stats written to {workdir}/", flush=True)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: `python -m repro file.yaml` means `run file.yaml`.
    if argv and argv[0] not in _SUBCOMMANDS \
            and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a MegaMmap workflow pipeline (Jarvis-style).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="execute a pipeline and print its stats rows")
    p_run.add_argument("pipeline", help="path to a workflow YAML file")
    p_run.add_argument("--workdir", default=None,
                       help="directory for datasets + stats_dict.csv "
                            "(default: a fresh temp directory)")

    p_trace = sub.add_parser(
        "trace",
        help="execute a pipeline with span tracing enabled and write "
             "a Chrome-trace-format JSON timeline")
    p_trace.add_argument("pipeline", help="path to a workflow YAML file")
    p_trace.add_argument("--workdir", default=None,
                         help="directory for datasets + stats (default: "
                              "a fresh temp directory)")
    p_trace.add_argument("--out", default=None,
                         help="trace JSON path (default: "
                              "<workdir>/trace.json)")

    p_report = sub.add_parser(
        "report",
        help="critical-path triage report: pass a pipeline YAML (runs "
             "it traced) or an existing trace JSON")
    p_report.add_argument("target",
                          help="pipeline YAML or Chrome-trace JSON")
    p_report.add_argument("--workdir", default=None,
                          help="workdir when running a pipeline")
    p_report.add_argument("--top", type=int, default=10,
                          help="number of top spans to list")
    p_report.add_argument("--out", default=None,
                          help="also write the analysis as JSON here")
    p_report.add_argument("--json", action="store_true",
                          help="print the analysis as JSON")

    p_diff = sub.add_parser(
        "diff",
        help="compare two runs: which span categories account for the "
             "runtime delta")
    p_diff.add_argument("a", help="baseline trace/report JSON")
    p_diff.add_argument("b", help="comparison trace/report JSON")
    p_diff.add_argument("--json", action="store_true",
                        help="print the diff as JSON")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with the coherence "
             "model-checker; shrinks and persists failing schedules")
    p_chaos.add_argument("pipeline", help="path to a workflow YAML file")
    p_chaos.add_argument("--seeds", type=int, default=25,
                         help="number of seeded cases to run")
    p_chaos.add_argument("--seed-base", type=int, default=0,
                         help="first seed (cases use seed-base..+seeds)")
    p_chaos.add_argument("--faults", default=None,
                         help="comma-separated fault kinds to inject "
                              "(default: all kinds, or just 'crash' "
                              "with --durability)")
    p_chaos.add_argument("--durability", action="store_true",
                         help="durability campaign: require the "
                              "pipeline's durable mode, inject "
                              "crash+restart faults, and hold reads "
                              "to the committed-barrier clause (no "
                              "crash excuse for flushed bytes)")
    p_chaos.add_argument("--intensity", type=float, default=1.0,
                         help="expected-fault-count multiplier")
    p_chaos.add_argument("--horizon", type=float, default=None,
                         help="fault window in simulated seconds "
                              "(default: measured by a fault-free "
                              "probe run)")
    p_chaos.add_argument("--perturb", action="store_true",
                         help="also randomize same-timestamp event "
                              "ordering (seeded)")
    p_chaos.add_argument("--obs", action="store_true",
                         help="attach the live observability plane to "
                              "every case and report per-fault-kind "
                              "detection latency")
    p_chaos.add_argument("--workdir", default=None,
                         help="directory for datasets + replay files")
    p_chaos.add_argument("--out", default=None,
                         help="replay-file path for a failing seed")
    p_chaos.add_argument("--replay", default=None,
                         help="replay-file path to re-run instead of "
                              "a seeded campaign")

    p_colo = sub.add_parser(
        "colocate",
        help="run N jobs as tenants of one shared deployment with "
             "per-tenant quotas, admission control and fast-memory "
             "reallocation")
    p_colo.add_argument("spec", help="path to a colocation YAML spec")
    p_colo.add_argument("--workdir", default=None,
                        help="directory for datasets + "
                             "colocate_stats.csv (default: a fresh "
                             "temp directory)")
    p_colo.add_argument("--decisions", action="store_true",
                        help="also print the admission/reallocation "
                             "decision log")

    p_top = sub.add_parser(
        "top",
        help="run a pipeline or colocation spec with the live "
             "observability plane attached and print the windowed "
             "dashboard: counter rates, gauges, latency quantiles, "
             "alerts, anomalies")
    p_top.add_argument("target",
                       help="pipeline YAML or colocation spec")
    p_top.add_argument("--workdir", default=None,
                       help="directory for datasets + stats (default: "
                            "a fresh temp directory)")
    p_top.add_argument("--window", type=float, default=None,
                       help="obs window in simulated seconds "
                            "(default: the config's obs_window)")
    p_top.add_argument("--limit", type=int, default=12,
                       help="max rows per dashboard section")
    p_top.add_argument("--json", action="store_true",
                       help="print the dashboard as JSON")

    p_slo = sub.add_parser(
        "slo",
        help="run a pipeline or colocation spec under declarative "
             "SLOs with burn-rate alerting; prints compliance and "
             "exits 1 when any objective is violated")
    p_slo.add_argument("target",
                       help="pipeline YAML or colocation spec")
    p_slo.add_argument("--slos", default=None,
                       help="SLO spec YAML (a 'slos:' list); merged "
                            "with SLOs embedded in a colocation spec")
    p_slo.add_argument("--workdir", default=None,
                       help="directory for datasets + stats (default: "
                            "a fresh temp directory)")
    p_slo.add_argument("--window", type=float, default=None,
                       help="obs window in simulated seconds "
                            "(default: the config's obs_window)")
    p_slo.add_argument("--json", action="store_true",
                       help="print the report as JSON")

    args = parser.parse_args(argv)
    if args.command == "diff":
        for path in (args.a, args.b):
            if not os.path.exists(path):
                print(f"error: file not found: {path}", file=sys.stderr)
                return 2
        return _cmd_diff(args)
    if args.command in ("report", "top", "slo"):
        target = args.target
    elif args.command == "colocate":
        target = args.spec
    else:
        target = args.pipeline
    if not os.path.exists(target):
        print(f"error: file not found: {target}", file=sys.stderr)
        return 2
    if args.command == "slo" and args.slos \
            and not os.path.exists(args.slos):
        print(f"error: file not found: {args.slos}", file=sys.stderr)
        return 2
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "colocate":
        return _cmd_colocate(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "slo":
        return _cmd_slo(args)

    workdir = args.workdir or tempfile.mkdtemp(prefix="megammap-ppl-")
    trace_path = None
    if args.command == "trace":
        # Default the trace next to the run's stats inside the workdir
        # (never the CWD) and always resolve to an absolute path so the
        # printed location is unambiguous.
        trace_path = os.path.abspath(
            args.out or os.path.join(workdir, "trace.json"))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    rows = run_pipeline(args.pipeline, workdir=workdir,
                        trace_path=trace_path)
    if not rows:
        print("pipeline produced no rows", file=sys.stderr)
        return 1
    _print_rows(rows)
    print(f"\nstats written to {workdir}/", flush=True)
    if trace_path:
        # Sweeps write one trace per variant (<out>.<i>.json); report
        # the paths actually written, not the requested one.
        written = [r["trace_file"] for r in rows if r.get("trace_file")]
        for p in dict.fromkeys(written):
            print(f"trace written to {os.path.abspath(p)} "
                  f"(open in chrome://tracing or https://ui.perfetto.dev)",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
