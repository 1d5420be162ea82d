"""CLI: run spec files against the simulated cluster.

    python -m repro run pipelines/mm_kmeans_mega.yaml [--workdir DIR]
    python -m repro trace pipelines/mm_kmeans_mega.yaml [--out T.json]
    python -m repro report <spec.yaml | trace.json> [--json]
    python -m repro diff A.trace.json B.trace.json [--json]
    python -m repro chaos pipelines/chaos_kmeans_2n.yaml --seeds 25
    python -m repro colocate pipelines/colocate_mixed.yaml
    python -m repro top pipelines/colocate_mixed.yaml
    python -m repro slo pipelines/colocate_mixed.yaml --slos slos.yaml

Mirrors the artifact's ``jarvis ppl run yaml /path/to/workflow.yaml``.
A spec is a pipeline (one ``app:``, optionally swept) or a colocation
spec (``jobs:``, tenants of one deployment); ``run``, ``trace``,
``report``, ``colocate``, ``top`` and ``slo`` take either — the target
is loaded once, run by :func:`_run_target`, and each verb is a printer
over what it returns. ``run``/``colocate`` print the stats rows;
``trace`` also records latency spans and writes a Chrome-trace-format
JSON timeline (``chrome://tracing`` or Perfetto); ``report`` says
where the time went — critical-path breakdown, overlap ratio, top
spans, queueing stats — live or from a trace JSON file; ``diff``
aligns two trace files by span category; ``top`` prints the final
windowed dashboard of the live observability plane; ``slo`` evaluates
declarative SLOs with burn-rate alerting and exits 1 when an objective
is violated. ``chaos`` (pipelines only) runs seeded fault-injection
campaigns with the coherence model-checker attached, shrinks the first
failing seed's fault schedule and writes a replay file. The bare form
``python -m repro <file.yaml>`` is an alias for ``run``. A malformed
spec, or one of the wrong shape for the verb, is one ``error:`` line
and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.pipeline import PipelineError, load_spec, run_pipeline


def _run_target(args, trace=None, obs=False, slos=()):
    """Run ``args.spec`` — either shape — in ``args.workdir``; returns
    ``[(title, cluster, result)]``: one entry per sweep variant of a
    pipeline with its stats row, one for a colocation campaign with
    its :class:`~repro.tenancy.ColocationResult`. ``trace`` is where
    to export the recorded spans (pipeline sweeps append ``.<i>``),
    ``obs`` attaches the live observability plane (``system.obs``),
    ``slos`` are evaluated on it."""
    colocation = "jobs" in args.spec
    clusters = []

    def hook(cluster):
        clusters.append(cluster)
        if trace:
            cluster.tracer.enabled = True
        if obs:
            from repro.obs import LiveObs
            # A campaign's SLOs are merged with the spec's own by
            # run_colocation.
            LiveObs.attach(cluster, window=getattr(args, "window", None),
                           slos=() if colocation else slos,
                           tenants=[j["name"] for j in args.spec["jobs"]]
                           if colocation else ())

    if not colocation:
        rows = run_pipeline(args.spec, workdir=args.workdir,
                            trace_path=trace, on_cluster=hook)
        return [(row["app"], c, row) for c, row in zip(clusters, rows)]
    from repro.tenancy import run_colocation
    try:
        result = run_colocation(args.spec, workdir=args.workdir,
                                on_cluster=hook, slos=slos)
    finally:
        if trace and clusters:
            clusters[0].export_trace(trace)
    return [(os.path.basename(args.target), clusters[0], result)]


def _emit_json(payloads, fh=None) -> None:
    """One run prints its payload, a sweep the list of them."""
    json.dump(payloads[0] if len(payloads) == 1 else payloads,
              fh or sys.stdout, indent=2)
    print(file=fh or sys.stdout)


def _print_rows(rows) -> None:
    cols = list(rows[0])
    print("  ".join(cols))
    for row in rows:
        print("  ".join(
            f"{row[c]:.4f}" if isinstance(row[c], float) else str(row[c])
            for c in cols))


def _cmd_run(args) -> int:
    """``run`` / ``trace`` / ``colocate``: the stats rows."""
    trace = None
    if args.command == "trace":
        # Default the trace next to the run's stats inside the workdir
        # (never the CWD) and always resolve to an absolute path so the
        # printed location is unambiguous.
        trace = os.path.abspath(
            args.out or os.path.join(args.workdir, "trace.json"))
        os.makedirs(os.path.dirname(trace), exist_ok=True)
    results = [r for _t, _c, r in _run_target(args, trace=trace)]
    written = [trace]
    if "jobs" in args.spec:
        (result,) = results
        _print_rows(result.rows)
        ok = [r for r in result.rows if r["status"] == "ok"]
        print(f"\n{len(ok)}/{len(result.rows)} jobs completed in "
              f"{result.makespan:.3f}s simulated "
              f"({len(result.decisions)} scheduler decisions)")
        if getattr(args, "decisions", False):
            for d in result.decisions:
                print("  " + json.dumps(d))
        rates = [1.0 / r["service_s"] for r in ok if r["service_s"]]
        if len(rates) > 1:
            jain = sum(rates) ** 2 / (len(rates)
                                      * sum(x * x for x in rates))
            print(f"Jain fairness index over per-job service rates: "
                  f"{jain:.4f}")
    else:
        _print_rows(results)
        print()
        # Sweeps write one trace per variant (<out>.<i>.json): report
        # the paths actually written, not the requested one.
        written = [r.get("trace_file") for r in results]
    print(f"stats written to {args.workdir}/", flush=True)
    for p in filter(None, written):
        print(f"trace written to {os.path.abspath(p)} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)",
              flush=True)
    return 0


def _is_trace_file(path: str) -> bool:
    """A JSON file is a trace; anything else is a spec."""
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
    if args.spec is None:
        analyses = [(os.path.basename(args.target),
                     _analyze_trace_file(args.target, args.top))]
    else:
        runs = _run_target(args, trace=os.path.abspath(
            os.path.join(args.workdir, "trace.json")))
        analyses = [(title, analyze(SpanGraph.from_tracer(c.tracer),
                                    monitor=c.monitor, top_k=args.top))
                    for title, c, _result in runs]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit_json([a for _t, a in analyses], fh)
        print(f"report JSON written to {os.path.abspath(args.out)}",
              file=sys.stderr)
    if args.json:
        _emit_json([a for _t, a in analyses])
    else:
        print("\n\n".join(render_report(a, title=t)
                          for t, a in analyses))
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
        _emit_json([diff])
    else:
        print(render_diff(diff, label_a=os.path.basename(args.a),
                          label_b=os.path.basename(args.b)))
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos import ChaosPlan
    from repro.chaos.campaign import (detection_stats, run_campaign,
                                      run_case, shrink_case,
                                      write_replay)
    if "jobs" in args.spec:
        raise PipelineError("chaos campaigns run pipelines only; "
                            f"{args.target} is a colocation spec")
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

    if args.durability \
            and not (args.spec.get("cluster") or {}).get("durability"):
        raise PipelineError(
            f"--durability needs the pipeline to declare 'durability: "
            f"true' in its cluster section ({args.target} does not)")

    if args.replay:
        plan = ChaosPlan.from_json(args.replay)
        res = run_case(args.target, plan.seed, horizon=plan.horizon,
                       plan=plan, workdir=args.workdir)
        log(res.summary())
        for v in res.violations[:10]:
            log(f"  violation: {v}")
        for c in res.conservation[:10]:
            log(f"  conservation: {c}")
        return 0 if res.ok else 1

    seeds = range(args.seed_base, args.seed_base + args.seeds)
    results = run_campaign(args.target, seeds, kinds=kinds,
                           intensity=args.intensity,
                           perturb=args.perturb,
                           horizon=args.horizon, workdir=args.workdir,
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
            felt = "" if row["felt"] == row["faults"] \
                else f" ({row['faults'] - row['felt']} met nothing)"
            if row["detected"]:
                log(f"  {kind:<10} {row['detected']}/{row['faults']} "
                    f"detected, mean {row['mean_s'] * 1e3:.2f} ms, "
                    f"max {row['max_s'] * 1e3:.2f} ms{felt}")
            else:
                log(f"  {kind:<10} 0/{row['faults']} detected{felt}")
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
        minimal, keep = shrink_case(args.target, first,
                                    workdir=args.workdir, log=log)
        log(f"minimal repro: faults {keep} of seed {first.seed}")
        for f in minimal.faults:
            log(f"  {f}")
    out = args.out or os.path.join(args.workdir,
                                   f"chaos-replay-{first.seed}.json")
    write_replay(out, first, minimal)
    log(f"replay file written to {os.path.abspath(out)}")
    return 1


def _cmd_top(args) -> int:
    from repro.obs import render_top, top_json
    runs = _run_target(args, obs=True)
    for _t, c, _r in runs:
        # Close the last, partial window: a run shorter than one
        # window would show nothing, a longer one lose its tail.
        c.system.obs.store.tick(c.sim.now)
    if args.json:
        _emit_json([top_json(c.system.obs) for _t, c, _r in runs])
    else:
        print("\n\n".join(render_top(title, c.system.obs, args.limit)
                          for title, c, _r in runs))
    return 0


def _cmd_slo(args) -> int:
    from repro.obs import load_slos, render_slo
    if args.slos and not os.path.exists(args.slos):
        raise PipelineError(f"file not found: {args.slos}")
    extra = load_slos(args.slos) if args.slos else []
    spec = args.spec
    embedded = "jobs" in spec and (spec.get("slos") or any(
        isinstance(j, dict) and j.get("slo") for j in spec["jobs"] or ()))
    if not (extra or embedded):
        raise PipelineError(
            "no SLOs to evaluate: pass --slos <spec.yaml>, or embed "
            "'slos:' / per-job 'slo:' blocks in a colocation spec")
    reports = [(title, c.system.obs.slo.report())
               for title, c, _r in _run_target(args, obs=True, slos=extra)]
    if args.json:
        _emit_json([r for _t, r in reports])
    else:
        print("\n\n".join(render_slo(t, r) for t, r in reports))
    return 1 if any(r["violations"] for _t, r in reports) else 0


_COMMANDS = {"run": _cmd_run, "trace": _cmd_run, "colocate": _cmd_run,
             "report": _cmd_report, "diff": _cmd_diff,
             "chaos": _cmd_chaos, "top": _cmd_top, "slo": _cmd_slo}


def _parser() -> argparse.ArgumentParser:
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument(
        "target", help="a spec YAML file: a pipeline ('app:') or a "
                       "colocation spec ('jobs:')")
    target.add_argument(
        "--workdir", default=None,
        help="directory for datasets, stats CSVs, traces and replay "
             "files (default: a fresh temp directory)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="print the result as JSON")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--window", type=float, default=None,
                        help="obs window in simulated seconds "
                             "(default: the config's obs_window)")

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a MegaMmap workflow spec (Jarvis-style).")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", parents=[target],
                   help="execute a spec and print its stats rows")

    p_trace = sub.add_parser(
        "trace", parents=[target],
        help="execute a spec with span tracing enabled and write a "
             "Chrome-trace-format JSON timeline")
    p_trace.add_argument("--out", default=None,
                         help="trace JSON path (default: "
                              "<workdir>/trace.json)")

    p_report = sub.add_parser(
        "report", parents=[target, as_json],
        help="critical-path triage report: pass a spec (runs it "
             "traced) or an existing trace JSON")
    p_report.add_argument("--top", type=int, default=10,
                          help="number of top spans to list")
    p_report.add_argument("--out", default=None,
                          help="also write the analysis as JSON here")

    p_diff = sub.add_parser(
        "diff", parents=[as_json],
        help="compare two runs: which span categories account for the "
             "runtime delta")
    p_diff.add_argument("a", help="baseline trace/report JSON")
    p_diff.add_argument("b", help="comparison trace/report JSON")

    p_chaos = sub.add_parser(
        "chaos", parents=[target],
        help="seeded fault-injection campaign on a pipeline with the "
             "coherence model-checker; shrinks and persists failing "
             "schedules")
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
    p_chaos.add_argument("--out", default=None,
                         help="replay-file path for a failing seed")
    p_chaos.add_argument("--replay", default=None,
                         help="replay-file path to re-run instead of "
                              "a seeded campaign")

    p_colo = sub.add_parser(
        "colocate", parents=[target],
        help="run N jobs as tenants of one shared deployment with "
             "per-tenant quotas, admission control and fast-memory "
             "reallocation")
    p_colo.add_argument("--decisions", action="store_true",
                        help="also print the admission/reallocation "
                             "decision log")

    p_top = sub.add_parser(
        "top", parents=[target, as_json, window],
        help="run a spec with the live observability plane attached "
             "and print the windowed dashboard: counter rates, "
             "gauges, latency quantiles, alerts, anomalies")
    p_top.add_argument("--limit", type=int, default=12,
                       help="max rows per dashboard section")

    p_slo = sub.add_parser(
        "slo", parents=[target, as_json, window],
        help="run a spec under declarative SLOs with burn-rate "
             "alerting; prints compliance and exits 1 when any "
             "objective is violated")
    p_slo.add_argument("--slos", default=None,
                       help="SLO spec YAML (a 'slos:' list); merged "
                            "with SLOs embedded in a colocation spec")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: `python -m repro file.yaml` means `run file.yaml`.
    if argv and argv[0] not in _COMMANDS \
            and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    args = _parser().parse_args(argv)
    for path in ((args.a, args.b) if args.command == "diff"
                 else (args.target,)):
        if not os.path.exists(path):
            print(f"error: file not found: {path}", file=sys.stderr)
            return 2
    try:
        # The target is loaded here, once; a verb asks `"jobs" in
        # args.spec` for its shape. (`report` also takes a trace file.)
        args.spec = None
        if args.command != "diff" and not (
                args.command == "report" and _is_trace_file(args.target)):
            args.spec, args.workdir = load_spec(
                args.target, args.workdir or tempfile.mkdtemp(
                    prefix=f"megammap-{args.command}-"))
        return _COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
