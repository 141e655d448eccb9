"""``crisp-obs``: telemetry artefacts, attribution and the regression gate.

Subcommands (bare flags still work and mean ``run``):

* ``run`` — simulate a workload and emit artefacts: a Perfetto trace
  (`--trace`), a run manifest (`--manifest`, with per-site attribution),
  a JSONL dump of final probe values (`--metrics`), a live JSONL event
  stream (`--events`) and a terminal summary with a cycle-breakdown bar.
* ``annotate`` — "perf annotate" for branches: the per-branch-site
  attribution table rendered over the disassembly, interleaved with the
  mini-C source lines each instruction was lowered from.
* ``diff`` — per-metric and per-site deltas between two run manifests
  (or two ``crisp-bench-baseline`` documents, paired case by case).
* ``gate`` — the regression gate: re-measure the Table-4 cases (or load
  ``--current``), compare fold rate / issued CPI / prediction accuracy
  against ``--baseline`` and fail when any degrades past ``--threshold``.
* ``report`` — render a campaign manifest (from ``--campaign-out``) as
  a markdown (or ``--html``) report: totals, slowest tasks, failures
  with replay context, recovered retries, coverage over time.
* ``tail`` — follow a campaign's live JSONL stream with per-task
  progress lines and an ETA.
* ``trend`` — perf-trend analytics over the committed trajectory /
  throughput documents and campaign manifests, with regression
  detection.

Exit codes: **0** success, **1** gate (or ``trend
--fail-on-regression``) regression, **2** usage or input/output error.

Examples::

    python -m repro.obs.cli run --workload figure3 --manifest run.json
    python -m repro.obs.cli annotate --workload figure3 --spread
    python -m repro.obs.cli diff before.json after.json
    python -m repro.obs.cli gate --baseline BENCH_obs_baseline.json \\
        --threshold 2% --update-trajectory BENCH_table4_trajectory.json
    python -m repro.obs.cli --table4-baseline BENCH_obs_baseline.json
    python -m repro.obs.cli report --campaign campaign.json --html \\
        --out report.html
    python -m repro.obs.cli tail campaign.jsonl --follow
    python -m repro.obs.cli trend
"""

from __future__ import annotations

import argparse
import json

from repro.cliargs import job_count
from repro.obs.events import EventBus, JsonlSink

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2  #: bad arguments, unreadable/invalid input documents

BAR_WIDTH = 40
_BAR_GLYPHS = {"issue": "#", "penalty": "!", "other_stall": ".",
               "residual": "~"}


def breakdown_bar(breakdown: dict[str, float],
                  width: int = BAR_WIDTH) -> str:
    """Render the cycle breakdown as a fixed-width segment bar."""
    cells: list[str] = []
    for key, glyph in _BAR_GLYPHS.items():
        cells.extend(glyph * round(breakdown.get(key, 0.0) * width))
    del cells[width:]
    cells.extend("~" * (width - len(cells)))  # rounding slack
    return "[" + "".join(cells) + "]"


def _format_summary(workload: str, stats, breakdown) -> list[str]:
    lines = [f"== {workload} ==", stats.summary(), ""]
    lines.append("cycle breakdown "
                 + " ".join(f"{glyph} {key} {100 * breakdown[key]:.1f}%"
                            for key, glyph in _BAR_GLYPHS.items()))
    lines.append(f"{breakdown_bar(breakdown)} {stats.cycles} cycles")
    return lines


def _workload_source(name: str, seed: int | None = None) -> str:
    from repro.workloads import resolve_source
    return resolve_source(name, seed)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    """The workload/compile/machine flags shared by ``run`` and ``annotate``."""
    parser.add_argument("--workload", default="figure3",
                        help="figure3, a workload-suite name, or a "
                             "gen_* synthetic workload "
                             "(default: figure3)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="generation seed for gen_* synthetic "
                             "workloads (same seed -> byte-identical "
                             "program in every process)")
    parser.add_argument("--spread", action="store_true",
                        help="enable Branch Spreading")
    parser.add_argument("--predict", default="heuristic",
                        choices=["not_taken", "taken", "heuristic",
                                 "profile"],
                        help="static prediction-bit policy")
    parser.add_argument("--no-fold", action="store_true",
                        help="disable Branch Folding")
    parser.add_argument("--icache", type=int, default=None, metavar="N",
                        help="decoded-cache entries (power of two)")
    parser.add_argument("--mem-latency", type=int, default=None,
                        metavar="N", help="cycles per instruction fetch")
    parser.add_argument("--max-cycles", type=int, default=50_000_000)


def _compile_workload(parser: argparse.ArgumentParser, args,
                      obs: EventBus | None = None, debug: bool = False):
    """(program, config[, debug_info]) from parsed workload flags.

    Calls ``parser.error`` (exit 2) on an unknown workload or a compile
    error — both are input problems, not regressions.
    """
    from repro.core.policy import FoldPolicy
    from repro.lang import (CompilerOptions, PredictionMode,
                            compile_source, compile_with_debug)
    from repro.lang.lexer import CompileError
    from repro.sim.cpu import CpuConfig

    try:
        source = _workload_source(args.workload, getattr(args, "seed", None))
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}")
    options = CompilerOptions(
        spreading=args.spread,
        prediction=PredictionMode(args.predict))
    try:
        if debug:
            program, info = compile_with_debug(source, options)
        else:
            program = compile_source(source, options,
                                     obs if obs is not None else EventBus())
            info = None
    except CompileError as error:
        parser.error(str(error))

    config_kwargs = {}
    if args.no_fold:
        config_kwargs["fold_policy"] = FoldPolicy.none()
    if args.icache is not None:
        config_kwargs["icache_entries"] = args.icache
    if args.mem_latency is not None:
        config_kwargs["mem_latency"] = args.mem_latency
    try:
        config = CpuConfig(**config_kwargs)
    except ValueError as error:
        parser.error(str(error))
    return (program, config, info) if debug else (program, config)


def _cmd_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-obs run",
        description="Run a workload and emit telemetry artefacts "
                    "(Perfetto trace, run manifest, metrics).")
    _add_workload_arguments(parser)
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Perfetto trace-event JSON file")
    parser.add_argument("--manifest", metavar="PATH",
                        help="write the run-manifest JSON document")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write final probe values as JSONL")
    parser.add_argument("--events", metavar="PATH",
                        help="stream every probe update as JSONL "
                             "(slow: attaches a live sink)")
    parser.add_argument("--window", type=int, default=0, metavar="N",
                        help="print the first N trace cycles as a "
                             "pipeline diagram")
    parser.add_argument("--table4-baseline", metavar="PATH",
                        help="emit the Table-4 A-E baseline manifests "
                             "and exit")
    parser.add_argument("--jobs", type=job_count, default=None, metavar="N",
                        help="worker processes for multi-case artefacts "
                             "(--table4-baseline); 0 = one per CPU. "
                             "Manifests merge in case order, so the "
                             "document is byte-identical to a serial "
                             "run. Single-workload runs ignore it")
    parser.add_argument("--campaign-out", metavar="PREFIX", default=None,
                        help="with --table4-baseline: record campaign "
                             "telemetry (PREFIX.json manifest, "
                             "PREFIX.jsonl live stream, "
                             "PREFIX_trace.json merged Perfetto trace)")
    parser.add_argument("--probes", action="store_true",
                        help="print the probe catalogue and exit")
    args = parser.parse_args(argv)

    if args.probes:
        from repro.obs.registry import catalogue_rows
        for name, kind, unit, description in catalogue_rows():
            print(f"{name:<28} {kind:<10} {unit:<13} {description}")
        return EXIT_OK

    if args.table4_baseline:
        from repro.obs.campaign import close_campaign, open_campaign
        from repro.obs.manifest import (baseline_labels, table4_baseline,
                                        write_manifest)
        recorder, stream = open_campaign(
            "table4-baseline", args.campaign_out, jobs=args.jobs,
            expected_tasks=len(baseline_labels()))
        try:
            write_manifest(args.table4_baseline,
                           table4_baseline(jobs=args.jobs,
                                           recorder=recorder))
        finally:
            paths = close_campaign(recorder, stream, args.campaign_out)
        print(f"wrote Table-4 baseline -> {args.table4_baseline}")
        if paths is not None:
            print(f"campaign artefacts: {paths['manifest']}, "
                  f"{paths['trace']}, {paths['stream']}")
        return EXIT_OK

    from repro.obs.attrib import AttributionSink
    from repro.obs.export import write_metrics, write_trace
    from repro.obs.manifest import manifest_for_cpu, write_manifest
    from repro.sim.cpu import CrispCpu
    from repro.sim.tracer import PipelineTrace

    obs = EventBus()
    events_stream = None
    if args.events:
        events_stream = open(args.events, "w", encoding="utf-8")
        obs.attach(JsonlSink(events_stream))

    program, config = _compile_workload(parser, args, obs)
    sink = AttributionSink()
    obs.attach(sink)

    cpu = CrispCpu(program, config, obs=obs)
    trace = PipelineTrace(cpu)
    trace.run(args.max_cycles)
    obs.detach(sink)
    if events_stream is not None:
        events_stream.close()

    stats = cpu.stats
    for line in _format_summary(args.workload, stats, stats.breakdown()):
        print(line)

    if args.window:
        print()
        print(trace.format_window(0, args.window))

    if args.trace:
        events = write_trace(args.trace, trace.records)
        print(f"wrote {len(events)} trace events -> {args.trace} "
              f"(open at ui.perfetto.dev)")
    if args.manifest:
        write_manifest(args.manifest,
                       manifest_for_cpu(args.workload, cpu,
                                        sites=sink.table.as_dict()))
        print(f"wrote run manifest -> {args.manifest}")
    if args.metrics:
        write_metrics(args.metrics, obs)
        print(f"wrote probe metrics -> {args.metrics}")
    if args.events:
        print(f"wrote live event stream -> {args.events}")
    print()
    print("probe counters: "
          + json.dumps(obs.counters(), sort_keys=True))
    return EXIT_OK


def _cmd_annotate(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-obs annotate",
        description="Per-branch-site attribution rendered over the "
                    "disassembly, interleaved with mini-C source lines.")
    _add_workload_arguments(parser)
    parser.add_argument("--no-source", action="store_true",
                        help="omit the interleaved mini-C source lines")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the listing to a file")
    args = parser.parse_args(argv)

    from repro.obs.attrib import annotate_listing, attribute_run

    program, config, debug = _compile_workload(parser, args, debug=True)
    cpu, table = attribute_run(program, config, max_cycles=args.max_cycles)
    mismatches = table.reconcile(cpu.stats)
    listing = annotate_listing(program, table,
                               None if args.no_source else debug)
    print(listing)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(listing + "\n")
        print(f"wrote annotated listing -> {args.out}")
    if mismatches:
        print("RECONCILIATION FAILED (per-site sums != aggregates):")
        for line in mismatches:
            print(f"  {line}")
        return EXIT_REGRESSION
    return EXIT_OK


def _load_document(parser: argparse.ArgumentParser, path: str) -> dict:
    """Read a manifest/baseline JSON document; parser.error (2) on failure."""
    from repro.obs.manifest import read_manifest

    try:
        document = read_manifest(path)
    except (OSError, json.JSONDecodeError) as error:
        parser.error(f"cannot read {path}: {error}")
    if not isinstance(document, dict):
        parser.error(f"{path}: not a JSON object")
    return document


def _cmd_diff(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-obs diff",
        description="Per-metric and per-site deltas between two run "
                    "manifests or two bench-baseline documents.")
    parser.add_argument("before", help="baseline manifest JSON")
    parser.add_argument("after", help="comparison manifest JSON")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full diff document as JSON")
    args = parser.parse_args(argv)

    from repro.obs.diff import diff_documents

    before = _load_document(parser, args.before)
    after = _load_document(parser, args.after)
    try:
        diff = diff_documents(before, after)
    except ValueError as error:
        parser.error(str(error))

    if args.as_json:
        print(json.dumps(diff, indent=2, sort_keys=True))
        return EXIT_OK
    for label, case in diff["cases"].items():
        changed = case["metrics"]
        print(f"== {label} ({case['metrics_unchanged']} metrics unchanged, "
              f"{len(changed)} changed, {len(case['sites'])} sites changed)")
        for delta in changed:
            relative = delta["relative"]
            percent = ("" if relative is None
                       else f" ({100 * relative:+.2f}%)")
            print(f"  {delta['metric']}: {delta['before']:g} -> "
                  f"{delta['after']:g}{percent}")
        for site, deltas in case["sites"].items():
            cells = ", ".join(f"{d['metric']} {d['before']:g}->"
                              f"{d['after']:g}" for d in deltas)
            print(f"  site {site}: {cells}")
    return EXIT_OK


def _cmd_gate(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-obs gate",
        description="Fail (exit 1) when fold rate, issued CPI or "
                    "prediction accuracy regressed past the threshold.")
    parser.add_argument("--baseline", required=True, metavar="PATH",
                        help="baseline document (e.g. "
                             "BENCH_obs_baseline.json)")
    parser.add_argument("--current", metavar="PATH",
                        help="current document; omitted = re-measure the "
                             "Table-4 cases now")
    parser.add_argument("--threshold", default="2%", metavar="PCT",
                        help="max relative degradation, e.g. 2%% or 0.02 "
                             "(default: 2%%)")
    parser.add_argument("--update-trajectory", metavar="PATH",
                        help="append this run's headline metrics to the "
                             "perf-trajectory document")
    args = parser.parse_args(argv)

    from repro.obs.diff import (check_gate, parse_threshold,
                                trajectory_entry, update_trajectory)
    from repro.obs.manifest import write_manifest

    try:
        threshold = parse_threshold(args.threshold)
    except ValueError as error:
        parser.error(str(error))

    baseline = _load_document(parser, args.baseline)
    if args.current:
        current = _load_document(parser, args.current)
    else:
        from repro.obs.manifest import table4_baseline
        current = table4_baseline()

    try:
        regressions, checked = check_gate(baseline, current, threshold)
    except ValueError as error:
        parser.error(str(error))

    for label, values in sorted(checked.items()):
        print(f"case {label}: "
              + "  ".join(f"{metric}={value:.4f}"
                          for metric, value in values.items()))

    if args.update_trajectory:
        from pathlib import Path

        from repro.obs.manifest import read_manifest
        path = Path(args.update_trajectory)
        document = read_manifest(str(path)) if path.exists() else None
        write_manifest(str(path),
                       update_trajectory(document, trajectory_entry(current)))
        print(f"updated perf trajectory -> {path}")

    if regressions:
        print(f"GATE FAILED: {len(regressions)} regression(s) past "
              f"{100 * threshold:g}%:")
        for regression in regressions:
            print(f"  {regression.describe()}")
        return EXIT_REGRESSION
    print(f"gate OK: {len(checked)} case(s), "
          f"{100 * threshold:g}% threshold")
    return EXIT_OK


def _cmd_report(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-obs report",
        description="Render a campaign manifest (--campaign-out) as a "
                    "markdown or HTML report.")
    parser.add_argument("--campaign", required=True, metavar="PATH",
                        help="campaign manifest JSON "
                             "(the PREFIX.json of --campaign-out)")
    parser.add_argument("--html", action="store_true",
                        help="emit a self-contained HTML page instead "
                             "of markdown")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to a file instead of "
                             "stdout")
    parser.add_argument("--slowest", type=int, default=10, metavar="N",
                        help="how many slowest tasks to list "
                             "(default: 10)")
    args = parser.parse_args(argv)

    from repro.obs.campaign import (read_campaign, render_campaign_html,
                                    render_campaign_report)
    try:
        manifest = read_campaign(args.campaign)
    except (OSError, json.JSONDecodeError, ValueError) as error:
        parser.error(f"cannot read {args.campaign}: {error}")
    report = (render_campaign_html(manifest) if args.html
              else render_campaign_report(manifest, slowest=args.slowest))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(report if report.endswith("\n") else report + "\n")
        print(f"wrote campaign report -> {args.out}")
    else:
        print(report)
    return EXIT_OK


def _cmd_tail(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-obs tail",
        description="Follow a campaign's live JSONL stream "
                    "(the PREFIX.jsonl of --campaign-out) with "
                    "per-task progress and an ETA.")
    parser.add_argument("stream", help="campaign JSONL stream path")
    parser.add_argument("--follow", action="store_true",
                        help="keep polling for new lines until the "
                             "campaign-end record (or --timeout)")
    parser.add_argument("--interval", type=float, default=0.5,
                        metavar="SECS", help="poll interval with "
                                             "--follow (default: 0.5)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECS",
                        help="give up following after this long")
    args = parser.parse_args(argv)

    import time as time_module

    from repro.obs.campaign import StreamProgress

    progress = StreamProgress()
    deadline = (time_module.monotonic() + args.timeout
                if args.timeout is not None else None)
    try:
        stream = open(args.stream, "r", encoding="utf-8")
    except OSError as error:
        parser.error(f"cannot read {args.stream}: {error}")
    with stream:
        buffered = ""
        while True:
            chunk = stream.readline()
            if chunk:
                buffered += chunk
                if not buffered.endswith("\n"):
                    continue  # partial line from a live writer
                line, buffered = buffered, ""
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                rendered = progress.consume(record)
                if rendered:
                    print(rendered, flush=True)
                if progress.finished:
                    return EXIT_OK
                continue
            if not args.follow:
                return EXIT_OK
            if deadline is not None \
                    and time_module.monotonic() >= deadline:
                print("tail: timeout before campaign-end", flush=True)
                return EXIT_OK
            time_module.sleep(args.interval)


def _cmd_trend(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-obs trend",
        description="Perf-trend analytics over the committed trajectory/"
                    "throughput documents and campaign manifests.")
    parser.add_argument("--trajectory", metavar="PATH",
                        default="BENCH_table4_trajectory.json",
                        help="trajectory document (default: "
                             "BENCH_table4_trajectory.json)")
    parser.add_argument("--throughput", metavar="PATH",
                        default="BENCH_throughput.json",
                        help="throughput baseline (default: "
                             "BENCH_throughput.json)")
    parser.add_argument("--campaign", action="append", metavar="PATH",
                        default=[],
                        help="campaign manifest(s) to include "
                             "(repeatable)")
    parser.add_argument("--threshold", default="2%", metavar="PCT",
                        help="regression threshold, e.g. 2%% or 0.02 "
                             "(default: 2%%)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the machine-readable trend document")
    parser.add_argument("--out", metavar="PATH",
                        help="write the rendered report to a file")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any series regressed past the "
                             "threshold")
    args = parser.parse_args(argv)

    import os

    from repro.obs.diff import parse_threshold
    from repro.obs.trend import render_trend_report, trend_document

    try:
        threshold = parse_threshold(args.threshold)
    except ValueError as error:
        parser.error(str(error))

    def load_optional(path: str) -> dict | None:
        """Default documents may be absent (fresh clone subsets)."""
        if not os.path.exists(path):
            return None
        return _load_document(parser, path)

    trajectory = load_optional(args.trajectory)
    throughput = load_optional(args.throughput)
    campaigns = []
    from repro.obs.campaign import read_campaign
    for path in args.campaign:
        try:
            campaigns.append(read_campaign(path))
        except (OSError, json.JSONDecodeError, ValueError) as error:
            parser.error(f"cannot read {path}: {error}")

    document = trend_document(trajectory, throughput, campaigns, threshold)
    if args.as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        report = render_trend_report(trajectory, throughput, campaigns,
                                     threshold)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as stream:
                stream.write(report)
            print(f"wrote trend report -> {args.out}")
        else:
            print(report)
    if args.fail_on_regression and document["regressions"]:
        print(f"TREND REGRESSED: {len(document['regressions'])} series "
              f"past {100 * threshold:g}%")
        return EXIT_REGRESSION
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``crisp-obs`` subcommands (bare flags mean ``run``).

    Returns :data:`EXIT_OK`, :data:`EXIT_REGRESSION` or
    :data:`EXIT_USAGE` — argparse's own exit-2-on-usage-error behaviour
    is converted to a return value so embedders see an int.
    """
    if argv is None:
        import sys
        argv = sys.argv[1:]
    commands = {"run": _cmd_run, "annotate": _cmd_annotate,
                "diff": _cmd_diff, "gate": _cmd_gate,
                "report": _cmd_report, "tail": _cmd_tail,
                "trend": _cmd_trend}
    command = commands.get(argv[0]) if argv else None
    try:
        if command is not None:
            return command(argv[1:])
        return _cmd_run(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
