"""``crisp-eval``: print any reproduced table or figure.

``--json`` switches every exhibit to machine-readable output — one JSON
object per exhibit on stdout (see :mod:`repro.eval.jsonout`), diffable by
tooling the way the terminal tables are not.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cliargs import job_count
from repro.sim.semantics import SimulationHungError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-eval",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument(
        "exhibit",
        choices=["table1", "table2", "table3", "table4", "dynfold",
                 "figures", "branch-stats", "report", "all"],
        help="which exhibit to regenerate ('report' renders everything "
             "as markdown; 'dynfold' compares static vs dynamic-"
             "confidence folding on the Table-4 cases)")
    parser.add_argument("--events", type=int, default=100_000,
                        help="synthetic-trace length for table1")
    parser.add_argument("--json", action="store_true",
                        help="emit each exhibit as one JSON object on "
                             "stdout instead of terminal tables")
    parser.add_argument("--jobs", type=job_count, default=None, metavar="N",
                        help="worker processes for exhibits that run "
                             "many independent simulations (table4); "
                             "0 = one per CPU. Output is byte-identical "
                             "to a serial run")
    parser.add_argument("--campaign-out", metavar="PREFIX", default=None,
                        help="record campaign telemetry for multi-"
                             "simulation exhibits (table4, dynfold): "
                             "writes PREFIX.json (campaign manifest), "
                             "PREFIX.jsonl (live stream for 'crisp-obs "
                             "tail') and PREFIX_trace.json (merged "
                             "Perfetto trace, one track per worker). "
                             "The exhibits themselves stay byte-"
                             "identical")
    args = parser.parse_args(argv)

    try:
        return _run(args)
    except SimulationHungError as exc:
        # a hung simulation is a hard failure, but the watchdog's
        # diagnostics (ring of PCs, hot fold sites) must reach the user
        print(f"crisp-eval: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.exhibit == "report":
        from repro.eval.report import generate_report
        report = generate_report(args.events)
        if args.json:
            print(json.dumps({"exhibit": "report", "markdown": report}))
        else:
            print(report)
        return 0

    wanted = (["table1", "table2", "table3", "table4", "dynfold",
               "figures", "branch-stats"]
              if args.exhibit == "all" else [args.exhibit])

    # Campaign telemetry is out-of-band: the recorder observes the
    # parallel runner, exhibits on stdout stay byte-identical, and the
    # artefact paths go to stderr.
    recorder = stream = None
    if args.campaign_out is not None:
        from repro.obs.campaign import open_campaign
        expected = _expected_tasks(wanted)
        recorder, stream = open_campaign(
            f"crisp-eval {args.exhibit}", args.campaign_out,
            jobs=args.jobs, expected_tasks=expected)
    try:
        return _run_exhibits(args, wanted, recorder)
    finally:
        if recorder is not None:
            from repro.obs.campaign import close_campaign
            paths = close_campaign(recorder, stream, args.campaign_out)
            print(f"campaign artefacts: {paths['manifest']}, "
                  f"{paths['trace']}, {paths['stream']}",
                  file=sys.stderr)


def _expected_tasks(wanted: list[str]) -> int | None:
    """Parallel-runner task count for the requested exhibits, if known."""
    from repro.eval.table4 import CASE_DEFINITIONS, DYNFOLD_VARIANTS
    expected = 0
    if "table4" in wanted:
        expected += len(CASE_DEFINITIONS)
    if "dynfold" in wanted:
        expected += len(CASE_DEFINITIONS) * len(DYNFOLD_VARIANTS)
    return expected or None


def _run_exhibits(args: argparse.Namespace, wanted: list[str],
                  recorder=None) -> int:
    if args.json:
        from repro.eval.jsonout import exhibit_json
        for name in wanted:
            print(json.dumps(exhibit_json(name, args.events,
                                          jobs=args.jobs,
                                          recorder=recorder),
                             sort_keys=True))
        return 0

    if "table1" in wanted:
        from repro.eval.table1 import format_table1, run_table1
        print("== Table 1: prediction accuracies ==")
        print(format_table1(run_table1(args.events)))
        print()
    if "table2" in wanted:
        from repro.eval.table2 import format_table2, run_table2
        print("== Table 2: instruction counts (Figure-3 program) ==")
        print(format_table2(run_table2()))
        print()
    if "table3" in wanted:
        from repro.eval.table3 import format_table3, run_table3
        print("== Table 3: loop before/after Branch Spreading ==")
        print(format_table3(run_table3()))
        print()
    if "table4" in wanted:
        from repro.eval.table4 import format_table4, run_table4
        print("== Table 4: execution statistics, cases A-E ==")
        print(format_table4(run_table4(jobs=args.jobs,
                                       recorder=recorder)))
        print()
    if "dynfold" in wanted:
        from repro.eval.table4 import format_dynfold, run_dynfold
        print("== Dynamic-confidence folding on the Table-4 cases ==")
        print(format_dynfold(run_dynfold(jobs=args.jobs,
                                         recorder=recorder)))
        print()
    if "figures" in wanted:
        from repro.eval.figures import nextpc_datapath_cases, pipeline_structure
        print("== Figure 1: pipeline block activity ==")
        for report in pipeline_structure():
            print(f"  {report.block}: {report.activity}")
        print("== Figure 2: Next-PC datapath cases ==")
        for case in nextpc_datapath_cases():
            next_text = ("dynamic" if case.next_pc is None
                         else f"{case.next_pc:#x}")
            alt_text = "" if case.alt_pc is None else f" alt={case.alt_pc:#x}"
            print(f"  {case.description}: next={next_text}{alt_text} "
                  f"(adjust {case.adjust_parcels})")
        print()
    if "branch-stats" in wanted:
        from repro.eval.branch_stats import format_branch_stats, run_branch_stats
        print("== In-text branch statistics ==")
        print(format_branch_stats(run_branch_stats()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
