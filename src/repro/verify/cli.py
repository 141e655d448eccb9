"""``crisp-verify`` — differential conformance fuzzing front-end.

Subcommands:

``fuzz``
    Generate programs and run the differential check on each: the fast
    kernel against the reference kernel and the architectural oracle,
    plus one bitwise arm per further engine tier that ``--engine``
    names (a tier of :data:`repro.sim.cpu.ENGINES`, or ``all`` of them).
    Coverage is reported per engine. Stops after ``--programs`` N, or
    at ``--target-coverage`` F, or at a ``--budget`` wall-clock limit
    (CI mode; program count then depends on machine speed, everything
    else stays seed-deterministic).
    Disagreements are shrunk to minimal ``.s`` repros in
    ``--corpus-dir`` and the process exits 1.
``replay``
    Re-run corpus ``.s`` files through the same differential check.
``coverage``
    Oracle-only sweep: report which opcode × fold-class × outcome ×
    interlock × fold-verify cells a seed/profile mix reaches, without
    running the cycle kernels. ``--engine`` picks the matrix the
    tallies are broken down over: one line per engine, with the
    native/fallback split made explicit so a tier-specific coverage
    hole can't hide behind the fast kernel's totals.

``--jobs N`` fans tasks out over processes via
:func:`repro.eval.parallel.map_ordered`; results are merged in task
order, so output is byte-identical to a serial run.

By default tasks cycle over fold policies — static CRISP, then
``FoldPolicy.dynamic`` at confidence thresholds 1, 2 and 3 — so one run
covers both the paper's machine and the dynamic-confidence extension
(the fold-verify coverage cells are only reachable under the latter).
``--dyn-confidence N`` pins the mix; ``--inject always-wrong`` turns on
misprediction fault injection in every cycle kernel.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.asm.assembler import AssemblyError, assemble
from repro.cliargs import job_count, read_input
from repro.eval.parallel import TaskFailure, map_ordered
from repro.sim.dynfold import INJECT_MODES
from repro.verify.coverage import CoverageMap, total_reachable
from repro.verify.generator import PROFILES, generate_source
from repro.verify.oracle import OracleError, run_oracle
from repro.verify.runner import (
    ENGINE_MATRIX,
    FAST,
    FuzzTask,
    ProgramReport,
    confidence_policy,
    program_parcels,
    run_differential,
    run_fuzz_task,
)
from repro.verify.shrink import shrink_source

_BATCH = 25  #: tasks per scheduling round in coverage/budget modes

#: default per-task fold-policy mix: static, then dynamic_fold at each
#: confidence threshold (None = the static CRISP policy)
_DYN_MIX: tuple[int | None, ...] = (None, 1, 2, 3)


def _dyn_mix(values: list[int] | None) -> tuple[int | None, ...]:
    """The per-task policy mix ``--dyn-confidence`` pins (-1 = static)."""
    if not values:
        return _DYN_MIX
    return tuple(None if value < 0 else value for value in values)


def _tasks(seed: int, start: int, count: int, profiles: list[str],
           dyn_mix: tuple[int | None, ...], **fields) -> list[FuzzTask]:
    return [FuzzTask(seed=seed * 1_000_003 + index,
                     profile=profiles[index % len(profiles)],
                     dyn_confidence=dyn_mix[index % len(dyn_mix)],
                     **fields)
            for index in range(start, start + count)]


class _EngineCoverage:
    """Cell tallies for each engine of the matrix.

    Every engine compares every cell a task reaches, so one map holds
    the compared cells of all of them. Under dynamic-fold policies each
    tier but the fast kernel runs on its per-cycle fallback; a second
    map keeps the cells reached under the static policy, the tier's
    *native* cells, so a hole in the tier's own machinery can't hide
    behind the fallback path's share of the total.
    """

    def __init__(self, engines: tuple[str, ...]) -> None:
        self.engines = engines
        self.compared = CoverageMap()
        self.static = CoverageMap()

    def add(self, branch_records, body_records,
            dyn_confidence: int | None) -> None:
        self.compared.add_records(branch_records, body_records)
        if dyn_confidence is None:
            self.static.add_records(branch_records, body_records)

    def lines(self, counts: bool = False) -> list[str]:
        """The report: totals, one line per engine, every cell's hit
        count if ``counts``, then the cells no program reached."""
        cover, compared = self.compared, self.compared.total_hit()
        out = [f"coverage: {compared}/{total_reachable()} reachable cells "
               f"({cover.fraction():.1%})"]
        for engine in self.engines:
            native = compared if engine == FAST else self.static.total_hit()
            text = (f"coverage[{engine}]: {compared}/{total_reachable()} "
                    f"cells compared ({cover.fraction():.1%})")
            if compared > native:
                text += (f" — {native} native, {compared - native} "
                         f"via per-cycle fallback")
            out.append(text)
        if counts:
            out += [f"  {'/'.join(cell)}: {count}"
                    for cell, count in sorted(cover.cells.items())]
        out += [f"  missing: {'/'.join(cell)}" for cell in cover.missing()]
        out += [f"  missing fold-verify: {'/'.join(cell)}"
                for cell in cover.missing_fold_verify()]
        return out


def _shrink_and_save(report: ProgramReport, corpus_dir: Path) -> Path:
    assert report.source is not None

    def still_failing(source: str) -> bool:
        """The candidate assembles and still disagrees in the report's
        regime (a candidate that crashes the runner does not count)."""
        try:
            mismatches, _ = run_differential(
                assemble(source), confidence_policy(report.dyn_confidence),
                max_cycles=1_000_000, inject=report.inject,
                engines=ENGINE_MATRIX[report.engine])
        except Exception:
            return False
        return bool(mismatches)

    minimal = shrink_source(report.source, still_failing)
    if not still_failing(minimal):
        minimal = report.source  # budget ran out mid-shrink: keep original
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"repro-{report.profile}-{report.seed}.s"
    regime = ""
    if report.dyn_confidence is not None:
        regime += f", dyn-confidence {report.dyn_confidence}"
    if report.inject is not None:
        regime += f", inject {report.inject}"
    header = (f"; shrunk disagreement repro (profile {report.profile}, "
              f"task seed {report.seed}{regime})\n"
              + "".join(f"; {line}\n" for line in report.mismatches[:8]))
    path.write_text(header + minimal)
    return path


def cmd_fuzz(args: argparse.Namespace) -> int:
    profiles = args.profile or list(PROFILES)
    dyn_mix = _dyn_mix(args.dyn_confidence)
    engine_cover = _EngineCoverage(ENGINE_MATRIX[args.engine])
    coverage = engine_cover.compared
    failures: list[ProgramReport] = []
    lost: list[TaskFailure] = []
    ran = 0
    started = time.monotonic()
    deadline = (started + args.budget
                if args.budget is not None else None)
    # ETA target: the fixed program count in plain mode, the hard cap
    # in budget/coverage modes (where the real stop is time/coverage)
    expected = (args.programs if args.budget is None
                and args.target_coverage is None else None)

    from repro.obs.campaign import close_campaign, open_campaign
    recorder, campaign_stream = open_campaign(
        "crisp-verify fuzz", args.campaign_out,
        jobs=args.jobs, expected_tasks=expected)

    def heartbeat() -> None:
        """One progress line per batch on stderr (stdout stays stable)."""
        if args.no_heartbeat:
            return
        agreements = ran - len(failures) - len(lost)
        rate = agreements / ran if ran else 0.0
        elapsed = time.monotonic() - started
        if deadline is not None:
            eta_text = f"budget left {max(deadline - time.monotonic(), 0.0):.0f}s"
        elif expected and ran < expected:
            eta_text = f"eta {(expected - ran) * elapsed / ran:.0f}s"
        else:
            eta_text = f"elapsed {elapsed:.0f}s"
        print(f"fuzz: {ran} programs  agree {rate:.1%}  "
              f"coverage {coverage.fraction():.1%}  {eta_text}",
              file=sys.stderr, flush=True)

    def run_batch(count: int) -> None:
        nonlocal ran
        batch = _tasks(args.seed, ran, count, profiles, dyn_mix,
                       stress=not args.no_stress, inject=args.inject,
                       engine=args.engine)
        reports = map_ordered(
            run_fuzz_task, batch, jobs=args.jobs, recorder=recorder,
            labeler=lambda task: f"fuzz/{task.profile}/{task.seed}")
        for report in reports:
            if isinstance(report, TaskFailure):
                # A worker crashed (twice) on this task; the campaign
                # continues but the lost point is visible and fatal.
                lost.append(report)
                continue
            engine_cover.add(report.branch_cells, report.body_cells,
                             report.dyn_confidence)
            if not report.ok:
                failures.append(report)
        ran += count
        if recorder is not None:
            recorder.note("coverage", programs=ran,
                          disagreements=len(failures),
                          cells=coverage.total_hit(),
                          fraction=round(coverage.fraction(), 4))
        heartbeat()

    try:
        if args.target_coverage is not None:
            while (coverage.fraction() < args.target_coverage
                   and ran < args.max_programs):
                run_batch(min(_BATCH, args.max_programs - ran))
        elif deadline is not None:
            while time.monotonic() < deadline and ran < args.max_programs:
                run_batch(min(_BATCH, args.max_programs - ran))
        else:
            # in rounds (identical task list to a single call — tasks are
            # generated by absolute index) so heartbeats appear live
            while ran < args.programs:
                run_batch(min(_BATCH, args.programs - ran))
    finally:
        paths = close_campaign(recorder, campaign_stream, args.campaign_out)
        if paths is not None:
            print(f"campaign artefacts: {paths['manifest']}, "
                  f"{paths['trace']}, {paths['stream']}", file=sys.stderr)

    print(f"programs: {ran}")
    print(f"profiles: {', '.join(profiles)}")
    print(f"agreements: {ran - len(failures) - len(lost)}")
    print(f"disagreements: {len(failures)}")
    for failure in lost:
        task = failure.task
        print(f"LOST seed={getattr(task, 'seed', '?')} "
              f"profile={getattr(task, 'profile', '?')} "
              f"after {failure.attempts} attempts: {failure.error}")
    for line in engine_cover.lines():
        print(line)

    if args.coverage_out:
        Path(args.coverage_out).write_text(coverage.to_json())
        print(f"coverage map written to {args.coverage_out}")

    if failures:
        corpus_dir = Path(args.corpus_dir)
        for report in failures[:args.max_shrinks]:
            print(f"FAIL seed={report.seed} profile={report.profile}")
            for line in report.mismatches[:8]:
                print(f"  {line}")
            path = _shrink_and_save(report, corpus_dir)
            print(f"  shrunk repro: {path}")
        return 1
    return 1 if lost else 0


def cmd_replay(args: argparse.Namespace) -> int:
    sources = [(name, read_input(args.parser, name)) for name in args.files]
    status = 0
    for name, source in sources:
        try:
            program = assemble(source)
        except AssemblyError as exc:
            print(f"{name}: ASSEMBLY ERROR: {exc}")
            status = 1
            continue
        mismatches, oracle = run_differential(
            program, confidence_policy(args.dyn_confidence),
            stress=not args.no_stress, inject=args.inject,
            engines=ENGINE_MATRIX[args.engine])
        if mismatches:
            print(f"{name}: DISAGREE ({len(mismatches)} mismatches)")
            for line in mismatches:
                print(f"  {line}")
            status = 1
        else:
            summary = ""
            if oracle is not None:
                summary = (f" cycles={oracle.cycles}"
                           f" issued={oracle.issued_instructions}"
                           f" folded={oracle.folded_branches}"
                           f" mispredicts={oracle.mispredictions}")
            print(f"{name}: agree "
                  f"({program_parcels(program)} parcels{summary})")
    return status


def cmd_coverage(args: argparse.Namespace) -> int:
    profiles = args.profile or list(PROFILES)
    engine_cover = _EngineCoverage(ENGINE_MATRIX[args.engine])
    for task in _tasks(args.seed, 0, args.programs, profiles,
                       _dyn_mix(args.dyn_confidence)):
        try:
            program = assemble(generate_source(task.seed, task.profile))
            result = run_oracle(program,
                                confidence_policy(task.dyn_confidence))
        except (AssemblyError, OracleError) as exc:
            print(f"seed {task.seed} ({task.profile}): generator produced "
                  f"a bad program: {exc}", file=sys.stderr)
            return 1
        engine_cover.add(result.branches, result.body_records,
                         task.dyn_confidence)
    print(f"programs: {args.programs}")
    for line in engine_cover.lines(counts=True):
        print(line)
    if args.json:
        Path(args.json).write_text(engine_cover.compared.to_json())
    return 0


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=tuple(ENGINE_MATRIX),
                        default=FAST,
                        help="engine matrix: each tier it names besides "
                             "the fast kernel ('all' = every tier) is one "
                             "more bitwise arm with its own coverage line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisp-verify",
        description="Differential conformance fuzzing for the CRISP "
                    "simulators (fast kernel vs reference vs oracle).")
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="generate and differentially "
                                       "check programs")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--programs", type=int, default=200,
                      help="number of programs (default mode)")
    fuzz.add_argument("--budget", type=float, default=None, metavar="SECS",
                      help="wall-clock stop instead of a program count")
    fuzz.add_argument("--target-coverage", type=float, default=None,
                      metavar="FRACTION",
                      help="keep generating until this fraction of "
                           "reachable cells is hit")
    fuzz.add_argument("--max-programs", type=int, default=2000,
                      help="hard cap for budget/target modes")
    fuzz.add_argument("--profile", action="append", choices=PROFILES,
                      help="restrict profiles (repeatable; default all)")
    fuzz.add_argument("--jobs", type=job_count, default=None,
                      help="worker processes (0 = all cores)")
    fuzz.add_argument("--no-stress", action="store_true",
                      help="skip the cold-cache stress comparison")
    fuzz.add_argument("--coverage-out", metavar="FILE",
                      help="write the coverage map as JSON")
    fuzz.add_argument("--corpus-dir", default="tests/corpus",
                      help="where shrunk repros are written")
    fuzz.add_argument("--max-shrinks", type=int, default=3,
                      help="shrink at most this many disagreements")
    fuzz.add_argument("--dyn-confidence", action="append", type=int,
                      metavar="N",
                      help="pin the fold-policy mix to these dynamic-fold "
                           "confidence thresholds (repeatable; -1 = the "
                           "static policy; default cycles static,1,2,3)")
    fuzz.add_argument("--inject", choices=INJECT_MODES, default=None,
                      help="misprediction fault injection in every "
                           "cycle kernel")
    _add_engine_argument(fuzz)
    fuzz.add_argument("--campaign-out", metavar="PREFIX", default=None,
                      help="record campaign telemetry: PREFIX.json "
                           "(manifest), PREFIX.jsonl (live stream for "
                           "'crisp-obs tail'), PREFIX_trace.json (merged "
                           "Perfetto trace). The fuzz results are "
                           "untouched")
    fuzz.add_argument("--no-heartbeat", action="store_true",
                      help="suppress the per-batch progress line on "
                           "stderr")
    fuzz.set_defaults(func=cmd_fuzz)

    replay = sub.add_parser("replay", help="re-check corpus .s files")
    replay.add_argument("files", nargs="+")
    replay.add_argument("--no-stress", action="store_true")
    replay.add_argument("--dyn-confidence", type=int, default=None,
                        metavar="N",
                        help="replay under FoldPolicy.dynamic(N)")
    replay.add_argument("--inject", choices=INJECT_MODES, default=None)
    _add_engine_argument(replay)
    replay.set_defaults(func=cmd_replay, parser=replay)

    cover = sub.add_parser("coverage", help="oracle-only coverage sweep")
    cover.add_argument("--seed", type=int, default=0)
    cover.add_argument("--programs", type=int, default=200)
    cover.add_argument("--profile", action="append", choices=PROFILES)
    cover.add_argument("--dyn-confidence", action="append", type=int,
                       metavar="N",
                       help="as for fuzz: pin the fold-policy mix")
    _add_engine_argument(cover)
    cover.add_argument("--json", metavar="FILE")
    cover.set_defaults(func=cmd_coverage)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
