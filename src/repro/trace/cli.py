"""``crisp-trace``: capture, inspect and study branch-trace tapes."""

from __future__ import annotations

import argparse

from repro.cliargs import read_input


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-trace",
        description="Capture and analyze branch traces.")
    commands = parser.add_subparsers(dest="command", required=True)

    capture = commands.add_parser(
        "capture", help="run a program and write its branch trace")
    capture.add_argument("source", help="mini-C (.c) or assembly source")
    capture.add_argument("-o", "--output", required=True,
                         help="trace file to write")
    capture.add_argument("--conditional-only", action="store_true",
                         help="record only conditional branches")

    info = commands.add_parser("info", help="summarize a trace tape")
    info.add_argument("trace", help="trace file")

    study = commands.add_parser(
        "study", help="score the Table-1 predictor line-up on a tape")
    study.add_argument("trace", help="trace file")

    classify = commands.add_parser(
        "classify", help="per-branch behaviour classification of a tape")
    classify.add_argument("trace", help="trace file")
    classify.add_argument("--top", type=int, default=10,
                          help="hottest sites to list")

    synth = commands.add_parser(
        "synthesize", help="generate a calibrated synthetic tape")
    synth.add_argument("workload", choices=["troff", "ccom", "vlsi_drc"])
    synth.add_argument("-o", "--output", required=True)
    synth.add_argument("--events", type=int, default=100_000)
    synth.add_argument("--seed", type=int, default=1987)

    args = parser.parse_args(argv)
    if args.command == "capture":
        return _capture(args, read_input(parser, args.source))
    if args.command == "synthesize":
        return _synthesize(args)
    from repro.trace import load_trace
    events = read_input(parser, args.trace, load_trace)
    handler = {"info": _info, "study": _study, "classify": _classify}
    return handler[args.command](args, events)


def _load_program(path: str, text: str):
    if path.endswith(".c"):
        from repro.lang import compile_source
        return compile_source(text)
    from repro.asm import assemble
    return assemble(text)


def _capture(args, text: str) -> int:
    from repro.trace import capture_trace, save_trace
    program = _load_program(args.source, text)
    events = capture_trace(program, conditional_only=args.conditional_only)
    count = save_trace(args.output, events)
    print(f"wrote {count} branch events to {args.output}")
    return 0


def _info(_args, events) -> int:
    conditional = sum(1 for e in events if e.conditional)
    taken = sum(1 for e in events if e.taken)
    static = len({e.pc for e in events})
    print(f"{len(events)} dynamic branches ({conditional} conditional), "
          f"{static} static sites, {taken} taken "
          f"({100 * taken / len(events):.1f}%)" if events
          else "empty trace")
    return 0


def _study(_args, events) -> int:
    from repro.predict import PredictionStudy
    study = PredictionStudy()
    study.observe_all(events)
    for name, accuracy in study.accuracies().items():
        print(f"{name:<16} {accuracy:6.1%}")
    return 0


def _classify(args, events) -> int:
    from repro.trace.analyze import profile_trace
    profile = profile_trace(events)
    print(f"{profile.events} conditional executions over "
          f"{profile.static_sites} sites; optimal static accuracy "
          f"{profile.optimal_static_accuracy():.1%}")
    print("class mixture (execution-weighted):")
    for name, fraction in sorted(profile.class_mixture().items(),
                                 key=lambda kv: -kv[1]):
        print(f"  {name:<12} {fraction:6.1%}")
    print(f"hottest {args.top} sites:")
    for site in profile.hottest(args.top):
        print(f"  {site.pc:#08x} x{site.executions:<7} "
              f"taken {site.taken_fraction:6.1%}  "
              f"switch {site.switch_rate:5.1%}  {site.classification}")
    return 0


def _synthesize(args) -> int:
    from repro.trace import save_trace, synthetic_workloads
    workload = synthetic_workloads()[args.workload]
    count = save_trace(args.output,
                       workload.generate(args.events, args.seed))
    print(f"wrote {count} synthetic {args.workload} events "
          f"to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
