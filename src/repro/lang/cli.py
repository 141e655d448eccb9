"""``crisp-cc``: compile mini-C to CRISP assembly (or run it)."""

from __future__ import annotations

import argparse
import sys

from repro.asm.assembler import AssemblyError
from repro.cliargs import read_input
from repro.lang.compiler import (
    CompileError,
    CompilerOptions,
    PredictionMode,
    compile_source,
    compile_to_assembly,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-cc",
        description="Compile mini-C for the CRISP-like machine.")
    parser.add_argument("source", help="mini-C source file ('-' for stdin)")
    parser.add_argument("--spread", action="store_true",
                        help="enable branch spreading")
    parser.add_argument("--predict",
                        choices=[m.value for m in PredictionMode],
                        default=PredictionMode.HEURISTIC.value,
                        help="static prediction-bit policy")
    parser.add_argument("--run", action="store_true",
                        help="assemble and run on the functional simulator")
    parser.add_argument("--cycles", action="store_true",
                        help="assemble and run on the cycle-accurate model")
    args = parser.parse_args(argv)

    text = read_input(parser, args.source)
    options = CompilerOptions(
        spreading=args.spread,
        prediction=PredictionMode(args.predict))
    try:
        if args.cycles:
            from repro.sim.cpu import run_cycle_accurate
            cpu = run_cycle_accurate(compile_source(text, options))
            print(cpu.stats.summary())
        elif args.run:
            from repro.sim.functional import run_program
            simulator = run_program(compile_source(text, options))
            stats = simulator.stats
            print(f"{stats.instructions} instructions, "
                  f"{stats.branches} branches "
                  f"({100 * stats.branch_fraction:.1f}%)")
        else:
            sys.stdout.write(compile_to_assembly(text, options))
    except (CompileError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
