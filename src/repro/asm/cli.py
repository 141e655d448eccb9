"""``crisp-asm``: assemble a source file and print its listing."""

from __future__ import annotations

import argparse
import sys

from repro.asm.assembler import AssemblyError, assemble
from repro.cliargs import read_input


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crisp-asm",
        description="Assemble CRISP assembly and print the program listing.")
    parser.add_argument("source", help="assembly source file ('-' for stdin)")
    parser.add_argument("--code-base", type=lambda s: int(s, 0), default=0x1000,
                        help="code segment base address (default 0x1000)")
    parser.add_argument("--data-base", type=lambda s: int(s, 0), default=0x8000,
                        help="data segment base address (default 0x8000)")
    args = parser.parse_args(argv)

    text = read_input(parser, args.source)
    try:
        program = assemble(text, code_base=args.code_base,
                           data_base=args.data_base)
    except AssemblyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(program.listing())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
