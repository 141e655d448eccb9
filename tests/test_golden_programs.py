"""Byte-for-byte pins of the toolchain's output.

The benchmark's ``compile`` workload compiles Figure 3, the workload
suite and ``synthetic_suite(0)`` under four option sets. Each of those 68
programs is pinned by one sha256 over its entry, instruction addresses,
symbol table, parcel image and data image, so a change to the compiler
or the assembler that moves a single parcel or data word fails here with
the names of the programs it moved. Regenerate the file only when a
change is meant to move the toolchain's output::

    PYTHONPATH=src python tests/test_golden_programs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.asm.program import Program
from repro.lang import CompilerOptions, PredictionMode
from repro.lang.compiler import compile_source
from repro.workloads import FIGURE3, SUITE, synthetic_suite

GOLDEN = Path(__file__).parent / "golden" / "compile_programs.json"

#: the option sets of the benchmark's ``compile`` workload
OPTIONS = {
    "default": CompilerOptions(),
    "spreading": CompilerOptions(spreading=True),
    "spreading+simplify": CompilerOptions(spreading=True, simplify=True),
    "not-taken": CompilerOptions(prediction=PredictionMode.NOT_TAKEN),
}


def compile_items() -> list[tuple[str, str, CompilerOptions]]:
    """(label, mini-C source, options) for every ``compile`` item."""
    sources = {"figure3": FIGURE3}
    sources.update((name, program.source)
                   for name, program in SUITE.items())
    sources.update((name, program.source)
                   for name, program in synthetic_suite(0).items())
    return [(f"{name}/{label}", source, options)
            for name, source in sources.items()
            for label, options in OPTIONS.items()]


def program_digest(program: Program) -> str:
    """sha256 over everything a simulator loads from ``program``."""
    document = {
        "entry": program.entry,
        "addresses": program.addresses,
        "symbols": sorted(program.symbols.items()),
        "parcels": sorted(program.parcel_image().items()),
        "data": sorted(program.data_image().items()),
    }
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()


def digests() -> dict[str, str]:
    return {label: program_digest(compile_source(source, options))
            for label, source, options in compile_items()}


def test_compile_items_match_the_benchmark_workload():
    assert len(compile_items()) == 68


def test_every_compiled_program_is_byte_identical():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    moved = [label for label in expected if got[label] != expected[label]]
    assert not moved, f"compiled programs differ: {moved}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
