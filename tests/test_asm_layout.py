"""Code layout and the assembler's per-assembly memos.

A statement whose operands read only literals, ``.equ`` constants and
data symbols is resolved to its Instruction once; a statement that reads
a code label is resolved again on every layout pass, because at ``.org 0``
a label address of 0..7 fits an in-parcel immediate. These tests pin the
layout results, the error order and the lifetime of the memos (one
assembly, never the process).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.asm import AssemblyError, assemble
from repro.isa.instructions import Instruction
from repro.lang.compiler import compile_to_assembly
from repro.workloads import FIGURE3


def _fingerprint(program) -> list:
    return [program.entry, program.addresses,
            [str(instruction) for instruction in program.instructions],
            sorted(program.symbols.items()),
            sorted(program.parcel_image().items()),
            sorted(program.data_image().items())]


_FRESH_PROCESS = (
    "import json, sys\n"
    "from repro.asm import assemble\n"
    "program = assemble(sys.stdin.read())\n"
    "print(json.dumps([program.entry, program.addresses,\n"
    "    [str(i) for i in program.instructions],\n"
    "    sorted(program.symbols.items()),\n"
    "    sorted(program.parcel_image().items()),\n"
    "    sorted(program.data_image().items())]))\n")


def _fingerprint_in_fresh_process(source: str) -> list:
    result = subprocess.run([sys.executable, "-c", _FRESH_PROCESS],
                            input=source, capture_output=True, text=True,
                            check=True)
    return json.loads(result.stdout)


def _org0(nops: int) -> str:
    return ".org 0\na: mov Accum, $b\n" + "nop\n" * nops + "b: halt\n"


class TestLabelOperandsAreResolvedEveryPass:
    @pytest.mark.parametrize("nops, parcels, label", [(2, 1, 6), (3, 3, 12)])
    def test_code_label_immediate_at_org_0(self, nops, parcels, label):
        program = assemble(_org0(nops))
        assert program.symbols["b"] == label
        assert program.instructions[0].length_parcels() == parcels
        assert program.instructions[0].operands[1].value == label

    def test_instructions_are_constructed_once(self, monkeypatch):
        """Assembling compiled Figure 3 builds one Instruction per
        assembled instruction: none is rebuilt on a later layout pass or
        in the final build."""
        text = compile_to_assembly(FIGURE3)
        built = []
        post_init = Instruction.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Instruction, "__post_init__", counting)
        program = assemble(text)
        assert len(program.instructions) == 21
        assert len(built) == len(program.instructions)


class TestMemosLiveForOneAssembly:
    @pytest.mark.parametrize("first, second, lengths", [
        (".equ K, 3\nmov Accum, $K\nhalt\n",
         ".equ K, 300\nmov Accum, $K\nhalt\n", (1, 3)),
        (".word x, 5\nmov Accum, x\nhalt\n",
         "mov Accum, x\nx: halt\n", (3, 3)),
    ], ids=["equ-value", "data-symbol-then-code-label"])
    def test_same_operand_text_back_to_back(self, first, second, lengths):
        programs = [assemble(first), assemble(second)]
        assert tuple(program.instructions[0].length_parcels()
                     for program in programs) == lengths
        for source, program in zip((first, second), programs):
            assert json.loads(json.dumps(_fingerprint(program))) \
                == _fingerprint_in_fresh_process(source)

    def test_code_label_operand_follows_its_own_program(self):
        data = assemble(".word x, 5\nmov Accum, x\nhalt\n")
        code = assemble("mov Accum, x\nx: halt\n")
        assert data.instructions[0].operands[1].value == 0x8000
        assert code.instructions[0].operands[1].value == 0x1006


class TestFirstBadLineIsReported:
    @pytest.mark.parametrize("source, message", [
        ("nop\nmov Accum, $nowhere\nadd 1, 2\n",
         "line 2: undefined symbol 'nowhere'"),
        ("nop\nadd 1, 2\nmov Accum, $nowhere\n",
         "line 2: add destination must be writable"),
    ], ids=["label-reading-first", "fixed-first"])
    def test_two_bad_lines(self, source, message):
        with pytest.raises(AssemblyError) as info:
            assemble(source)
        assert str(info.value) == message
