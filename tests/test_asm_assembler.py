"""Unit and integration tests for the assembler."""

import pytest

from repro.asm import AssemblyError, assemble, disassemble
from repro.isa import AddrMode, BranchMode, Opcode


FIGURE3_LOOP = """
        .entry main
        .word sum, 0
        .word odd, 0
        .word even, 0
        .word i, 0
        .word j, 0
main:   enter 0
_4:     add sum,i
        and3 i,1
        cmp.= Accum,0
        iftjmpy _5
        add odd,1
        jmp _6
_5:     add even,1
_6:     mov j,sum
        add i,1
        cmp.s< i,1024
        iftjmpy _4
        halt
"""


class TestBasicAssembly:
    def test_empty_program(self):
        program = assemble("")
        assert program.instructions == []

    def test_single_instruction(self):
        program = assemble("nop")
        assert len(program.instructions) == 1
        assert program.addresses == [0x1000]

    def test_addresses_follow_lengths(self):
        program = assemble("""
            nop
            mov *0x8000, $1
            nop
        """)
        # nop = 1 parcel, mov with absolute operand = 3 parcels
        assert program.addresses == [0x1000, 0x1002, 0x1008]

    def test_entry_defaults_to_code_base(self):
        assert assemble("nop").entry == 0x1000

    def test_entry_label(self):
        program = assemble(".entry start\nnop\nstart: halt")
        assert program.entry == program.symbols["start"]

    def test_custom_bases(self):
        program = assemble("nop", code_base=0x4000, data_base=0x9000)
        assert program.addresses == [0x4000]

    def test_org_directive(self):
        program = assemble(".org 0x2000\nnop")
        assert program.addresses == [0x2000]


class TestDataSegment:
    def test_word_layout(self):
        program = assemble(".word a, 7\n.word b, 1, 2\nnop")
        assert program.symbols["a"] == 0x8000
        assert program.symbols["b"] == 0x8004
        image = program.data_image()
        assert image[0x8000] == 7
        assert image[0x8004] == 1
        assert image[0x8008] == 2

    def test_reserve(self):
        program = assemble(".reserve buf, 4\n.word x, 9\nnop")
        assert program.symbols["x"] == 0x8010

    def test_negative_word_wraps(self):
        program = assemble(".word neg, -1\nnop")
        assert program.data_image()[0x8000] == 0xFFFFFFFF

    def test_reserve_keeps_the_final_dataorg(self):
        program = assemble(".reserve buf, 2\n.dataorg 0xFFFFFFF8\nhalt")
        assert program.symbols["buf"] == 0xFFFFFFF8
        assert sorted(program.data_image()) == [0xFFFFFFF8, 0xFFFFFFFC]

    @pytest.mark.parametrize("source, message", [
        (".reserve buf, -3\nnop",
         "line 1: .reserve buf: negative word count -3"),
        (".dataorg 0xFFFFFFF8\n.reserve buf, 4\nnop",
         "line 2: data symbol 'buf' at 0xfffffff8 (4 words) runs past "
         "0xFFFFFFFF"),
        (".reserve buf, 4\n.dataorg 0xFFFFFFF8\nnop",
         "line 1: data symbol 'buf' at 0xfffffff8 (4 words) runs past "
         "0xFFFFFFFF"),
        (".dataorg 0xFFFFFFFC\n.word a, 1\n.word b, 2\nnop",
         "line 3: data symbol 'b' at 0x100000000 (1 words) runs past "
         "0xFFFFFFFF"),
        (".dataorg 0xFFFFFFFC\n.word a, 1\n.reserve b, 0\nnop",
         "line 3: data symbol 'b' at 0x100000000 (0 words) runs past "
         "0xFFFFFFFF"),
        (".reserve buf, 0x4000000000000000\nnop",
         "line 1: data symbol 'buf' at 0x8000 (4611686018427387904 words) "
         "runs past 0xFFFFFFFF"),
    ], ids=["negative-count", "past-the-top", "dataorg-after-reserve",
            "word-past-the-top", "empty-reserve-past-the-top",
            "huge-count"])
    def test_data_outside_the_address_space_rejected(self, source, message):
        """Checked when data is laid out, before a reserved word is
        built, so a huge count costs nothing."""
        with pytest.raises(AssemblyError) as info:
            assemble(source)
        assert str(info.value) == message

    def test_duplicate_data_symbol_rejected(self):
        with pytest.raises(AssemblyError):
            assemble(".word a, 1\n.word a, 2\nnop")

    def test_symbol_operand_resolves_to_absolute(self):
        program = assemble(".word counter, 0\nadd counter, $1\nhalt")
        operand = program.instructions[0].operands[0]
        assert operand.mode is AddrMode.ABS
        assert operand.value == 0x8000

    def test_equ_resolves_to_immediate(self):
        program = assemble(".equ LIMIT, 1024\ncmp.s< Accum, LIMIT\nhalt")
        operand = program.instructions[0].operands[1]
        assert operand.mode is AddrMode.IMM
        assert operand.value == 1024

    def test_address_of_symbol(self):
        program = assemble(".word table, 1\nmov Accum, $table\nhalt")
        operand = program.instructions[0].operands[1]
        assert (operand.mode, operand.value) == (AddrMode.IMM, 0x8000)


class TestBranches:
    def test_short_backward_branch(self):
        program = assemble("loop: nop\njmp loop")
        branch = program.instructions[1]
        assert branch.opcode is Opcode.JMP
        assert branch.branch.mode is BranchMode.PC_RELATIVE
        assert branch.branch.value == -2

    def test_short_forward_branch(self):
        program = assemble("jmp done\nnop\ndone: halt")
        assert program.instructions[0].branch.value == 4

    def test_long_branch_when_out_of_range(self):
        filler = "mov *0x8000, $100\n" * 200  # 5 parcels each = 2000 bytes
        program = assemble(f"loop: nop\n{filler}jmp loop")
        branch = program.instructions[-1]
        assert branch.opcode is Opcode.JMPL
        assert branch.branch.mode is BranchMode.ABSOLUTE
        assert branch.branch.value == 0x1000

    def test_forced_long_form(self):
        program = assemble("loop: nop\njmpl loop")
        assert program.instructions[1].opcode is Opcode.JMPL

    def test_conditional_variants(self):
        program = assemble("""
x:      iftjmpy x
        iftjmpn x
        iffjmpy x
        iffjmpn x
""")
        opcodes = [i.opcode for i in program.instructions]
        assert opcodes == [Opcode.IFJMP_T_Y, Opcode.IFJMP_T_N,
                           Opcode.IFJMP_F_Y, Opcode.IFJMP_F_N]

    def test_conditional_long_promotion_keeps_sense(self):
        filler = "mov *0x8000, $100\n" * 200
        program = assemble(f"loop: nop\n{filler}iffjmpn loop")
        assert program.instructions[-1].opcode is Opcode.IFJMPL_F_N

    def test_call_always_long(self):
        program = assemble("f: return\nmain: call f")
        call = program.instructions[1]
        assert call.opcode is Opcode.CALL
        assert call.branch.mode is BranchMode.ABSOLUTE

    def test_indirect_targets(self):
        program = assemble("jmp (*0x2000)\njmp (8(sp))\nhalt")
        assert program.instructions[0].branch.mode is BranchMode.INDIRECT_ABS
        assert program.instructions[1].branch.mode is BranchMode.INDIRECT_SP

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("jmp nowhere")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("a: nop\na: halt")

    def test_layout_fixpoint_is_stable(self):
        # branch displacement straddling the short-branch limit: the layout
        # loop must converge with consistent addresses
        filler = "nop\n" * 509  # 509 * 2 = 1018 bytes, near the +1022 limit
        program = assemble(f"jmp done\n{filler}done: halt")
        branch = program.instructions[0]
        assert branch.branch.mode is BranchMode.PC_RELATIVE
        assert branch.branch.value == 1020


class TestFigure3Program:
    def test_assembles(self):
        program = assemble(FIGURE3_LOOP)
        assert program.entry == program.symbols["main"]
        mnemonics = [i.opcode.value for i in program.instructions]
        assert mnemonics.count("iftjmpy") == 2
        assert "and3" in mnemonics

    def test_all_loop_branches_are_one_parcel(self):
        # the paper: ~95% of branches use the one-parcel format; in this
        # tight loop every branch must be short
        program = assemble(FIGURE3_LOOP)
        for instruction in program.instructions:
            if instruction.is_branch:
                assert instruction.length_parcels() == 1

    def test_roundtrip_through_disassembler(self):
        program = assemble(FIGURE3_LOOP)
        image = program.parcel_image()
        parcels = [image[a] for a in sorted(image)]
        lines = disassemble(parcels, program.code_base)
        assert len(lines) == len(program.instructions)

    def test_listing_contains_labels(self):
        listing = assemble(FIGURE3_LOOP).listing()
        assert "_4:" in listing
        assert "main:" in listing
