"""Unit tests for instruction construction, classification and lengths."""

import pytest

from repro.isa import (
    BranchKind,
    BranchMode,
    BranchSpec,
    Instruction,
    Opcode,
    OpClass,
    absolute,
    acc,
    acc_ind,
    imm,
    sp_off,
)
from repro.isa.instructions import nop, halt, resolve_target
from repro.isa.operands import Operand, AddrMode


def short_jmp(displacement):
    return Instruction(Opcode.JMP, (), BranchSpec(BranchMode.PC_RELATIVE, displacement))


class TestOperands:
    def test_acc_takes_no_value(self):
        with pytest.raises(ValueError):
            Operand(AddrMode.ACC, 4)

    def test_negative_sp_offset_rejected(self):
        with pytest.raises(ValueError):
            sp_off(-4)

    def test_immediate_range_check(self):
        with pytest.raises(ValueError):
            imm(1 << 40)

    def test_sp_offset_range_check(self):
        """A stack offset the 32-bit extension cannot carry would decode
        as a different offset than the instruction holds."""
        assert sp_off(0xFFFFFFFF).value == 0xFFFFFFFF
        with pytest.raises(ValueError, match="stack offset out of 32-bit"):
            sp_off(0x100000000)

    def test_memory_classification(self):
        assert absolute(0x1000).is_memory
        assert sp_off(8).is_memory
        assert acc_ind().is_memory
        assert not acc().is_memory
        assert not imm(3).is_memory

    def test_imm_not_writable(self):
        assert not imm(1).is_writable
        assert acc().is_writable

    def test_short_encodability(self):
        assert imm(7).fits_in_parcel
        assert imm(-8).fits_in_parcel
        assert not imm(8).fits_in_parcel
        assert sp_off(36).fits_in_parcel
        assert not sp_off(40).fits_in_parcel
        assert not sp_off(6).fits_in_parcel  # unaligned
        assert not absolute(0).fits_in_parcel


class TestConstruction:
    def test_alu2_operand_count_enforced(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, (acc(),))

    def test_alu2_dst_must_be_writable(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, (imm(1), acc()))

    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.JMP)

    def test_non_branch_rejects_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, (acc(), imm(1)),
                        BranchSpec(BranchMode.PC_RELATIVE, 0))

    def test_short_branch_must_be_pc_relative(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.JMP, (), BranchSpec(BranchMode.ABSOLUTE, 0x1000))

    def test_long_branch_must_not_be_pc_relative(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.JMPL, (), BranchSpec(BranchMode.PC_RELATIVE, 4))

    def test_pc_relative_range_enforced(self):
        with pytest.raises(ValueError):
            BranchSpec(BranchMode.PC_RELATIVE, 2048)
        with pytest.raises(ValueError):
            BranchSpec(BranchMode.PC_RELATIVE, 3)  # unaligned


class TestClassification:
    def test_cmp_is_only_flag_setter(self):
        flag_setters = [op for op in Opcode if _build_any(op).sets_flag]
        assert all(op.value.startswith("cmp") for op in flag_setters)
        assert len(flag_setters) == 10

    def test_branch_sense(self):
        assert short_jmp(4).branch_sense is BranchKind.ALWAYS
        taken_true = Instruction(
            Opcode.IFJMP_T_Y, (), BranchSpec(BranchMode.PC_RELATIVE, 4))
        assert taken_true.branch_sense is BranchKind.IF_TRUE
        assert taken_true.predicted_taken
        not_taken_false = Instruction(
            Opcode.IFJMP_F_N, (), BranchSpec(BranchMode.PC_RELATIVE, 4))
        assert not_taken_false.branch_sense is BranchKind.IF_FALSE
        assert not not_taken_false.predicted_taken

    def test_return_is_branch_without_spec(self):
        ret = Instruction(Opcode.RETURN)
        assert ret.is_branch
        assert ret.branch is None

    def test_call_is_branch(self):
        call = Instruction(Opcode.CALL, (), BranchSpec(BranchMode.ABSOLUTE, 0x2000))
        assert call.is_branch
        assert not call.is_conditional_branch


class TestLengths:
    def test_one_parcel_alu(self):
        assert Instruction(Opcode.ADD, (sp_off(4), imm(1))).length_parcels() == 1

    def test_three_parcel_alu_one_extension(self):
        assert Instruction(Opcode.ADD, (absolute(0x1000), imm(1))).length_parcels() == 3

    def test_five_parcel_alu_two_extensions(self):
        instr = Instruction(Opcode.ADD, (absolute(0x1000), imm(100000)))
        assert instr.length_parcels() == 5

    def test_short_branch_is_one_parcel(self):
        assert short_jmp(-1024).length_parcels() == 1

    def test_long_branch_is_three_parcels(self):
        instr = Instruction(Opcode.JMPL, (), BranchSpec(BranchMode.ABSOLUTE, 0x10))
        assert instr.length_parcels() == 3

    def test_conditional_long_branch(self):
        instr = Instruction(
            Opcode.IFJMPL_T_Y, (), BranchSpec(BranchMode.ABSOLUTE, 0x10))
        assert instr.length_parcels() == 3

    def test_enter_short_and_long(self):
        assert Instruction(Opcode.ENTER, (imm(64),)).length_parcels() == 1
        assert Instruction(Opcode.ENTER, (imm(4096),)).length_parcels() == 3

    def test_misc_one_parcel(self):
        assert nop().length_parcels() == 1
        assert halt().length_parcels() == 1
        assert Instruction(Opcode.RETURN).length_parcels() == 1

    def test_length_bytes(self):
        assert nop().length_bytes() == 2


class TestResolveTarget:
    def test_pc_relative(self):
        assert resolve_target(short_jmp(-8), 0x100, 0, lambda a: 0) == 0xF8

    def test_absolute(self):
        instr = Instruction(Opcode.JMPL, (), BranchSpec(BranchMode.ABSOLUTE, 0x4242))
        assert resolve_target(instr, 0, 0, lambda a: 0) == 0x4242

    def test_indirect_absolute(self):
        instr = Instruction(
            Opcode.JMPL, (), BranchSpec(BranchMode.INDIRECT_ABS, 0x200))
        memory = {0x200: 0x3000}
        assert resolve_target(instr, 0, 0, memory.__getitem__) == 0x3000

    def test_indirect_sp(self):
        instr = Instruction(
            Opcode.JMPL, (), BranchSpec(BranchMode.INDIRECT_SP, 8))
        memory = {0x1008: 0x5000}
        assert resolve_target(instr, 0, 0x1000, memory.__getitem__) == 0x5000

    def test_non_branch_raises(self):
        with pytest.raises(ValueError):
            resolve_target(nop(), 0, 0, lambda a: 0)


def _build_any(opcode):
    """Build a syntactically valid instruction for any opcode."""
    from repro.isa.opcodes import opcode_class, is_short_branch_opcode
    cls = opcode_class(opcode)
    if cls in (OpClass.ALU2, OpClass.ALU3, OpClass.CMP):
        return Instruction(opcode, (acc(), imm(0)))
    if cls is OpClass.FRAME:
        return Instruction(opcode, (imm(8),))
    if cls in (OpClass.NOP, OpClass.HALT, OpClass.RETURN):
        return Instruction(opcode)
    if is_short_branch_opcode(opcode):
        return Instruction(opcode, (), BranchSpec(BranchMode.PC_RELATIVE, 4))
    return Instruction(opcode, (), BranchSpec(BranchMode.ABSOLUTE, 0x1000))
