"""The verification harness, plus property-based invariants on the
assembler layout and the memory substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.core import FoldPolicy
from repro.sim import CpuConfig, Memory
from repro.sim.verification import (
    VerificationError,
    verify_program,
)


class TestVerifyProgram:
    SOURCE = """
        .word a, 0
        .word b, 0
loop:   add a, $3
        and3 a, $1
        cmp.= Accum, $0
        iffjmpn odd
        add b, $1
odd:    cmp.s< a, $30
        iftjmpy loop
        halt
    """

    def test_agreement(self):
        result = verify_program(assemble(self.SOURCE))
        assert result.cycles > 0
        assert result.pipeline.executed_instructions \
            == result.functional.instructions

    @pytest.mark.parametrize("config", [
        CpuConfig(fold_policy=FoldPolicy.none()),
        CpuConfig(fold_policy=FoldPolicy.fold_all()),
        CpuConfig(icache_entries=8),
        CpuConfig(mem_latency=7),
        CpuConfig(prefetch_depth=2),
    ], ids=["no-fold", "fold-all", "tiny-cache", "slow-mem", "shallow"])
    def test_agreement_across_configs(self, config):
        verify_program(assemble(self.SOURCE), config)

    def test_divergence_detected(self, monkeypatch):
        program = assemble(self.SOURCE)
        from repro.sim import cpu as cpu_module
        original_run = cpu_module.CrispCpu.run

        def corrupted_run(self, max_cycles=50_000_000):
            stats = original_run(self, max_cycles)
            self.memory.write_word(program.symbol("a"), 999)
            return stats

        monkeypatch.setattr(cpu_module.CrispCpu, "run", corrupted_run)
        with pytest.raises(VerificationError, match="memory"):
            verify_program(program)


# ---- assembler layout properties -------------------------------------------

@st.composite
def label_programs(draw):
    """Programs with random block sizes and forward/backward branches."""
    blocks = draw(st.integers(2, 8))
    sizes = [draw(st.integers(0, 12)) for _ in range(blocks)]
    lines = []
    for index, size in enumerate(sizes):
        lines.append(f"L{index}:")
        lines.extend("    add *0x8100, $1" for _ in range(size))
        target = draw(st.integers(0, blocks - 1))
        lines.append(f"    cmp.s< *0x8104, $5")
        lines.append(f"    iftjmpn L{target}")
    lines.append("    halt")
    return "\n".join(lines)


class TestAssemblerProperties:
    @settings(max_examples=40, deadline=None)
    @given(label_programs())
    def test_addresses_strictly_increase(self, source):
        program = assemble(source)
        for prev, cur in zip(program.addresses, program.addresses[1:]):
            assert cur > prev

    @settings(max_examples=40, deadline=None)
    @given(label_programs())
    def test_lengths_tile_exactly(self, source):
        program = assemble(source)
        cursor = program.code_base
        for address, instruction in zip(program.addresses,
                                        program.instructions):
            assert address == cursor
            cursor += instruction.length_bytes()

    @settings(max_examples=40, deadline=None)
    @given(label_programs())
    def test_branch_targets_resolve_to_label_addresses(self, source):
        from repro.isa import BranchMode
        program = assemble(source)
        label_addresses = set(program.symbols.values())
        for address, instruction in zip(program.addresses,
                                        program.instructions):
            spec = instruction.branch
            if spec is None:
                continue
            if spec.mode is BranchMode.PC_RELATIVE:
                assert address + spec.value in label_addresses
            elif spec.mode is BranchMode.ABSOLUTE:
                assert spec.value in label_addresses

    @settings(max_examples=40, deadline=None)
    @given(label_programs())
    def test_image_roundtrip(self, source):
        from repro.isa.encoding import decode_instruction
        from repro.isa.parcels import PARCEL_BYTES
        program = assemble(source)
        image = program.parcel_image()
        parcels = [image[a] for a in sorted(image)]
        offset = 0
        for instruction in program.instructions:
            decoded = decode_instruction(parcels, offset)
            assert decoded == instruction
            offset += instruction.length_parcels()


# ---- memory properties ----------------------------------------------------------

class TestMemoryProperties:
    @given(st.integers(0, 2 ** 32 - 8), st.integers(0, 2 ** 32 - 1))
    def test_word_roundtrip(self, address, value):
        memory = Memory()
        memory.write_word(address, value)
        assert memory.read_word(address) == value

    @given(st.integers(0, 2 ** 32 - 4), st.integers(0, 0xFFFF))
    def test_parcel_roundtrip(self, address, value):
        memory = Memory()
        memory.write_parcel(address, value)
        assert memory.read_parcel(address) == value

    @given(st.integers(0, 1000), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 2 ** 32 - 1))
    def test_adjacent_words_independent(self, base, first, second):
        memory = Memory()
        memory.write_word(base, first)
        memory.write_word(base + 4, second)
        assert memory.read_word(base) == first
        assert memory.read_word(base + 4) == second

    def test_little_endian_overlap(self):
        memory = Memory()
        memory.write_word(0, 0x11223344)
        assert memory.read_byte(0) == 0x44
        assert memory.read_parcel(2) == 0x1122

    def test_unmapped_reads_zero(self):
        assert Memory().read_word(0xDEAD0000) == 0

