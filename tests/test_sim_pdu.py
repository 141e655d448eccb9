"""Focused tests for the Prefetch and Decode Unit's timing model."""

import pytest

from repro.asm import assemble
from repro.core import FoldPolicy
from repro.core.folder import decode_entry, decode_span
from repro.isa.encoding import EncodingError
from repro.isa.parcels import PARCEL_BYTES
from repro.sim import CpuConfig, CrispCpu
from repro.sim.icache import DecodedICache
from repro.sim.memory import Memory
from repro.sim.pdu import PrefetchDecodeUnit
from repro.sim.reference import ReferenceCpu, ReferencePrefetchDecodeUnit
from repro.workloads import get_workload


def make_pdu(source, **kwargs):
    program = assemble(source)
    memory = Memory()
    memory.load_program(program)
    icache = DecodedICache(32)
    pdu = PrefetchDecodeUnit(memory, icache, FoldPolicy.crisp(), **kwargs)
    return pdu, icache, program


STRAIGHT = """
    nop
    nop
    nop
    nop
    halt
"""


class TestDemandTiming:
    def test_fill_latency(self):
        # demand -> memory (2) + PDR/PIR (2) + fill: entry present after
        # a handful of ticks, not before
        pdu, icache, program = make_pdu(STRAIGHT, mem_latency=2,
                                        decode_latency=2)
        pdu.demand(program.entry)
        ticks = 0
        while not icache.probe(program.entry):
            pdu.tick()
            ticks += 1
            assert ticks < 20
        assert ticks >= 4  # memory + decode pipeline can't be instant

    def test_higher_memory_latency_delays_fill(self):
        def fill_time(latency):
            pdu, icache, program = make_pdu(STRAIGHT, mem_latency=latency)
            pdu.demand(program.entry)
            ticks = 0
            while not icache.probe(program.entry):
                pdu.tick()
                ticks += 1
            return ticks

        assert fill_time(8) > fill_time(1)

    def test_demand_is_idempotent_while_fetching(self):
        pdu, icache, program = make_pdu(STRAIGHT)
        pdu.demand(program.entry)
        pdu.tick()
        accesses = pdu.memory_accesses
        pdu.demand(program.entry)  # same address: no restart
        pdu.tick()
        assert pdu.memory_accesses == accesses

    def test_redirect_cancels_old_stream(self):
        pdu, icache, program = make_pdu(STRAIGHT)
        pdu.demand(program.entry)
        for _ in range(3):
            pdu.tick()
        pdu.demand(program.addresses[3])
        for _ in range(12):
            pdu.tick()
        assert icache.probe(program.addresses[3])


class TestPrefetch:
    def test_prefetch_runs_ahead(self):
        pdu, icache, program = make_pdu(STRAIGHT, prefetch_depth=16)
        pdu.demand(program.entry)
        for _ in range(40):
            pdu.tick()
        # every instruction decoded without further demands
        assert all(icache.probe(address) for address in program.addresses)

    def test_prefetch_depth_limits_runahead(self):
        pdu, icache, program = make_pdu(STRAIGHT, prefetch_depth=2)
        pdu.demand(program.entry)
        for _ in range(40):
            pdu.tick()
        assert pdu.decoded_entries <= 2

    def test_prefetch_follows_predicted_taken_branch(self):
        source = """
start:      add *0x8100, $1
            jmp target
            nop
            nop
target:     halt
        """
        pdu, icache, program = make_pdu(source)
        pdu.demand(program.symbols["start"])
        for _ in range(40):
            pdu.tick()
        # the fall-through nops are never on the predicted path
        assert icache.probe(program.symbols["target"])
        assert not icache.probe(program.addresses[2])

    def test_prefetch_stops_at_dynamic_target(self):
        source = """
            nop
            return
            nop
        """
        pdu, icache, program = make_pdu(source)
        pdu.demand(program.addresses[0])
        for _ in range(40):
            pdu.tick()
        assert icache.probe(program.addresses[1])  # the return itself
        assert pdu.decode_pc is None  # waiting for the EU

    def test_prefetch_stops_after_halt(self):
        pdu, icache, program = make_pdu(STRAIGHT)
        pdu.demand(program.entry)
        for _ in range(60):
            pdu.tick()
        assert pdu.decode_pc is None


class TestQueueBehaviour:
    def test_five_parcel_instruction_needs_two_fetches(self):
        source = """
            mov *0x8000, $123456
            halt
        """
        pdu, icache, program = make_pdu(source, mem_latency=1)
        pdu.demand(program.entry)
        ticks = 0
        while not icache.probe(program.entry):
            pdu.tick()
            ticks += 1
            assert ticks < 30
        assert pdu.memory_accesses >= 2  # 5 parcels > one 4-parcel access

    def test_fold_peek_waits_for_next_parcel(self):
        # a 3-parcel body at the end of a 4-parcel block: the fold peek
        # needs the next block before the entry can decode
        source = """
            nop
            add *0x8100, $1
            jmp done
done:       halt
        """
        pdu, icache, program = make_pdu(source)
        pdu.demand(program.entry)
        for _ in range(40):
            pdu.tick()
        entry_address = program.addresses[1]
        assert icache.probe(entry_address)
        entry = icache.lookup(entry_address)
        assert entry is not None and entry.is_folded


class TestEndToEndMissCosts:
    def test_cold_start_overhead_band(self):
        # the paper charges ~50 cycles of startup overhead; ours is the
        # same order of magnitude
        source = """
            .word x, 0
            add x, $1
            halt
        """
        cpu = CrispCpu(assemble(source))
        cpu.run()
        assert 5 < cpu.stats.cycles < 60


# ---- decode memo -------------------------------------------------------------

ILLEGAL_PARCEL = 0x3F << 10  #: opcode index past the opcode table

FOLD_PAIR = """
    .word x, 0
start:      add x, $1
            jmp next
next:       halt
"""


def counting_decodes(pdu):
    """Wrap the PDU's folder so fresh decodes are counted."""
    calls = []
    decode = pdu.folder.decode

    def counted(pc):
        calls.append(pc)
        return decode(pc)

    pdu.folder.decode = counted
    return calls


class TestDecodeMemo:
    WINDOW = PrefetchDecodeUnit.QUEUE_PARCELS

    def test_validated_hit_returns_identical_entry(self):
        pdu, _, program = make_pdu(FOLD_PAIR)
        calls = counting_decodes(pdu)
        pc = program.symbols["start"]
        first = pdu._decode(pc, self.WINDOW)
        second = pdu._decode(pc, self.WINDOW)
        assert first.is_folded
        assert second is first
        assert calls == [pc]
        assert pdu.decode_memo_hits == 1

    def test_hit_still_waits_for_the_window(self):
        pdu, _, program = make_pdu(FOLD_PAIR)
        pc = program.symbols["start"]
        needed = pdu.folder.parcels_needed(pc)
        pdu._decode(pc, self.WINDOW)
        assert pdu._decode(pc, needed - 1) is None
        assert pdu._decode(pc, needed) is not None

    def test_changed_parcel_anywhere_in_span_redecodes(self):
        probe, _, program = make_pdu(FOLD_PAIR)
        pc = program.symbols["start"]
        span = decode_span(probe.memory.read_parcel,
                           probe._decode(pc, self.WINDOW))
        assert span == 4  # 3-parcel add + the folded jmp
        for index in range(span):
            pdu, _, _ = make_pdu(FOLD_PAIR)
            calls = counting_decodes(pdu)
            original = pdu._decode(pc, self.WINDOW)
            address = pc + index * PARCEL_BYTES
            pdu.memory.write_parcel(
                address, pdu.memory.read_parcel(address) ^ 1)
            try:
                entry = pdu._decode(pc, self.WINDOW)
            except EncodingError:
                entry = None
            assert len(calls) == 2, index
            assert entry is not original
            if entry is not None:
                assert entry == decode_entry(pdu.memory.read_parcel, pc,
                                             FoldPolicy.crisp())

    def test_parcel_past_the_span_does_not_redecode(self):
        pdu, _, program = make_pdu(FOLD_PAIR + "    nop\n")
        calls = counting_decodes(pdu)
        pc = program.symbols["start"]
        entry = pdu._decode(pc, self.WINDOW)
        end = pc + entry.length_bytes
        pdu.memory.write_parcel(end, pdu.memory.read_parcel(end) ^ 1)
        assert pdu._decode(pc, self.WINDOW) is entry
        assert calls == [pc]

    def test_undecodable_pc_is_not_memoized(self):
        pdu, _, program = make_pdu(STRAIGHT)
        pc = program.entry
        pdu.memory.write_parcel(pc, ILLEGAL_PARCEL)
        with pytest.raises(EncodingError):
            pdu._decode(pc, self.WINDOW)
        assert pc not in pdu._memo
        pdu.demand(pc)
        for _ in range(10):
            pdu.tick()
        assert pdu.decode_pc is None  # stopped, waiting for a demand
        assert pc not in pdu._memo

    def test_reference_pdu_never_memoizes(self):
        program = assemble(FOLD_PAIR)
        memory = Memory()
        memory.load_program(program)
        pdu = ReferencePrefetchDecodeUnit(memory, DecodedICache(32),
                                          FoldPolicy.crisp())
        calls = counting_decodes(pdu)
        pc = program.symbols["start"]
        assert pdu._decode(pc, self.WINDOW) == pdu._decode(pc, self.WINDOW)
        assert calls == [pc, pc]
        assert not pdu._memo and pdu.decode_memo_hits == 0

    @pytest.mark.parametrize("policy", (
        FoldPolicy.crisp(), FoldPolicy.none(), FoldPolicy.fold_all()))
    def test_decode_span_matches_the_parcels_read(self, policy):
        """decode_span names exactly the contiguous parcels decode_entry
        reads — past the end of code too, where the follower does not
        decode."""
        for name in ("alternating", "dhry_like", "strings"):
            program = get_workload(name).compiled()
            memory = Memory()
            memory.load_program(program)
            last = program.addresses[-1]
            for pc in (*program.addresses, last + 2, last + 4):
                reads = []

                def read(address):
                    reads.append(address)
                    return memory.read_parcel(address)

                try:
                    entry = decode_entry(read, pc, policy)
                except EncodingError:
                    continue
                span = decode_span(memory.read_parcel, entry)
                assert sorted(set(reads)) == [
                    pc + i * PARCEL_BYTES for i in range(span)], (name, pc)


class TestSelfModifyingCode:
    """Patch code mid-run in both kernels: the fast kernel's decode memo
    must notice, the reference kernel decodes afresh every time."""

    # an 8-entry cache cannot hold the loop, so every iteration
    # re-decodes (through the memo, on the fast kernel) every entry
    LOOP = """
        .entry start
        .word x, 0
        .word n, 0
start:
loop:   add x, $1
        {follower}
next:   add x, $2
        add x, $3
        add x, $4
        add x, $5
        add x, $6
        add x, $7
        add x, $8
        add x, $9
        add x, $10
        add x, $11
        add n, $1
        cmp.s< n, $40
        iftjmpy loop
        halt
"""
    ORIGINAL = LOOP.format(follower="jmp next")

    @staticmethod
    def patch_between(source, replacement):
        """The one parcel that differs between two same-layout images."""
        before = assemble(source).parcel_image()
        after = assemble(replacement).parcel_image()
        assert before.keys() == after.keys()
        changed = [address for address in before
                   if before[address] != after[address]]
        assert len(changed) == 1
        (address,) = changed
        return address, before[address], after[address]

    def run_patched(self, patches):
        """Lock-step both kernels, writing ``(cycle, address, parcel)``
        patches into both memories at the same cycle."""
        program = assemble(self.ORIGINAL)
        config = CpuConfig(icache_entries=8)
        cpus = (CrispCpu(program, config), ReferenceCpu(program, config))
        cycle = 0
        for at, address, parcel in patches:
            for cpu in cpus:
                for _ in range(at - cycle):
                    cpu.step()
                assert not cpu.halted
                cpu.memory.write_parcel(address, parcel)
            cycle = at
        for cpu in cpus:
            cpu.run()
        return cpus

    def assert_identical(self, fast, slow):
        assert fast.stats.as_dict() == slow.stats.as_dict()
        for register in ("sp", "accum", "flag", "halted"):
            assert (getattr(fast.state, register)
                    == getattr(slow.state, register)), register
        assert fast.memory.snapshot() == slow.memory.snapshot()
        assert fast.pdu.decode_memo_hits > 0

    def test_patched_loop_body_parcel(self):
        address, _, new = self.patch_between(
            self.ORIGINAL, self.ORIGINAL.replace("add x, $5", "add x, $6"))
        fast, slow = self.run_patched([(400, address, new)])
        self.assert_identical(fast, slow)
        unpatched = CrispCpu(assemble(self.ORIGINAL),
                             CpuConfig(icache_entries=8))
        unpatched.run()
        assert fast.read_symbol("x") != unpatched.read_symbol("x")

    def test_follower_parcel_folds_and_unfolds(self):
        address, old, new = self.patch_between(
            self.ORIGINAL, self.LOOP.format(follower="nop"))
        fast, slow = self.run_patched([(400, address, new),
                                       (900, address, old)])
        self.assert_identical(fast, slow)
        unpatched = CrispCpu(assemble(self.ORIGINAL),
                             CpuConfig(icache_entries=8))
        unpatched.run()
        # while the nop stood there, nothing folded into the first add
        assert (fast.stats.folded_branches
                < unpatched.stats.folded_branches)
        assert fast.stats.folded_branches > 0
