"""The retained reference kernel: the pre-fast-path cycle simulator.

This module is a deliberate snapshot of the execution unit and CPU step
loop as they existed *before* the fast-kernel refactor (pre-decoded
dispatch tables, latch reuse, batched counters).  It re-derives every
decoded-entry control bit and instruction property on each access — the
cost model of the original code — and allocates a fresh stage latch per
fetch, exactly as the original did.

Two consumers depend on it staying put:

* the differential tests (``tests/test_sim_fastpath.py``) prove the fast
  kernel reproduces this kernel's :class:`~repro.sim.stats.PipelineStats`
  bit for bit over the Table-4 cases, the workload suite and randomly
  generated programs;
* ``benchmarks/bench_sim_throughput.py`` uses it as the serial baseline
  the fast path's cycles/sec target is measured against.

It intentionally does **not** share the optimised helpers: the point is
an independently-written (well: independently-preserved) step function.
Its PDU is the production timing model minus the decode table
(:class:`ReferencePrefetchDecodeUnit`), so every decode runs afresh.
Interrupt delivery is the one feature not carried over — the reference
exists to check the steady-state pipeline, and the interrupt tests drive
the real kernel directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.program import Program
from repro.core.decoded import DecodedEntry
from repro.isa.opcodes import (
    ALU_FUNCTIONS,
    BranchKind,
    CONDITION_FUNCTIONS,
    OpClass,
    Opcode,
    opcode_class,
    opcode_condition,
)
from repro.isa.parcels import PARCEL_BYTES, to_u16, to_u32
from repro.obs.events import EventBus
from repro.sim.icache import DecodedICache
from repro.sim.memory import Memory
from repro.sim.dynfold import DynamicFoldUnit, ShadowRecord
from repro.sim.pdu import PrefetchDecodeUnit
from repro.sim.semantics import (
    MachineState,
    SimulationError,
    SimulationHungError,
)
from repro.sim.stats import PipelineStats

# ---- per-access property derivation (the pre-refactor cost model) --------


def _length_parcels(instruction) -> int:
    cls = opcode_class(instruction.opcode)
    if cls in (OpClass.RETURN, OpClass.NOP, OpClass.HALT):
        return 1
    if cls is OpClass.FRAME:
        return 1 if 0 <= instruction.operands[0].value <= 1022 else 3
    if cls in (OpClass.JMP, OpClass.CONDJMP, OpClass.CALL):
        from repro.isa.opcodes import is_short_branch_opcode
        return 1 if is_short_branch_opcode(instruction.opcode) else 3
    extensions = sum(0 if op.fits_in_parcel else 1
                     for op in instruction.operands)
    return 1 + 2 * extensions


def _length_bytes(instruction) -> int:
    return _length_parcels(instruction) * PARCEL_BYTES


def _sets_cc(entry: DecodedEntry) -> bool:
    return (entry.body is not None
            and opcode_class(entry.body.opcode) is OpClass.CMP)


def _uses_cc(entry: DecodedEntry) -> bool:
    return (entry.branch is not None
            and opcode_class(entry.branch.opcode) is OpClass.CONDJMP)


def _is_folded(entry: DecodedEntry) -> bool:
    return entry.body is not None and entry.branch is not None


def _branch_pc(entry: DecodedEntry) -> int:
    if entry.body is None:
        return entry.address
    return entry.address + _length_bytes(entry.body)


def _branch_sense(entry: DecodedEntry) -> BranchKind:
    from repro.isa.opcodes import condjmp_sense
    if opcode_class(entry.branch.opcode) is OpClass.CONDJMP:
        return condjmp_sense(entry.branch.opcode)
    return BranchKind.ALWAYS


def _taken_when(entry: DecodedEntry, flag: bool) -> bool:
    sense = _branch_sense(entry)
    if sense is BranchKind.ALWAYS:
        return True
    if sense is BranchKind.IF_TRUE:
        return flag
    return not flag


def _predicted_taken(entry: DecodedEntry) -> bool:
    from repro.isa.opcodes import condjmp_predicted_taken
    return condjmp_predicted_taken(entry.branch.opcode)


def _dyn_foldable(entry: DecodedEntry) -> bool:
    return (_uses_cc(entry) and entry.body is not None
            and entry.next_pc is not None)


def _resolve_target(instruction, pc: int, sp: int, read_word) -> int:
    from repro.isa.instructions import BranchMode
    from repro.isa.parcels import to_s32
    spec = instruction.branch
    if spec.mode is BranchMode.PC_RELATIVE:
        return pc + to_s32(spec.value)
    if spec.mode is BranchMode.ABSOLUTE:
        return spec.value
    if spec.mode is BranchMode.INDIRECT_ABS:
        return read_word(spec.value)
    return read_word(sp + spec.value)


class ReferenceMemory(Memory):
    """Byte-at-a-time word/parcel access, as before the refactor."""

    def read_parcel(self, address: int) -> int:
        return self.read_byte(address) | (self.read_byte(address + 1) << 8)

    def write_parcel(self, address: int, value: int) -> None:
        value = to_u16(value)
        self.write_byte(address, value & 0xFF)
        self.write_byte(address + 1, value >> 8)

    def read_word(self, address: int) -> int:
        return (self.read_byte(address)
                | (self.read_byte(address + 1) << 8)
                | (self.read_byte(address + 2) << 16)
                | (self.read_byte(address + 3) << 24))

    def write_word(self, address: int, value: int) -> None:
        value = to_u32(value)
        for i in range(4):
            self.write_byte(address + i, (value >> (8 * i)) & 0xFF)


class ReferencePrefetchDecodeUnit(PrefetchDecodeUnit):
    """The PDU without a decode table: every decode goes through the
    branch folder and none is recorded, so fast-vs-reference
    differentials check the fast kernel's table."""

    def _decode(self, pc: int, available: int) -> DecodedEntry | None:
        if available < self.folder.parcels_needed(pc):
            return None
        return self.folder.decode(pc)


def _execute(state: MachineState, instruction, pc: int):
    """The original architectural step: if-chain over opcode classes.

    Returns ``(next_pc, halted)``; mutates ``state``.
    """
    opcode = instruction.opcode
    cls = opcode_class(opcode)
    sequential = pc + _length_bytes(instruction)

    if cls is OpClass.HALT:
        state.halted = True
        return sequential, True
    if cls is OpClass.NOP:
        return sequential, False

    if cls is OpClass.ALU2:
        dst, src = instruction.operands
        left = state.read_operand(dst)
        right = state.read_operand(src)
        state.write_operand(dst, ALU_FUNCTIONS[opcode](left, right))
        return sequential, False

    if cls is OpClass.ALU3:
        left = state.read_operand(instruction.operands[0])
        right = state.read_operand(instruction.operands[1])
        state.accum = to_u32(ALU_FUNCTIONS[opcode](left, right))
        return sequential, False

    if cls is OpClass.CMP:
        left = state.read_operand(instruction.operands[0])
        right = state.read_operand(instruction.operands[1])
        state.flag = CONDITION_FUNCTIONS[opcode_condition(opcode)](left,
                                                                   right)
        return sequential, False

    if cls is OpClass.FRAME:
        size = instruction.operands[0].value
        if opcode is Opcode.ENTER:
            state.sp = to_u32(state.sp - size)
        else:
            state.sp = to_u32(state.sp + size)
        return sequential, False

    raise SimulationError(
        f"reference EU asked to execute branch opcode {opcode}")


@dataclass
class _Slot:
    """One pipeline stage latch, allocated per fetch as before."""

    entry: DecodedEntry
    seq: int
    valid: bool = True
    chosen_taken: bool | None = None
    other_pc: int | None = None
    governing_seq: int | None = None
    resolved: bool = True
    speculated: bool = False
    shadow: ShadowRecord | None = None


class ReferenceExecutionUnit:
    """The pre-refactor three-stage EU, preserved verbatim (plus the
    dynamic-fold verification path, mirrored from the fast kernel in
    this kernel's re-derive-everything style)."""

    def __init__(self, state: MachineState, stats: PipelineStats,
                 obs: EventBus, dyn: DynamicFoldUnit | None = None,
                 inject: str | None = None) -> None:
        self.state = state
        self.stats = stats
        self.obs = obs
        self._dyn = dyn
        self._inject_wrong = inject == "always-wrong"
        self._p_branch = obs.counter("branch.executed")
        self._p_folded = obs.counter("fold.succeeded")
        self._p_mispredict = obs.counter("mispredict.count")
        self._p_penalty = obs.counter("mispredict.penalty_cycles")
        self._p_squash = obs.counter("squash.slots")
        self._p_override = obs.counter("zero_cost.overrides")
        self._p_interlock = obs.counter("cc.interlock")
        self._p_interrupt = obs.counter("eu.interrupts")
        self._p_dynfold = obs.counter("fold.dynamic")
        self._p_verify_fail = obs.counter("fold.verify_fail")
        self._p_recovery = obs.counter("recovery.flush_cycles")
        self.ir: _Slot | None = None
        self.or_: _Slot | None = None
        self.rr: _Slot | None = None
        self.ir_next_pc: int | None = state.pc
        self.halted = False
        self._seq = 0
        self._redirected = False
        self.retire_next_pc: int = state.pc

    def _stage_of(self, slot: _Slot) -> str:
        if slot is self.rr:
            return "RR"
        if slot is self.or_:
            return "OR"
        return "IR"

    def _squash_younger(self, slot: _Slot, fetched: _Slot | None) -> None:
        order = [self.rr, self.or_, self.ir, fetched]
        seen = False
        for candidate in order:
            if candidate is slot:
                seen = True
                continue
            if seen and candidate is not None and candidate.valid:
                candidate.valid = False
                self.stats.squashed_slots += 1
                self._p_squash.inc()

    def tick(self, fetched_entry: DecodedEntry | None) -> None:
        fetched = None
        if fetched_entry is not None:
            self._seq += 1
            fetched = _Slot(fetched_entry, self._seq)

        self._redirected = False
        if self.rr is None or not self.rr.valid:
            self.stats.stall_cycles += 1
        self._execute_rr(fetched)

        self.rr, self.or_, self.ir = self.or_, self.ir, fetched
        if self.ir is not None and self.ir.valid:
            self._select_path(self.ir)

    def _execute_rr(self, fetched: _Slot | None) -> None:
        slot = self.rr
        if slot is None or not slot.valid:
            return
        entry = slot.entry

        self.stats.issued_instructions += 1
        self.retire_next_pc = entry.address + entry.length_bytes

        if entry.body is not None:
            _, halted = _execute(self.state, entry.body, entry.address)
            self.stats.executed_instructions += 1
            self.stats.execution.record(
                entry.body.opcode.value,
                is_branch=False, is_conditional=False, taken=False,
                one_parcel=_length_parcels(entry.body) == 1)
            if halted:
                self.halted = True
                return

        if _sets_cc(entry):
            self._resolve_dependents(slot, fetched)

        if entry.branch is not None:
            self._execute_branch_part(slot, fetched)

    def _execute_branch_part(self, slot: _Slot,
                             fetched: _Slot | None) -> None:
        entry = slot.entry
        branch = entry.branch
        state = self.state
        sequential = entry.address + entry.length_bytes
        cls = opcode_class(branch.opcode)

        if _is_folded(entry):
            self.stats.folded_branches += 1
            self._p_folded.inc(site=_branch_pc(entry))
        self.stats.executed_instructions += 1

        if cls is OpClass.RETURN:
            if branch.opcode is Opcode.RETI:
                state.flag = bool(state.memory.read_word(state.sp) & 1)
                state.sp = to_u32(state.sp + 4)
            target = state.memory.read_word(state.sp)
            state.sp = to_u32(state.sp + 4)
            self._redirect(target)
            self.retire_next_pc = target
            self._record_branch(slot, taken=True)
            return

        if entry.next_pc is None:  # dynamic target
            taken = (_taken_when(entry, state.flag)
                     if _uses_cc(entry) else True)
            if taken:
                target = _resolve_target(branch, _branch_pc(entry), state.sp,
                                         state.memory.read_word)
            else:
                target = sequential
            if cls is OpClass.CALL:
                state.sp = to_u32(state.sp - 4)
                state.memory.write_word(state.sp, sequential)
            self._redirect(target)
            self.retire_next_pc = target
            self._record_branch(slot, taken=taken)
            return

        if cls is OpClass.CALL:
            state.sp = to_u32(state.sp - 4)
            state.memory.write_word(state.sp, sequential)
            self.retire_next_pc = entry.next_pc
            self._record_branch(slot, taken=True)
            return

        if not _uses_cc(entry):
            self.retire_next_pc = entry.next_pc
            self._record_branch(slot, taken=True)
            return

        if not slot.resolved:
            correct = _taken_when(entry, self.state.flag)
            slot.resolved = True
            if slot.chosen_taken != correct:
                self.stats.mispredictions += 1
                self.stats.misprediction_penalty_cycles += 3
                self._p_mispredict.inc(stage="RR", folded=False,
                                       site=_branch_pc(entry))
                self._p_penalty.inc(3, site=_branch_pc(entry))
                slot.chosen_taken = correct
                self._squash_younger(slot, fetched)
                self._redirect(slot.other_pc)
        taken_pc = (entry.next_pc if _predicted_taken(entry)
                    else entry.alt_pc)
        self.retire_next_pc = taken_pc if slot.chosen_taken else sequential
        self._record_branch(slot, taken=bool(slot.chosen_taken))

    def _record_branch(self, slot: _Slot, *, taken: bool) -> None:
        entry = slot.entry
        branch = entry.branch
        self._p_branch.inc(site=_branch_pc(entry), taken=taken,
                           folded=_is_folded(entry),
                           speculated=slot.speculated)
        self.stats.execution.record(
            branch.opcode.value,
            is_branch=True,
            is_conditional=opcode_class(branch.opcode) is OpClass.CONDJMP,
            taken=taken,
            one_parcel=_length_parcels(branch) == 1)
        if self._dyn is not None and _uses_cc(entry):
            # train only at retirement: wrong-path slots are squashed
            # before they reach RR, so predictor state is a pure function
            # of the correct-path instruction stream
            self._dyn.train(_branch_pc(entry), taken)

    def _resolve_dependents(self, cmp_slot: _Slot,
                            fetched: _Slot | None) -> None:
        flag = self.state.flag
        for slot in (self.rr, self.or_, self.ir, fetched):
            if slot is None or not slot.valid or slot.resolved:
                continue
            if slot.governing_seq != cmp_slot.seq:
                continue
            correct = _taken_when(slot.entry, flag)
            slot.resolved = True
            shadow = slot.shadow
            forced = False
            if slot.chosen_taken == correct:
                if shadow is None or not self._inject_wrong:
                    continue
                # fault injection: treat this verified-correct dynamic
                # fold as a mismatch, exercising the full recovery path;
                # redirecting to the chosen PC refetches the correct path
                forced = True
            stage = self._stage_of(slot) if slot is not fetched else "IR"
            penalty = {"RR": 3, "OR": 2, "IR": 1}[stage]
            if slot is fetched:
                penalty = 1
            site = _branch_pc(slot.entry)
            self.stats.mispredictions += 1
            self.stats.misprediction_penalty_cycles += penalty
            if shadow is not None:
                self.stats.folded_mispredicts += 1
                self.stats.recovery_flush_cycles += penalty
                self._dyn.untrain(shadow.site)
                self._dyn.note_flush(shadow.site)
            self._p_mispredict.inc(stage=stage, folded=True, site=site)
            self._p_penalty.inc(penalty, site=site)
            if shadow is not None:
                self._p_verify_fail.inc(site=shadow.site, forced=forced)
                self._p_recovery.inc(penalty, site=shadow.site)
            slot.chosen_taken = correct
            self._squash_younger(slot, fetched)
            if forced:
                self._redirect(shadow.chosen_pc)
            else:
                self._redirect(slot.other_pc)

    def _redirect(self, target: int) -> None:
        self.ir_next_pc = target
        self._redirected = True

    def _select_path(self, slot: _Slot) -> None:
        entry = slot.entry

        if self._redirected:
            return

        if entry.branch is not None and entry.next_pc is None:
            self.ir_next_pc = None
            return

        if not _uses_cc(entry):
            self.ir_next_pc = entry.next_pc
            return

        outstanding = (_sets_cc(entry) and _uses_cc(entry)) or any(
            older is not None and older.valid and _sets_cc(older.entry)
            for older in (self.or_, self.rr))

        predicted = _predicted_taken(entry)
        taken_pc = entry.next_pc if predicted else entry.alt_pc
        fall_pc = entry.alt_pc if predicted else entry.next_pc

        if not outstanding:
            actual = _taken_when(entry, self.state.flag)
            if actual != predicted:
                self.stats.zero_cost_overrides += 1
                self._p_override.inc(site=_branch_pc(entry))
            slot.chosen_taken = actual
            slot.resolved = True
            chosen = taken_pc if actual else fall_pc
            other = fall_pc if actual else taken_pc
        else:
            self._p_interlock.inc(site=_branch_pc(entry),
                                  folded=_is_folded(entry),
                                  d0=_sets_cc(entry) and _uses_cc(entry))
            slot.chosen_taken = predicted
            slot.resolved = False
            slot.speculated = True
            chosen = entry.next_pc
            other = entry.alt_pc
            if (self._dyn is not None and _is_folded(entry)
                    and _dyn_foldable(entry)):
                confidence = self._dyn.decide(_branch_pc(entry))
                if confidence:
                    # dynamic fold engaged: run down the predicted-taken
                    # path under a shadow verification record
                    slot.chosen_taken = True
                    chosen = taken_pc
                    other = fall_pc
                    slot.shadow = ShadowRecord(
                        _branch_pc(entry), True, chosen, other, confidence)
                    self.stats.dynamic_folds += 1
                    self._dyn.note_fold(_branch_pc(entry))
                    self._p_dynfold.inc(site=_branch_pc(entry),
                                        confidence=confidence)
            if _is_folded(entry):
                governing = slot if _sets_cc(entry) else next(
                    older for older in (self.or_, self.rr)
                    if older is not None and older.valid
                    and _sets_cc(older.entry))
                slot.governing_seq = governing.seq
        slot.other_pc = other
        self.ir_next_pc = chosen


class ReferenceCpu:
    """The pre-refactor machine: per-cycle re-derivation, per-fetch
    latch allocation, unconditional probe updates."""

    def __init__(self, program: Program, config=None,
                 obs: EventBus | None = None) -> None:
        from repro.sim.cpu import CpuConfig

        self.program = program
        self.config = config or CpuConfig()
        self.obs = obs if obs is not None else EventBus()
        self.memory = ReferenceMemory()
        self.memory.load_program(program)
        self.state = MachineState(
            self.memory, pc=program.entry, sp=program.stack_top)
        self.stats = PipelineStats()
        self.icache = DecodedICache(self.config.icache_entries, obs=self.obs)
        self.dyn = (DynamicFoldUnit(self.config.fold_policy)
                    if self.config.fold_policy.dynamic_fold else None)
        self.pdu = ReferencePrefetchDecodeUnit(
            self.memory, self.icache, self.config.fold_policy,
            mem_latency=self.config.mem_latency,
            decode_latency=self.config.decode_latency,
            prefetch_depth=self.config.prefetch_depth,
            obs=self.obs, dyn=self.dyn)
        self.eu = ReferenceExecutionUnit(
            self.state, self.stats, self.obs,
            dyn=self.dyn, inject=getattr(self.config, "inject", None))
        self._p_demand_hit = self.obs.counter("icache.demand_hit")
        self._p_demand_miss = self.obs.counter("icache.demand_miss")
        self._p_miss_latency = self.obs.histogram("icache.miss.latency")
        self._miss_address: int | None = None
        self._miss_cycle = 0
        self.pdu.demand(program.entry)

    @property
    def halted(self) -> bool:
        return self.eu.halted

    def step(self) -> None:
        self.pdu.tick()

        fetched = None
        if self.eu.ir_next_pc is not None:
            address = self.eu.ir_next_pc
            entry = self.icache.lookup(address)
            if entry is not None:
                fetched = entry
                if address == self._miss_address:
                    self._p_miss_latency.observe(
                        self.stats.cycles - self._miss_cycle)
                    self._miss_address = None
            else:
                self.stats.icache_misses += 1
                self._p_demand_miss.inc(site=address)
                if address != self._miss_address:
                    self._miss_address = address
                    self._miss_cycle = self.stats.cycles
                self.pdu.demand(address)
        if fetched is not None:
            self.stats.icache_hits += 1
            self._p_demand_hit.inc()

        self.eu.tick(fetched)
        self.stats.cycles += 1

    def run(self, max_cycles: int | None = None) -> PipelineStats:
        from repro.sim.cpu import WATCHDOG_RING

        limit = self.config.max_cycles if max_cycles is None else max_cycles
        for _ in range(limit):
            if self.eu.halted:
                return self.stats
            self.step()
        # budget exhausted: sample the next fetch addresses for the
        # diagnostic, exactly as the fast kernel's watchdog does
        pcs: list[int] = []
        for _ in range(WATCHDOG_RING):
            if self.eu.halted:
                break
            if self.eu.ir_next_pc is not None:
                pcs.append(self.eu.ir_next_pc)
            self.step()
        raise SimulationHungError(
            limit, pcs,
            self.dyn.fold_counts if self.dyn is not None else None,
            self.dyn.flush_counts if self.dyn is not None else None)

    def warm_cache(self) -> None:
        """Pre-decode the whole program, as :meth:`CrispCpu.warm_cache`.

        Lets differential checks put both kernels in the same
        steady-state cache condition before comparing their timing.
        """
        from repro.sim.progcache import predecode_cached
        for entry in predecode_cached(self.program, self.config.fold_policy):
            self.icache.fill(entry)

    def read_symbol(self, name: str) -> int:
        return self.memory.read_word(self.program.symbol(name))


def run_reference(program: Program, config=None,
                  max_cycles: int | None = None,
                  obs: EventBus | None = None) -> ReferenceCpu:
    """Run ``program`` on the reference machine and return the CPU."""
    cpu = ReferenceCpu(program, config, obs=obs)
    cpu.run(max_cycles)
    return cpu
