"""The three-stage Execution Unit (IR → OR → RR).

Control flow is driven entirely by the ``IR.Next-PC`` register, loaded from
the Next-PC field of each entry read from the Decoded Instruction Cache.
Conditional entries carry their Alternate Next-PC down the pipeline; when
a compare resolves the flag at its RR stage, any in-flight branch that
chose the wrong path is recovered by squashing the younger stages (valid
bits — the side-effect-free ISA makes any instruction a no-op that way)
and re-introducing the Alternate-PC. The recovery cost is exactly the
paper's: 3 cycles when the compare was folded with the branch itself,
2 / 1 when the compare ran one / two entries ahead of a folded branch, and
**0** when the compare left the pipeline before the branch was fetched —
in that last case the prediction bit is overridden at fetch time for
free, the situation Branch Spreading engineers.

A conditional branch that was *not* folded resolves either at fetch time
(flag already architectural: zero cost) or at its own RR stage (3
cycles). The paper describes the early per-stage recovery only for folded
branches, and Table 4's cases A/B arithmetic (1023 and 512 mispredictions
at exactly 3 cycles each) confirms unfolded branches do not get the
OR/IR-stage shortcut.

Architectural effects are applied atomically at RR via
:mod:`repro.sim.semantics` — legitimate because the pipeline is in-order
with full bypassing and wrong-path entries never reach a result write.

Fast-path engineering (see ``docs/pipeline.md`` for the invariants): the
steady-state loop is allocation-free — stage latches are recycled through
a small pool rather than constructed per fetch, entry control bits are
plain attributes precomputed at decode time, an instruction body runs
through its shape's executor (:func:`~repro.sim.semantics.bind_executor`:
one generated function per opcode and operand addressing modes, shared
by every entry of that shape and bound to an entry the first time it
executes), probe updates are skipped entirely on a disabled bus, and the
per-instruction architectural counters are batched locally and flushed
into :class:`~repro.sim.stats.ExecutionStats` when the run ends.
:meth:`ExecutionUnit.tick` is the one per-cycle entry point; it executes
the RR stage and selects the path of every entry but a conditional one
inline. ``tests/test_sim_fastpath.py`` and ``tests/test_sim_shapes.py``
prove all of this invisible against the retained pre-optimization kernel
in :mod:`repro.sim.reference`, which keeps its own operand if-chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decoded import DecodedEntry
from repro.isa.instructions import resolve_target
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.parcels import to_u32
from repro.obs.events import EventBus, NULL_BUS
from repro.sim.dynfold import DynamicFoldUnit, ShadowRecord
from repro.sim.semantics import MachineState, bind_executor
from repro.sim.stats import PipelineStats

_PENALTY_BY_STAGE = {"RR": 3, "OR": 2, "IR": 1}


@dataclass(slots=True)
class StageSlot:
    """One pipeline stage latch: a decoded entry plus recovery state."""

    entry: DecodedEntry
    seq: int  #: issue order, used to match branches to their compare
    valid: bool = True
    chosen_taken: bool | None = None  #: selected branch direction at fetch
    other_pc: int | None = None  #: the not-chosen path (Alternate-PC)
    governing_seq: int | None = None  #: seq of the compare this branch awaits
    resolved: bool = True  #: False while the branch direction is speculative
    speculated: bool = False  #: True if fetch had to trust the prediction bit
    shadow: ShadowRecord | None = None  #: set when dynamically folded


class ExecutionUnit:
    """Cycle-level model of the CRISP execution pipeline."""

    def __init__(self, state: MachineState, stats: PipelineStats,
                 obs: EventBus = NULL_BUS, *,
                 dyn: DynamicFoldUnit | None = None,
                 inject: str | None = None) -> None:
        self.state = state
        self.stats = stats
        self.obs = obs
        #: dynamic-fold unit, shared with the PDU (None unless the fold
        #: policy enables dynamic_fold)
        self._dyn = dyn
        #: fault injection: "always-wrong" forces a full flush/recovery
        #: on every dynamic fold, even verified-correct ones
        self._inject_wrong = inject == "always-wrong"
        #: probes fire only on an enabled bus; a disabled bus's probes are
        #: shared no-ops, so skipping the calls (and their keyword-dict
        #: construction) is behaviourally identical and free. On an
        #: *enabled* bus the second tier (`_obs_sinks`, the bus's live
        #: sink list) gates per-event field formatting: with no sink
        #: listening a probe update is a plain counter bump.
        self._obs_on = obs.enabled
        self._obs_sinks = obs.sinks_ref()
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
        #: the memory's byte map, which the shape executors access inline
        self._data = state.memory._bytes
        self.ir: StageSlot | None = None
        self.or_: StageSlot | None = None
        self.rr: StageSlot | None = None
        self.ir_next_pc: int | None = state.pc
        self.halted = False
        self._seq = 0
        self._redirected = False
        #: PC of the next architecturally-unexecuted instruction — the
        #: precise resume point for interrupts (the paper carries per-
        #: stage PCs exactly to identify this instruction)
        self.retire_next_pc: int = state.pc
        #: retired latches waiting for reuse (a fetch pulls from here
        #: instead of allocating)
        self._slot_pool: list[StageSlot] = []
        # batched ExecutionStats counters, folded into ``stats.execution``
        # by :meth:`flush_execution` (on halt / interrupt / run end)
        self._x_instructions = 0
        self._x_branches = 0
        self._x_conditional = 0
        self._x_taken = 0
        self._x_one_parcel = 0
        self._x_opcode_counts: dict[str, int] = {}

    # ---- helpers -----------------------------------------------------------

    def _stage_of(self, slot: StageSlot) -> str:
        if slot is self.rr:
            return "RR"
        if slot is self.or_:
            return "OR"
        return "IR"

    def _squash_younger(self, slot: StageSlot,
                        fetched: StageSlot | None) -> None:
        """Clear the valid bits of every stage younger than ``slot``."""
        seen = False
        obs_on = self._obs_on  # one guard read, not one per stage
        for candidate in (self.rr, self.or_, self.ir, fetched):
            if candidate is slot:
                seen = True
                continue
            if seen and candidate is not None and candidate.valid:
                candidate.valid = False
                self.stats.squashed_slots += 1
                if obs_on:
                    self._p_squash.add()

    def flush_execution(self) -> None:
        """Fold the batched architectural counters into ``stats.execution``.

        Idempotent; called automatically when the machine halts, when an
        interrupt is delivered, and by :meth:`repro.sim.cpu.CrispCpu.run`
        on exit. Every in-repo consumer reads ``stats.execution`` after
        one of those points, so the batch is never observed part-filled.
        """
        if not self._x_instructions:
            return
        execution = self.stats.execution
        execution.instructions += self._x_instructions
        execution.branches += self._x_branches
        execution.conditional_branches += self._x_conditional
        execution.taken_branches += self._x_taken
        execution.one_parcel_branches += self._x_one_parcel
        execution.opcode_counts.update(self._x_opcode_counts)
        self._x_instructions = 0
        self._x_branches = 0
        self._x_conditional = 0
        self._x_taken = 0
        self._x_one_parcel = 0
        self._x_opcode_counts = {}

    # ---- the clock ----------------------------------------------------------

    def tick(self, fetched_entry: DecodedEntry | None) -> None:
        """Advance one cycle: execute RR, resolve branches, latch stages.

        ``fetched_entry`` is the cache read performed this cycle at the
        (pre-redirect) ``ir_next_pc`` — None on a miss or fetch stall.
        """
        fetched = None
        if fetched_entry is not None:
            seq = self._seq = self._seq + 1
            pool = self._slot_pool
            if pool:
                fetched = pool.pop()
                fetched.entry = fetched_entry
                fetched.seq = seq
                fetched.valid = True
                fetched.chosen_taken = None
                fetched.other_pc = None
                fetched.governing_seq = None
                fetched.resolved = True
                fetched.speculated = False
                fetched.shadow = None
            else:
                fetched = StageSlot(fetched_entry, seq)

        self._redirected = False
        retiring = self.rr
        if retiring is None or not retiring.valid:
            self.stats.stall_cycles += 1  # this cycle's RR does no work
        else:
            # ---- RR stage: the entry's body, then its branch part
            entry = retiring.entry
            stats = self.stats
            stats.issued_instructions += 1
            self.retire_next_pc = entry.sequential
            body = entry.body
            halted = False
            if body is not None:
                run = entry._executor
                if run is None:
                    run = bind_executor(entry)
                halted = run(self.state, self._data, body.operands)
                stats.executed_instructions += 1
                self._x_instructions += 1
                counts = self._x_opcode_counts
                name = entry._body_name
                counts[name] = counts.get(name, 0) + 1
                if halted:
                    self.halted = True
                    self.flush_execution()
            if not halted:
                if entry.sets_cc:
                    self._resolve_dependents(retiring, fetched)
                if entry.branch is not None:
                    self._execute_branch_part(retiring, fetched)

        # end-of-cycle latch update; the retiring RR slot returns to the
        # pool (nothing references it once it leaves the stage register)
        self.rr, self.or_, self.ir = self.or_, self.ir, fetched
        if retiring is not None:
            self._slot_pool.append(retiring)

        # ---- fetch-time path selection for the entry just latched into
        # IR, unless a resolution already redirected IR.Next-PC
        if fetched is not None and fetched.valid and not self._redirected:
            entry = fetched.entry
            if entry.dynamic_target:
                self.ir_next_pc = None  # stall fetch until RR computes it
            elif entry.uses_cc:
                self._select_path(fetched)
            else:
                self.ir_next_pc = entry.next_pc

    # ---- RR stage: branch part -------------------------------------------------

    def _execute_branch_part(self, slot: StageSlot,
                             fetched: StageSlot | None) -> None:
        entry = slot.entry
        branch = entry.branch
        assert branch is not None
        state = self.state
        stats = self.stats
        sequential = entry.sequential

        if entry.is_folded:
            stats.folded_branches += 1
            if self._obs_on:
                if self._obs_sinks:
                    self._p_folded.inc(site=entry._branch_pc)
                else:
                    self._p_folded.add()
        stats.executed_instructions += 1

        cls = branch.op_class
        if cls is OpClass.RETURN:
            memory = state.memory
            if branch.opcode is Opcode.RETI:
                state.flag = bool(memory.read_word(state.sp) & 1)
                state.sp = to_u32(state.sp + 4)
            target = memory.read_word(state.sp)
            state.sp = to_u32(state.sp + 4)
            self._redirect(target)
            self.retire_next_pc = target
            self._record_branch(slot, taken=True)
            return

        if entry.dynamic_target:  # indirect, or any branch when the
            # next-address-field ablation is active
            taken = (entry.taken_when(state.flag)
                     if entry.uses_cc else True)
            if taken:
                target = resolve_target(branch, entry._branch_pc, state.sp,
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
            assert entry.next_pc is not None
            self.retire_next_pc = entry.next_pc
            self._record_branch(slot, taken=True)
            return  # static target: Next-PC field already routed control

        if not entry.uses_cc:
            assert entry.next_pc is not None
            self.retire_next_pc = entry.next_pc
            self._record_branch(slot, taken=True)
            return

        # conditional branch reaching RR still unresolved: an unfolded
        # branch checks the (now architectural) flag against its chosen
        # path here, costing the full 3 cycles when wrong
        if not slot.resolved:
            correct = entry.taken_when(state.flag)
            slot.resolved = True
            if slot.chosen_taken != correct:
                stats.mispredictions += 1
                stats.misprediction_penalty_cycles += 3
                if self._obs_on:
                    if self._obs_sinks:
                        self._p_mispredict.inc(stage="RR", folded=False,
                                               site=entry._branch_pc)
                        self._p_penalty.inc(3, site=entry._branch_pc)
                    else:
                        self._p_mispredict.add()
                        self._p_penalty.add(3)
                slot.chosen_taken = correct
                self._squash_younger(slot, fetched)
                assert slot.other_pc is not None
                self._redirect(slot.other_pc)
        taken_pc = (entry.next_pc if entry._predicted_taken else entry.alt_pc)
        assert taken_pc is not None
        self.retire_next_pc = taken_pc if slot.chosen_taken else sequential
        self._record_branch(slot, taken=bool(slot.chosen_taken))

    def _record_branch(self, slot: StageSlot, *, taken: bool) -> None:
        entry = slot.entry
        if self._obs_on:
            if self._obs_sinks:
                self._p_branch.inc(site=entry._branch_pc, taken=taken,
                                   folded=entry.is_folded,
                                   speculated=slot.speculated)
            else:
                self._p_branch.add()
        self._x_instructions += 1
        counts = self._x_opcode_counts
        name = entry._branch_name
        counts[name] = counts.get(name, 0) + 1
        self._x_branches += 1
        if entry._branch_one_parcel:
            self._x_one_parcel += 1
        if entry.uses_cc:
            self._x_conditional += 1
            if self._dyn is not None:
                # train only at retirement: squashed wrong-path slots
                # never reach here, so the predictor learns exactly the
                # architectural branch stream
                self._dyn.train(entry._branch_pc, taken)
        if taken:
            self._x_taken += 1

    # ---- branch resolution -----------------------------------------------------

    def _resolve_dependents(self, cmp_slot: StageSlot,
                            fetched: StageSlot | None) -> None:
        """A compare just wrote the flag: resolve every speculative branch
        that was waiting on it (including one folded into the compare)."""
        flag = self.state.flag
        stats = self.stats
        # probe-guard state cannot change mid-resolution: read it once
        # here instead of once per dependent stage
        obs_on = self._obs_on
        obs_sinks = self._obs_sinks
        for slot in (self.rr, self.or_, self.ir, fetched):
            if slot is None or not slot.valid or slot.resolved:
                continue
            if slot.governing_seq != cmp_slot.seq:
                continue
            entry = slot.entry
            correct = entry.taken_when(flag)
            slot.resolved = True
            shadow = slot.shadow
            forced = False
            if slot.chosen_taken == correct:
                if shadow is None or not self._inject_wrong:
                    continue
                # fault injection (--inject always-wrong): treat this
                # verified-correct dynamic fold as a mismatch too,
                # exercising the full flush/recovery path. The redirect
                # refetches the *chosen* (correct) path, so architectural
                # state is unchanged — only timing suffers.
                forced = True
            # misprediction: squash younger work, re-introduce the
            # Alternate-PC as the next fetch address
            stage = self._stage_of(slot) if slot is not fetched else "IR"
            penalty = _PENALTY_BY_STAGE[stage]
            if slot is fetched:
                # resolves in the same cycle it was fetched: the redirect
                # costs one fetch slot
                penalty = 1
            stats.mispredictions += 1
            stats.misprediction_penalty_cycles += penalty
            if shadow is not None:
                # verified recovery of a dynamic fold: count it, flush,
                # and untrain the predictor so a cooling branch stops
                # being folded immediately
                stats.folded_mispredicts += 1
                stats.recovery_flush_cycles += penalty
                self._dyn.untrain(shadow.site)
                self._dyn.note_flush(shadow.site)
            if obs_on:
                if obs_sinks:
                    site = entry._branch_pc
                    self._p_mispredict.inc(stage=stage, folded=True,
                                           site=site)
                    self._p_penalty.inc(penalty, site=site)
                    if shadow is not None:
                        self._p_verify_fail.inc(site=site, forced=forced)
                        self._p_recovery.inc(penalty, site=site)
                else:
                    self._p_mispredict.add()
                    self._p_penalty.add(penalty)
                    if shadow is not None:
                        self._p_verify_fail.add()
                        self._p_recovery.add(penalty)
            slot.chosen_taken = correct
            self._squash_younger(slot, fetched)
            if forced:
                self._redirect(shadow.chosen_pc)
            else:
                assert slot.other_pc is not None
                self._redirect(slot.other_pc)

    def _redirect(self, target: int) -> None:
        self.ir_next_pc = target
        self._redirected = True

    # ---- interrupts --------------------------------------------------------

    def take_interrupt(self, vector: int) -> None:
        """Deliver a precise interrupt (call between clock ticks).

        Everything in flight is younger than the last retired instruction
        and side-effect-free, so it is simply squashed; the saved PSW flag
        and the precise resume PC are pushed, and fetch redirects to the
        handler. ``reti`` restores both.
        """
        state = self.state
        if self._obs_on:
            self._p_interrupt.inc(vector=vector)
        for slot in (self.rr, self.or_, self.ir):
            if slot is not None and slot.valid:
                slot.valid = False
                self.stats.squashed_slots += 1
                if self._obs_on:
                    self._p_squash.add()
        state.sp = to_u32(state.sp - 4)
        state.memory.write_word(state.sp, self.retire_next_pc)
        state.sp = to_u32(state.sp - 4)
        state.memory.write_word(state.sp, int(state.flag))
        self.ir_next_pc = vector
        self._redirected = False
        self.flush_execution()

    # ---- fetch-time path selection ------------------------------------------

    def _select_path(self, slot: StageSlot) -> None:
        """The conditional entry just latched into IR, with a static
        target and no redirect this cycle: choose its outgoing path and
        set ``IR.Next-PC``. :meth:`tick` handles every other entry."""
        entry = slot.entry

        # is a condition-code write still outstanding?
        outstanding = entry.folds_compare_and_branch
        if not outstanding:
            older = self.or_
            if older is not None and older.valid and older.entry.sets_cc:
                outstanding = True
            else:
                older = self.rr
                outstanding = (older is not None and older.valid
                               and older.entry.sets_cc)

        predicted = entry._predicted_taken
        taken_pc = entry.next_pc if predicted else entry.alt_pc
        fall_pc = entry.alt_pc if predicted else entry.next_pc

        if not outstanding:
            # the compare left the pipeline: the flag is architectural and
            # the branch needs no prediction — zero cycles lost even when
            # the static bit is wrong (what Branch Spreading exploits)
            actual = entry.taken_when(self.state.flag)
            if actual != predicted:
                self.stats.zero_cost_overrides += 1
                if self._obs_on:
                    if self._obs_sinks:
                        self._p_override.inc(site=entry._branch_pc)
                    else:
                        self._p_override.add()
            slot.chosen_taken = actual
            slot.resolved = True
            chosen = taken_pc if actual else fall_pc
            other = fall_pc if actual else taken_pc
        else:
            # the branch must trust its prediction bit because the
            # governing condition-code write is still in the pipeline —
            # the CC interlock Branch Spreading tries to engineer away
            if self._obs_on:
                if self._obs_sinks:
                    self._p_interlock.inc(site=entry._branch_pc,
                                          folded=entry.is_folded,
                                          d0=entry.folds_compare_and_branch)
                else:
                    self._p_interlock.add()
            slot.chosen_taken = predicted
            slot.resolved = False
            slot.speculated = True
            chosen = entry.next_pc
            other = entry.alt_pc
            dyn = self._dyn
            if dyn is not None and entry.dyn_foldable:
                confidence = dyn.decide(entry._branch_pc)
                if confidence:
                    # dynamic fold: the predictor says taken with enough
                    # confidence, so commit to the taken path like one of
                    # the paper's unconditional folds. The ShadowRecord
                    # rides down the pipeline; verification happens when
                    # the governing compare retires (below, via
                    # _resolve_dependents).
                    slot.chosen_taken = True
                    chosen = taken_pc
                    other = fall_pc
                    assert chosen is not None and other is not None
                    slot.shadow = ShadowRecord(
                        entry._branch_pc, True, chosen, other, confidence)
                    self.stats.dynamic_folds += 1
                    dyn.note_fold(entry._branch_pc)
                    if self._obs_on:
                        if self._obs_sinks:
                            self._p_dynfold.inc(site=entry._branch_pc,
                                                confidence=confidence)
                        else:
                            self._p_dynfold.add()
            if entry.is_folded:
                # folded branches recover as soon as the governing compare
                # resolves, wherever the branch is in the pipeline
                if entry.folds_compare_and_branch:
                    governing = slot
                else:
                    governing = self.or_
                    if not (governing is not None and governing.valid
                            and governing.entry.sets_cc):
                        governing = self.rr
                slot.governing_seq = governing.seq
            # unfolded branches keep governing_seq None and resolve at
            # their own RR stage
        slot.other_pc = other
        self.ir_next_pc = chosen
