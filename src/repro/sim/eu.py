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
executes), and the per-instruction architectural counters are batched
locally and flushed into :class:`~repro.sim.stats.ExecutionStats` when
the run ends. Each per-event counter probe equals a
:class:`~repro.sim.stats.PipelineStats` field (``cc.interlock`` a plain
count), so without a sink listening the EU publishes nothing per event:
:meth:`ExecutionUnit.publish_probes` adds what the stats gained since
its last call when the cycle loop returns.
:meth:`ExecutionUnit.tick` is the one per-cycle entry point; it executes
the RR stage and selects the path of every entry but a conditional one
inline. ``tests/test_sim_fastpath.py`` and ``tests/test_sim_shapes.py``
prove all of this invisible against the retained pre-optimization kernel
in :mod:`repro.sim.reference`, which keeps its own operand if-chain.
"""

from __future__ import annotations

from collections import defaultdict
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
    # the next three are written, and read, only for a conditional entry
    # with a static target; a recycled latch keeps stale values in them
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
        #: publish each event as it happens, with its fields: set by the
        #: cycle loop for a run with a sink attached. Otherwise the stats
        #: count every event and :meth:`publish_probes` publishes them.
        self._per_event = False
        self._obs_on = obs.enabled
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
        #: CC interlocks not yet added to ``cc.interlock``
        self._n_interlock = 0
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
        self._x_opcode_counts: defaultdict[str, int] = defaultdict(int)
        #: the probes publish_probes derives from the stats, and the stats
        #: values they last reached
        self._derived = (self._p_folded, self._p_mispredict, self._p_penalty,
                         self._p_squash, self._p_override, self._p_dynfold,
                         self._p_verify_fail, self._p_recovery,
                         self._p_branch)
        self._published = self._derived_values()

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
        per_event = self._per_event  # one guard read, not one per stage
        for candidate in (self.rr, self.or_, self.ir, fetched):
            if candidate is slot:
                seen = True
                continue
            if seen and candidate is not None and candidate.valid:
                candidate.valid = False
                self.stats.squashed_slots += 1
                if per_event:
                    self._p_squash.add()

    def _derived_values(self) -> tuple[int, ...]:
        """The stats each probe in ``_derived`` equals, in its order."""
        stats = self.stats
        return (stats.folded_branches, stats.mispredictions,
                stats.misprediction_penalty_cycles, stats.squashed_slots,
                stats.zero_cost_overrides, stats.dynamic_folds,
                stats.folded_mispredicts, stats.recovery_flush_cycles,
                # the batch keeps this sum rising across flush_execution
                stats.execution.branches + self._x_branches)

    def publish_probes(self, published: bool = False) -> None:
        """Bring every per-event counter probe up to its stats value.

        ``published`` says the events since the last call were already
        published one by one (a run with ``_per_event`` set), so only the
        reference point moves. Called by the cycle loop when it returns;
        the probes are exact after ``run()`` and ``step()``, not inside a
        tick.
        """
        values = self._derived_values()
        old = self._published
        if values != old:
            if not published:
                for probe, now, then in zip(self._derived, values, old):
                    if now != then:
                        probe.add(now - then)
            self._published = values
        if self._n_interlock:
            self._p_interlock.add(self._n_interlock)
            self._n_interlock = 0

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
        self._x_opcode_counts = defaultdict(int)

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
            body = entry.body
            halted = False
            if body is not None:
                run = entry._executor
                if run is None:
                    run = bind_executor(entry)
                halted = run(self.state, self._data, body.operands)
                stats.executed_instructions += 1
                self._x_instructions += 1
                self._x_opcode_counts[entry._body_name] += 1
                if halted:
                    self.halted = True
                    self.flush_execution()
                elif entry.sets_cc:
                    self._resolve_dependents(retiring, fetched)
            if halted or entry.branch is None:
                self.retire_next_pc = entry.sequential
            else:
                self._execute_branch_part(retiring, fetched)

        # end-of-cycle latch update; the retiring RR slot returns to the
        # pool (nothing references it once it leaves the stage register)
        self.rr, self.or_, self.ir = self.or_, self.ir, fetched
        if retiring is not None:
            self._slot_pool.append(retiring)

        # ---- fetch-time path selection for the entry just latched into
        # IR, unless a resolution already redirected IR.Next-PC (every
        # squash of the fetched entry comes with a redirect)
        if fetched is not None and not self._redirected:
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
        """The RR stage of an entry's branch, then its retirement into
        the batched ExecutionStats counters."""
        entry = slot.entry
        state = self.state
        stats = self.stats
        per_event = self._per_event
        if entry.is_folded:
            stats.folded_branches += 1
            if per_event:
                self._p_folded.inc(site=entry._branch_pc)
        stats.executed_instructions += 1

        if entry.dynamic_target:  # a return, an indirect branch, or any
            # branch when the next-address-field ablation is active
            branch = entry.branch
            memory = state.memory
            cls = branch.op_class
            if cls is OpClass.RETURN:
                if branch.opcode is Opcode.RETI:
                    state.flag = bool(memory.read_word(state.sp) & 1)
                    state.sp = to_u32(state.sp + 4)
                target = memory.read_word(state.sp)
                state.sp = to_u32(state.sp + 4)
                taken = True
            else:
                taken = (state.flag == entry._taken_on
                         if entry.uses_cc else True)
                sequential = entry.sequential
                if taken:
                    target = resolve_target(branch, entry._branch_pc,
                                            state.sp, memory.read_word)
                else:
                    target = sequential
                if cls is OpClass.CALL:
                    state.sp = to_u32(state.sp - 4)
                    memory.write_word(state.sp, sequential)
            self._redirect(target)
            self.retire_next_pc = target
        elif not entry.uses_cc:
            # static target: the Next-PC field already routed control
            if entry.branch.op_class is OpClass.CALL:
                state.sp = to_u32(state.sp - 4)
                state.memory.write_word(state.sp, entry.sequential)
            self.retire_next_pc = entry.next_pc
            taken = True
        else:
            # conditional branch reaching RR still unresolved: an unfolded
            # branch checks the (now architectural) flag against its
            # chosen path here, costing the full 3 cycles when wrong
            if not slot.resolved:
                correct = state.flag == entry._taken_on
                slot.resolved = True
                if slot.chosen_taken != correct:
                    stats.mispredictions += 1
                    stats.misprediction_penalty_cycles += 3
                    if per_event:
                        self._p_mispredict.inc(stage="RR", folded=False,
                                               site=entry._branch_pc)
                        self._p_penalty.inc(3, site=entry._branch_pc)
                    slot.chosen_taken = correct
                    self._squash_younger(slot, fetched)
                    assert slot.other_pc is not None
                    self._redirect(slot.other_pc)
            taken = slot.chosen_taken
            if not taken:
                self.retire_next_pc = entry.sequential
            elif entry._predicted_taken:
                self.retire_next_pc = entry.next_pc
            else:
                self.retire_next_pc = entry.alt_pc

        # retirement
        if per_event:
            self._p_branch.inc(site=entry._branch_pc, taken=taken,
                               folded=entry.is_folded,
                               speculated=slot.speculated)
        self._x_instructions += 1
        self._x_opcode_counts[entry._branch_name] += 1
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
        for slot in (self.rr, self.or_, self.ir, fetched):
            if slot is None or not slot.valid or slot.resolved:
                continue
            if slot.governing_seq != cmp_slot.seq:
                continue
            entry = slot.entry
            correct = flag == entry._taken_on
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
            if self._per_event:
                site = entry._branch_pc
                self._p_mispredict.inc(stage=stage, folded=True, site=site)
                self._p_penalty.inc(penalty, site=site)
                if shadow is not None:
                    self._p_verify_fail.inc(site=site, forced=forced)
                    self._p_recovery.inc(penalty, site=site)
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
                if self._per_event:
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
        set ``IR.Next-PC``. :meth:`tick` handles every other entry.

        Writes ``chosen_taken``, ``other_pc`` and ``governing_seq``, which
        a recycled latch does not reset."""
        entry = slot.entry

        # the condition-code write still in the pipeline, if any: the
        # entry's own folded compare, else the younger of OR and RR
        if entry.folds_compare_and_branch:
            governing = slot
        else:
            governing = self.or_
            if (governing is None or not governing.valid
                    or not governing.entry.sets_cc):
                governing = self.rr
                if (governing is None or not governing.valid
                        or not governing.entry.sets_cc):
                    governing = None

        if governing is None:
            # the compare left the pipeline: the flag is architectural and
            # the branch needs no prediction — zero cycles lost even when
            # the static bit is wrong (what Branch Spreading exploits)
            actual = self.state.flag == entry._taken_on
            slot.chosen_taken = actual
            slot.governing_seq = None
            if actual == entry._predicted_taken:
                slot.other_pc = entry.alt_pc
                self.ir_next_pc = entry.next_pc
            else:
                self.stats.zero_cost_overrides += 1
                if self._per_event:
                    self._p_override.inc(site=entry._branch_pc)
                slot.other_pc = entry.next_pc
                self.ir_next_pc = entry.alt_pc
            return

        # the branch must trust its prediction bit because the governing
        # condition-code write is still in the pipeline — the CC
        # interlock Branch Spreading tries to engineer away
        if self._per_event:
            self._p_interlock.inc(site=entry._branch_pc,
                                  folded=entry.is_folded,
                                  d0=entry.folds_compare_and_branch)
        else:
            self._n_interlock += 1
        slot.chosen_taken = entry._predicted_taken
        slot.resolved = False
        slot.speculated = True
        chosen = entry.next_pc
        other = entry.alt_pc
        dyn = self._dyn
        if dyn is not None and entry.dyn_foldable:
            confidence = dyn.decide(entry._branch_pc)
            if confidence:
                # dynamic fold: the predictor says taken with enough
                # confidence, so commit to the taken path like one of the
                # paper's unconditional folds. The ShadowRecord rides down
                # the pipeline; verification happens when the governing
                # compare retires (_resolve_dependents).
                if not entry._predicted_taken:
                    chosen, other = other, chosen
                slot.chosen_taken = True
                assert chosen is not None and other is not None
                slot.shadow = ShadowRecord(
                    entry._branch_pc, True, chosen, other, confidence)
                self.stats.dynamic_folds += 1
                dyn.note_fold(entry._branch_pc)
                if self._per_event:
                    self._p_dynfold.inc(site=entry._branch_pc,
                                        confidence=confidence)
        # folded branches recover as soon as the governing compare
        # resolves, wherever the branch is in the pipeline; unfolded ones
        # resolve at their own RR stage
        slot.governing_seq = governing.seq if entry.is_folded else None
        slot.other_pc = other
        self.ir_next_pc = chosen
