"""The architectural oracle: a third, pipeline-free interpreter.

Both cycle kernels route control flow through the decoded-cache
Next-PC fields and a three-stage pipeline. The oracle does neither: it
walks :class:`~repro.asm.program.Program` instructions directly,
re-derives the fold structure from first principles (an entry folds
exactly when a contiguous following instruction is a branch the
:class:`~repro.core.policy.FoldPolicy` accepts — the parcel-stream
decoder reaches the same answer because any byte past the program image
fails to decode), and applies architectural semantics per entry.

On top of the dynamic entry trace it then computes *analytic* branch
cost, straight from the paper's model rather than from a simulated
pipeline:

* an entry fetched on cycle ``f`` retires (executes RR) on cycle
  ``f + 3``; the machine halts on cycle ``f_halt + 4``;
* a conditional branch whose governing compare left the pipeline
  (fetch distance ``d >= 3``) resolves at fetch time for free — a wrong
  static prediction bit is a **zero-cost override**;
* with the compare still in flight the branch must speculate
  (**CC interlock**). A wrong bit costs 3 cycles when compare and
  branch are folded together (``d0``), 2 / 1 when the compare runs one
  / two fetches ahead of a folded branch, and always 3 for an unfolded
  branch (which only resolves at its own RR stage). After a mispredict
  resolving on cycle ``r = f + penalty``, fetch resumes on ``r + 1``;
* dynamic targets (return / indirect) stall fetch until their own RR:
  the next fetch lands on ``f + 4``.

The per-branch classification this produces (fold class × outcome ×
interlock distance) is also what feeds the coverage map. Quantities the
oracle deliberately does *not* model — wrong-path fetch traffic, cache
hits/misses, squashed slots — are reconciled fast-kernel-vs-reference
bit for bit by the runner instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.asm.program import Program
from repro.core.policy import FoldPolicy
from repro.isa.instructions import Instruction, resolve_target
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.parcels import to_u32
from repro.sim.dynfold import DynamicFoldUnit
from repro.sim.memory import Memory
from repro.sim.semantics import MachineState, branch_decision, execute_body
from repro.sim.stats import ExecutionStats


class OracleError(RuntimeError):
    """Raised when a program cannot be executed by the oracle."""


@dataclass(frozen=True)
class _Entry:
    """The oracle's own decoded-entry analogue (independent of folder)."""

    address: int
    body: Instruction | None
    branch: Instruction | None
    length_bytes: int

    @property
    def is_folded(self) -> bool:
        return self.body is not None and self.branch is not None


@dataclass
class BranchRecord:
    """One dynamic branch retirement, classified analytically.

    ``outcome`` is one of ``always`` (unconditional static target),
    ``dynamic`` (return / indirect: resolved only at RR), ``correct``,
    ``override`` (architectural flag contradicted the prediction bit at
    zero cost) or ``mispredict``. ``interlock`` is ``none`` when the
    flag was architectural at fetch, else ``d0`` / ``d1`` / ``d2`` for
    folded branches by compare distance and ``spec`` for an unfolded
    branch forced to trust its bit.

    ``fold_verify`` classifies the dynamic-fold shadow verification:
    ``confirmed`` (engaged, condition agreed), ``recovered`` (engaged,
    condition disagreed — flush and refetch), ``declined`` (eligible and
    interlocked, but the predictor's confidence was below threshold) or
    ``none`` (policy not dynamic, branch not eligible, or flag
    architectural at fetch).
    """

    pc: int  #: the branch instruction's own address (the static site)
    opcode: str
    folded: bool
    taken: bool
    outcome: str
    interlock: str = "none"
    penalty: int = 0
    fold_verify: str = "none"


@dataclass
class OracleResult:
    """Everything the oracle derived from one program."""

    execution: ExecutionStats
    branches: list[BranchRecord]
    accum: int
    flag: bool
    sp: int
    memory: dict[int, int]  #: final byte image (code + data + stack)
    halted: bool
    # ---- analytic pipeline quantities (ideal machine: warm cache,
    # no conflict misses) ----
    cycles: int
    issued_instructions: int
    executed_instructions: int
    folded_branches: int
    mispredictions: int
    misprediction_penalty_cycles: int
    stall_cycles: int
    zero_cost_overrides: int  #: correct-path count (kernel may add
    #: wrong-path fetch-time overrides on top; see module docstring)
    interlocks: int = 0  #: correct-path CC-interlock speculations
    #: correct-path dynamic-fold engagements (the kernel's
    #: ``dynamic_folds`` also counts wrong-path engagements that were
    #: squashed, so this is only a lower bound on the kernel counter)
    dynamic_folds: int = 0
    folded_mispredicts: int = 0
    recovery_flush_cycles: int = 0
    body_records: list[tuple[str, bool]] = field(default_factory=list)

    def timing_dict(self) -> dict[str, int]:
        """The analytic counters the runner checks exactly (ideal mode)."""
        return {
            "cycles": self.cycles,
            "issued_instructions": self.issued_instructions,
            "executed_instructions": self.executed_instructions,
            "folded_branches": self.folded_branches,
            "mispredictions": self.mispredictions,
            "misprediction_penalty_cycles":
                self.misprediction_penalty_cycles,
            "stall_cycles": self.stall_cycles,
            "folded_mispredicts": self.folded_mispredicts,
            "recovery_flush_cycles": self.recovery_flush_cycles,
        }


def oracle_entries(program: Program,
                   policy: FoldPolicy) -> dict[int, _Entry]:
    """Re-derive the decoded-entry table from the instruction list.

    Independent of :mod:`repro.core.folder`: folding is decided from
    the program's own instruction layout. ``tests/test_verify_oracle.py``
    proves this agrees with the parcel-stream decoder entry for entry.
    """
    entries: dict[int, _Entry] = {}
    instructions = program.instructions
    addresses = program.addresses
    for i, (address, instruction) in enumerate(zip(addresses, instructions)):
        if instruction.is_branch:
            entries[address] = _Entry(
                address, None, instruction, instruction.length_bytes())
            continue
        follower = None
        sequential = address + instruction.length_bytes()
        if i + 1 < len(instructions) and addresses[i + 1] == sequential:
            follower = instructions[i + 1]
        if (follower is not None and follower.is_branch
                and policy.can_fold(instruction, follower)):
            entries[address] = _Entry(
                address, instruction, follower,
                instruction.length_bytes() + follower.length_bytes())
        else:
            entries[address] = _Entry(
                address, instruction, None, instruction.length_bytes())
    return entries


@dataclass
class _TraceStep:
    """One retired entry, annotated for the analytic pass."""

    entry: _Entry
    taken: bool = False
    halted: bool = False  #: body halted; any folded branch never ran


def _execute_branch(state: MachineState, entry: _Entry,
                    sequential: int) -> tuple[int, bool]:
    """Architectural branch-part semantics; returns (next_pc, taken)."""
    branch = entry.branch
    assert branch is not None
    branch_pc = (entry.address if entry.body is None
                 else entry.address + entry.body.length_bytes())
    cls = branch.op_class
    memory = state.memory
    if cls is OpClass.RETURN:
        if branch.opcode is Opcode.RETI:
            state.flag = bool(memory.read_word(state.sp) & 1)
            state.sp = to_u32(state.sp + 4)
        target = memory.read_word(state.sp)
        state.sp = to_u32(state.sp + 4)
        return target, True
    taken = branch_decision(branch, state.flag)
    if taken:
        target = resolve_target(branch, branch_pc, state.sp,
                                memory.read_word)
    else:
        target = sequential
    if cls is OpClass.CALL:
        state.sp = to_u32(state.sp - 4)
        memory.write_word(state.sp, sequential)
    return target, taken


def _trace(program: Program, entries: dict[int, _Entry],
           max_entries: int) -> tuple[list[_TraceStep], MachineState]:
    memory = Memory()
    memory.load_program(program)
    state = MachineState(memory, pc=program.entry, sp=program.stack_top)
    trace: list[_TraceStep] = []
    pc = program.entry
    for _ in range(max_entries):
        entry = entries.get(pc)
        if entry is None:
            raise OracleError(f"control reached non-entry address {pc:#x}")
        step = _TraceStep(entry)
        trace.append(step)
        sequential = entry.address + entry.length_bytes
        if entry.body is not None:
            if execute_body(state, entry.body):
                step.halted = True
                state.halted = True
                return trace, state
        if entry.branch is not None:
            pc, step.taken = _execute_branch(state, entry, sequential)
        else:
            pc = sequential
    raise OracleError(
        f"program did not halt within {max_entries} entries")


def run_oracle(program: Program,
               policy: FoldPolicy | None = None,
               max_entries: int = 2_000_000) -> OracleResult:
    """Execute ``program`` architecturally and derive analytic costs."""
    if policy is None:
        policy = FoldPolicy.crisp()
    entries = oracle_entries(program, policy)
    trace, state = _trace(program, entries, max_entries)

    execution = ExecutionStats()
    branches: list[BranchRecord] = []
    body_records: list[tuple[str, bool]] = []
    issued = len(trace)
    executed = 0
    folded = mispredicts = penalty_total = overrides = interlocks = 0
    dynamic_folds = folded_mispredicts = recovery_flush = 0

    # Dynamic-fold predictor replay. The kernels train the predictor at
    # branch retirement (fetch + 3) and untrain it when a shadow-folded
    # mispredict resolves (fetch + penalty); fetch-time queries see the
    # state as of the end of the query cycle, because the EU executes RR
    # before it selects the freshly latched entry's path. The event heap
    # replays exactly that schedule: (cycle, kind, order, site, taken)
    # with untrain (kind 0) draining before train (kind 1) on the same
    # cycle — matching the kernel's _resolve_dependents-before-
    # _execute_branch_part ordering within one RR.
    dyn = DynamicFoldUnit(policy) if policy.dynamic_fold else None
    events: list[tuple[int, int, int, int, bool]] = []
    event_order = 0

    # Analytic fetch schedule over the correct-path trace. ``fetch`` is
    # the cycle the entry's cache read happens; the flag becomes
    # architectural for a branch fetched on cycle f once its setter was
    # fetched on or before f - 3 (the setter's RR runs before the
    # branch's fetch-time path select).
    fetch = 0
    last_cc_fetch: int | None = None
    cycles = 0
    for step in trace:
        entry = step.entry
        next_fetch = fetch + 1
        if entry.body is not None:
            executed += 1
            execution.record(entry.body.opcode.value, is_branch=False,
                             is_conditional=False, taken=False,
                             one_parcel=entry.body.length_parcels() == 1)
            body_records.append((entry.body.opcode.value, entry.is_folded))
        branch = entry.branch
        if branch is not None and not step.halted:
            executed += 1
            if entry.is_folded:
                folded += 1
            execution.record(branch.opcode.value, is_branch=True,
                             is_conditional=branch.is_conditional_branch,
                             taken=step.taken,
                             one_parcel=branch.length_parcels() == 1)
            branch_pc = (entry.address if entry.body is None
                         else entry.address + entry.body.length_bytes())
            record = BranchRecord(branch_pc, branch.opcode.value,
                                  entry.is_folded, step.taken, "always")
            dynamic = (branch.op_class is OpClass.RETURN
                       or branch.branch is None
                       or branch.branch.is_indirect)
            if dynamic:
                record.outcome = "dynamic"
                next_fetch = fetch + 4
            elif branch.is_conditional_branch:
                predicted = branch.predicted_taken
                d0 = (entry.body is not None and entry.body.sets_flag)
                distance = (None if last_cc_fetch is None
                            else fetch - last_cc_fetch)
                outstanding = d0 or (distance is not None and distance <= 2)
                if not outstanding:
                    record.outcome = ("correct" if step.taken == predicted
                                      else "override")
                    if step.taken != predicted:
                        overrides += 1
                else:
                    interlocks += 1
                    if d0:
                        record.interlock = "d0"
                    elif entry.is_folded:
                        record.interlock = f"d{distance}"
                    else:
                        record.interlock = "spec"
                    engaged = False
                    if dyn is not None and entry.is_folded:
                        while events and events[0][0] <= fetch:
                            _, kind, _, site, was_taken = heapq.heappop(
                                events)
                            if kind == 0:
                                dyn.untrain(site)
                            else:
                                dyn.train(site, was_taken)
                        if dyn.decide(branch_pc):
                            # dynamic fold engages: commit to the taken
                            # path regardless of the static bit
                            engaged = True
                            dynamic_folds += 1
                        else:
                            record.fold_verify = "declined"
                    effective = True if engaged else predicted
                    if step.taken == effective:
                        record.outcome = "correct"
                        if engaged:
                            record.fold_verify = "confirmed"
                    else:
                        record.outcome = "mispredict"
                        if d0 or not entry.is_folded:
                            record.penalty = 3
                        elif distance == 1:
                            record.penalty = 2
                        else:
                            record.penalty = 1
                        mispredicts += 1
                        penalty_total += record.penalty
                        next_fetch = fetch + record.penalty + 1
                        if engaged:
                            record.fold_verify = "recovered"
                            folded_mispredicts += 1
                            recovery_flush += record.penalty
                            heapq.heappush(events, (
                                fetch + record.penalty, 0, event_order,
                                branch_pc, False))
                            event_order += 1
            if dyn is not None and branch.is_conditional_branch:
                # trained at retirement, as the EU does
                heapq.heappush(events, (
                    fetch + 3, 1, event_order, branch_pc, step.taken))
                event_order += 1
            branches.append(record)
        if entry.body is not None and entry.body.sets_flag:
            last_cc_fetch = fetch
        if step.halted:
            cycles = fetch + 4
            break
        fetch = next_fetch

    return OracleResult(
        execution=execution,
        branches=branches,
        accum=state.accum,
        flag=state.flag,
        sp=state.sp,
        memory=state.memory.snapshot(),
        halted=state.halted,
        cycles=cycles,
        issued_instructions=issued,
        executed_instructions=executed,
        folded_branches=folded,
        mispredictions=mispredicts,
        misprediction_penalty_cycles=penalty_total,
        stall_cycles=cycles - issued,
        zero_cost_overrides=overrides,
        interlocks=interlocks,
        dynamic_folds=dynamic_folds,
        folded_mispredicts=folded_mispredicts,
        recovery_flush_cycles=recovery_flush,
        body_records=body_records,
    )
