"""Architectural instruction semantics, shared by both simulators.

The cycle simulator's three-stage EU is in-order and squashes wrong-path
instructions before any result write (the ISA was designed without side
effects for exactly this), so architecturally an instruction's effects can
be applied atomically; the pipeline model adds *timing* (and wrong-path
fetch) on top of these semantics, never different results. The
differential tests in ``tests/test_sim_differential.py`` enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.instructions import Instruction, resolve_target
from repro.isa.opcodes import (
    ALU_FUNCTIONS,
    NUM_OPCODES,
    OPCODE_INDEX,
    BranchKind,
    CONDITION_FUNCTIONS,
    Condition,
    OpClass,
    Opcode,
    opcode_condition,
    opcode_class,
)
from repro.isa.operands import AddrMode, Operand
from repro.isa.parcels import to_u32
from repro.sim.memory import Memory


class SimulationError(RuntimeError):
    """Raised when a simulated program does something unrecoverable."""


class SimulationHungError(SimulationError):
    """The cycle-budget watchdog fired: the machine did not halt.

    Carries enough to diagnose the hang without re-running: the PCs the
    EU fetched right after the budget expired (a tight loop shows up as
    a short repeating cycle), and the per-site dynamic-fold and
    recovery-flush tallies — the m2sim2 hang signature is a site whose
    fold count grows without bound while its flush count stays zero.
    """

    def __init__(self, max_cycles: int, pcs: list[int],
                 fold_counts: dict[int, int] | None = None,
                 flush_counts: dict[int, int] | None = None) -> None:
        self.max_cycles = max_cycles
        self.pcs = list(pcs)
        self.fold_counts = dict(fold_counts or {})
        self.flush_counts = dict(flush_counts or {})
        distinct = sorted(set(self.pcs))
        parts = [f"machine did not halt within {max_cycles} cycles; "
                 f"looping over {len(distinct)} PCs: "
                 + ", ".join(f"{pc:#x}" for pc in distinct[:16])]
        if self.fold_counts:
            hot = sorted(self.fold_counts.items(),
                         key=lambda item: -item[1])[:4]
            parts.append("hot fold sites: " + ", ".join(
                f"{site:#x}(folds={count}, "
                f"flushes={self.flush_counts.get(site, 0)})"
                for site, count in hot))
        super().__init__("; ".join(parts))


@dataclass
class MachineState:
    """Architectural state: PC, SP, accumulator, the CC flag and memory."""

    memory: Memory
    pc: int = 0
    sp: int = 0
    accum: int = 0
    flag: bool = False
    halted: bool = False

    def read_operand(self, operand: Operand) -> int:
        """Read an operand's 32-bit value."""
        if operand.mode is AddrMode.IMM:
            return to_u32(operand.value)
        if operand.mode is AddrMode.ACC:
            return self.accum
        if operand.mode is AddrMode.ACC_IND:
            return self.memory.read_word(self.accum)
        if operand.mode is AddrMode.ABS:
            return self.memory.read_word(operand.value)
        return self.memory.read_word(to_u32(self.sp + operand.value))

    def write_operand(self, operand: Operand, value: int) -> None:
        """Write a 32-bit value to a writable operand."""
        value = to_u32(value)
        if operand.mode is AddrMode.ACC:
            self.accum = value
        elif operand.mode is AddrMode.ACC_IND:
            self.memory.write_word(self.accum, value)
        elif operand.mode is AddrMode.ABS:
            self.memory.write_word(operand.value, value)
        elif operand.mode is AddrMode.SP_OFF:
            self.memory.write_word(to_u32(self.sp + operand.value), value)
        else:
            raise SimulationError(f"write to non-writable operand {operand}")


@dataclass(frozen=True)
class StepResult:
    """Outcome of executing one instruction.

    ``taken`` is meaningful only when ``is_branch`` — True when control
    actually transferred away from the sequential path.
    """

    next_pc: int
    is_branch: bool = False
    is_conditional: bool = False
    taken: bool = False
    halted: bool = False


def branch_decision(instruction: Instruction, flag: bool) -> bool:
    """Would this branch transfer control, given the flag value?"""
    sense = instruction.branch_sense
    if sense is BranchKind.ALWAYS:
        return True
    if sense is BranchKind.IF_TRUE:
        return flag
    return not flag


# ---- pre-decoded body dispatch -------------------------------------------
#
# The functional simulator and the oracle execute instructions through a
# list indexed by ``Instruction.opcode_index``, which replaces the class
# if-chain and every enum hash with one list load. Each handler returns
# True when the machine halts. The cycle simulator's fast EU runs entry
# bodies through the shape executors further down instead, so the
# fast-vs-reference differential checks those against the reference
# kernel's own if-chain.


def _make_alu2(fn):
    def run(state: MachineState, instruction: Instruction) -> bool:
        dst, src = instruction.operands
        state.write_operand(dst, fn(state.read_operand(dst),
                                    state.read_operand(src)))
        return False
    return run


def _make_alu3(fn):
    def run(state: MachineState, instruction: Instruction) -> bool:
        operands = instruction.operands
        state.accum = to_u32(fn(state.read_operand(operands[0]),
                                state.read_operand(operands[1])))
        return False
    return run


def _make_cmp(fn):
    def run(state: MachineState, instruction: Instruction) -> bool:
        operands = instruction.operands
        state.flag = fn(state.read_operand(operands[0]),
                        state.read_operand(operands[1]))
        return False
    return run


def _run_enter(state: MachineState, instruction: Instruction) -> bool:
    state.sp = to_u32(state.sp - instruction.operands[0].value)
    return False


def _run_spadd(state: MachineState, instruction: Instruction) -> bool:
    state.sp = to_u32(state.sp + instruction.operands[0].value)
    return False


def _run_nop(state: MachineState, instruction: Instruction) -> bool:
    return False


def _run_halt(state: MachineState, instruction: Instruction) -> bool:
    state.halted = True
    return True


def _body_handler(opcode: Opcode):
    cls = opcode_class(opcode)
    if cls is OpClass.ALU2:
        return _make_alu2(ALU_FUNCTIONS[opcode])
    if cls is OpClass.ALU3:
        return _make_alu3(ALU_FUNCTIONS[opcode])
    if cls is OpClass.CMP:
        return _make_cmp(CONDITION_FUNCTIONS[opcode_condition(opcode)])
    if opcode is Opcode.ENTER:
        return _run_enter
    if opcode is Opcode.SPADD:
        return _run_spadd
    if cls is OpClass.NOP:
        return _run_nop
    if cls is OpClass.HALT:
        return _run_halt
    return None  # branch classes: never a decoded-entry body


BODY_EXECUTORS: list = [None] * NUM_OPCODES
for _opcode, _index in OPCODE_INDEX.items():
    BODY_EXECUTORS[_index] = _body_handler(_opcode)
"""Per-opcode body handlers indexed by ``Instruction.opcode_index``;
None for branch opcodes (which cannot appear as an entry body)."""


def execute_body(state: MachineState, instruction: Instruction) -> bool:
    """Execute a non-branching instruction; return True on ``halt``.

    Equivalent to :func:`execute` for the opcode classes that can appear
    as a :class:`~repro.core.decoded.DecodedEntry` body, minus the
    :class:`StepResult` allocation (the oracle's entry loop).
    """
    handler = BODY_EXECUTORS[instruction.opcode_index]
    if handler is None:
        raise SimulationError(
            f"branch opcode {instruction.opcode.value} cannot execute "
            f"as an entry body")
    return handler(state, instruction)



def execute(state: MachineState, instruction: Instruction,
            pc: int) -> StepResult:
    """Execute ``instruction`` located at ``pc``; mutate ``state`` and
    return where control goes next.

    ``state.pc`` is *not* updated here — callers own control flow (the
    pipeline simulator routes next-PC through the decoded-cache fields
    instead of this function's return value; they must agree).
    """
    opcode = instruction.opcode
    cls = instruction.op_class
    sequential = pc + instruction.length_bytes()

    handler = BODY_EXECUTORS[instruction.opcode_index]
    if handler is not None:  # ALU / compare / frame / nop / halt
        return StepResult(sequential, halted=handler(state, instruction))

    if cls is OpClass.JMP:
        target = resolve_target(instruction, pc, state.sp,
                                state.memory.read_word)
        return StepResult(target, is_branch=True, taken=True)

    if cls is OpClass.CONDJMP:
        taken = branch_decision(instruction, state.flag)
        target = resolve_target(instruction, pc, state.sp,
                                state.memory.read_word)
        return StepResult(target if taken else sequential,
                          is_branch=True, is_conditional=True, taken=taken)

    if cls is OpClass.CALL:
        target = resolve_target(instruction, pc, state.sp,
                                state.memory.read_word)
        state.sp = to_u32(state.sp - 4)
        state.memory.write_word(state.sp, sequential)
        return StepResult(target, is_branch=True, taken=True)

    # RETURN / RETI
    if opcode is Opcode.RETI:
        # return from interrupt: restore the saved PSW flag, then the PC
        state.flag = bool(state.memory.read_word(state.sp) & 1)
        state.sp = to_u32(state.sp + 4)
    target = state.memory.read_word(state.sp)
    state.sp = to_u32(state.sp + 4)
    return StepResult(target, is_branch=True, taken=True)


# ---- shape executors (the fast EU) ----------------------------------------
#
# A decoded-cache word is "similar to a horizontal microinstruction": the
# PDU resolves an instruction once and the EU only executes it. The fast
# EU therefore runs an entry body through an executor generated for the
# body's *shape* — its opcode plus its operands' addressing modes — with
# no addressing-mode if-chain and no Memory method call left on the
# per-execution path. ``executor(state, data, operands)`` reads operand
# values from the body's own operand tuple, reads and writes words inline
# on ``data`` (the memory's byte map) with the per-byte address wrap of
# Memory.read_word / write_word, and returns True on ``halt``. The
# arithmetic is ALU_FUNCTIONS / CONDITION_FUNCTIONS with to_u32 / to_s32
# spelled out; the division family calls its ALU_FUNCTIONS entry, so a
# zero divisor raises the same ZeroDivisionError.
#
# A shape depends on nothing but the opcode and the modes, so one executor
# serves every entry of that shape for the life of the process. Shapes are
# generated on first use, never at import; the EU binds one to an entry
# the first time it executes the entry (bind_executor).

_MASK = "0xFFFFFFFF"

#: ALU_FUNCTIONS as expressions over the operand values {a} and {b}
#: ({ua}/{sa}: to_u32/to_s32 of {a}); the result is masked by the caller
_ALU_EXPRESSIONS: dict[Opcode, str] = {
    opcode: expression
    for opcodes, expression in (
        ((Opcode.MOV,), "{b}"),
        ((Opcode.ADD, Opcode.ADD3), "{a} + {b}"),
        ((Opcode.SUB, Opcode.SUB3), "{a} - {b}"),
        ((Opcode.AND, Opcode.AND3), "{a} & {b}"),
        ((Opcode.OR, Opcode.OR3), "{a} | {b}"),
        ((Opcode.XOR, Opcode.XOR3), "{a} ^ {b}"),
        ((Opcode.SHL, Opcode.SHL3), "{a} << ({b} & 31)"),
        ((Opcode.SHR, Opcode.SHR3), "{ua} >> ({b} & 31)"),
        ((Opcode.SAR, Opcode.SAR3), "{sa} >> ({b} & 31)"),
        ((Opcode.MUL, Opcode.MUL3), "{sa} * {sb}"),
        ((Opcode.NOT,), "~{b}"),
        ((Opcode.NEG,), "-{b}"))
    for opcode in opcodes}

#: CONDITION_FUNCTIONS as expressions, in the same notation
_CONDITION_EXPRESSIONS: dict[Condition, str] = {
    Condition.EQ: "{ua} == {ub}",
    Condition.NE: "{ua} != {ub}",
    Condition.SLT: "{sa} < {sb}",
    Condition.SLE: "{sa} <= {sb}",
    Condition.SGT: "{sa} > {sb}",
    Condition.SGE: "{sa} >= {sb}",
    Condition.ULT: "{ua} < {ub}",
    Condition.ULE: "{ua} <= {ub}",
    Condition.UGT: "{ua} > {ub}",
    Condition.UGE: "{ua} >= {ub}",
}

#: (opcode_index, *operand modes) -> that shape's executor
_SHAPES: dict[tuple, Callable[..., bool | None]] = {}


def _load_operand(mode: AddrMode, i: int, lines: list[str],
                  need_value: bool) -> str | None:
    """Append the lines that load operand ``i`` (value into ``v{i}``
    when ``need_value``); return its address variable, or None when
    the operand is not in memory."""
    if mode is AddrMode.IMM:
        if need_value:
            lines.append(f"v{i} = o{i}.value & {_MASK}")
        return None
    if mode is AddrMode.ACC:
        if need_value:
            lines.append(f"v{i} = state.accum")
        return None
    address = f"a{i}"
    if mode is AddrMode.ACC_IND:
        lines.append(f"{address} = state.accum")
    elif mode is AddrMode.ABS:
        lines.append(f"{address} = o{i}.value")
    else:
        lines.append(f"{address} = (state.sp + o{i}.value) & {_MASK}")
    if need_value:
        lines.append(
            f"v{i} = (get({address} & {_MASK}, 0)"
            f" | get(({address} + 1) & {_MASK}, 0) << 8"
            f" | get(({address} + 2) & {_MASK}, 0) << 16"
            f" | get(({address} + 3) & {_MASK}, 0) << 24)")
    return address


def _store_word(address: str, value: str, lines: list[str]) -> None:
    """Append Memory.write_word of the u32 ``value`` at ``address``."""
    lines += [f"data[{address} & {_MASK}] = {value} & 0xFF",
              f"data[({address} + 1) & {_MASK}] = ({value} >> 8) & 0xFF",
              f"data[({address} + 2) & {_MASK}] = ({value} >> 16) & 0xFF",
              f"data[({address} + 3) & {_MASK}] = ({value} >> 24) & 0xFF"]


def _generate_shape(opcode: Opcode,
                    modes: tuple[AddrMode, ...]) -> Callable[..., bool | None]:
    """Compile the executor of one shape (see the section comment)."""
    cls = opcode_class(opcode)
    namespace: dict = {}
    lines: list[str] = []
    if cls in (OpClass.ALU2, OpClass.ALU3, OpClass.CMP):
        if cls is OpClass.CMP:
            template = _CONDITION_EXPRESSIONS[opcode_condition(opcode)]
        else:
            template = _ALU_EXPRESSIONS.get(opcode)
            if template is None:  # the division family
                namespace["alu"] = ALU_FUNCTIONS[opcode]
                template = "alu({a}, {b})"
        loads: list[str] = []
        # an operand's value is read only when the expression uses it
        # ({a}, {ua} or {sa}); an ALU2 destination is always addressed,
        # because it is written
        destination = _load_operand(modes[0], 0, loads, "a}" in template)
        _load_operand(modes[1], 1, loads, "b}" in template)
        # memory and immediate values are u32 already; the accumulator
        # is masked where to_u32 / to_s32 would mask it
        unsigned = [f"v{i}" if mode is not AddrMode.ACC
                    else f"(v{i} & {_MASK})"
                    for i, mode in enumerate(modes)]
        signed = [f"(({u} ^ 0x80000000) - 0x80000000)" for u in unsigned]
        expression = template.format(a="v0", b="v1", ua=unsigned[0],
                                     ub=unsigned[1], sa=signed[0],
                                     sb=signed[1])
        lines.append("o0, o1 = ops")
        if any("get(" in line for line in loads):
            lines.append("get = data.get")
        lines += loads
        if cls is OpClass.CMP:
            lines.append(f"state.flag = {expression}")
        elif cls is OpClass.ALU3:
            lines.append(f"state.accum = ({expression}) & {_MASK}")
        else:
            lines.append(f"r = ({expression}) & {_MASK}")
            if modes[0] is AddrMode.ACC:
                lines.append("state.accum = r")
            elif destination is not None:
                _store_word(destination, "r", lines)
            else:  # immediate destination: raises as write_operand does
                lines.append("state.write_operand(o0, r)")
    elif opcode is Opcode.ENTER:
        lines.append(f"state.sp = (state.sp - ops[0].value) & {_MASK}")
    elif opcode is Opcode.SPADD:
        lines.append(f"state.sp = (state.sp + ops[0].value) & {_MASK}")
    elif cls is OpClass.NOP:
        lines.append("pass")
    elif cls is OpClass.HALT:
        lines += ["state.halted = True", "return True"]
    else:
        raise SimulationError(
            f"branch opcode {opcode.value} cannot execute as an entry body")
    name = "_".join([opcode.name.lower(), *(mode.value for mode in modes)])
    source = (f"def {name}(state, data, ops):\n"
              + "".join(f"    {line}\n" for line in lines))
    exec(compile(source, f"<shape {name}>", "exec"), namespace)
    return namespace[name]


def shape_executor(instruction: Instruction) -> Callable[..., bool | None]:
    """The executor shared by every body with ``instruction``'s opcode
    and operand addressing modes, generated on first use."""
    key = (instruction.opcode_index,
           *(operand.mode for operand in instruction.operands))
    run = _SHAPES.get(key)
    if run is None:
        run = _SHAPES[key] = _generate_shape(instruction.opcode, key[1:])
    return run


def bind_executor(entry) -> Callable[..., bool | None]:
    """Bind a decoded entry's body to its shape executor and return it.

    The executor rides on the entry (``DecodedEntry._executor``), so it
    is shared through the decode table and dropped with it; it is never
    pickled.
    """
    run = shape_executor(entry.body)
    object.__setattr__(entry, "_executor", run)
    return run
