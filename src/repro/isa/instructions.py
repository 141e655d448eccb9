"""The architectural instruction: opcode + operands + branch specifier.

An :class:`Instruction` is what the assembler produces and what both
simulators execute. Its encoded length in parcels is fully determined by
its contents (:meth:`Instruction.length_parcels`), which is what the branch
folder keys on — CRISP folds only one- and three-parcel non-branching
instructions with one-parcel branches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.opcodes import (
    OPCODE_INDEX,
    BranchKind,
    OpClass,
    Opcode,
    condjmp_predicted_taken,
    condjmp_sense,
    is_branch_opcode,
    is_short_branch_opcode,
    opcode_class,
)
from repro.isa.operands import Operand
from repro.isa.parcels import PARCEL_BYTES, fits_short_branch, to_s32


class BranchMode(enum.Enum):
    """Target addressing mode of a branch instruction."""

    PC_RELATIVE = "pcrel"  #: one-parcel form, 10-bit byte displacement
    ABSOLUTE = "abs"  #: three-parcel form, 32-bit absolute address
    INDIRECT_ABS = "ind_abs"  #: branch to M[absolute address]
    INDIRECT_SP = "ind_sp"  #: branch to M[SP + 32-bit offset]


@dataclass(frozen=True)
class BranchSpec:
    """Where a branch transfers control.

    ``value`` is a byte displacement for :attr:`BranchMode.PC_RELATIVE`
    (relative to the address of the branch instruction itself — when a
    branch is folded, the hardware applies a *branch adjust* so the stored
    displacement stays relative to the branch), an absolute address for
    :attr:`BranchMode.ABSOLUTE` / :attr:`BranchMode.INDIRECT_ABS`, and a
    stack offset for :attr:`BranchMode.INDIRECT_SP`.
    """

    mode: BranchMode
    value: int

    def __post_init__(self) -> None:
        if self.mode is BranchMode.PC_RELATIVE and not fits_short_branch(self.value):
            raise ValueError(
                f"PC-relative displacement {self.value} outside one-parcel "
                f"branch range [-1024, +1022] or not parcel-aligned"
            )

    @property
    def is_indirect(self) -> bool:
        """True if the target comes from memory at branch time."""
        return self.mode in (BranchMode.INDIRECT_ABS, BranchMode.INDIRECT_SP)

    def __str__(self) -> str:
        if self.mode is BranchMode.PC_RELATIVE:
            return f".{self.value:+d}"
        if self.mode is BranchMode.ABSOLUTE:
            return f"{self.value:#x}"
        if self.mode is BranchMode.INDIRECT_ABS:
            return f"(*{self.value:#x})"
        return f"({self.value}(sp))"


@dataclass(frozen=True)
class Instruction:
    """One architectural CRISP instruction.

    ``operands`` carries the data operands (0, 1 or 2 of them, by opcode
    class); ``branch`` carries the control-transfer specifier for branch
    opcodes. ``label`` is optional symbolic metadata preserved by the
    assembler for listings; it never affects semantics or encoding.
    """

    opcode: Opcode
    operands: tuple[Operand, ...] = ()
    branch: BranchSpec | None = None
    label: str | None = field(default=None, compare=False)

    # Everything derivable from the frozen fields — class, lengths, branch
    # metadata — is computed once here and stored as plain instance
    # attributes (not dataclass fields, so __init__/__eq__/__repr__ keep
    # their shape), because the simulators read these on every execution
    # of the instruction.

    def __post_init__(self) -> None:
        facts = _OPCODE_FACTS[self.opcode._value_]
        cls = facts.op_class
        expected = facts.operand_count
        if len(self.operands) != expected:
            raise ValueError(
                f"{self.opcode.value} takes {expected} operand(s), "
                f"got {len(self.operands)}"
            )
        if cls is OpClass.ALU2 and not self.operands[0].is_writable:
            raise ValueError(f"{self.opcode.value} destination must be writable")
        branching = facts.is_branch
        if branching and cls is not OpClass.RETURN:
            if self.branch is None:
                raise ValueError(f"{self.opcode.value} requires a branch target")
            if facts.is_short_branch:
                if self.branch.mode is not BranchMode.PC_RELATIVE:
                    raise ValueError("short branches are PC-relative only")
            elif self.branch.mode is BranchMode.PC_RELATIVE:
                raise ValueError("long branches cannot be PC-relative")
            if self.opcode is Opcode.CALL and self.branch.mode is BranchMode.PC_RELATIVE:
                raise ValueError("call uses the three-parcel form")
        elif self.branch is not None and not branching:
            raise ValueError(f"{self.opcode.value} cannot carry a branch target")

        cache = object.__setattr__
        cache(self, "op_class", cls)
        cache(self, "is_branch", branching)
        cache(self, "is_conditional_branch", cls is OpClass.CONDJMP)
        cache(self, "sets_flag", cls is OpClass.CMP)
        cache(self, "opcode_index", facts.index)
        cache(self, "_branch_sense", facts.branch_sense)
        cache(self, "_predicted_taken", facts.predicted_taken)
        parcels = facts.length_parcels
        if parcels is None:
            parcels = self._compute_length_parcels(cls)
        cache(self, "_length_parcels", parcels)
        cache(self, "_length_bytes", parcels * PARCEL_BYTES)

    # ---- classification ------------------------------------------------
    #
    # ``op_class`` / ``is_branch`` / ``is_conditional_branch`` /
    # ``sets_flag`` / ``opcode_index`` are plain attributes cached by
    # ``__post_init__`` (see above). The two below keep their historical
    # raising behaviour for non-branch opcodes, so they stay properties
    # over the cached values.

    @property
    def branch_sense(self) -> BranchKind:
        """ALWAYS / IF_TRUE / IF_FALSE for branch opcodes."""
        sense = self._branch_sense
        if sense is None:
            raise ValueError(f"{self.opcode.value} is not a branch")
        return sense

    @property
    def predicted_taken(self) -> bool:
        """The static branch-prediction bit (conditional branches only)."""
        predicted = self._predicted_taken
        if predicted is None:
            raise KeyError(self.opcode)
        return predicted

    # ---- encoding geometry ----------------------------------------------

    def _compute_length_parcels(self, cls: OpClass) -> int:
        """Length of an opcode without a fixed one (see _OpcodeFacts)."""
        if cls is OpClass.FRAME:
            # ``enter`` has a dedicated 10-bit frame-size field in-parcel;
            # the all-ones pattern marks the three-parcel extended form.
            return 1 if 0 <= self.operands[0].value <= 1022 else 3
        extensions = sum(0 if op.fits_in_parcel else 1 for op in self.operands)
        return 1 + 2 * extensions

    def length_parcels(self) -> int:
        """Encoded length in 16-bit parcels (always 1, 3 or 5)."""
        return self._length_parcels

    def length_bytes(self) -> int:
        """Encoded length in bytes."""
        return self._length_bytes

    # ---- presentation ----------------------------------------------------

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.branch is not None:
            parts.append(str(self.branch))
        elif self.operands:
            parts.append(",".join(str(op) for op in self.operands))
        return " ".join(parts)


_OPERAND_COUNT = {
    OpClass.ALU2: 2,
    OpClass.ALU3: 2,
    OpClass.CMP: 2,
    OpClass.JMP: 0,
    OpClass.CONDJMP: 0,
    OpClass.CALL: 0,
    OpClass.RETURN: 0,
    OpClass.FRAME: 1,
    OpClass.NOP: 0,
    OpClass.HALT: 0,
}


@dataclass(frozen=True, slots=True)
class _OpcodeFacts:
    """Everything :class:`Instruction` derives from its opcode alone."""

    op_class: OpClass
    index: int  #: OPCODE_INDEX
    operand_count: int
    is_branch: bool
    is_short_branch: bool
    branch_sense: BranchKind | None  #: None unless a branch
    predicted_taken: bool | None  #: None unless a conditional branch
    #: parcel count when the opcode fixes it, else None (frame sizes and
    #: operand extensions decide)
    length_parcels: int | None


def _opcode_facts(opcode: Opcode) -> _OpcodeFacts:
    cls = opcode_class(opcode)
    branching = is_branch_opcode(opcode)
    short = is_short_branch_opcode(opcode)
    if cls is OpClass.CONDJMP:
        sense = condjmp_sense(opcode)
        predicted = condjmp_predicted_taken(opcode)
    else:
        sense = BranchKind.ALWAYS if branching else None
        predicted = None
    if cls in (OpClass.RETURN, OpClass.NOP, OpClass.HALT):
        length = 1
    elif branching:
        length = 1 if short else 3
    else:
        length = None
    return _OpcodeFacts(cls, OPCODE_INDEX[opcode], _OPERAND_COUNT[cls],
                        branching, short, sense, predicted, length)


#: per-opcode facts keyed by the opcode's value string: one lookup per
#: construction, and a str hash is cached where ``Enum.__hash__`` is a
#: Python-level call
_OPCODE_FACTS: dict[str, _OpcodeFacts] = {
    opcode._value_: _opcode_facts(opcode) for opcode in Opcode}


def nop() -> Instruction:
    """A no-operation instruction."""
    return Instruction(Opcode.NOP)


def halt() -> Instruction:
    """A halt instruction (stops the simulators)."""
    return Instruction(Opcode.HALT)


def resolve_target(instruction: Instruction, pc: int, sp: int,
                   read_word) -> int:
    """Compute a branch instruction's target address.

    ``pc`` is the address of the *branch instruction itself* (displacements
    are branch-relative; folding hardware compensates with the branch
    adjust). ``read_word`` is a callable ``addr -> word`` used for the
    indirect modes. ``return`` targets are resolved by the caller from the
    stack, not here.
    """
    spec = instruction.branch
    if spec is None:
        raise ValueError(f"{instruction.opcode.value} has no branch target")
    if spec.mode is BranchMode.PC_RELATIVE:
        return pc + to_s32(spec.value)
    if spec.mode is BranchMode.ABSOLUTE:
        return spec.value
    if spec.mode is BranchMode.INDIRECT_ABS:
        return read_word(spec.value)
    return read_word(sp + spec.value)
