"""Instruction operands and addressing modes.

CRISP is a memory-to-memory architecture with a stack cache; operands name
memory locations (absolute addresses or stack-pointer offsets), immediates,
or the accumulator. The paper's compiler output uses exactly these forms
(``add sum,i``, ``and3 i,1``, ``cmp.= Accum,0``).

Short (in-parcel) encodings exist for small immediates and small
word-aligned stack offsets; anything else takes a 32-bit extension, which is
what pushes an instruction from one parcel to three or five.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa.parcels import to_s32

SHORT_IMM_MIN = -8
SHORT_IMM_MAX = 7
SHORT_SPOFF_MAX = 36  # word-aligned stack offsets 0..36 encode in-parcel


class AddrMode(enum.Enum):
    """Operand addressing mode."""

    IMM = "imm"  #: immediate constant
    ABS = "abs"  #: direct memory access at an absolute address
    SP_OFF = "sp"  #: memory at stack pointer + byte offset
    ACC = "acc"  #: the accumulator pseudo-register
    ACC_IND = "acc_ind"  #: memory at the address held in the accumulator


@dataclass(frozen=True)
class Operand:
    """A single instruction operand: an addressing mode plus its value.

    ``value`` is an immediate constant for :attr:`AddrMode.IMM`, a byte
    address for :attr:`AddrMode.ABS`, a byte offset for
    :attr:`AddrMode.SP_OFF`, and unused (zero) for the accumulator modes.
    """

    mode: AddrMode
    value: int = 0

    # ``fits_in_parcel`` is a plain instance attribute (not a dataclass
    # field, so __init__/__eq__/__repr__ are unchanged) cached at
    # construction — it is fixed by mode/value and read on every
    # length computation.

    def __post_init__(self) -> None:
        if self.mode in (AddrMode.ACC, AddrMode.ACC_IND) and self.value != 0:
            raise ValueError(f"{self.mode.name} operand takes no value")
        if self.mode is AddrMode.SP_OFF and self.value < 0:
            raise ValueError("stack offsets must be non-negative")
        if self.mode is AddrMode.SP_OFF and self.value > 0xFFFFFFFF:
            raise ValueError("stack offset out of 32-bit range")
        if self.mode is AddrMode.ABS and not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError("absolute address out of 32-bit range")
        if self.mode is AddrMode.IMM and not -0x80000000 <= self.value <= 0xFFFFFFFF:
            raise ValueError("immediate out of 32-bit range")
        object.__setattr__(self, "fits_in_parcel", self._fits_in_parcel())

    @property
    def is_memory(self) -> bool:
        """True if the operand names a memory location."""
        return self.mode in (AddrMode.ABS, AddrMode.SP_OFF, AddrMode.ACC_IND)

    @property
    def is_writable(self) -> bool:
        """True if the operand may be used as a destination."""
        return self.mode is not AddrMode.IMM

    def _fits_in_parcel(self) -> bool:
        if self.mode in (AddrMode.ACC, AddrMode.ACC_IND):
            return True
        if self.mode is AddrMode.IMM:
            return SHORT_IMM_MIN <= to_s32(self.value) <= SHORT_IMM_MAX
        if self.mode is AddrMode.SP_OFF:
            return self.value % 4 == 0 and 0 <= self.value <= SHORT_SPOFF_MAX
        return False  # ABS always needs a 32-bit extension

    def __str__(self) -> str:
        if self.mode is AddrMode.IMM:
            return f"${to_s32(self.value)}"
        if self.mode is AddrMode.ABS:
            return f"*{self.value:#x}"
        if self.mode is AddrMode.SP_OFF:
            return f"{self.value}(sp)"
        if self.mode is AddrMode.ACC:
            return "Accum"
        return "(Accum)"


def imm(value: int) -> Operand:
    """Immediate operand."""
    return Operand(AddrMode.IMM, value)


def absolute(address: int) -> Operand:
    """Direct-memory operand at an absolute byte address."""
    return Operand(AddrMode.ABS, address)


def sp_off(offset: int) -> Operand:
    """Memory operand at stack pointer + ``offset`` bytes."""
    return Operand(AddrMode.SP_OFF, offset)


def acc() -> Operand:
    """The accumulator."""
    return Operand(AddrMode.ACC)


def acc_ind() -> Operand:
    """Memory at the address held in the accumulator."""
    return Operand(AddrMode.ACC_IND)
