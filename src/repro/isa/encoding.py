"""Binary encoding and decoding of instructions to 16-bit parcels.

Encoding layout (self-consistent; see DESIGN.md on why bit-exactness with
the never-published CRISP format is not required):

* **Base parcel**, all instructions: bits 15..10 hold a 6-bit opcode index.
* **Non-branch**: bits 9..5 and 4..0 are 5-bit operand descriptors.
  Descriptors either encode the operand inline (accumulator modes, small
  immediates, small word-aligned stack offsets) or mark a 32-bit extension
  (two parcels, high half first) that follows the base parcel in operand
  order. Zero, one or two extensions give the architectural one/three/five
  parcel lengths.
* **Short branch**: bits 9..0 are a signed parcel displacement (the paper's
  10-bit PC-relative offset, −1024 … +1022 bytes).
* **Long branch**: bits 9..8 select absolute / indirect-absolute /
  indirect-SP; a 32-bit specifier follows in two parcels.
* **enter**: bits 9..0 are an unsigned frame size; larger frames use a
  32-bit extension.
"""

from __future__ import annotations

from typing import Sequence

from repro.isa.instructions import BranchMode, BranchSpec, Instruction
from repro.isa.opcodes import (
    OpClass,
    Opcode,
    is_branch_opcode,
    is_short_branch_opcode,
    opcode_class,
)
from repro.isa.operands import AddrMode, Operand
from repro.isa.parcels import (
    PARCEL_BYTES,
    join_parcels,
    split_word,
    to_s10,
    to_s32,
    to_u32,
)


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or parcels decoded."""


_OPCODE_LIST = list(Opcode)

# operand descriptor values
_DESC_NONE = 0
_DESC_ACC = 1
_DESC_ACC_IND = 2
_DESC_EXT_IMM = 3
_DESC_EXT_ABS = 4
_DESC_EXT_SPOFF = 5
_DESC_IMM_BASE = 6  # descs 6..21 encode immediates -8..+7
_DESC_SPOFF_BASE = 22  # descs 22..31 encode stack offsets 0,4,..,36

_BRANCH_MODE_BITS = {
    BranchMode.ABSOLUTE: 0,
    BranchMode.INDIRECT_ABS: 1,
    BranchMode.INDIRECT_SP: 2,
}
_BRANCH_MODE_FROM_BITS = {bits: mode for mode, bits in _BRANCH_MODE_BITS.items()}


def _encode_descriptor(operand: Operand) -> tuple[int, int | None]:
    """Return (descriptor, extension word or None) for an operand."""
    if operand.mode is AddrMode.ACC:
        return _DESC_ACC, None
    if operand.mode is AddrMode.ACC_IND:
        return _DESC_ACC_IND, None
    if operand.mode is AddrMode.IMM:
        value = to_s32(operand.value)
        if -8 <= value <= 7:
            return _DESC_IMM_BASE + value + 8, None
        return _DESC_EXT_IMM, to_u32(value)
    if operand.mode is AddrMode.ABS:
        return _DESC_EXT_ABS, to_u32(operand.value)
    # SP_OFF
    if operand.value % 4 == 0 and 0 <= operand.value <= 36:
        return _DESC_SPOFF_BASE + operand.value // 4, None
    return _DESC_EXT_SPOFF, to_u32(operand.value)


def _decode_descriptor(desc: int, extension: int | None) -> Operand:
    """Inverse of :func:`_encode_descriptor`."""
    if desc == _DESC_ACC:
        return Operand(AddrMode.ACC)
    if desc == _DESC_ACC_IND:
        return Operand(AddrMode.ACC_IND)
    if desc == _DESC_EXT_IMM:
        return Operand(AddrMode.IMM, to_s32(extension))
    if desc == _DESC_EXT_ABS:
        return Operand(AddrMode.ABS, extension)
    if desc == _DESC_EXT_SPOFF:
        return Operand(AddrMode.SP_OFF, extension)
    if _DESC_IMM_BASE <= desc < _DESC_SPOFF_BASE:
        return Operand(AddrMode.IMM, desc - _DESC_IMM_BASE - 8)
    if _DESC_SPOFF_BASE <= desc <= 31:
        return Operand(AddrMode.SP_OFF, (desc - _DESC_SPOFF_BASE) * 4)
    raise EncodingError(f"bad operand descriptor {desc}")


# ---- decode tables -----------------------------------------------------------
#
# The decoder indexes plain lists by the base parcel's 6-bit opcode field
# and 5-bit operand descriptors, so it never hashes an ``Opcode`` or
# ``OpClass`` member (``Enum.__hash__`` is a Python-level call, and the PDU
# decodes on every decoded-cache miss).

_NUM_OPCODES = len(_OPCODE_LIST)

# _LENGTH_AT holds, per opcode field, a fixed parcel count or one of
# these two rules
_BY_DESCRIPTORS = 0  #: 1 + both descriptors' extension parcels
_BY_FRAME_SIZE = -1  #: 3 when the frame-size field is all ones, else 1


def _length_rule(opcode: Opcode) -> int:
    cls = opcode_class(opcode)
    if cls in (OpClass.NOP, OpClass.HALT, OpClass.RETURN):
        return 1
    if cls is OpClass.FRAME:
        return _BY_FRAME_SIZE
    if cls in (OpClass.JMP, OpClass.CONDJMP, OpClass.CALL):
        return 1 if is_short_branch_opcode(opcode) else 3
    return _BY_DESCRIPTORS


_LENGTH_AT = [_length_rule(opcode) for opcode in _OPCODE_LIST]
_CLASS_AT = [opcode_class(opcode) for opcode in _OPCODE_LIST]
_SHORT_BRANCH_AT = [is_short_branch_opcode(opcode) for opcode in _OPCODE_LIST]
_BRANCH_AT = [is_branch_opcode(opcode) for opcode in _OPCODE_LIST]

#: extension parcels each operand descriptor adds (0 or 2)
_EXTENSION_PARCELS = [
    2 if desc in (_DESC_EXT_IMM, _DESC_EXT_ABS, _DESC_EXT_SPOFF) else 0
    for desc in range(32)]

#: the operand of each descriptor that encodes it in-parcel; operands are
#: frozen, so every decode shares these
_INLINE_OPERAND = [None if desc == _DESC_NONE or _EXTENSION_PARCELS[desc]
                   else _decode_descriptor(desc, None) for desc in range(32)]


def encode_instruction(instruction: Instruction) -> list[int]:
    """Encode ``instruction`` into its list of 16-bit parcels."""
    index = instruction.opcode_index
    opbits = index << 10
    cls = instruction.op_class

    if cls in (OpClass.NOP, OpClass.HALT, OpClass.RETURN):
        return [opbits]

    if cls is OpClass.FRAME:
        # frame sizes 0..1022 fit in-parcel; 0x3FF marks a 32-bit extension
        size = instruction.operands[0].value
        if 0 <= size <= 1022:
            return [opbits | size]
        high, low = split_word(size)
        return [opbits | 0x3FF, high, low]

    if instruction.is_branch:
        spec = instruction.branch
        assert spec is not None
        if _SHORT_BRANCH_AT[index]:
            displacement_parcels = spec.value // PARCEL_BYTES
            return [opbits | (displacement_parcels & 0x3FF)]
        high, low = split_word(spec.value)
        return [opbits | (_BRANCH_MODE_BITS[spec.mode] << 8), high, low]

    # ALU / compare: two operand descriptors + extensions
    parcels = [0]
    descs = []
    for operand in instruction.operands:
        desc, extension = _encode_descriptor(operand)
        descs.append(desc)
        if extension is not None:
            high, low = split_word(extension)
            parcels.extend((high, low))
    while len(descs) < 2:
        descs.append(_DESC_NONE)
    parcels[0] = opbits | (descs[0] << 5) | descs[1]
    if len(parcels) not in (1, 3, 5):
        raise EncodingError(
            f"{instruction} encoded to {len(parcels)} parcels"
        )
    return parcels


def instruction_length(first_parcel: int) -> int:
    """Return an instruction's parcel count from its base parcel alone.

    This is what the PDU's length decoder does to step the instruction
    queue (``ilen<0:2>`` in the paper's Figure 2).
    """
    index = (first_parcel >> 10) & 0x3F
    if index >= _NUM_OPCODES:
        raise EncodingError(f"illegal opcode index {index}")
    length = _LENGTH_AT[index]
    if length > 0:
        return length
    if length == _BY_DESCRIPTORS:
        return (1 + _EXTENSION_PARCELS[(first_parcel >> 5) & 0x1F]
                + _EXTENSION_PARCELS[first_parcel & 0x1F])
    return 3 if (first_parcel & 0x3FF) == 0x3FF else 1


def is_branch_parcel(first_parcel: int) -> bool:
    """True when a base parcel starts a control-transfer instruction
    (what the PDU's first-level decoder tells from the opcode alone)."""
    index = (first_parcel >> 10) & 0x3F
    if index >= _NUM_OPCODES:
        raise EncodingError(f"illegal opcode index {index}")
    return _BRANCH_AT[index]


def decode_instruction(parcels: Sequence[int], offset: int = 0) -> Instruction:
    """Decode one instruction starting at ``parcels[offset]``.

    Raises :class:`EncodingError` on malformed input (including truncated
    extensions). Use :func:`instruction_length` on the base parcel to know
    how many parcels the instruction consumes.
    """
    if offset >= len(parcels):
        raise EncodingError("decode past end of parcel stream")
    base = parcels[offset]
    length = instruction_length(base)
    index = (base >> 10) & 0x3F
    opcode = _OPCODE_LIST[index]
    if offset + length > len(parcels):
        raise EncodingError(
            f"truncated instruction: {opcode.value} needs {length} parcels"
        )
    cls = _CLASS_AT[index]

    if cls in (OpClass.NOP, OpClass.HALT, OpClass.RETURN):
        return Instruction(opcode)

    if cls is OpClass.FRAME:
        size = base & 0x3FF
        if size == 0x3FF:
            size = join_parcels(parcels[offset + 1], parcels[offset + 2])
        return Instruction(opcode, (Operand(AddrMode.IMM, size),))

    if cls in (OpClass.JMP, OpClass.CONDJMP, OpClass.CALL):
        if _SHORT_BRANCH_AT[index]:
            displacement = to_s10(base & 0x3FF) * PARCEL_BYTES
            spec = BranchSpec(BranchMode.PC_RELATIVE, displacement)
        else:
            mode_bits = (base >> 8) & 0x3
            if mode_bits not in _BRANCH_MODE_FROM_BITS:
                raise EncodingError(f"illegal long-branch mode {mode_bits}")
            value = join_parcels(parcels[offset + 1], parcels[offset + 2])
            spec = BranchSpec(_BRANCH_MODE_FROM_BITS[mode_bits], value)
        return Instruction(opcode, (), spec)

    # ALU / compare
    operands: list[Operand] = []
    cursor = offset + 1
    for desc in ((base >> 5) & 0x1F, base & 0x1F):
        if desc == _DESC_NONE:
            continue
        if _EXTENSION_PARCELS[desc]:
            extension = join_parcels(parcels[cursor], parcels[cursor + 1])
            cursor += 2
            operands.append(_decode_descriptor(desc, extension))
        else:
            operands.append(_INLINE_OPERAND[desc])
    try:
        return Instruction(opcode, tuple(operands))
    except ValueError as exc:
        raise EncodingError(f"malformed instruction parcel: {exc}") from exc


def encode_program(instructions: Sequence[Instruction]) -> list[int]:
    """Encode a sequence of instructions into a flat parcel list."""
    parcels: list[int] = []
    for instruction in instructions:
        parcels.extend(encode_instruction(instruction))
    return parcels
