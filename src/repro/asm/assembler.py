"""The two-pass (iterate-to-fixpoint) assembler.

Layout subtlety: a branch to a label is one parcel when its displacement
fits the 10-bit PC-relative field, three parcels otherwise — but lengths
move label addresses, which move displacements. The assembler starts with
every label branch short and *stickily* promotes out-of-range branches to
the long form, re-laying-out until addresses stabilize. Promotion is
monotone, so the fixpoint always exists and is reached in at most one pass
per branch.

Only a statement whose operands name a code label has to be resolved
again on every layout pass (at ``.org 0`` a label address of 0..7 fits an
in-parcel immediate, so a label can change its statement's length). Every
other statement reads literals, ``.equ`` constants and data symbols, all
fixed before code layout starts, so it is resolved to its
:class:`~repro.isa.instructions.Instruction` once, and each such operand
is built once per assembly. The memos hold only successful results and
live for one assembly: the first layout pass still resolves every
statement in source order, so the first bad line is the one reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.parser import (
    AssemblyError,
    OperandExpr,
    Statement,
    TargetExpr,
    parse_source,
)
from repro.asm.program import (
    DEFAULT_CODE_BASE,
    DEFAULT_DATA_BASE,
    DEFAULT_STACK_TOP,
    DataItem,
    Program,
)
from repro.isa.instructions import BranchMode, BranchSpec, Instruction
from repro.isa.opcodes import (
    BranchKind,
    Opcode,
    long_condjmp_opcode,
    short_condjmp_opcode,
)
from repro.isa.operands import (
    Operand,
    absolute,
    acc,
    acc_ind,
    imm,
    sp_off,
)
from repro.isa.parcels import PARCEL_BYTES, fits_short_branch


_PLAIN_MNEMONICS = {
    opcode.value: opcode
    for opcode in Opcode
    if opcode not in (
        Opcode.JMP, Opcode.JMPL, Opcode.CALL,
        Opcode.IFJMP_T_Y, Opcode.IFJMP_T_N, Opcode.IFJMP_F_Y, Opcode.IFJMP_F_N,
        Opcode.IFJMPL_T_Y, Opcode.IFJMPL_T_N,
        Opcode.IFJMPL_F_Y, Opcode.IFJMPL_F_N,
    )
}

_CONDJMP_MNEMONICS = {
    # mnemonic -> (sense, predicted_taken, force_long)
    "iftjmpy": (BranchKind.IF_TRUE, True, False),
    "iftjmpn": (BranchKind.IF_TRUE, False, False),
    "iffjmpy": (BranchKind.IF_FALSE, True, False),
    "iffjmpn": (BranchKind.IF_FALSE, False, False),
    "iftjmply": (BranchKind.IF_TRUE, True, True),
    "iftjmpln": (BranchKind.IF_TRUE, False, True),
    "iffjmply": (BranchKind.IF_FALSE, True, True),
    "iffjmpln": (BranchKind.IF_FALSE, False, True),
}


@dataclass
class _ProtoInstruction:
    """An instruction before branch-form selection and symbol resolution."""

    statement: Statement
    mnemonic: str
    labels: list[str]
    force_long: bool = False  # sticky short->long promotion
    #: a non-branch's operands name no code label: resolve it once
    fixed: bool = False
    #: a non-branch's latest resolution; the last layout pass resolves a
    #: label-reading one with the final labels
    instruction: Instruction | None = None


@dataclass
class _DataBlock:
    """The words one ``.word`` or ``.reserve`` directive lays out."""

    line_no: int
    values: list[int | str]  #: ``.word`` values (numbers or symbol names)
    reserved: int = 0  #: ``.reserve`` count, materialized after layout

    @property
    def words(self) -> int:
        return len(self.values) or self.reserved


def assemble(source: str,
             code_base: int = DEFAULT_CODE_BASE,
             data_base: int = DEFAULT_DATA_BASE,
             stack_top: int = DEFAULT_STACK_TOP) -> Program:
    """Assemble ``source`` text into a :class:`Program`."""
    statements = parse_source(source)
    return _Assembler(statements, code_base, data_base, stack_top).run()


class _Assembler:
    def __init__(self, statements: list[Statement], code_base: int,
                 data_base: int, stack_top: int) -> None:
        self.statements = statements
        self.code_base = code_base
        self.data_base = data_base
        self.stack_top = stack_top
        self.entry_label: str | None = None
        self.equ: dict[str, int] = {}
        self.data_blocks: dict[str, _DataBlock] = {}
        self.data_symbols: dict[str, int] = {}
        self.data: list[DataItem] = []
        self.protos: list[_ProtoInstruction] = []
        self.code_labels: dict[str, int] = {}
        #: operands that read no code label, built once per assembly
        self.fixed_operands: dict[OperandExpr, Operand] = {}

    # ---- driver ---------------------------------------------------------

    def run(self) -> Program:
        self._collect()
        self._layout_data()
        for proto in self.protos:
            proto.fixed = all(map(self._is_fixed, proto.statement.operands))
        addresses = self._layout_code()
        instructions = [
            self._build(proto, address)
            for proto, address in zip(self.protos, addresses)
        ]
        self._build_data()
        symbols = dict(self.data_symbols)
        symbols.update(self.code_labels)
        entry = self.code_base
        if self.entry_label is not None:
            if self.entry_label not in self.code_labels:
                raise AssemblyError(f"entry label {self.entry_label!r} undefined")
            entry = self.code_labels[self.entry_label]
        return Program(
            instructions=instructions,
            addresses=addresses,
            symbols=symbols,
            data=self.data,
            entry=entry,
            code_base=self.code_base,
            stack_top=self.stack_top,
        )

    # ---- pass 1: directives and proto-instructions -----------------------

    def _collect(self) -> None:
        pending_labels: list[str] = []
        for statement in self.statements:
            labels = pending_labels + statement.labels
            pending_labels = []
            if statement.directive is not None:
                self._directive(statement, labels)
            elif statement.mnemonic is not None:
                self.protos.append(
                    _ProtoInstruction(statement, statement.mnemonic, labels))
            else:
                pending_labels = labels
        if pending_labels:
            # trailing labels name the end of the code segment
            self.protos.append(
                _ProtoInstruction(self.statements[-1], "nop", pending_labels))

    def _directive(self, statement: Statement, labels: list[str]) -> None:
        name = statement.directive
        args = statement.directive_args
        if labels:
            raise AssemblyError(
                f"line {statement.line_no}: labels cannot precede .{name}")
        if name == "org":
            self.code_base = self._number(args, 0, statement)
        elif name == "dataorg":
            self.data_base = self._number(args, 0, statement)
        elif name == "stack":
            self.stack_top = self._number(args, 0, statement)
        elif name == "entry":
            if len(args) != 1:
                raise AssemblyError(
                    f"line {statement.line_no}: .entry takes one label")
            self.entry_label = args[0]
        elif name == "equ":
            if len(args) != 2:
                raise AssemblyError(
                    f"line {statement.line_no}: .equ takes name, value")
            self.equ[args[0]] = self._number(args, 1, statement)
        elif name == "word":
            if not args:
                raise AssemblyError(
                    f"line {statement.line_no}: .word takes name[, values]")
            # values may be numbers or label names (resolved after code
            # layout — how switch jump tables are built)
            values: list[int | str] = []
            for raw in args[1:]:
                try:
                    values.append(int(raw, 0))
                except ValueError:
                    values.append(raw)
            self._add_data(args[0], _DataBlock(statement.line_no,
                                               values or [0]))
        elif name == "reserve":
            if len(args) != 2:
                raise AssemblyError(
                    f"line {statement.line_no}: .reserve takes name, nwords")
            count = self._number(args, 1, statement)
            if count < 0:
                raise AssemblyError(
                    f"line {statement.line_no}: .reserve {args[0]}: "
                    f"negative word count {count}")
            self._add_data(args[0], _DataBlock(statement.line_no, [], count))
        else:
            raise AssemblyError(
                f"line {statement.line_no}: unknown directive .{name}")

    @staticmethod
    def _number(args: tuple, index: int, statement: Statement) -> int:
        try:
            return int(args[index], 0)
        except (IndexError, ValueError) as exc:
            raise AssemblyError(
                f"line {statement.line_no}: bad directive argument") from exc

    def _add_data(self, name: str, block: _DataBlock) -> None:
        if name in self.data_blocks:
            raise AssemblyError(f"duplicate data symbol {name!r}")
        self.data_blocks[name] = block

    def _layout_data(self) -> None:
        """Bind every data symbol. Each symbol and each word it names must
        lie in the 32-bit address space; checked here, where the final
        ``.dataorg`` is known and before any reserved word is built."""
        cursor = self.data_base
        for name, block in self.data_blocks.items():
            if cursor + 4 * max(block.words, 1) > 0x100000000:
                raise AssemblyError(
                    f"line {block.line_no}: data symbol {name!r} at "
                    f"{cursor:#x} ({block.words} words) runs past "
                    f"0xFFFFFFFF")
            self.data_symbols[name] = cursor
            cursor += 4 * block.words

    def _build_data(self) -> None:
        """Materialize data items, resolving label-valued words (only
        possible once code layout has bound every label)."""
        for name, block in self.data_blocks.items():
            cursor = self.data_symbols[name]
            for value in block.values or [0] * block.reserved:
                if isinstance(value, str):
                    if value in self.code_labels:
                        value = self.code_labels[value]
                    elif value in self.data_symbols:
                        value = self.data_symbols[value]
                    elif value in self.equ:
                        value = self.equ[value]
                    else:
                        raise AssemblyError(
                            f"undefined symbol {value!r} in .word {name}")
                self.data.append(DataItem(cursor, value & 0xFFFFFFFF, name))
                cursor += 4

    # ---- pass 2: iterative code layout ------------------------------------

    def _layout_code(self) -> list[int]:
        addresses = [self.code_base] * len(self.protos)
        for _ in range(len(self.protos) + 4):
            self._bind_labels(addresses)
            new_addresses, changed = [], False
            cursor = self.code_base
            for i, proto in enumerate(self.protos):
                new_addresses.append(cursor)
                if cursor != addresses[i]:
                    changed = True
                cursor += self._length_of(proto, cursor) * PARCEL_BYTES
            addresses = new_addresses
            if not changed:
                self._bind_labels(addresses)
                # final promotion check: a branch may have gone out of range
                # on the very last settle; verify all short branches fit
                if not self._promote_out_of_range(addresses):
                    return addresses
        raise AssemblyError("code layout failed to converge")

    def _bind_labels(self, addresses: list[int]) -> None:
        self.code_labels = {}
        for proto, address in zip(self.protos, addresses):
            for label in proto.labels:
                if label in self.code_labels or label in self.data_symbols:
                    raise AssemblyError(f"duplicate label {label!r}")
                self.code_labels[label] = address

    def _promote_out_of_range(self, addresses: list[int]) -> bool:
        promoted = False
        for proto, address in zip(self.protos, addresses):
            target = proto.statement.target
            if target is None or proto.force_long:
                continue
            if proto.mnemonic in ("jmpl", "call") or (
                    proto.mnemonic in _CONDJMP_MNEMONICS
                    and _CONDJMP_MNEMONICS[proto.mnemonic][2]):
                continue
            if target.kind == "label":
                label_address = self._label_address(target, proto.statement)
                if not fits_short_branch(label_address - address):
                    proto.force_long = True
                    promoted = True
            elif target.kind != "label":
                proto.force_long = True  # numeric / indirect: always long
        return promoted

    def _label_address(self, target: TargetExpr, statement: Statement) -> int:
        assert target.name is not None
        if target.name not in self.code_labels:
            raise AssemblyError(
                f"line {statement.line_no}: undefined label {target.name!r}")
        return self.code_labels[target.name]

    def _length_of(self, proto: _ProtoInstruction, address: int) -> int:
        target = proto.statement.target
        if target is not None:
            if proto.mnemonic in ("jmpl", "call"):
                return 3
            if proto.mnemonic in _CONDJMP_MNEMONICS and \
                    _CONDJMP_MNEMONICS[proto.mnemonic][2]:
                return 3
            if proto.force_long or target.kind != "label":
                return 3
            label_address = self.code_labels.get(target.name or "", address)
            return 1 if fits_short_branch(label_address - address) else 3
        instruction = proto.instruction
        if instruction is None or not proto.fixed:
            instruction = proto.instruction = self._resolve_plain(proto)
        return instruction.length_parcels()

    # ---- pass 3: final instruction construction ---------------------------

    def _build(self, proto: _ProtoInstruction, address: int) -> Instruction:
        target = proto.statement.target
        if target is None:
            # resolved by the last layout pass, with the final labels
            assert proto.instruction is not None
            return proto.instruction
        return self._resolve_branch(proto, address, target)

    def _resolve_plain(self, proto: _ProtoInstruction) -> Instruction:
        statement = proto.statement
        opcode = _PLAIN_MNEMONICS.get(proto.mnemonic)
        if opcode is None:
            raise AssemblyError(
                f"line {statement.line_no}: unknown mnemonic {proto.mnemonic!r}")
        try:
            return Instruction(opcode, tuple(
                self._resolve_operand(expr, statement)
                for expr in statement.operands))
        except AssemblyError:
            raise
        except ValueError as exc:  # an Operand or Instruction range check
            raise AssemblyError(f"line {statement.line_no}: {exc}") from exc

    def _is_fixed(self, expr: OperandExpr) -> bool:
        """True if ``expr`` reads no code label (nor an undefined name)."""
        name = expr.name
        return name is None or name in self.equ or name in self.data_symbols

    def _resolve_operand(self, expr: OperandExpr,
                         statement: Statement) -> Operand:
        operand = self.fixed_operands.get(expr)
        if operand is None:
            operand = self._build_operand(expr, statement)
            if self._is_fixed(expr):
                self.fixed_operands[expr] = operand
        return operand

    def _build_operand(self, expr: OperandExpr,
                       statement: Statement) -> Operand:
        if expr.kind == "imm":
            return imm(expr.value)
        if expr.kind == "acc":
            return acc()
        if expr.kind == "acc_ind":
            return acc_ind()
        if expr.kind == "sp_off":
            if expr.value < 0:
                raise AssemblyError(
                    f"line {statement.line_no}: negative stack offset")
            return sp_off(expr.value)
        if expr.kind == "abs":
            return absolute(expr.value)
        if expr.kind == "imm_symbol":
            return imm(self._symbol_value(expr.name, statement))
        if expr.kind == "symbol_off":
            # data symbol plus a constant byte offset (array elements)
            return absolute(
                self._symbol_value(expr.name, statement) + expr.value)
        # bare symbol: equ constants become immediates, labels become
        # direct-memory operands
        assert expr.name is not None
        if expr.name in self.equ:
            return imm(self.equ[expr.name])
        return absolute(self._symbol_value(expr.name, statement))

    def _symbol_value(self, name: str | None, statement: Statement) -> int:
        assert name is not None
        for table in (self.equ, self.data_symbols, self.code_labels):
            if name in table:
                return table[name]
        raise AssemblyError(
            f"line {statement.line_no}: undefined symbol {name!r}")

    def _resolve_branch(self, proto: _ProtoInstruction, address: int,
                        target: TargetExpr) -> Instruction:
        statement = proto.statement
        mnemonic = proto.mnemonic

        if target.kind == "label":
            destination = self._label_address(target, statement)
            displacement = destination - address
            use_short = (not proto.force_long
                         and mnemonic not in ("jmpl", "call")
                         and not (mnemonic in _CONDJMP_MNEMONICS
                                  and _CONDJMP_MNEMONICS[mnemonic][2])
                         and fits_short_branch(displacement))
            if use_short:
                spec = BranchSpec(BranchMode.PC_RELATIVE, displacement)
            else:
                spec = BranchSpec(BranchMode.ABSOLUTE, destination)
        elif target.kind == "abs":
            spec = BranchSpec(BranchMode.ABSOLUTE, target.value)
        elif target.kind == "ind_abs":
            spec = BranchSpec(BranchMode.INDIRECT_ABS, target.value)
        else:
            spec = BranchSpec(BranchMode.INDIRECT_SP, target.value)

        short = spec.mode is BranchMode.PC_RELATIVE
        if mnemonic in ("jmp", "jmpl"):
            opcode = Opcode.JMP if short else Opcode.JMPL
        elif mnemonic == "call":
            opcode = Opcode.CALL
        elif mnemonic in _CONDJMP_MNEMONICS:
            sense, predicted, _ = _CONDJMP_MNEMONICS[mnemonic]
            opcode = (short_condjmp_opcode(sense, predicted) if short
                      else long_condjmp_opcode(sense, predicted))
        else:
            raise AssemblyError(
                f"line {statement.line_no}: unknown branch mnemonic {mnemonic!r}")
        try:
            return Instruction(opcode, (), spec)
        except ValueError as exc:
            raise AssemblyError(f"line {statement.line_no}: {exc}") from exc
