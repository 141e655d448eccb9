"""Line-oriented parser for CRISP assembly text.

Grammar (one statement per line, ``;`` or ``#`` start a comment):

.. code-block:: text

    label:                          ; define a code label
    .org 0x1000                     ; code base address
    .dataorg 0x8000                 ; data base address
    .entry main                     ; execution entry label
    .equ N, 1024                    ; assemble-time constant
    .word counter, 0                ; initialized data word(s)
    .reserve buffer, 16             ; reserve N zeroed words
    mnemonic operand, operand       ; an instruction

Operands: ``$imm`` (also ``$label`` for address-of), ``N(sp)``, ``*addr``,
a bare data symbol (direct memory), ``Accum`` and ``(Accum)``. Branches
take a label, ``*addr``, ``(*addr)`` (indirect absolute) or ``(N(sp))``
(indirect through the stack).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class AssemblyError(ValueError):
    """Raised when a source program cannot be assembled.

    Defined here, at the first stage that raises it, so the parser's own
    :class:`AsmSyntaxError` is one; :mod:`repro.asm.assembler` re-exports
    it.
    """


class AsmSyntaxError(AssemblyError):
    """Raised on malformed assembly text, with line information."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


@dataclass(frozen=True)
class OperandExpr:
    """Unresolved operand as written in the source.

    ``kind`` is one of ``imm``, ``imm_symbol``, ``abs``, ``symbol``,
    ``sp_off``, ``acc``, ``acc_ind``.
    """

    kind: str
    value: int = 0
    name: str | None = None


@dataclass(frozen=True)
class TargetExpr:
    """Unresolved branch target.

    ``kind`` is one of ``label``, ``abs``, ``ind_abs``, ``ind_sp``.
    """

    kind: str
    value: int = 0
    name: str | None = None


@dataclass
class Statement:
    """One parsed source statement."""

    line_no: int
    labels: list[str] = field(default_factory=list)
    directive: str | None = None
    directive_args: tuple = ()
    mnemonic: str | None = None
    operands: list[OperandExpr] = field(default_factory=list)
    target: TargetExpr | None = None


_COMMENT_RE = re.compile(r"[;#]")
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_NUMBER_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
_SP_OFF_RE = re.compile(r"^([+-]?(?:0[xX][0-9a-fA-F]+|\d+))\(sp\)$", re.IGNORECASE)
_IDENT_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_SYMBOL_OFF_RE = re.compile(
    r"^([A-Za-z_.$][\w.$]*)\s*([+-])\s*(0[xX][0-9a-fA-F]+|\d+)$")

BRANCH_MNEMONICS = {
    "jmp", "jmpl", "call",
    "iftjmpy", "iftjmpn", "iffjmpy", "iffjmpn",
    "iftjmply", "iftjmpln", "iffjmply", "iffjmpln",
}
"""Mnemonics whose operand is a control-flow target, not data."""


def _parse_number(text: str) -> int:
    return int(text, 0)


def parse_operand(text: str, line_no: int, line: str) -> OperandExpr:
    """Parse one data-operand expression."""
    text = text.strip()
    if not text:
        raise AsmSyntaxError("empty operand", line_no, line)
    lowered = text.lower()
    if lowered in ("accum", "acc"):
        return OperandExpr("acc")
    if _NUMBER_RE.match(text):
        # bare numbers are immediates, matching the paper's listings
        # (``add i,1``, ``cmp.s< i,1024``)
        return OperandExpr("imm", _parse_number(text))
    if lowered in ("(accum)", "(acc)"):
        return OperandExpr("acc_ind")
    if text.startswith("$"):
        body = text[1:]
        if _NUMBER_RE.match(body):
            return OperandExpr("imm", _parse_number(body))
        if _IDENT_RE.match(body):
            return OperandExpr("imm_symbol", name=body)
        raise AsmSyntaxError(f"bad immediate {text!r}", line_no, line)
    if text.startswith("*"):
        body = text[1:]
        if _NUMBER_RE.match(body):
            return OperandExpr("abs", _parse_number(body))
        raise AsmSyntaxError(f"bad absolute operand {text!r}", line_no, line)
    match = _SP_OFF_RE.match(text)
    if match:
        return OperandExpr("sp_off", _parse_number(match.group(1)))
    if _IDENT_RE.match(text):
        return OperandExpr("symbol", name=text)
    match = _SYMBOL_OFF_RE.match(text)
    if match:
        offset = _parse_number(match.group(3))
        if match.group(2) == "-":
            offset = -offset
        return OperandExpr("symbol_off", offset, match.group(1))
    raise AsmSyntaxError(f"bad operand {text!r}", line_no, line)


def _target_address(body: str, form: str, text: str, line_no: int,
                    line: str) -> int:
    try:
        return _parse_number(body)
    except ValueError:
        raise AsmSyntaxError(f"bad {form} target {text!r}",
                             line_no, line) from None


def parse_target(text: str, line_no: int, line: str) -> TargetExpr:
    """Parse one branch-target expression."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        if inner.startswith("*"):
            return TargetExpr("ind_abs", _target_address(
                inner[1:], "indirect", text, line_no, line))
        match = _SP_OFF_RE.match(inner)
        if match:
            return TargetExpr("ind_sp", _parse_number(match.group(1)))
        raise AsmSyntaxError(f"bad indirect target {text!r}", line_no, line)
    if text.startswith("*"):
        return TargetExpr("abs", _target_address(
            text[1:], "absolute", text, line_no, line))
    if _NUMBER_RE.match(text):
        return TargetExpr("abs", _parse_number(text))
    if _IDENT_RE.match(text):
        return TargetExpr("label", name=text)
    raise AsmSyntaxError(f"bad branch target {text!r}", line_no, line)


def _split_operands(text: str) -> list[str]:
    """Split an operand field on commas not inside parentheses."""
    parts, depth, current = [], 0, []
    for piece in text.split(","):
        current.append(piece)
        depth += piece.count("(") - piece.count(")")
        if depth == 0:
            parts.append(",".join(current))
            current = []
    if current:
        parts.append(",".join(current))
    return [p for p in (part.strip() for part in parts) if p]


def parse_line(line: str, line_no: int,
               operands: dict[str, OperandExpr] | None = None
               ) -> Statement | None:
    """Parse one source line; return None for blank/comment-only lines.

    ``operands`` maps operand text to its parsed expression; give one
    dict to every line of a source so that each distinct operand text is
    parsed once (an expression is frozen, so statements can share it).
    """
    code = _COMMENT_RE.split(line, maxsplit=1)[0].rstrip()
    statement = Statement(line_no)
    text = code.lstrip()
    while True:
        match = _LABEL_RE.match(text)
        if not match:
            break
        statement.labels.append(match.group(1))
        text = text[match.end():].lstrip()
    if not text:
        return statement if statement.labels else None

    if text.startswith("."):
        fields = text.split(None, 1)
        statement.directive = fields[0][1:].lower()
        raw_args = _split_operands(fields[1]) if len(fields) > 1 else []
        statement.directive_args = tuple(raw_args)
        return statement

    fields = text.split(None, 1)
    mnemonic = fields[0].lower()
    statement.mnemonic = mnemonic
    rest = fields[1] if len(fields) > 1 else ""
    if mnemonic in BRANCH_MNEMONICS:
        if not rest.strip():
            raise AsmSyntaxError("branch needs a target", line_no, line)
        statement.target = parse_target(rest, line_no, line)
    else:
        if operands is None:
            operands = {}
        for part in _split_operands(rest):
            expr = operands.get(part)
            if expr is None:
                expr = operands[part] = parse_operand(part, line_no, line)
            statement.operands.append(expr)
    return statement


def parse_source(source: str) -> list[Statement]:
    """Parse a whole assembly source file into statements."""
    statements = []
    operands: dict[str, OperandExpr] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        statement = parse_line(line, line_no, operands)
        if statement is not None:
            statements.append(statement)
    return statements
