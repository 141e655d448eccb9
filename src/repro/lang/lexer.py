"""Tokenizer for the mini-C language."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class CompileError(ValueError):
    """Raised on any front-end error, with source position."""

    def __init__(self, message: str, line: int, column: int = 0) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    """Lexical token categories."""

    INT = "int-literal"
    IDENT = "identifier"
    KEYWORD = "keyword"
    PUNCT = "punctuator"
    EOF = "eof"


KEYWORDS = frozenset({
    "int", "unsigned", "void", "if", "else", "while", "for", "do",
    "return", "break", "continue", "switch", "case", "default",
})

# longest-match-first punctuators
PUNCTUATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "<", ">", "=", "?", ":", ";", ",", "(", ")", "{", "}", "[", "]",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<int>\d+)
  | (?P<char>'(\\.|[^\\'])')
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>""" + "|".join(re.escape(p) for p in PUNCTUATORS) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: TokenKind
    text: str
    value: int = 0  #: numeric value for INT tokens
    line: int = 1

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


_GROUP = _TOKEN_RE.groupindex
_WS, _LINE_COMMENT, _BLOCK_COMMENT = (
    _GROUP["ws"], _GROUP["line_comment"], _GROUP["block_comment"])
_HEX, _INT, _CHAR, _IDENT = (
    _GROUP["hex"], _GROUP["int"], _GROUP["char"], _GROUP["ident"])


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raise :class:`CompileError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    end = len(source)
    position = 0
    line = 1
    while position < end:
        match = match_at(source, position)
        if match is None:
            raise CompileError(
                f"unexpected character {source[position]!r}", line)
        text = match.group()
        position = match.end()
        # lastindex is the outermost group that matched: one per token
        # kind. Only whitespace, block comments and character literals
        # can hold a newline.
        group = match.lastindex
        if group == _WS or group == _BLOCK_COMMENT:
            line += text.count("\n")
        elif group == _LINE_COMMENT:
            pass
        elif group == _IDENT:
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(Token(kind, text, 0, line))
        elif group == _HEX or group == _INT:
            value = int(text, 16 if group == _HEX else 10)
            if value > 0xFFFFFFFF:
                raise CompileError(
                    f"integer literal {text} out of 32-bit range", line)
            append(Token(TokenKind.INT, text, value, line))
        elif group == _CHAR:
            body = text[1:-1]
            if body.startswith("\\"):
                if body[1] not in _ESCAPES:
                    raise CompileError(f"unknown escape {body!r}", line)
                value = _ESCAPES[body[1]]
            else:
                value = ord(body)
            append(Token(TokenKind.INT, text, value, line))
            line += text.count("\n")
        else:
            append(Token(TokenKind.PUNCT, text, 0, line))
    append(Token(TokenKind.EOF, "", 0, line))
    return tokens
