"""Recursive-descent parser for the mini-C language."""

from __future__ import annotations

from repro.lang import astnodes as ast
from repro.lang.lexer import CompileError, Token, TokenKind, tokenize

# binary operator precedence (higher binds tighter); && / || / ?: and
# assignment are handled separately for short-circuit / right-assoc
_BINARY_PRECEDENCE = {
    "|": 4, "^": 5, "&": 6,
    "==": 7, "!=": 7,
    "<": 8, "<=": 8, ">": 8, ">=": 8,
    "<<": 9, ">>": 9,
    "+": 10, "-": 10,
    "*": 11, "/": 11, "%": 11,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}

_UNARY_OPS = {"-", "!", "~", "+", "++", "--"}

_POSTFIX_OPS = {"[", "++", "--"}


class Parser:
    """Parses a token stream into a :class:`~repro.lang.astnodes.TranslationUnit`."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.position = 0

    # ---- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.position += 1
        return token

    def check(self, text: str) -> bool:
        token = self.tokens[self.position]
        return token.text == text and token.kind in (
            TokenKind.PUNCT, TokenKind.KEYWORD)

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise CompileError(
                f"expected {text!r}, found {self.current.text or 'end of file'!r}",
                self.current.line)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise CompileError(
                f"expected identifier, found {self.current.text!r}",
                self.current.line)
        return self.advance()

    # ---- top level -------------------------------------------------------------

    def _type_specifier(self) -> bool:
        """Consume ``int`` / ``unsigned`` / ``unsigned int``; return True
        for unsigned."""
        if self.accept("unsigned"):
            self.accept("int")  # optional
            return True
        self.expect("int")
        return False

    def _at_type_specifier(self) -> bool:
        return self.check("int") or self.check("unsigned")

    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self.current.kind is not TokenKind.EOF:
            is_void = self.check("void")
            is_unsigned = False
            if is_void:
                self.advance()
            else:
                is_unsigned = self._type_specifier()
            name = self.expect_ident()
            if self.check("("):
                unit.functions.append(
                    self._function(name, not is_void, is_unsigned))
            elif is_void:
                raise CompileError("variables must be int", name.line)
            else:
                self._global_vars(name, unit, is_unsigned)
        return unit

    def _function(self, name: Token, returns_value: bool,
                  returns_unsigned: bool) -> ast.Function:
        self.expect("(")
        params: list[str] = []
        param_unsigned: list[bool] = []
        if not self.check(")"):
            if self.accept("void"):
                pass
            else:
                while True:
                    param_unsigned.append(self._type_specifier())
                    params.append(self.expect_ident().text)
                    if not self.accept(","):
                        break
        self.expect(")")
        body = self._block()
        return ast.Function(name.text, params, body,
                            returns_value=returns_value,
                            returns_unsigned=returns_unsigned,
                            param_unsigned=param_unsigned, line=name.line)

    def _global_vars(self, first: Token, unit: ast.TranslationUnit,
                     is_unsigned: bool = False) -> None:
        name = first
        while True:
            array_size = None
            initializer = 0
            if self.accept("["):
                size_token = self.advance()
                if size_token.kind is not TokenKind.INT:
                    raise CompileError("array size must be a constant",
                                       size_token.line)
                array_size = size_token.value
                self.expect("]")
            elif self.accept("="):
                initializer = self._constant_expression()
            unit.globals.append(ast.GlobalVar(
                name.text, array_size, initializer,
                is_unsigned=is_unsigned, line=name.line))
            if self.accept(","):
                name = self.expect_ident()
                continue
            self.expect(";")
            return

    def _constant_expression(self) -> int:
        negative = self.accept("-")
        token = self.advance()
        if token.kind is not TokenKind.INT:
            raise CompileError("global initializers must be constants",
                               token.line)
        return -token.value if negative else token.value

    # ---- statements -----------------------------------------------------------------

    def _block(self) -> ast.Block:
        open_brace = self.expect("{")
        statements: list[ast.Stmt] = []
        while not self.check("}"):
            if self.current.kind is TokenKind.EOF:
                raise CompileError("unterminated block", open_brace.line)
            statements.append(self._statement())
        self.expect("}")
        return ast.Block(statements, line=open_brace.line)

    def _statement(self) -> ast.Stmt:
        token = self.current
        if self.check("{"):
            return self._block()
        if self.accept(";"):
            return ast.Block([], line=token.line)
        if self._at_type_specifier():
            return self._declaration()
        if self.accept("if"):
            self.expect("(")
            condition = self._expression()
            self.expect(")")
            then_branch = self._statement()
            else_branch = self._statement() if self.accept("else") else None
            return ast.If(condition, then_branch, else_branch, line=token.line)
        if self.accept("while"):
            self.expect("(")
            condition = self._expression()
            self.expect(")")
            return ast.While(condition, self._statement(), line=token.line)
        if self.accept("do"):
            body = self._statement()
            self.expect("while")
            self.expect("(")
            condition = self._expression()
            self.expect(")")
            self.expect(";")
            return ast.DoWhile(body, condition, line=token.line)
        if self.accept("for"):
            return self._for(token)
        if self.accept("switch"):
            return self._switch(token)
        if self.accept("return"):
            value = None if self.check(";") else self._expression()
            self.expect(";")
            return ast.Return(value, line=token.line)
        if self.accept("break"):
            self.expect(";")
            return ast.Break(line=token.line)
        if self.accept("continue"):
            self.expect(";")
            return ast.Continue(line=token.line)
        expr = self._expression()
        self.expect(";")
        return ast.ExprStmt(expr, line=token.line)

    def _declaration(self) -> ast.Stmt:
        line = self.current.line
        is_unsigned = self._type_specifier()
        declarations: list[ast.Stmt] = []
        while True:
            name = self.expect_ident()
            array_size = None
            initializer = None
            if self.accept("["):
                size_token = self.advance()
                if size_token.kind is not TokenKind.INT:
                    raise CompileError("array size must be a constant",
                                       size_token.line)
                array_size = size_token.value
                self.expect("]")
            elif self.accept("="):
                initializer = self._assignment()
            declarations.append(ast.Declaration(
                name.text, array_size, initializer,
                is_unsigned=is_unsigned, line=name.line))
            if not self.accept(","):
                break
        self.expect(";")
        if len(declarations) == 1:
            return declarations[0]
        return ast.Block(declarations, scoped=False, line=line)

    def _switch(self, token: Token) -> ast.Switch:
        self.expect("(")
        selector = self._expression()
        self.expect(")")
        self.expect("{")
        clauses: list[ast.CaseClause] = []
        current: ast.CaseClause | None = None
        while not self.check("}"):
            if self.current.kind is TokenKind.EOF:
                raise CompileError("unterminated switch", token.line)
            if self.check("case") or self.check("default"):
                label_token = self.advance()
                is_default = label_token.text == "default"
                value = 0
                if not is_default:
                    negative = self.accept("-")
                    value_token = self.advance()
                    if value_token.kind is not TokenKind.INT:
                        raise CompileError("case labels must be constants",
                                           value_token.line)
                    value = -value_token.value if negative else value_token.value
                self.expect(":")
                # consecutive labels attach to the same clause
                if current is not None and not current.statements:
                    if is_default:
                        current.is_default = True
                    else:
                        current.values.append(value)
                else:
                    current = ast.CaseClause(
                        values=[] if is_default else [value],
                        is_default=is_default, line=label_token.line)
                    clauses.append(current)
                continue
            if current is None:
                raise CompileError("statement before first case label",
                                   self.current.line)
            current.statements.append(self._statement())
        self.expect("}")
        return ast.Switch(selector, clauses, line=token.line)

    def _for(self, token: Token) -> ast.For:
        self.expect("(")
        init: ast.Stmt | None = None
        if self._at_type_specifier():
            init = self._declaration()
        elif not self.check(";"):
            init = ast.ExprStmt(self._expression(), line=self.current.line)
            self.expect(";")
        else:
            self.expect(";")
        condition = None if self.check(";") else self._expression()
        self.expect(";")
        step = None if self.check(")") else self._expression()
        self.expect(")")
        body = self._statement()
        return ast.For(init, condition, step, body, line=token.line)

    # ---- expressions ----------------------------------------------------------------

    def _expression(self) -> ast.Expr:
        return self._assignment()

    def _assignment(self) -> ast.Expr:
        left = self._conditional()
        token = self.current
        if token.kind is not TokenKind.PUNCT or token.text not in _ASSIGN_OPS:
            return left
        self.advance()
        if not isinstance(left, (ast.VarRef, ast.ArrayIndex)):
            raise CompileError("assignment target must be a variable "
                               "or array element", token.line)
        value = self._assignment()  # right-associative
        return ast.Assign(left, value, token.text, line=token.line)

    def _conditional(self) -> ast.Expr:
        condition = self._logical_or()
        if self.accept("?"):
            when_true = self._expression()
            self.expect(":")
            when_false = self._conditional()
            return ast.Conditional(condition, when_true, when_false,
                                   line=condition.line)
        return condition

    def _logical_or(self) -> ast.Expr:
        left = self._logical_and()
        while self.check("||"):
            line = self.advance().line
            left = ast.Logical("||", left, self._logical_and(), line=line)
        return left

    def _logical_and(self) -> ast.Expr:
        left = self._binary(0)
        while self.check("&&"):
            line = self.advance().line
            left = ast.Logical("&&", left, self._binary(0), line=line)
        return left

    def _binary(self, min_precedence: int) -> ast.Expr:
        left = self._unary()
        while True:
            op = self.current.text
            precedence = _BINARY_PRECEDENCE.get(op)
            if (self.current.kind is not TokenKind.PUNCT
                    or precedence is None or precedence < min_precedence):
                return left
            line = self.advance().line
            right = self._binary(precedence + 1)
            left = ast.Binary(op, left, right, line=line)

    def _unary(self) -> ast.Expr:
        token = self.current
        if token.kind is not TokenKind.PUNCT or token.text not in _UNARY_OPS:
            return self._postfix()
        self.advance()
        op = token.text
        if op == "+":
            return self._unary()
        if op in ("++", "--"):
            return ast.IncDec(op, self._unary(), True, line=token.line)
        return ast.Unary(op, self._unary(), line=token.line)

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        while True:
            token = self.current
            if token.kind is not TokenKind.PUNCT \
                    or token.text not in _POSTFIX_OPS:
                return expr
            self.advance()
            if token.text == "[":
                index = self._expression()
                self.expect("]")
                expr = ast.ArrayIndex(expr, index, line=token.line)
            else:
                expr = ast.IncDec(token.text, expr, False, line=token.line)

    def _primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.INT:
            self.advance()
            return ast.IntLiteral(token.value, line=token.line)
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.accept("("):
                args: list[ast.Expr] = []
                if not self.check(")"):
                    while True:
                        args.append(self._assignment())
                        if not self.accept(","):
                            break
                self.expect(")")
                return ast.Call(token.text, args, line=token.line)
            return ast.VarRef(token.text, line=token.line)
        if self.accept("("):
            expr = self._expression()
            self.expect(")")
            return expr
        raise CompileError(f"unexpected token {token.text!r}", token.line)


def parse(source: str) -> ast.TranslationUnit:
    """Parse mini-C ``source`` into an AST."""
    return Parser(tokenize(source)).parse_unit()
