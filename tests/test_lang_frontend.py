"""Unit tests for the mini-C lexer, parser and semantic analysis."""

import pytest

from repro.lang import astnodes as ast
from repro.lang.lexer import CompileError, TokenKind, tokenize
from repro.lang.parser import parse
from repro.lang.sema import analyze


class TestLexer:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("int intx for forx")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT,
                         TokenKind.KEYWORD, TokenKind.IDENT]

    def test_numbers(self):
        tokens = tokenize("42 0x1F 0 4294967295 0xFFFFFFFF")
        assert [t.value for t in tokens[:-1]] == [42, 31, 0, 0xFFFFFFFF,
                                                  0xFFFFFFFF]

    def test_char_literals(self):
        tokens = tokenize("'a' '\\n' '\\0'")
        assert [t.value for t in tokens[:-1]] == [97, 10, 0]

    def test_maximal_munch(self):
        tokens = tokenize("a<<=b;a<<b;a<=b")
        texts = [t.text for t in tokens if t.kind is TokenKind.PUNCT]
        assert "<<=" in texts and "<<" in texts and "<=" in texts

    def test_comments_ignored(self):
        tokens = tokenize("a // line\n b /* block\n comment */ c")
        assert [t.text for t in tokens[:-1]] == ["a", "b", "c"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 4]

    def test_bad_character(self):
        with pytest.raises(CompileError):
            tokenize("int a = `5`;")

    @pytest.mark.parametrize("literal", ["4294967296", "0x100000000",
                                         "99999999999"])
    def test_literal_above_32_bits_rejected(self, literal):
        with pytest.raises(CompileError) as info:
            tokenize(f"int a;\n\na = {literal};")
        assert str(info.value) == \
            f"line 3: integer literal {literal} out of 32-bit range"
        assert info.value.line == 3

    def test_array_size_above_32_bits_rejected(self):
        with pytest.raises(CompileError, match="line 1: integer literal"):
            parse("int g[99999999999];\nint main() { return 0; }")


class TestParser:
    def test_global_variables(self):
        unit = parse("int a; int b = 5; int c[10];")
        assert [g.name for g in unit.globals] == ["a", "b", "c"]
        assert unit.globals[1].initializer == 5
        assert unit.globals[2].array_size == 10

    def test_comma_separated_globals(self):
        unit = parse("int a, b = 2, c;")
        assert len(unit.globals) == 3

    def test_negative_initializer(self):
        unit = parse("int a = -3;")
        assert unit.globals[0].initializer == -3

    def test_function_with_params(self):
        unit = parse("int add(int a, int b) { return a + b; }")
        function = unit.function("add")
        assert function.params == ["a", "b"]
        assert isinstance(function.body.statements[0], ast.Return)

    def test_void_function(self):
        unit = parse("void f() { return; }")
        assert not unit.function("f").returns_value

    def test_precedence(self):
        unit = parse("int main() { return 1 + 2 * 3; }")
        ret = unit.function("main").body.statements[0]
        assert isinstance(ret.value, ast.Binary)
        assert ret.value.op == "+"
        assert ret.value.right.op == "*"

    def test_right_associative_assignment(self):
        unit = parse("int main() { int a; int b; a = b = 1; return a; }")
        stmt = unit.function("main").body.statements[2]
        assert isinstance(stmt.expr, ast.Assign)
        assert isinstance(stmt.expr.value, ast.Assign)

    def test_if_else_chain(self):
        unit = parse("""
            int main() {
                if (1) return 1; else if (2) return 2; else return 3;
            }
        """)
        outer = unit.function("main").body.statements[0]
        assert isinstance(outer, ast.If)
        assert isinstance(outer.else_branch, ast.If)

    def test_for_loop_forms(self):
        unit = parse("""
            int main() {
                for (int i = 0; i < 10; i++) ;
                for (;;) break;
                return 0;
            }
        """)
        loops = [s for s in unit.function("main").body.statements
                 if isinstance(s, ast.For)]
        assert len(loops) == 2
        assert loops[1].condition is None

    def test_do_while(self):
        unit = parse("int main() { int i = 0; do i++; while (i < 3); return i; }")
        assert any(isinstance(s, ast.DoWhile)
                   for s in unit.function("main").body.statements)

    def test_ternary(self):
        unit = parse("int main() { return 1 ? 2 : 3; }")
        ret = unit.function("main").body.statements[0]
        assert isinstance(ret.value, ast.Conditional)

    def test_logical_operators(self):
        unit = parse("int main() { return 1 && 2 || 3; }")
        ret = unit.function("main").body.statements[0]
        assert isinstance(ret.value, ast.Logical)
        assert ret.value.op == "||"

    def test_array_indexing(self):
        unit = parse("int a[4]; int main() { return a[2]; }")
        ret = unit.function("main").body.statements[0]
        assert isinstance(ret.value, ast.ArrayIndex)

    def test_prefix_postfix(self):
        unit = parse("int main() { int i = 0; ++i; i--; return i; }")
        statements = unit.function("main").body.statements
        assert statements[1].expr.is_prefix
        assert not statements[2].expr.is_prefix

    def test_error_on_bad_assignment_target(self):
        with pytest.raises(CompileError):
            parse("int main() { 1 = 2; return 0; }")

    def test_error_on_missing_semicolon(self):
        with pytest.raises(CompileError):
            parse("int main() { return 0 }")

    def test_error_on_unterminated_block(self):
        with pytest.raises(CompileError):
            parse("int main() { return 0;")


class TestSema:
    def test_undefined_variable(self):
        with pytest.raises(CompileError, match="undefined variable"):
            analyze(parse("int main() { return nope; }"))

    def test_scoping_and_shadowing(self):
        info = analyze(parse("""
            int x;
            int main() {
                int x = 1;
                { int x = 2; x = 3; }
                return x;
            }
        """))
        assert info.locals_bytes["main"] == 8  # two distinct locals

    def test_undefined_function(self):
        with pytest.raises(CompileError, match="undefined function"):
            analyze(parse("int main() { return missing(); }"))

    def test_forward_call_allowed(self):
        analyze(parse("""
            int main() { return helper(1); }
            int helper(int x) { return x; }
        """))

    def test_arity_checked(self):
        with pytest.raises(CompileError, match="argument"):
            analyze(parse("""
                int f(int a) { return a; }
                int main() { return f(1, 2); }
            """))

    def test_local_array_rejected(self):
        with pytest.raises(CompileError, match="local arrays"):
            analyze(parse("int main() { int a[4]; return 0; }"))

    def test_array_without_index_rejected(self):
        with pytest.raises(CompileError, match="without an index"):
            analyze(parse("int a[4]; int main() { return a; }"))

    def test_indexing_scalar_rejected(self):
        with pytest.raises(CompileError, match="not an array"):
            analyze(parse("int x; int main() { return x[0]; }"))

    def test_break_outside_loop(self):
        with pytest.raises(CompileError, match="break"):
            analyze(parse("int main() { break; return 0; }"))

    def test_duplicate_global(self):
        with pytest.raises(CompileError, match="redefinition"):
            analyze(parse("int a; int a;"))

    def test_duplicate_local_same_scope(self):
        with pytest.raises(CompileError, match="redefinition"):
            analyze(parse("int main() { int a; int a; return 0; }"))

    def test_void_returning_value_rejected(self):
        with pytest.raises(CompileError, match="returns a value"):
            analyze(parse("void f() { return 1; }"))
