"""Mini-C lexer, parser and semantic analysis."""

import pytest

from repro.minic import LexError, ParseError, SemaError, analyze, \
    compile_source, parse, tokenize
from repro.minic.ast_nodes import Binary, For, IntLit, While
from repro.minic.types import INT, SHORT, UNSIGNED, ArrayType, PointerType


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("int x = 0x1F + 'a';")
        kinds = [t.kind for t in tokens]
        assert kinds == ["kw", "ident", "op", "num", "op", "num", "op",
                         "eof"]
        assert tokens[3].value == 31
        assert tokens[5].value == ord("a")

    def test_comments(self):
        tokens = tokenize("// line\nint /* block\nmore */ x;")
        assert [t.text for t in tokens[:2]] == ["int", "x"]

    def test_unsigned_suffix(self):
        tokens = tokenize("1u 2U 3")
        assert tokens[0].kind == "unum"
        assert tokens[1].kind == "unum"
        assert tokens[2].kind == "num"

    def test_pragma(self):
        tokens = tokenize("#pragma loopbound 17\nwhile")
        assert tokens[0].kind == "pragma"
        assert tokens[0].text == "loopbound"
        assert tokens[0].value == 17

    def test_pragma_total(self):
        tokens = tokenize("#pragma loopbound_total 2016\n")
        assert tokens[0].text == "loopbound_total"
        assert tokens[0].value == 2016

    def test_escapes(self):
        tokens = tokenize(r"'\n' '\t' '\0' '\\'")
        assert [t.value for t in tokens[:4]] == [10, 9, 0, 92]

    def test_errors(self):
        with pytest.raises(LexError):
            tokenize("#pragma unknown 3")
        with pytest.raises(LexError):
            tokenize("int $x;")
        with pytest.raises(LexError):
            tokenize("/* unterminated")
        with pytest.raises(LexError):
            tokenize("'ab")

    def test_operator_maximal_munch(self):
        tokens = tokenize("a >>= b >> c > d")
        texts = [t.text for t in tokens if t.kind == "op"]
        assert texts == [">>=", ">>", ">"]


class TestParser:
    def test_global_declarations(self):
        unit = parse("int x; const short t[4] = {1, 2, -3, 4}; char c = 7;")
        assert len(unit.globals) == 3
        table = unit.globals[1]
        assert table.const
        assert isinstance(table.type, ArrayType)
        assert table.init == [1, 2, -3, 4]

    def test_function_params(self):
        unit = parse("int f(int a, short b[], char *c) { return a; }")
        params = unit.functions[0].params
        assert params[0].type is INT
        assert isinstance(params[1].type, PointerType)
        assert params[1].type.elem is SHORT
        assert isinstance(params[2].type, PointerType)

    def test_control_flow(self):
        source = """
        void f(void) {
            int i;
            for (i = 0; i < 4; i++) { continue; }
            while (i) { break; }
            do { i = i - 1; } while (i > 0);
            if (i) { i = 0; } else { i = 1; }
        }
        """
        unit = parse(source)
        body = unit.functions[0].body.body
        assert len(body) == 5  # decl + 4 statements

    def test_precedence(self):
        unit = parse("int f(void) { return 1 + 2 * 3 == 7; }")
        expr = unit.functions[0].body.body[0].value
        assert isinstance(expr, Binary) and expr.op == "=="

    def test_ternary_and_cast(self):
        unit = parse("int f(int a) { return a ? (short)a : 0; }")
        assert unit.functions[0] is not None

    def test_compound_assignment_desugars(self):
        unit = parse("void f(void) { int x; x += 3; }")
        stmt = unit.functions[0].body.body[1]
        assert isinstance(stmt.expr.value, Binary)
        assert stmt.expr.value.op == "+"

    def test_incr_decr_desugar(self):
        unit = parse("void f(void) { int x; x++; --x; }")
        inc = unit.functions[0].body.body[1].expr
        assert inc.value.op == "+"
        dec = unit.functions[0].body.body[2].expr
        assert dec.value.op == "-"

    def test_pragma_binds_to_loop(self):
        unit = parse("""
        void f(int n) {
            #pragma loopbound 9
            while (n) { n = n - 1; }
        }
        """)
        loop = unit.functions[0].body.body[0]
        assert isinstance(loop, While)
        assert loop.pragma_bound == 9

    def test_stacked_pragmas(self):
        unit = parse("""
        void f(int n) {
            int i;
            #pragma loopbound 9
            #pragma loopbound_total 30
            for (i = 0; i < n; i++) { }
        }
        """)
        loop = unit.functions[0].body.body[1]
        assert isinstance(loop, For)
        assert loop.pragma_bound == 9
        assert loop.pragma_total == 30

    def test_errors(self):
        with pytest.raises(ParseError):
            parse("int f( { }")
        with pytest.raises(ParseError):
            parse("void f(void) { #pragma loopbound 3\nint x; }")
        with pytest.raises(ParseError):
            parse("void f(void) { int a[4]; }")  # local array
        with pytest.raises(ParseError):
            parse("int x[0];")


class TestSema:
    def analyze_source(self, source):
        return analyze(parse(source))

    def test_duplicate_global(self):
        with pytest.raises(SemaError):
            self.analyze_source("int x; int x;")

    def test_undeclared_identifier(self):
        with pytest.raises(SemaError):
            self.analyze_source("int f(void) { return y; }")

    def test_const_assignment_rejected(self):
        with pytest.raises(SemaError):
            self.analyze_source(
                "const int k = 3; void f(void) { k = 4; }")
        with pytest.raises(SemaError):
            self.analyze_source(
                "const int t[2] = {1,2}; void f(void) { t[0] = 4; }")

    def test_pointer_restrictions(self):
        with pytest.raises(SemaError):
            self.analyze_source("void f(int *p) { p = p; }")

    def test_call_arity(self):
        with pytest.raises(SemaError):
            self.analyze_source(
                "int g(int a) { return a; } void f(void) { g(1, 2); }")

    def test_void_value_use(self):
        with pytest.raises(SemaError):
            self.analyze_source(
                "void g(void) { } int f(void) { return g(); }")

    def test_array_argument_type_match(self):
        with pytest.raises(SemaError):
            self.analyze_source(
                "short t[4]; int g(int a[]) { return a[0]; }"
                "int f(void) { return g(t); }")

    def test_points_to_resolution(self):
        analyzer = self.analyze_source("""
        int a[4]; int b[4];
        int sum(int p[]) { return p[0]; }
        int wrap(int q[]) { return sum(q); }
        int main(void) { return sum(a) + wrap(b); }
        """)
        assert analyzer.points_to[("sum", 0)] == {"a", "b"}
        assert analyzer.points_to[("wrap", 0)] == {"b"}

    def test_auto_bound_simple(self):
        analyzer = self.analyze_source("""
        void f(void) {
            int i;
            for (i = 0; i < 10; i++) { }
            for (i = 9; i >= 0; i--) { }
            for (i = 0; i <= 10; i += 2) { }
        }
        """)
        loops = analyzer.infos["f"].decl.body.body[1:]
        assert loops[0].bound == 10
        assert loops[1].bound == 10
        assert loops[2].bound == 6

    def test_auto_bound_rejects_modified_var(self):
        analyzer = self.analyze_source("""
        void f(void) {
            int i;
            for (i = 0; i < 10; i++) { i = 0; }
        }
        """)
        loop = analyzer.infos["f"].decl.body.body[1]
        assert loop.bound is None

    def test_auto_bound_rejects_wrong_direction(self):
        # Step moves away from the limit: not a counted loop the analysis
        # recognises (it conservatively gives no bound).
        analyzer = self.analyze_source("""
        void f(void) {
            int i;
            for (i = 0; i > 10; i++) { }
        }
        """)
        loop = analyzer.infos["f"].decl.body.body[1]
        assert loop.bound is None

    def test_division_marks_runtime(self):
        analyzer = self.analyze_source(
            "int f(int a, int b) { return a / b; }")
        assert (True, "/") in analyzer.uses_division
        assert "__divs" in analyzer.infos["f"].calls

    def test_unsigned_division_variant(self):
        analyzer = self.analyze_source(
            "unsigned f(unsigned a, unsigned b) { return a % b; }")
        assert (False, "%") in analyzer.uses_division

    def test_signedness_of_comparison(self):
        analyzer = self.analyze_source("""
        int f(unsigned a, int b) { return a < (unsigned)b; }
        int g(int a, int b) { return a < b; }
        """)
        ret_f = analyzer.infos["f"].decl.body.body[0].value
        ret_g = analyzer.infos["g"].decl.body.body[0].value
        assert ret_f.signed is False
        assert ret_g.signed is True

    def test_constant_folding(self):
        analyzer = self.analyze_source(
            "int f(void) { return 2 + 3 * 4 - (10 / 3) - (-7 % 3); }")
        ret = analyzer.infos["f"].decl.body.body[0].value
        assert isinstance(ret, IntLit)
        assert ret.value == 2 + 12 - 3 - (-1)

    def test_power_of_two_strength_reduction(self):
        analyzer = self.analyze_source("int f(int a) { return a * 8; }")
        ret = analyzer.infos["f"].decl.body.body[0].value
        assert ret.op == "<<"
        assert ret.right.value == 3

    def test_break_outside_loop(self):
        with pytest.raises(SemaError):
            self.analyze_source("void f(void) { break; }")

    def test_return_type_checks(self):
        with pytest.raises(SemaError):
            self.analyze_source("void f(void) { return 3; }")
        with pytest.raises(SemaError):
            self.analyze_source("int f(void) { return; }")

    @pytest.mark.parametrize("source", [
        "int main(int p[]) { return p[0]; }",
        "int main(int a, int b) { return a + b; }",
    ])
    def test_entry_with_parameters_rejected(self, source):
        # _start calls the entry with no arguments.
        with pytest.raises(SemaError, match="'main'"):
            compile_source(source)
        with pytest.raises(SemaError, match="'run'"):
            compile_source(source.replace("main", "run"), entry="run")


class TestReadsUnset:
    """Sema flags a local or return value that may be read unset."""

    @pytest.mark.parametrize("body, unset", [
        ("int x = 1; return x;", False),
        ("int x; return x;", True),
        ("int x; x += 1; return x;", True),
        ("int x; x = x + 1; return x;", True),
        ("int x; if (g) x = 1; return x;", True),
        ("int x; if (g) x = 1; else x = 2; return x;", False),
        ("int x; while (g) { x = 1; g = 0; } return x;", True),
        ("int x; while (1) { x = 1; if (g) break; } return x;", False),
        ("int x; while (1) { if (g) break; x = 1; } return x;", True),
        ("int x; do { x = 1; } while (g); return x;", False),
        ("int x; do { if (g) continue; x = 1; } while (0); return x;",
         True),
        ("int i; int t; for (i = 0; i < 4; i++) t = i; return t;", True),
        ("int i; int s = 0; for (i = 0; i < 4; i++) s += i; return s + i;",
         False),
        ("int i; int s = 0;"
         " for (i = 0; i < 3; i++) { int t; t = i; s += t; } return s;",
         False),
        ("int i; int s = 0;"
         " for (i = 0; i < 3; i++) { int t; s += t; t = i; } return s;",
         True),
        ("int x; int y = g ? (x = 1) : (x = 2); return x + y;", False),
        ("int x; if (g || (x = 1)) g = 2; return x;", True),
        ("int i; a[i] = 1; return 0;", True),
        ("if (g) return 1;", True),
        ("if (g) return 1; else return 2;", False),
        ("while (1) { if (g) return 1; g = 1; }", False),
    ])
    def test_flow(self, body, unset):
        analyzer = analyze(parse(
            f"int g; int a[2]; int f(void) {{ {body} }}"))
        assert analyzer.reads_unset is unset
        assert analyzer.observes_placement is unset

    def test_void_functions_may_end_without_return(self):
        assert not compile_source(
            "int g; void set(void) { g = 1; }"
            "int main(void) { set(); return g; }").analyzer.reads_unset

    def test_void_entry_leaves_the_exit_code_unset(self):
        assert compile_source(
            "int g; void main(void) { g = 1; }").analyzer.reads_unset

    def test_pointer_as_scalar_also_observes_placement(self):
        analyzer = analyze(parse(
            "int a[2]; int f(int p[]) { return p; }"
            "int main(void) { return f(a); }"))
        assert analyzer.pointer_as_scalar and not analyzer.reads_unset
        assert analyzer.observes_placement
