"""The tiny C-like DSL front end."""

import pytest

from repro.fuzz import generate_case
from repro.ir import (
    ArrayRef,
    BasicBlock,
    Const,
    FLOAT32,
    FLOAT64,
    Loop,
    ParseError,
    Var,
    format_program,
    parse_block,
    parse_program,
)


class TestDeclarations:
    def test_array_and_scalar_declarations(self):
        program = parse_program("float A[16]; double x, y;")
        assert program.arrays["A"].shape == (16,)
        assert program.arrays["A"].type == FLOAT32
        assert program.scalars["x"].type == FLOAT64
        assert set(program.scalars) == {"x", "y"}

    def test_multidimensional_array(self):
        program = parse_program("float M[4][8];")
        assert program.arrays["M"].shape == (4, 8)
        assert program.arrays["M"].size == 32

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ValueError):
            parse_program("float a; int a;")

    def test_line_and_block_comments_are_skipped(self):
        # Regression: the `/` operator used to eat the first slash of
        # `//`, so the comment alternative never matched.
        program = parse_program(
            """
            // leading line comment (with / * punctuation ; inside)
            float A[8]; /* block
            comment spanning lines */ float b;
            for (i = 0; i < 4; i += 1) {
                A[2*i] = A[2*i] / 2.0;  // trailing comment
            }
            """
        )
        assert set(program.arrays) == {"A"}
        assert set(program.scalars) == {"b"}
        loop = next(iter(program.loops()))
        assert len(loop.body.statements) == 1


class TestStatements:
    def test_simple_assignment(self):
        block = parse_block("a = b * 2.0;", "float a, b;")
        stmt = block.statements[0]
        assert isinstance(stmt.target, Var)
        assert "2.0" in str(stmt.expr)

    def test_precedence(self):
        block = parse_block("a = b + c * d;", "float a, b, c, d;")
        assert str(block.statements[0].expr) == "(b + (c * d))"

    def test_parentheses(self):
        block = parse_block("a = (b + c) * d;", "float a, b, c, d;")
        assert str(block.statements[0].expr) == "((b + c) * d)"

    def test_min_max_sqrt(self):
        block = parse_block(
            "a = min(b, c) + sqrt(d);", "float a, b, c, d;"
        )
        text = str(block.statements[0].expr)
        assert "min(b, c)" in text and "sqrt(d)" in text

    def test_unary_minus(self):
        block = parse_block("a = -b;", "float a, b;")
        assert str(block.statements[0].expr) == "neg(b)"

    def test_constant_folding_of_literals(self):
        block = parse_block("a = b + 2 * 3;", "float a, b;")
        expr = block.statements[0].expr
        # 2*3 folds before typing against b.
        assert "6" in str(expr)

    def test_undeclared_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_block("a = zz;", "float a;")

    def test_assignment_to_undeclared_rejected(self):
        with pytest.raises(ParseError):
            parse_block("zz = 1.0;", "float a;")


class TestLoops:
    SRC = """
    float A[64]; float B[64];
    for (i = 0; i < 16; i += 1) {
        A[2*i] = B[i] + 1.0;
    }
    """

    def test_loop_bounds(self):
        program = parse_program(self.SRC)
        loop = next(iter(program.loops()))
        assert (loop.start, loop.stop, loop.step) == (0, 16, 1)
        assert len(loop.body) == 1

    def test_affine_subscripts(self):
        program = parse_program(self.SRC)
        loop = next(iter(program.loops()))
        target = loop.body.statements[0].target
        assert isinstance(target, ArrayRef)
        assert target.subscripts[0].coeff("i") == 2

    def test_nested_loops(self):
        program = parse_program(
            """
            float M[8][8];
            for (i = 0; i < 8; i += 1) {
                for (j = 0; j < 8; j += 1) {
                    M[i][j] = M[i][j] * 2.0;
                }
            }
            """
        )
        loop = next(iter(program.loops()))
        assert loop.index == "i"
        assert loop.inner is not None and loop.inner.index == "j"

    def test_two_nested_loops_in_one_body_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                """
                float A[8];
                for (i = 0; i < 8; i += 1) {
                    for (j = 0; j < 2; j += 1) { A[j] = 1.0; }
                    for (k = 0; k < 2; k += 1) { A[k] = 2.0; }
                }
                """
            )

    def test_subscript_requires_enclosing_index(self):
        with pytest.raises(ParseError):
            parse_program(
                "float A[8]; for (i = 0; i < 4; i += 1) { A[j] = 1.0; }"
            )


class TestConditionals:
    def test_if_else_region_parses(self):
        program = parse_program(
            """
            float A[8]; float B[8]; float c;
            if (A[0] > c) {
                B[0] = A[0];
            } else {
                B[0] = c;
            }
            """
        )
        block = program.body[0]
        assert block.has_regions
        region = block.statements[0]
        assert len(region.then_body) == 1
        assert len(region.else_body) == 1

    def test_select_call_parses(self):
        program = parse_program(
            "float A[8]; float c;\nA[0] = select(A[1] > c, c, A[1]);"
        )
        stmt = program.body[0].statements[0]
        assert stmt.expr.op == "select"

    def test_all_literal_select_folds(self):
        program = parse_program("float a;\na = select(1.0, 2.0, 3.0);")
        stmt = program.body[0].statements[0]
        assert isinstance(stmt.expr, Const)
        assert stmt.expr.value == 2.0

    def test_region_in_loop_parses(self):
        program = parse_program(
            """
            float A[16]; float c;
            for (i = 0; i < 8; i += 1) {
                if (A[i] > c) {
                    A[i] = c;
                }
            }
            """
        )
        loop = next(iter(program.loops()))
        assert loop.body.has_regions

    def test_nested_if_rejected_with_position(self):
        src = (
            "float A[8]; float c;\n"
            "if (A[0] > c) {\n"
            "  if (c > A[1]) {\n"
            "    A[0] = c;\n"
            "  }\n"
            "}"
        )
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert exc.value.line == 3
        assert exc.value.column == 3
        assert "single-level" in str(exc.value)
        assert "line 3:3" in str(exc.value)

    def test_loop_in_branch_rejected_with_position(self):
        src = (
            "float A[8]; float c;\n"
            "if (A[0] > c) {\n"
            "  for (i = 0; i < 4; i += 1) {\n"
            "    A[i] = c;\n"
            "  }\n"
            "}"
        )
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert (exc.value.line, exc.value.column) == (3, 3)

    def test_empty_then_branch_rejected_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("float A[8]; float c;\nif (c > A[0]) {\n}")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_condition_operand_write_rejected_with_position(self):
        src = (
            "float A[8]; float B[8]; float c;\n"
            "if (A[0] > c) {\n"
            "  A[1] = c;\n"
            "  B[0] = A[1];\n"
            "}"
        )
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert (exc.value.line, exc.value.column) == (2, 1)
        assert "'A'" in str(exc.value)
        assert "condition" in str(exc.value)

    def test_final_statement_may_write_condition_operand(self):
        # The in-place clamp idiom: the last lowered statement never
        # poisons a later condition re-evaluation, so it stays legal.
        program = parse_program(
            """
            float A[16]; float c;
            for (i = 0; i < 8; i += 1) {
                if (A[i] > c) {
                    A[i] = c;
                }
            }
            """
        )
        assert next(iter(program.loops())).body.has_regions

    def test_all_literal_condition_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_program("float A[8];\nif (1.0 > 2.0) {\n  A[0] = 1.0;\n}")
        assert "typed operand" in str(exc.value)
        assert exc.value.line == 2

    def test_unclosed_region_rejected_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program(
                "float A[8]; float c;\nif (c > A[0]) {\n  A[0] = c;\n"
            )
        assert exc.value.line == 4
        assert "expected '}'" in str(exc.value)

    def test_chained_comparison_rejected_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("float A[8]; float c;\nA[0] = (c < A[1] < A[2]);")
        assert (exc.value.line, exc.value.column) == (2, 18)
        assert "parenthesize" in str(exc.value)

    def test_region_round_trips(self):
        src = """
        double U[64]; double C[64];
        double s;
        for (i = 1; i < 15; i += 1) {
            s = (U[i - 1] + U[i + 1]) * 0.5;
            if (s > U[i]) {
                C[i] = U[i];
            } else {
                C[i] = s;
            }
        }
        """
        printed = format_program(parse_program(src))
        assert format_program(parse_program(printed)) == printed
        assert "if ((s > U[i])) {" in printed
        assert "} else {" in printed


class TestRoundTrip:
    def test_print_then_reparse(self):
        src = """
        float A[64]; float B[64];
        float s;
        for (i = 1; i < 15; i += 1) {
            s = A[i - 1] + A[i + 1];
            B[2*i] = s * 0.5;
        }
        """
        program = parse_program(src)
        printed = format_program(program)
        reparsed = parse_program(printed)
        assert format_program(reparsed) == printed

    @pytest.mark.parametrize("conditional", [False, True])
    def test_fuzz_programs_round_trip(self, conditional):
        """Printed fuzz programs reparse to the same text. About a third
        of these seeds contain a unary minus, which the printer renders
        as ``neg(...)``."""
        broken = []
        for seed in range(400):
            printed = format_program(
                generate_case(seed, conditional=conditional).program
            )
            try:
                again = format_program(parse_program(printed))
            except ParseError as exc:
                broken.append((seed, str(exc)))
                continue
            if again != printed:
                broken.append((seed, "text changed"))
        assert not broken, broken[:5]

    def test_parse_block_rejects_loops(self):
        with pytest.raises(ParseError):
            parse_block(
                "for (i = 0; i < 4; i += 1) { a = 1.0; }", "float a;"
            )
