"""A tiny C-like front end for writing kernels as text.

The dialect covers exactly what the paper's examples need: global array
and scalar declarations, counted ``for`` loops, single-level ``if`` /
``else`` regions, and assignment statements over ``+ - * /``,
comparisons, ``min``/``max``/``sqrt``/``abs``/``select``, scalars,
constants, and affine array references::

    float A[1024]; float B[1024];
    float a, b;
    for (i = 0; i < 256; i += 1) {
        a = A[4*i];
        b = A[4*i + 3];
        if (a > b) {
            B[2*i] = a - b;
        } else {
            B[2*i] = b - a;
        }
    }

``parse_program`` returns a :class:`repro.ir.block.Program`. Parse
failures raise :class:`ParseError` carrying the 1-based line/column of
the offending token.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from .block import BasicBlock, IfRegion, Loop, Program
from .expr import (
    Affine,
    ArrayRef,
    BinOp,
    COMPARE_OPS,
    Const,
    Expr,
    Select,
    UnOp,
    Var,
)
from .stmt import Statement
from .types import NAMED_TYPES, ScalarType

# Deprecation shim: ``ParseError`` moved to :mod:`repro.errors` (it is
# now part of the structured exception hierarchy). Importing it from
# ``repro.ir.parser`` — its historical home — keeps working.
from ..errors import IRError, ParseError


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d+|\d+)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    # Comments must precede `op`: otherwise the single-char `/` operator
    # consumes the first slash of `//` and the comment never matches.
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<op>\+=|<=|>=|==|!=|[-+*/=;,<>(){}\[\]])"
    r")",
    re.DOTALL,
)

#: Function-call names of the expression grammar. ``neg`` is how the
#: printer renders unary minus, so accepting it keeps printed programs
#: parseable.
_CALL_NAMES = ("min", "max", "sqrt", "abs", "neg", "select")


def _line_col(src: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of a character offset."""
    line = src.count("\n", 0, offset) + 1
    column = offset - (src.rfind("\n", 0, offset) + 1) + 1
    return line, column


def _tokenize(
    src: str,
) -> Tuple[List[Tuple[str, str]], List[Tuple[int, int]]]:
    tokens: List[Tuple[str, str]] = []
    positions: List[Tuple[int, int]] = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            rest = src[pos:]
            if rest.strip():
                offset = pos + (len(rest) - len(rest.lstrip()))
                line, column = _line_col(src, offset)
                raise ParseError(
                    f"unexpected character {src[offset]!r}",
                    line=line,
                    column=column,
                )
            break
        pos = match.end()
        if match.lastgroup == "comment":
            continue
        kind = match.lastgroup
        if kind is not None:
            tokens.append((kind, match.group(kind)))
            positions.append(_line_col(src, match.start(kind)))
    tokens.append(("eof", ""))
    positions.append(_line_col(src, len(src)))
    return tokens, positions


# A parsed operand is either a fully-typed Expr or a raw Python number
# whose type is decided by the first typed operand it meets.
Pending = Union[Expr, float, int]


class _Parser:
    def __init__(self, src: str):
        self.tokens, self.positions = _tokenize(src)
        self.pos = 0
        self.program = Program()
        self.loop_indices: List[str] = []
        self._sid = 0

    # -- token helpers ---------------------------------------------------------

    def peek(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _err(self, message: str, index: Optional[int] = None) -> None:
        """Raise a :class:`ParseError` located at a token (default: the
        current one)."""
        if index is None:
            index = self.pos
        index = max(0, min(index, len(self.positions) - 1))
        line, column = self.positions[index]
        raise ParseError(message, line=line, column=column)

    def expect(self, text: str) -> None:
        kind, value = self.peek()
        if value != text:
            found = value if value else "end of input"
            self._err(f"expected {text!r}, found {found!r}")
        self.pos += 1

    def accept(self, text: str) -> bool:
        if self.peek()[1] == text:
            self.pos += 1
            return True
        return False

    # -- grammar --------------------------------------------------------------

    def parse(self) -> Program:
        while self.peek()[0] != "eof":
            kind, value = self.peek()
            if value in NAMED_TYPES:
                self._declaration()
            elif value == "for":
                loop = self._loop()
                self.program.add(loop)
            else:
                self._flush_stmt_into_top()
        return self.program

    def _flush_stmt_into_top(self) -> None:
        block = BasicBlock()
        sid = 0
        while self.peek()[0] != "eof" and self.peek()[1] not in NAMED_TYPES \
                and self.peek()[1] != "for":
            if self.peek()[1] == "if":
                region = self._if_region(sid)
                sid += len(region.then_body) + len(region.else_body)
                block.append(region)
            else:
                block.append(self._statement(sid))
                sid += 1
        if len(block):
            self.program.add(block)

    def _declaration(self) -> None:
        _, type_name = self.next()
        elem = NAMED_TYPES[type_name]
        while True:
            kind, name = self.next()
            if kind != "ident":
                self._err(
                    f"expected identifier, found {name!r}", self.pos - 1
                )
            if self.peek()[1] == "[":
                shape: List[int] = []
                while self.accept("["):
                    kind, dim = self.next()
                    if kind != "num":
                        self._err(
                            "array dimensions must be literals", self.pos - 1
                        )
                    shape.append(int(dim))
                    self.expect("]")
                self.program.declare_array(name, tuple(shape), elem)
            else:
                self.program.declare_scalar(name, elem)
            if self.accept(","):
                continue
            self.expect(";")
            break

    def _loop(self) -> Loop:
        self.expect("for")
        self.expect("(")
        _, index = self.next()
        self.expect("=")
        start = self._int_literal()
        self.expect(";")
        _, index2 = self.next()
        if index2 != index:
            self._err(
                f"loop condition tests {index2!r}, not {index!r}",
                self.pos - 1,
            )
        self.expect("<")
        stop = self._int_literal()
        self.expect(";")
        _, index3 = self.next()
        if index3 != index:
            self._err(
                f"loop increment steps {index3!r}, not {index!r}",
                self.pos - 1,
            )
        self.expect("+=")
        step = self._int_literal()
        self.expect(")")
        self.expect("{")
        self.loop_indices.append(index)
        body = BasicBlock()
        sid = 0
        inner: Optional[Loop] = None
        while not self.accept("}"):
            if self.peek()[0] == "eof":
                self.expect("}")
            if self.peek()[1] == "for":
                if inner is not None:
                    self._err(
                        "a loop body may contain at most one nested loop"
                    )
                inner = self._loop()
            elif self.peek()[1] == "if":
                region = self._if_region(sid)
                sid += len(region.then_body) + len(region.else_body)
                body.append(region)
            else:
                body.append(self._statement(sid))
                sid += 1
        self.loop_indices.pop()
        return Loop(index, start, stop, step, body, inner=inner)

    def _if_region(self, sid_start: int) -> IfRegion:
        """``if (cond) { stmts } [else { stmts }]`` — single level only."""
        if_index = self.pos
        self.expect("if")
        self.expect("(")
        cond = self._expr()
        if not isinstance(cond, Expr):
            self._err(
                "if condition must reference at least one typed operand",
                if_index,
            )
        self.expect(")")
        self.expect("{")
        then_body: List[Statement] = []
        sid = sid_start
        while not self.accept("}"):
            self._check_branch_statement()
            then_body.append(self._statement(sid))
            sid += 1
        if not then_body:
            self._err("empty then-branch", if_index)
        else_body: List[Statement] = []
        if self.accept("else"):
            self.expect("{")
            while not self.accept("}"):
                self._check_branch_statement()
                else_body.append(self._statement(sid))
                sid += 1
        try:
            return IfRegion(cond, tuple(then_body), tuple(else_body))
        except IRError as exc:
            self._err(str(exc), if_index)

    def _check_branch_statement(self) -> None:
        kind, value = self.peek()
        if kind == "eof":
            self.expect("}")
        if value in ("if", "for"):
            self._err(
                f"nested {value!r} inside an if branch is not supported "
                "(regions are single-level)"
            )

    def _int_literal(self) -> int:
        negative = self.accept("-")
        kind, value = self.next()
        if kind != "num" or "." in value:
            self._err(
                f"expected integer literal, found {value!r}", self.pos - 1
            )
        return -int(value) if negative else int(value)

    def _statement(self, sid: int) -> Statement:
        kind, name = self.next()
        if kind != "ident":
            found = name if name else "end of input"
            self._err(
                f"expected assignment target, found {found!r}", self.pos - 1
            )
        target: Union[Var, ArrayRef]
        if name in self.program.arrays:
            target = self._array_ref(name)
        elif name in self.program.scalars:
            target = Var(name, self.program.scalars[name].type)
        else:
            self._err(
                f"assignment to undeclared variable {name!r}", self.pos - 1
            )
        self.expect("=")
        value = self._expr()
        self.expect(";")
        expr = _coerce(value, target.type)
        return Statement(sid, target, expr)

    def _array_ref(self, name: str) -> ArrayRef:
        decl = self.program.arrays[name]
        subscripts: List[Affine] = []
        while self.accept("["):
            subscripts.append(self._affine())
            self.expect("]")
        if len(subscripts) != len(decl.shape):
            self._err(
                f"{name} expects {len(decl.shape)} subscripts, "
                f"got {len(subscripts)}",
                self.pos - 1,
            )
        return ArrayRef(name, tuple(subscripts), decl.type)

    # Affine subscript grammar: sums/differences of INT, index, INT*index.
    def _affine(self) -> Affine:
        total = self._affine_term()
        while self.peek()[1] in ("+", "-"):
            _, op = self.next()
            term = self._affine_term()
            total = total + term if op == "+" else total - term
        return total

    def _affine_term(self) -> Affine:
        negative = self.accept("-")
        kind, value = self.next()
        if kind == "num":
            if "." in value:
                self._err("array subscripts must be integral", self.pos - 1)
            scale = int(value)
            if self.accept("*"):
                kind, index = self.next()
                if kind != "ident":
                    self._err("expected loop index after '*'", self.pos - 1)
                term = Affine.var(self._check_index(index), scale)
            else:
                term = Affine((), scale)
        elif kind == "ident":
            if self.accept("*"):
                scale = self._int_literal()
                term = Affine.var(self._check_index(value), scale)
            else:
                term = Affine.var(self._check_index(value))
        elif value == "(":
            term = self._affine()
            self.expect(")")
        else:
            self._err(
                f"unexpected {value!r} in array subscript", self.pos - 1
            )
        return -term if negative else term

    def _check_index(self, name: str) -> str:
        if name not in self.loop_indices:
            self._err(
                f"{name!r} used as a subscript index but is not an "
                "enclosing loop index",
                self.pos - 1,
            )
        return name

    # Expression grammar with ordinary precedence. Comparisons bind
    # loosest and do not chain (`a < b < c` is rejected; parenthesize).
    def _expr(self) -> Pending:
        value = self._additive()
        if self.peek()[1] in COMPARE_OPS:
            _, op = self.next()
            value = _combine(op, value, self._additive())
            if self.peek()[1] in COMPARE_OPS:
                self._err("comparisons do not chain; parenthesize")
        return value

    def _additive(self) -> Pending:
        value = self._term()
        while self.peek()[1] in ("+", "-"):
            _, op = self.next()
            value = _combine(op, value, self._term())
        return value

    def _term(self) -> Pending:
        value = self._factor()
        while self.peek()[1] in ("*", "/"):
            _, op = self.next()
            value = _combine(op, value, self._factor())
        return value

    def _factor(self) -> Pending:
        kind, value = self.peek()
        if value == "(":
            self.next()
            inner = self._expr()
            self.expect(")")
            return inner
        if value == "-":
            self.next()
            operand = self._factor()
            if isinstance(operand, Expr):
                return UnOp("neg", operand)
            return -operand
        if kind == "num":
            self.next()
            return float(value) if "." in value else int(value)
        if kind == "ident":
            self.next()
            if value in _CALL_NAMES:
                return self._call(value)
            if value in self.program.arrays:
                return self._array_ref(value)
            if value in self.program.scalars:
                return Var(value, self.program.scalars[value].type)
            self._err(f"undeclared identifier {value!r}", self.pos - 1)
        self._err(f"unexpected {value!r} in expression")

    def _call(self, fn: str) -> Pending:
        self.expect("(")
        first = self._expr()
        if fn == "select":
            self.expect(",")
            second = self._expr()
            self.expect(",")
            third = self._expr()
            self.expect(")")
            return _select(first, second, third)
        if fn in ("min", "max"):
            self.expect(",")
            second = self._expr()
            self.expect(")")
            return _combine(fn, first, second)
        self.expect(")")
        if not isinstance(first, Expr):
            self._err(f"{fn}() of a bare literal is not supported")
        return UnOp(fn, first)


def _coerce(value: Pending, elem: ScalarType) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(value, elem)


def _combine(op: str, left: Pending, right: Pending) -> Pending:
    if not isinstance(left, Expr) and not isinstance(right, Expr):
        # Constant fold untyped literals. Comparisons fold to the mask
        # values (1.0 / 0.0) the runtime produces.
        folds = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a / b,
            "min": min,
            "max": max,
            "<": lambda a, b: 1.0 if a < b else 0.0,
            "<=": lambda a, b: 1.0 if a <= b else 0.0,
            ">": lambda a, b: 1.0 if a > b else 0.0,
            ">=": lambda a, b: 1.0 if a >= b else 0.0,
            "==": lambda a, b: 1.0 if a == b else 0.0,
            "!=": lambda a, b: 1.0 if a != b else 0.0,
        }
        return folds[op](left, right)
    if isinstance(left, Expr) and not isinstance(right, Expr):
        right = Const(right, left.type)
    elif isinstance(right, Expr) and not isinstance(left, Expr):
        left = Const(left, right.type)
    assert isinstance(left, Expr) and isinstance(right, Expr)
    return BinOp(op, left, right)


def _select(cond: Pending, on_true: Pending, on_false: Pending) -> Pending:
    operands = (cond, on_true, on_false)
    typed = next((o for o in operands if isinstance(o, Expr)), None)
    if typed is None:
        # All-literal select folds like the other operators.
        return on_true if cond != 0 else on_false
    elem = typed.type
    cond, on_true, on_false = (_coerce(o, elem) for o in operands)
    return Select(cond, on_true, on_false)


def parse_program(src: str) -> Program:
    """Parse DSL text into a :class:`Program`."""
    return _Parser(src).parse()


def parse_block(src: str, declarations: str = "") -> BasicBlock:
    """Parse a straight-line statement sequence into one basic block.

    ``declarations`` supplies the array/scalar declarations the statements
    reference. Convenient for tests working at the basic-block level.
    """
    program = parse_program(declarations + "\n" + src)
    blocks = [item for item in program.body if isinstance(item, BasicBlock)]
    if len(blocks) != 1:
        raise ParseError(
            f"expected exactly one straight-line block, found {len(blocks)}"
        )
    return blocks[0]
