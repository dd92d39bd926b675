"""Fluent construction API for programs.

This is the primary way users (and the benchmark kernel generators) build
IR::

    b = ProgramBuilder("saxpy")
    X = b.array("X", (1024,), FLOAT32)
    Y = b.array("Y", (1024,), FLOAT32)
    a = b.scalar("a", FLOAT32)
    with b.loop("i", 0, 1024) as i:
        b.assign(Y[i], a * X[i] + Y[i])
    program = b.build()

Handles overload Python arithmetic so right-hand sides read like the
source code in the paper's figures.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import BuilderError, IRError
from .block import ArrayDecl, BasicBlock, IfRegion, Loop, Program, ScalarDecl
from .expr import Affine, ArrayRef, BinOp, Const, Expr, Select, UnOp, Var
from .stmt import Statement
from .types import ScalarType

Operand = Union["ExprHandle", Expr, int, float]


class ExprHandle:
    """Wraps an :class:`Expr` with operator overloading."""

    def __init__(self, expr: Expr):
        self.expr = expr

    def _coerce(self, other: Operand) -> Expr:
        if isinstance(other, ExprHandle):
            return other.expr
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, float)):
            return Const(other, self.expr.type)
        raise TypeError(f"cannot use {other!r} as an operand")

    def _bin(
        self, op: str, other: Operand, swapped: bool = False
    ) -> "ExprHandle":
        rhs = self._coerce(other)
        left, right = (rhs, self.expr) if swapped else (self.expr, rhs)
        return ExprHandle(BinOp(op, left, right))

    def __add__(self, other: Operand) -> "ExprHandle":
        return self._bin("+", other)

    def __radd__(self, other: Operand) -> "ExprHandle":
        return self._bin("+", other, swapped=True)

    def __sub__(self, other: Operand) -> "ExprHandle":
        return self._bin("-", other)

    def __rsub__(self, other: Operand) -> "ExprHandle":
        return self._bin("-", other, swapped=True)

    def __mul__(self, other: Operand) -> "ExprHandle":
        return self._bin("*", other)

    def __rmul__(self, other: Operand) -> "ExprHandle":
        return self._bin("*", other, swapped=True)

    def __truediv__(self, other: Operand) -> "ExprHandle":
        return self._bin("/", other)

    def __rtruediv__(self, other: Operand) -> "ExprHandle":
        return self._bin("/", other, swapped=True)

    def __neg__(self) -> "ExprHandle":
        return ExprHandle(UnOp("neg", self.expr))

    def min(self, other: Operand) -> "ExprHandle":
        return self._bin("min", other)

    def max(self, other: Operand) -> "ExprHandle":
        return self._bin("max", other)

    def sqrt(self) -> "ExprHandle":
        return ExprHandle(UnOp("sqrt", self.expr))

    def abs(self) -> "ExprHandle":
        return ExprHandle(UnOp("abs", self.expr))

    # Comparisons produce mask expressions (1.0 / 0.0 per lane) for
    # ``select`` and ``if_``. Equality stays a *method* (``eq``/``ne``),
    # not ``__eq__``: overloading ``==`` would break dict/set membership
    # of handles.

    def __lt__(self, other: Operand) -> "ExprHandle":
        return self._bin("<", other)

    def __le__(self, other: Operand) -> "ExprHandle":
        return self._bin("<=", other)

    def __gt__(self, other: Operand) -> "ExprHandle":
        return self._bin(">", other)

    def __ge__(self, other: Operand) -> "ExprHandle":
        return self._bin(">=", other)

    def eq(self, other: Operand) -> "ExprHandle":
        return self._bin("==", other)

    def ne(self, other: Operand) -> "ExprHandle":
        return self._bin("!=", other)


def select(cond: Operand, on_true: Operand, on_false: Operand) -> ExprHandle:
    """Build a :class:`Select` expression, coercing bare literals to the
    type of the first typed operand."""
    raw = [
        o.expr if isinstance(o, ExprHandle) else o
        for o in (cond, on_true, on_false)
    ]
    typed = next((o for o in raw if isinstance(o, Expr)), None)
    if typed is None:
        raise TypeError("select() needs at least one typed operand")
    coerced = [
        o if isinstance(o, Expr) else Const(o, typed.type) for o in raw
    ]
    return ExprHandle(Select(coerced[0], coerced[1], coerced[2]))


class ScalarHandle(ExprHandle):
    def __init__(self, decl: ScalarDecl):
        super().__init__(Var(decl.name, decl.type))
        self.decl = decl


Index = Union[Affine, "LoopIndex", int]


class LoopIndex:
    """A loop index usable in subscript arithmetic: ``A[4*i + 3]``."""

    def __init__(self, name: str):
        self.name = name
        self.affine = Affine.var(name)

    def __add__(self, other: Index) -> Affine:
        return self.affine + _as_index_affine(other)

    __radd__ = __add__

    def __sub__(self, other: Index) -> Affine:
        return self.affine - _as_index_affine(other)

    def __rsub__(self, other: Index) -> Affine:
        return _as_index_affine(other) - self.affine

    def __mul__(self, k: int) -> Affine:
        return self.affine * k

    __rmul__ = __mul__

    def __str__(self) -> str:
        return self.name


def _as_index_affine(value: Index) -> Affine:
    if isinstance(value, LoopIndex):
        return value.affine
    if isinstance(value, Affine):
        return value
    if isinstance(value, int):
        return Affine((), value)
    raise TypeError(f"cannot use {value!r} as an array subscript")


class ArrayHandle:
    """Indexable array handle: ``A[i]``, ``B[2*i + 1]``, ``C[i, j]``."""

    def __init__(self, decl: ArrayDecl):
        self.decl = decl

    def __getitem__(
        self, subscripts: Union[Index, Tuple[Index, ...]]
    ) -> ExprHandle:
        if not isinstance(subscripts, tuple):
            subscripts = (subscripts,)
        affines = tuple(_as_index_affine(s) for s in subscripts)
        if len(affines) != len(self.decl.shape):
            raise IRError(
                f"{self.decl.name} expects {len(self.decl.shape)} "
                f"subscripts, got {len(affines)}"
            )
        return ExprHandle(ArrayRef(self.decl.name, affines, self.decl.type))


@dataclass
class _LoopFrame:
    index: str
    start: int
    stop: int
    step: int
    body: BasicBlock
    inner: Optional[Loop] = None


@dataclass
class _RegionState:
    cond: Expr
    then_body: List[Statement]
    else_body: List[Statement]
    in_else: bool = False


def _build_statement(sid: int, target: ExprHandle, value: Operand) -> Statement:
    tgt = target.expr
    if not isinstance(tgt, (Var, ArrayRef)):
        raise TypeError("assignment target must be a scalar or array ref")
    if isinstance(value, ExprHandle):
        expr = value.expr
    elif isinstance(value, Expr):
        expr = value
    elif isinstance(value, (int, float)):
        expr = Const(value, tgt.type)
    else:
        raise TypeError(f"cannot assign {value!r}")
    return Statement(sid, tgt, expr)


class ProgramBuilder:
    """Accumulates declarations, loops, and statements into a Program."""

    def __init__(self, name: str = "program"):
        self._program = Program(name)
        self._top = BasicBlock()
        self._frames: List[_LoopFrame] = []
        self._sid_stack: List[int] = [0]
        self._region: Optional[_RegionState] = None
        self._last_if: Optional[Tuple[BasicBlock, _RegionState]] = None

    # -- declarations ---------------------------------------------------------

    def array(
        self, name: str, shape: Sequence[int], type: ScalarType
    ) -> ArrayHandle:
        return ArrayHandle(self._program.declare_array(name, shape, type))

    def scalar(self, name: str, type: ScalarType) -> ScalarHandle:
        return ScalarHandle(self._program.declare_scalar(name, type))

    def scalars(
        self, names: str, type: ScalarType
    ) -> Tuple[ScalarHandle, ...]:
        """Declare several scalars at once: ``a, b = b.scalars("a b", f32)``."""
        return tuple(self.scalar(n, type) for n in names.split())

    # -- statements ------------------------------------------------------------

    def assign(self, target: ExprHandle, value: Operand) -> Statement:
        stmt = _build_statement(self._sid_stack[-1], target, value)
        self._sid_stack[-1] += 1
        if self._region is not None:
            branch = (
                self._region.else_body
                if self._region.in_else
                else self._region.then_body
            )
            branch.append(stmt)
        else:
            self._last_if = None
            block = self._frames[-1].body if self._frames else self._top
            block.append(stmt)
        return stmt

    # -- conditional regions ---------------------------------------------------

    def _current_block(self) -> BasicBlock:
        return self._frames[-1].body if self._frames else self._top

    @contextlib.contextmanager
    def if_(self, cond: Operand) -> Iterator[None]:
        """Open a then-branch scope: ``with b.if_(a > t): b.assign(...)``.

        Regions are single-level — ``if_`` inside ``if_`` raises. An
        optional ``else_`` block may immediately follow.
        """
        if self._region is not None:
            raise BuilderError("if_ regions do not nest (single level only)")
        cond_expr = cond.expr if isinstance(cond, ExprHandle) else cond
        if not isinstance(cond_expr, Expr):
            raise TypeError("if_ condition must be a typed expression")
        state = _RegionState(cond_expr, [], [])
        self._region = state
        try:
            yield
        finally:
            self._region = None
            block = self._current_block()
            block.append(
                IfRegion(state.cond, tuple(state.then_body))
            )
            self._last_if = (block, state)

    @contextlib.contextmanager
    def else_(self) -> Iterator[None]:
        """Open the else-branch of the immediately preceding ``if_``."""
        if self._last_if is None:
            raise BuilderError("else_ requires an immediately preceding if_")
        block, state = self._last_if
        self._last_if = None
        block.pop()  # re-emitted below with the else-branch
        state.in_else = True
        self._region = state
        try:
            yield
        finally:
            self._region = None
            block.append(
                IfRegion(
                    state.cond,
                    tuple(state.then_body),
                    tuple(state.else_body),
                )
            )

    # -- loops -------------------------------------------------------------------

    @contextlib.contextmanager
    def loop(
        self, index: str, start: int, stop: int, step: int = 1
    ) -> Iterator[LoopIndex]:
        """Open a loop scope; statements assigned inside land in its body.

        Loops may be nested; a loop body may contain at most one nested
        loop (perfect/near-perfect nests, as the layout optimizer
        assumes).
        """
        if self._region is not None:
            raise BuilderError("loops may not open inside an if_ region")
        self._last_if = None
        frame = _LoopFrame(index, start, stop, step, BasicBlock())
        self._frames.append(frame)
        self._sid_stack.append(0)
        try:
            yield LoopIndex(index)
        finally:
            self._sid_stack.pop()
            self._frames.pop()
            loop = Loop(
                frame.index,
                frame.start,
                frame.stop,
                frame.step,
                frame.body,
                inner=frame.inner,
            )
            if self._frames:
                if self._frames[-1].inner is not None:
                    raise BuilderError(
                        "a loop body may contain at most one nested loop"
                    )
                self._frames[-1].inner = loop
            else:
                self._flush_top()
                self._program.add(loop)

    def _flush_top(self) -> None:
        if len(self._top):
            self._program.add(self._top)
            self._top = BasicBlock()
            self._sid_stack[0] = 0

    # -- finish --------------------------------------------------------------------

    def build(self) -> Program:
        if self._frames:
            raise BuilderError("build() called inside an open loop scope")
        self._flush_top()
        return self._program


class BlockBuilder:
    """Builds a standalone basic block (loop bodies in tests, kernels)."""

    def __init__(self):
        self._block = BasicBlock()
        self._next_sid = 0

    def assign(self, target: ExprHandle, value: Operand) -> Statement:
        stmt = _build_statement(self._next_sid, target, value)
        self._next_sid += 1
        self._block.append(stmt)
        return stmt

    def build(self) -> BasicBlock:
        return self._block
