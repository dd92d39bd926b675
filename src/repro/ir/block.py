"""Basic blocks, loops, and whole programs.

The compiler framework's input is "a set of basic blocks of a program"
(Section 3); loop-intensive code reaches that form via unrolling
(``repro.transform.unroll``). A :class:`Program` additionally carries the
array/scalar declarations the virtual machine needs to execute the code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..errors import IRError, StatementLookupError
from .expr import Affine, ArrayRef, Expr, Var
from .stmt import Statement
from .types import ScalarType


def _base_name(node: Union[Var, ArrayRef]) -> str:
    """The storage a Var or ArrayRef touches, by name."""
    return node.name if isinstance(node, Var) else node.array


@dataclass(frozen=True)
class IfRegion:
    """A single-level conditional region inside a basic block.

    Branch bodies hold plain statements only — nested regions are
    structurally unrepresentable, which is exactly the single-level form
    if-conversion (``repro.transform.if_convert``) flattens into
    predicated selects. Regions exist only between parsing and
    if-conversion; every downstream layer (SLP, scheduling, the VM
    engines) sees straight-line blocks.
    """

    cond: Expr
    then_body: Tuple[Statement, ...]
    else_body: Tuple[Statement, ...] = ()

    def __post_init__(self) -> None:
        if not self.then_body:
            raise IRError("if region requires a non-empty then-branch")
        hazard = self._condition_write_hazard()
        if hazard is not None:
            raise IRError(
                f"branch statement {hazard} assigns to "
                f"{_base_name(hazard.target)!r}, which the region condition "
                f"({self.cond}) reads; the predicated form would "
                "re-evaluate the condition against the mutated value"
            )

    @property
    def mergeable(self) -> bool:
        """True when then/else bodies pair up into select-merges: same
        length, and the k-th statements of both branches write
        structurally equal targets."""
        if not self.else_body:
            return False
        if len(self.then_body) != len(self.else_body):
            return False
        return all(
            t.target == e.target
            for t, e in zip(self.then_body, self.else_body)
        )

    def _condition_write_hazard(self) -> Optional[Statement]:
        """The first branch statement whose write could change a later
        re-evaluation of ``cond`` in the if-converted form, or None.

        If-conversion embeds ``cond`` in every lowered select, so a
        statement that writes a condition operand poisons every select
        *after* it. Only the final lowered statement is exempt: for the
        select-merge shape that is the last then/else pair, otherwise
        the last statement in then-before-else order. This keeps the
        common in-place clamp (``if (A[i] > c) A[i] = c;``) legal while
        rejecting genuinely divergent regions.
        """
        cond_bases = {
            _base_name(leaf)
            for leaf in self.cond.leaves()
            if isinstance(leaf, (Var, ArrayRef))
        }
        if not cond_bases:
            return None
        stmts = list(self.then_body) + list(self.else_body)
        if self.mergeable:
            allowed = {len(self.then_body) - 1, len(stmts) - 1}
        else:
            allowed = {len(stmts) - 1}
        for pos, stmt in enumerate(stmts):
            if pos in allowed:
                continue
            if _base_name(stmt.target) in cond_bases:
                return stmt
        return None

    def statements(self) -> Iterator[Statement]:
        yield from self.then_body
        yield from self.else_body

    def sids(self) -> Tuple[int, ...]:
        return tuple(s.sid for s in self.statements())

    def substitute_indices(self, bindings: Mapping[str, Affine]) -> "IfRegion":
        return IfRegion(
            self.cond.substitute_indices(bindings),
            tuple(s.substitute_indices(bindings) for s in self.then_body),
            tuple(s.substitute_indices(bindings) for s in self.else_body),
        )

    def __str__(self) -> str:
        lines = [f"if ({self.cond}) {{"]
        lines += [f"  {s}" for s in self.then_body]
        if self.else_body:
            lines.append("} else {")
            lines += [f"  {s}" for s in self.else_body]
        lines.append("}")
        return "\n".join(lines)


#: What a basic block may hold: straight-line statements plus (before
#: if-conversion) single-level conditional regions.
BlockItem = Union[Statement, IfRegion]


def _item_sids(item: BlockItem) -> Tuple[int, ...]:
    if isinstance(item, IfRegion):
        return item.sids()
    return (item.sid,)


def _claim_sids(items: Sequence[BlockItem], taken: Set[int]) -> Set[int]:
    """The sids of ``items``, each checked unique against ``taken`` and
    the others. Raises before anything is claimed."""
    claimed: Set[int] = set()
    for item in items:
        for sid in _item_sids(item):
            if sid in taken or sid in claimed:
                raise IRError(f"duplicate sid {sid} in basic block")
            claimed.add(sid)
    return claimed


class BasicBlock:
    """An ordered sequence of statements with unique sids.

    Before if-conversion the sequence may also contain
    :class:`IfRegion` items; sids stay unique across the whole block
    including region branches. Code that runs after if-conversion may
    keep iterating the block as plain statements.
    """

    def __init__(self, statements: Sequence[BlockItem] = ()):
        self.statements: List[BlockItem] = list(statements)
        _claim_sids(self.statements, set())
        #: Every sid in the block, regions included, built by the first
        #: ``append`` (most blocks are never appended to, and a compile
        #: result keeps all of its blocks) and kept current by
        #: ``append``/``pop``. Derived from ``statements`` and not
        #: pickled, so a block pickles as its statement list alone.
        self._sids: Optional[Set[int]] = None

    def __getstate__(self) -> Dict[str, object]:
        return {"statements": self.statements}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.statements = state["statements"]
        _claim_sids(self.statements, set())
        self._sids = None

    def append(self, stmt: BlockItem) -> None:
        if self._sids is None:
            self._sids = _claim_sids(self.statements, set())
        self._sids |= _claim_sids((stmt,), self._sids)
        self.statements.append(stmt)

    def pop(self) -> BlockItem:
        """Remove and return the last item."""
        item = self.statements.pop()
        if self._sids is not None:
            self._sids.difference_update(_item_sids(item))
        return item

    @property
    def has_regions(self) -> bool:
        return any(isinstance(item, IfRegion) for item in self.statements)

    def flat_statements(self) -> Iterator[Statement]:
        """Every statement in program order, descending into regions."""
        for item in self.statements:
            if isinstance(item, IfRegion):
                yield from item.statements()
            else:
                yield item

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __getitem__(self, sid: int) -> Statement:
        for stmt in self.flat_statements():
            if stmt.sid == sid:
                return stmt
        raise StatementLookupError(f"no statement with sid {sid}")

    def position(self, sid: int) -> int:
        """Program order position of a statement (dependence direction)."""
        for pos, stmt in enumerate(self.statements):
            if isinstance(stmt, Statement) and stmt.sid == sid:
                return pos
        raise StatementLookupError(f"no statement with sid {sid}")

    def replace_statement(self, stmt: Statement) -> "BasicBlock":
        """A new block with the same-order statement of that sid swapped."""
        return BasicBlock(
            [
                stmt
                if isinstance(s, Statement) and s.sid == stmt.sid
                else s
                for s in self.statements
            ]
        )

    def renumbered(self, start: int = 0) -> "BasicBlock":
        items: List[BlockItem] = []
        sid = start
        for item in self.statements:
            if isinstance(item, IfRegion):
                then_body = []
                for s in item.then_body:
                    then_body.append(s.with_sid(sid))
                    sid += 1
                else_body = []
                for s in item.else_body:
                    else_body.append(s.with_sid(sid))
                    sid += 1
                items.append(
                    IfRegion(item.cond, tuple(then_body), tuple(else_body))
                )
            else:
                items.append(item.with_sid(sid))
                sid += 1
        return BasicBlock(items)

    def __eq__(self, other: object) -> bool:
        # Structural: two blocks are equal when their statement lists
        # are. Statements are frozen dataclasses, so this recurses all
        # the way down — which is what lets a pickled CompileResult
        # (e.g. one returned over the service wire or from the artifact
        # store) compare ``==`` to a locally compiled one. Hashing stays
        # identity-based: no existing code keys containers by
        # structurally-equal-but-distinct blocks, and identity hashing
        # keeps that behaviour unchanged.
        if not isinstance(other, BasicBlock):
            return NotImplemented
        return self.statements == other.statements

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return "\n".join(str(s) for s in self.statements)


@dataclass
class Loop:
    """A counted loop ``for (index = start; index < stop; index += step)``.

    The body is a single basic block plus optional nested loops; the
    workloads in this reproduction (like the paper's, after SUIF's
    preprocessing) are perfect or near-perfect affine nests.
    """

    index: str
    start: int
    stop: int
    step: int
    body: BasicBlock
    inner: Optional["Loop"] = None

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise IRError("only positive loop steps are supported")

    @property
    def trip_count(self) -> int:
        if self.stop <= self.start:
            return 0
        return (self.stop - self.start + self.step - 1) // self.step

    def iter_values(self) -> Iterator[int]:
        return iter(range(self.start, self.stop, self.step))

    def indices(self) -> Tuple[str, ...]:
        """Loop indices from this (outermost) level inwards."""
        inner = self.inner.indices() if self.inner else ()
        return (self.index,) + inner

    def innermost(self) -> "Loop":
        return self.inner.innermost() if self.inner else self

    def with_body(self, body: BasicBlock) -> "Loop":
        return replace(self, body=body)


@dataclass(frozen=True)
class ArrayDecl:
    """A declared array: name, dimension sizes, element type."""

    name: str
    shape: Tuple[int, ...]
    type: ScalarType

    @property
    def size(self) -> int:
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    def flatten_index(self, subscript_values: Sequence[int]) -> int:
        """Row-major flattening; the default layout assumed in Section 5."""
        if len(subscript_values) != len(self.shape):
            raise IRError(
                f"{self.name} has {len(self.shape)} dims, "
                f"got {len(subscript_values)} subscripts"
            )
        flat = 0
        for value, dim in zip(subscript_values, self.shape):
            flat = flat * dim + value
        return flat


@dataclass(frozen=True)
class ScalarDecl:
    name: str
    type: ScalarType


class Program:
    """Declarations plus a body of loops and straight-line blocks."""

    def __init__(self, name: str = "program"):
        self.name = name
        self.arrays: Dict[str, ArrayDecl] = {}
        self.scalars: Dict[str, ScalarDecl] = {}
        self.body: List[Union[Loop, BasicBlock]] = []

    def declare_array(
        self, name: str, shape: Sequence[int], type: ScalarType
    ) -> ArrayDecl:
        if name in self.arrays or name in self.scalars:
            raise IRError(f"{name!r} is already declared")
        decl = ArrayDecl(name, tuple(shape), type)
        self.arrays[name] = decl
        return decl

    def declare_scalar(self, name: str, type: ScalarType) -> ScalarDecl:
        if name in self.arrays or name in self.scalars:
            raise IRError(f"{name!r} is already declared")
        decl = ScalarDecl(name, type)
        self.scalars[name] = decl
        return decl

    def add(self, item: Union[Loop, BasicBlock]) -> None:
        self.body.append(item)

    def loops(self) -> Iterator[Loop]:
        for item in self.body:
            if isinstance(item, Loop):
                yield item

    def blocks(self) -> Iterator[BasicBlock]:
        """Every basic block, including loop bodies (innermost first)."""
        for item in self.body:
            if isinstance(item, BasicBlock):
                yield item
            else:
                loop: Optional[Loop] = item
                stack = []
                while loop is not None:
                    stack.append(loop)
                    loop = loop.inner
                for nested in reversed(stack):
                    yield nested.body

    def clone_shell(self) -> "Program":
        """A new program with the same declarations and an empty body."""
        twin = Program(self.name)
        twin.arrays = dict(self.arrays)
        twin.scalars = dict(self.scalars)
        return twin

    def __eq__(self, other: object) -> bool:
        # Structural, like BasicBlock: declarations are frozen
        # dataclasses and body items are Loops (dataclasses) or
        # BasicBlocks, so equality recurses through the whole program.
        # ``name`` is a display label, not semantics — the printed form
        # (the faithful round-trippable rendering every cache key and
        # wire payload is built on) does not carry it, so equality
        # ignores it. Identity hashing is kept for the same reason as
        # BasicBlock.
        if not isinstance(other, Program):
            return NotImplemented
        return (
            self.arrays == other.arrays
            and self.scalars == other.scalars
            and self.body == other.body
        )

    __hash__ = object.__hash__
