"""Intra-block dependence analysis.

The grouping phase needs to know, for every statement pair, whether the
two statements are dependence free (validity constraint 1) and, for the
scheduling phase, the full flow/anti/output dependence relation so the
original semantics are preserved (constraint 2).

Array references are compared symbolically: two affine references to the
same array definitely alias when their affine functions are identical,
definitely do not alias when the functions differ by a provably nonzero
constant, and *may* alias otherwise — in which case we conservatively
record a dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, List, Set, Tuple

from ..ir import ArrayRef, BasicBlock, Statement, Var


class DepKind(Enum):
    FLOW = "flow"      # read after write
    ANTI = "anti"      # write after read
    OUTPUT = "output"  # write after write


@dataclass(frozen=True)
class Dependence:
    """A dependence from program-order-earlier ``src`` to later ``dst``."""

    src: int
    dst: int
    kind: DepKind


def refs_may_alias(a: ArrayRef, b: ArrayRef) -> bool:
    """Whether two references may touch the same element (same iteration)."""
    if a.array != b.array:
        return False
    if len(a.subscripts) != len(b.subscripts):
        return True  # malformed mixed-rank access: stay conservative
    for sa, sb in zip(a.subscripts, b.subscripts):
        delta = sa - sb
        if delta.is_constant and delta.const != 0:
            # This dimension provably differs for every index value.
            return False
    return True


def refs_must_alias(a: ArrayRef, b: ArrayRef) -> bool:
    """Whether two references certainly denote the same element."""
    return a.array == b.array and a.subscripts == b.subscripts


def _writes_conflict(a: Statement, b: Statement) -> bool:
    ta, tb = a.target, b.target
    if isinstance(ta, Var) and isinstance(tb, Var):
        return ta.name == tb.name
    if isinstance(ta, ArrayRef) and isinstance(tb, ArrayRef):
        return refs_may_alias(ta, tb)
    return False


def _read_write_conflict(reader: Statement, writer: Statement) -> bool:
    target = writer.target
    for leaf in reader.expr.leaves():
        if isinstance(target, Var) and isinstance(leaf, Var):
            if leaf.name == target.name:
                return True
        elif isinstance(target, ArrayRef) and isinstance(leaf, ArrayRef):
            if refs_may_alias(leaf, target):
                return True
    return False


class DependenceGraph:
    """All pairwise dependences of one basic block, in program order."""

    def __init__(self, block: BasicBlock):
        self.block = block
        self.edges: List[Dependence] = []
        self._dependent_pairs: Set[FrozenSet[int]] = set()
        self._successors: Dict[int, Set[int]] = {
            s.sid: set() for s in block
        }
        self._predecessors: Dict[int, Set[int]] = {
            s.sid: set() for s in block
        }
        self._analyze()

    def _analyze(self) -> None:
        statements = list(self.block)
        for i, earlier in enumerate(statements):
            for later in statements[i + 1:]:
                kinds = self._pair_kinds(earlier, later)
                for kind in kinds:
                    self._add(Dependence(earlier.sid, later.sid, kind))

    @staticmethod
    def _pair_kinds(
        earlier: Statement, later: Statement
    ) -> Tuple[DepKind, ...]:
        kinds = []
        if _read_write_conflict(later, earlier):
            kinds.append(DepKind.FLOW)
        if _read_write_conflict(earlier, later):
            kinds.append(DepKind.ANTI)
        if _writes_conflict(earlier, later):
            kinds.append(DepKind.OUTPUT)
        return tuple(kinds)

    def _add(self, dep: Dependence) -> None:
        self.edges.append(dep)
        self._dependent_pairs.add(frozenset((dep.src, dep.dst)))
        self._successors[dep.src].add(dep.dst)
        self._predecessors[dep.dst].add(dep.src)

    # -- queries ---------------------------------------------------------------

    def dependent(self, sid_a: int, sid_b: int) -> bool:
        """True when any dependence connects the two statements."""
        return frozenset((sid_a, sid_b)) in self._dependent_pairs

    def independent(self, sid_a: int, sid_b: int) -> bool:
        return not self.dependent(sid_a, sid_b)

    def successors(self, sid: int) -> FrozenSet[int]:
        return frozenset(self._successors[sid])

    def predecessors(self, sid: int) -> FrozenSet[int]:
        return frozenset(self._predecessors[sid])

    def group_depends(
        self, group_a: FrozenSet[int], group_b: FrozenSet[int]
    ) -> bool:
        """Whether some statement of ``group_a`` must precede one of
        ``group_b`` (the group-level relation d of Section 4.1)."""
        return any(
            b in self._successors[a]
            for a in group_a
            for b in group_b
        )

    def groups_conflict(
        self, group_a: FrozenSet[int], group_b: FrozenSet[int]
    ) -> bool:
        """Conflicting candidate groups (Section 4.2.1): they share a
        statement or form a dependence cycle at group level."""
        if group_a & group_b:
            return True
        return self.group_depends(group_a, group_b) and self.group_depends(
            group_b, group_a
        )