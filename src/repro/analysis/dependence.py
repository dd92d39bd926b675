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
from typing import Dict, FrozenSet, List, Sequence

from ..ir import ArrayRef, BasicBlock
from .operands import OperandTable, bit_indices


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


class DependenceGraph:
    """All pairwise dependences of one basic block, in program order.

    The block's :class:`~repro.analysis.operands.OperandTable`
    (``operands``) decides every pair with bitset ANDs: the later
    statement depends on the earlier by FLOW when the earlier's target
    may alias one of the later's reads, by ANTI when the later's target
    may alias one of the earlier's reads, and by OUTPUT when the two
    targets may alias. Per operand id, the statements reading or writing
    something it may alias are one bitset each, so a statement's
    dependent partners are a few ORs and no pair is tested on its own.
    """

    def __init__(self, block: BasicBlock):
        self.block = block
        statements = list(block)
        self.operands = table = OperandTable.of_block(statements)
        self._sids = sids = [stmt.sid for stmt in statements]
        rows = [table.rows[sid] for sid in sids]
        alias = table.alias
        n_ids = len(table.keys)
        readers = [0] * n_ids
        writers = [0] * n_ids
        for position, row in enumerate(rows):
            bit = 1 << position
            writers[row[0]] |= bit
            for i in row[1:]:
                readers[i] |= bit
        # Per id, the statements reading (writing) an operand it may
        # alias: FLOW partners of a writer of the id (OUTPUT and ANTI
        # partners).
        alias_readers = [0] * n_ids
        alias_writers = [0] * n_ids
        for i in range(n_ids):
            for j in bit_indices(alias[i]):
                alias_readers[i] |= readers[j]
                alias_writers[i] |= writers[j]
        # A statement's partners in either direction: whoever reads what
        # its target may alias, or writes what its target or one of its
        # reads may alias. Lower positions are its predecessors, higher
        # ones its successors.
        renumber = sids != list(range(len(sids)))
        self._succ: Dict[int, int] = {}
        self._pred: Dict[int, int] = {}
        for position, row in enumerate(rows):
            target = row[0]
            touch = alias_readers[target] | alias_writers[target]
            for i in row[1:]:
                touch |= alias_writers[i]
            succ = touch & (-2 << position)
            pred = touch & ((1 << position) - 1)
            if renumber:
                succ = _sid_bits(succ, sids)
                pred = _sid_bits(pred, sids)
            self._succ[sids[position]] = succ
            self._pred[sids[position]] = pred

    @property
    def edges(self) -> List[Dependence]:
        """Every dependence, by earlier statement, then later statement,
        then kind (FLOW, ANTI, OUTPUT)."""
        table = self.operands
        alias = table.alias
        position_of = {sid: i for i, sid in enumerate(self._sids)}
        reads: Dict[int, int] = {}
        for sid in self._sids:
            bits = 0
            for i in table.rows[sid][1:]:
                bits |= 1 << i
            reads[sid] = bits
        edges: List[Dependence] = []
        for earlier in self._sids:
            target = table.rows[earlier][0]
            later_sids = sorted(
                bit_indices(self._succ[earlier]), key=position_of.__getitem__
            )
            for later in later_sids:
                later_target = table.rows[later][0]
                if alias[target] & reads[later]:
                    edges.append(Dependence(earlier, later, DepKind.FLOW))
                if alias[later_target] & reads[earlier]:
                    edges.append(Dependence(earlier, later, DepKind.ANTI))
                if (alias[target] >> later_target) & 1:
                    edges.append(Dependence(earlier, later, DepKind.OUTPUT))
        return edges

    # -- queries ---------------------------------------------------------------

    def dependent(self, sid_a: int, sid_b: int) -> bool:
        """True when any dependence connects the two statements."""
        linked = self._succ.get(sid_a, 0) | self._pred.get(sid_a, 0)
        return bool((linked >> sid_b) & 1)

    def independent(self, sid_a: int, sid_b: int) -> bool:
        return not self.dependent(sid_a, sid_b)

    def successor_bits(self, sid: int) -> int:
        """:meth:`successors` as a bitset over sids."""
        return self._succ[sid]

    def predecessor_bits(self, sid: int) -> int:
        """:meth:`predecessors` as a bitset over sids."""
        return self._pred[sid]

    def successors(self, sid: int) -> FrozenSet[int]:
        return frozenset(bit_indices(self._succ[sid]))

    def predecessors(self, sid: int) -> FrozenSet[int]:
        return frozenset(bit_indices(self._pred[sid]))

    def group_depends(
        self, group_a: FrozenSet[int], group_b: FrozenSet[int]
    ) -> bool:
        """Whether some statement of ``group_a`` must precede one of
        ``group_b`` (the group-level relation d of Section 4.1)."""
        bits_b = 0
        for b in group_b:
            bits_b |= 1 << b
        succ = self._succ
        return any(succ[a] & bits_b for a in group_a)

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


def _sid_bits(positions: int, sids: Sequence[int]) -> int:
    """A bitset over block positions as a bitset over their sids."""
    bits = 0
    for position in bit_indices(positions):
        bits |= 1 << sids[position]
    return bits
