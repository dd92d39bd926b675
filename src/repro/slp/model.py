"""Core model types for the SLP optimizer.

Terminology, following Sections 2 and 4 of the paper:

* A **variable pack** is the multiset of operands sitting at the same
  position of the statements of a (candidate) group — *unordered* during
  grouping (``PackData``), *ordered* once scheduling fixes lane order
  (``OrderedPack``).
* A **SIMD group** is an unordered set of isomorphic, mutually
  independent statements chosen to execute as one SIMD operation.
* A **superword statement** is a SIMD group whose internal statement
  order (lane assignment) has been fixed by the scheduling phase.
* A **schedule** is the final execution sequence of superword statements
  and leftover single statements for one basic block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..analysis import DependenceGraph, OperandKey, operand_key
from ..errors import ScheduleError
from ..ir import BasicBlock, Statement

#: Canonical unordered pack: the sorted multiset of operand keys.
PackData = Tuple[OperandKey, ...]

#: A pack with lane order fixed.
OrderedPack = Tuple[OperandKey, ...]


def pack_data(keys: Sequence[OperandKey]) -> PackData:
    """Canonicalize a multiset of operand keys (order-insensitive)."""
    return tuple(sorted(keys))


@dataclass(frozen=True, slots=True)
class GroupNode:
    """An atomic unit during (iterative) grouping.

    Round 0 nodes wrap a single statement; a round-``r`` group merges two
    round-``r-1`` nodes. ``positions`` holds, for each operand position
    of the (shared) statement shape, the unordered pack of all member
    operands at that position — position 0 is the target.
    """

    sids: Tuple[int, ...]               # canonical ascending order
    signature: Tuple                     # members' isomorphism signature
    positions: Tuple[PackData, ...]
    element_bits: int

    @property
    def size(self) -> int:
        return len(self.sids)

    @property
    def width_bits(self) -> int:
        return self.size * self.element_bits

    @property
    def sid_set(self) -> FrozenSet[int]:
        return frozenset(self.sids)

    @staticmethod
    def of_statement(stmt: Statement) -> "GroupNode":
        positions = tuple(
            (operand_key(leaf),) for leaf in stmt.operand_positions()
        )
        return GroupNode(
            (stmt.sid,),
            stmt.isomorphism_signature(),
            positions,
            stmt.target.type.bits,
        )

    @staticmethod
    def merge(a: "GroupNode", b: "GroupNode") -> "GroupNode":
        if a.signature != b.signature:
            raise ScheduleError("cannot merge non-isomorphic group nodes")
        positions = tuple(
            pack_data(pa + pb) for pa, pb in zip(a.positions, b.positions)
        )
        return GroupNode(
            tuple(sorted(a.sids + b.sids)),
            a.signature,
            positions,
            a.element_bits,
        )

    def can_merge_with(
        self,
        other: "GroupNode",
        deps: DependenceGraph,
        datapath_bits: int,
    ) -> bool:
        """Validity of the merged candidate: isomorphism, no dependence
        between any members, and datapath width (constraints 1, 3, 4).

        Units must be the same size: iterative grouping (Section 4.2.2)
        treats a round-``r`` group as *one* atomic statement whose
        operands are packs, so it is only isomorphic to other round-``r``
        units — group sizes grow 2, 4, 8, ...
        """
        if self.size != other.size:
            return False
        if self.signature != other.signature:
            return False
        if self.width_bits + other.width_bits > datapath_bits:
            return False
        return not any(
            deps.dependent(p, q) for p in self.sids for q in other.sids
        )


@dataclass(frozen=True, slots=True)
class CandidateGroup:
    """A potential SIMD group: an unordered pair of group nodes."""

    left: GroupNode
    right: GroupNode

    def merged(self) -> GroupNode:
        return GroupNode.merge(self.left, self.right)

    @property
    def sid_set(self) -> FrozenSet[int]:
        return self.left.sid_set | self.right.sid_set

    @property
    def packs(self) -> Tuple[PackData, ...]:
        return self.merged().positions

    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Deterministic identity for tie-breaking and hashing."""
        return tuple(sorted((self.left.sids, self.right.sids)))

@dataclass(frozen=True, slots=True)
class SuperwordStatement:
    """A SIMD group with fixed lane order — one lane per member."""

    members: Tuple[Statement, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ScheduleError("a superword statement needs >= 2 lanes")
        signature = self.members[0].isomorphism_signature()
        for member in self.members[1:]:
            if member.isomorphism_signature() != signature:
                raise ScheduleError("superword statement members not isomorphic")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def sids(self) -> Tuple[int, ...]:
        return tuple(m.sid for m in self.members)

    @property
    def sid_set(self) -> FrozenSet[int]:
        return frozenset(self.sids)

    @property
    def element_bits(self) -> int:
        return self.members[0].target.type.bits

    @property
    def width_bits(self) -> int:
        return self.size * self.element_bits

    def position_count(self) -> int:
        return len(self.members[0].operand_positions())

    def ordered_pack(self, position: int) -> OrderedPack:
        """The lane-ordered pack at an operand position (0 = target)."""
        return tuple(
            operand_key(m.operand_positions()[position]) for m in self.members
        )

    def ordered_packs(self) -> Tuple[OrderedPack, ...]:
        return tuple(
            self.ordered_pack(p) for p in range(self.position_count())
        )

    def target_pack(self) -> OrderedPack:
        return self.ordered_pack(0)

    def source_packs(self) -> Tuple[OrderedPack, ...]:
        return self.ordered_packs()[1:]

    def lane_exprs(self, position: int):
        """The actual IR leaves at a position, in lane order."""
        return tuple(m.operand_positions()[position] for m in self.members)

    def __str__(self) -> str:
        inner = ", ".join(f"S{m.sid}" for m in self.members)
        return f"<{inner}>"


@dataclass(frozen=True, slots=True)
class ScheduledSingle:
    """A statement left scalar in the final schedule."""

    statement: Statement

    @property
    def sid_set(self) -> FrozenSet[int]:
        return frozenset((self.statement.sid,))

    def __str__(self) -> str:
        return f"S{self.statement.sid}"


ScheduleItem = object  # Union[SuperwordStatement, ScheduledSingle]


@dataclass
class Schedule:
    """The scheduling ``D = <D1, ..., Dm>`` for one basic block."""

    block: BasicBlock
    items: List[ScheduleItem] = field(default_factory=list)

    def superwords(self) -> Iterator[SuperwordStatement]:
        for item in self.items:
            if isinstance(item, SuperwordStatement):
                yield item

    def singles(self) -> Iterator[ScheduledSingle]:
        for item in self.items:
            if isinstance(item, ScheduledSingle):
                yield item

    def grouped_fraction(self) -> float:
        grouped = sum(sw.size for sw in self.superwords())
        total = len(self.block)
        return grouped / total if total else 0.0

    def validate(self, deps: Optional[DependenceGraph] = None,
                 datapath_bits: Optional[int] = None) -> None:
        """Check the four validity constraints of Section 4.1.

        Raises ``InvalidScheduleError`` on the first violation.
        """
        deps = deps or DependenceGraph(self.block)
        scheduled: List[FrozenSet[int]] = []
        seen: set = set()
        for item in self.items:
            if isinstance(item, SuperwordStatement):
                sids = item.sid_set
                # (1) members pairwise independent
                for p in item.sids:
                    for q in item.sids:
                        if p < q and deps.dependent(p, q):
                            raise InvalidScheduleError(
                                f"dependence inside superword {item}"
                            )
                # (3) isomorphism enforced by the constructor
                # (4) datapath width
                if datapath_bits is not None \
                        and item.width_bits > datapath_bits:
                    raise InvalidScheduleError(
                        f"{item} exceeds the {datapath_bits}-bit datapath"
                    )
            elif isinstance(item, ScheduledSingle):
                sids = item.sid_set
            else:  # pragma: no cover - defensive
                raise InvalidScheduleError(f"unknown schedule item {item!r}")
            # (2) dependences preserved: all predecessors scheduled before
            for sid in sids:
                for pred in deps.predecessors(sid):
                    if pred in sids:
                        continue  # would have failed constraint (1)
                    if pred not in seen:
                        raise InvalidScheduleError(
                            f"S{sid} scheduled before its dependence "
                            f"source S{pred}"
                        )
            overlap = sids & seen
            if overlap:
                raise InvalidScheduleError(
                    f"statements scheduled twice: {sorted(overlap)}"
                )
            seen |= sids
            scheduled.append(sids)
        missing = {s.sid for s in self.block} - seen
        if missing:
            raise InvalidScheduleError(
                f"statements missing from schedule: {sorted(missing)}"
            )

    def __str__(self) -> str:
        return "\n".join(str(item) for item in self.items)


class InvalidScheduleError(ScheduleError):
    """A schedule violating the validity constraints of Section 4.1."""
