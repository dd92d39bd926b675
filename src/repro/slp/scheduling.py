"""Statement scheduling — the second phase of superword statement
generation (Section 4.3, Figure 11).

Given the SIMD groups chosen by grouping, this phase (1) picks a valid
execution sequence that brings superword reuses close together, driven
by a *live superword set* of packs currently expected to sit in vector
registers, and (2) fixes the statement order inside each superword
statement so reuses need as few register permutations as possible —
testing only orderings that yield at least one *direct* reuse, exactly
as the paper prescribes, with memory-order and program-order fallbacks
when no direct reuse is achievable.

Packs are id tuples of the block's operand table (``deps.operands``):
a sorted id tuple orders like the pack it stands for, so it keys the
live set, and ``rows[sid]`` gives a statement's ids by operand position.
The live set is maintained soundly: a scheduled statement's write drops
every pack holding an id that the table's ``alias`` bitset says it may
clobber, so a "reuse" here is never a stale value. The code generator
repeats the same bookkeeping at emission time, over the same
:class:`~repro.analysis.operands.PackIndex`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ScheduleCycleError
from ..analysis import DependenceGraph, OperandTable, PackIndex
from ..analysis.operands import KIND_REF, bit_indices
from ..ir import BasicBlock, Statement
from ..trace import TRACE, provenance_id
from .model import (
    GroupNode,
    Schedule,
    ScheduledSingle,
    SuperwordStatement,
)

_MAX_TESTED_ORDERINGS = 24

#: A pack as operand ids: lane-ordered, or sorted (its data).
IdPack = Tuple[int, ...]


class LiveSuperwordSet:
    """Packs "most likely in vector registers currently", one ordered
    pack per pack data (a newly ordered superword replaces any existing
    superword over the same data), as id tuples of one operand table.
    A write drops the packs holding an id it may alias."""

    def __init__(self, table: OperandTable) -> None:
        self._live: Dict[IdPack, IdPack] = {}
        self._index = PackIndex(table.alias)

    def lookup(self, data: IdPack) -> Optional[IdPack]:
        return self._live.get(data)

    def contains_data(self, data: IdPack) -> bool:
        return data in self._live

    def insert(self, ordered: IdPack) -> None:
        data = tuple(sorted(ordered))
        if data not in self._live:
            self._index.add(data)
        self._live[data] = ordered

    def invalidate_written(self, written: Sequence[int]) -> None:
        """Drop packs holding a value that may alias a written id."""
        for data in self._index.stale(written):
            del self._live[data]
            self._index.discard(data)

    def packs(self) -> Tuple[IdPack, ...]:
        return tuple(self._live.values())

    def __len__(self) -> int:
        return len(self._live)


# ---------------------------------------------------------------------------
# Group dependence graph
# ---------------------------------------------------------------------------


class GroupDependenceGraph:
    """Dependences lifted from statements to scheduling units: unit ``i``
    precedes unit ``j`` when the OR of ``i``'s statements' successor
    bitsets holds a statement of ``j``."""

    def __init__(self, units: Sequence[GroupNode], deps: DependenceGraph):
        self.units = list(units)
        self.succ: Dict[int, Set[int]] = {i: set() for i in range(len(units))}
        self.pred: Dict[int, Set[int]] = {i: set() for i in range(len(units))}
        unit_of = {
            sid: i for i, unit in enumerate(self.units) for sid in unit.sids
        }
        for i, unit in enumerate(self.units):
            later = 0
            for sid in unit.sids:
                later |= deps.successor_bits(sid)
            for sid in bit_indices(later):
                j = unit_of.get(sid)
                if j is not None and j != i:
                    self.succ[i].add(j)
                    self.pred[j].add(i)

    def find_cycle(self) -> Optional[List[int]]:
        """A unit cycle, if any (grouping usually prevents these but the
        pairwise conflict test cannot rule out 3-cycles)."""
        color: Dict[int, int] = {}
        stack: List[int] = []

        def visit(node: int) -> Optional[List[int]]:
            color[node] = 1
            stack.append(node)
            for nxt in sorted(self.succ[node]):
                if color.get(nxt) == 1:
                    return stack[stack.index(nxt):]
                if color.get(nxt, 0) == 0:
                    found = visit(nxt)
                    if found:
                        return found
            stack.pop()
            color[node] = 2
            return None

        for start in range(len(self.units)):
            if color.get(start, 0) == 0:
                found = visit(start)
                if found:
                    return found
        return None


# ---------------------------------------------------------------------------
# Scheduling proper
# ---------------------------------------------------------------------------


class Scheduler:
    """Figure 11, with sound live-set invalidation."""

    def __init__(
        self,
        block: BasicBlock,
        deps: DependenceGraph,
        units: Sequence[GroupNode],
    ):
        self.block = block
        # sid -> (program-order position, statement), built once: the
        # ready-unit and lane orderings sort by position, and a block
        # lookup would scan the statement list on every key.
        self._at: Dict[int, Tuple[int, Statement]] = {
            stmt.sid: (position, stmt)
            for position, stmt in enumerate(block)
        }
        self.deps = deps
        self.table = deps.operands
        self.units, self.graph = self._acyclic_units(list(units))
        self.live = LiveSuperwordSet(self.table)

    def _acyclic_units(
        self, units: List[GroupNode]
    ) -> Tuple[List[GroupNode], GroupDependenceGraph]:
        current = units
        while True:
            graph = GroupDependenceGraph(current, self.deps)
            cycle = graph.find_cycle()
            if cycle is None:
                return current, graph
            grouped = [i for i in cycle if current[i].size > 1]
            if not grouped:  # pragma: no cover
                raise ScheduleCycleError("dependence cycle among single statements")
            victim_index = min(grouped, key=lambda i: (current[i].size, i))
            victim = current[victim_index]
            singles = [
                GroupNode.of_statement(self._at[sid][1])
                for sid in victim.sids
            ]
            current = (
                current[:victim_index]
                + current[victim_index + 1:]
                + singles
            )

    # -- public -------------------------------------------------------------------

    def run(self) -> Schedule:
        """Schedule every unit once its predecessors are: ``ready``
        holds the units whose count of unscheduled predecessors is 0."""
        schedule = Schedule(self.block)
        units = self.units
        at = self._at
        # Each unit's earliest program position (distinct across units,
        # so no ordering below ties), and each group's packs as sorted
        # id tuples.
        first = [min(at[sid][0] for sid in unit.sids) for unit in units]
        packs = {
            i: self.table.unit_packs(unit.sids)
            for i, unit in enumerate(units)
            if unit.size > 1
        }
        waiting = [len(self.graph.pred[i]) for i in range(len(units))]
        ready = {i for i, count in enumerate(waiting) if not count}
        while ready:
            group_ready = [i for i in ready if i in packs]
            if group_ready:
                index = max(
                    group_ready,
                    key=lambda i: (self._reuse_count(packs[i]), -first[i]),
                )
                unit = units[index]
                if TRACE.enabled:
                    hits = self._reuse_count(packs[index])
                    TRACE.event(
                        "schedule.pick",
                        prov=provenance_id(
                            unit.sids, TRACE.current("block")
                        ),
                        reuse_hits=hits,
                        reuse_misses=len(packs[index]) - hits,
                        ready_groups=len(group_ready),
                    )
                item = self._order_group(unit)
                self._retire_superword(item)
                schedule.items.append(item)
            else:
                index = min(ready, key=first.__getitem__)
                stmt = at[units[index].sids[0]][1]
                self.live.invalidate_written(
                    (self.table.rows[stmt.sid][0],)
                )
                schedule.items.append(ScheduledSingle(stmt))
            ready.discard(index)
            for later in self.graph.succ[index]:
                waiting[later] -= 1
                if not waiting[later]:
                    ready.add(later)
        assert len(schedule.items) == len(units), (
            "dependence graph must be acyclic here"
        )
        return schedule

    # -- group selection (Figure 11 lines 15-18) --------------------------------

    def _reuse_count(self, packs: Sequence[IdPack]) -> int:
        live = self.live
        return sum(1 for data in packs if live.contains_data(data))

    # -- intra-group ordering (Figure 11 lines 19-27) ---------------------------

    def _order_group(self, unit: GroupNode) -> SuperwordStatement:
        rows = self.table.rows
        # The lanes' operand ids, one tuple per position, and the live
        # pack over each position's data (the same under every order).
        columns = list(zip(*(rows[sid] for sid in unit.sids)))
        lives = [self.live.lookup(tuple(sorted(ids))) for ids in columns]
        orderings = self._candidate_orderings(unit.sids, columns, lives)
        # Tie-break on list position: direct-reuse orderings come first,
        # then memory order, then program order.
        permutations = [
            _permutation_count(columns, lives, order) for order in orderings
        ]
        best = min(range(len(orderings)), key=lambda i: (permutations[i], i))
        if TRACE.enabled:
            TRACE.event(
                "schedule.order",
                prov=provenance_id(unit.sids, TRACE.current("block")),
                orderings_tried=len(orderings),
                permutations=permutations[best],
                order=orderings[best],
            )
        return SuperwordStatement(
            tuple(self._at[unit.sids[lane]][1] for lane in orderings[best])
        )

    def _candidate_orderings(
        self,
        sids: Sequence[int],
        columns: Sequence[IdPack],
        lives: Sequence[Optional[IdPack]],
    ) -> List[Tuple[int, ...]]:
        size = len(sids)
        found: List[Tuple[int, ...]] = []
        seen: Set[Tuple[int, ...]] = set()

        # Orderings achieving at least one direct reuse.
        for ids, live in zip(columns, lives):
            if live is None:
                continue
            for order in _match_orderings(ids, live, _MAX_TESTED_ORDERINGS):
                if order not in seen:
                    seen.add(order)
                    found.append(order)
                if len(found) >= _MAX_TESTED_ORDERINGS:
                    return found
        if found:
            return found

        # Fallback 1: memory order — sort lanes so array-reference
        # positions come out in ascending address order (cheap packing).
        # Ids follow key order, so one array's ids sort by subscript.
        kinds, names = self.table.kinds, self.table.names
        for ids in columns:
            if all(kinds[i] == KIND_REF for i in ids) and len(
                {names[i] for i in ids}
            ) == 1:
                order = tuple(sorted(range(size), key=ids.__getitem__))
                if order not in seen:
                    seen.add(order)
                    found.append(order)
        # Fallback 2: program order.
        program = tuple(
            sorted(range(size), key=lambda lane: self._at[sids[lane]][0])
        )
        if program not in seen:
            found.append(program)
        return found

    # -- live-set maintenance (Figure 11 lines 28-35) ----------------------------

    def _retire_superword(self, item: SuperwordStatement) -> None:
        rows = self.table.rows
        target, *sources = zip(*(rows[member.sid] for member in item.members))
        for source in sources:
            self.live.insert(source)
        self.live.invalidate_written(target)
        self.live.insert(target)


def _permutation_count(
    columns: Sequence[IdPack],
    lives: Sequence[Optional[IdPack]],
    order: Tuple[int, ...],
) -> int:
    """Np: permutations needed for the reuses of a superword statement
    under a given lane order."""
    permutations = 0
    for ids, live in zip(columns, lives):
        if live is not None and live != tuple([ids[lane] for lane in order]):
            permutations += 1
    return permutations


def _match_orderings(
    keys: Sequence,
    live: Sequence,
    limit: int,
) -> Iterator[Tuple[int, ...]]:
    """Permutations ``order`` of lane indices with
    ``keys[order[l]] == live[l]`` for every lane — i.e. orderings under
    which this position directly reuses the live pack."""
    size = len(keys)
    lanes_for: List[List[int]] = [
        [i for i in range(size) if keys[i] == live[lane]]
        for lane in range(size)
    ]
    used: Set[int] = set()
    order: List[int] = []
    produced = 0

    def backtrack(lane: int) -> Iterator[Tuple[int, ...]]:
        nonlocal produced
        if produced >= limit:
            return
        if lane == size:
            produced += 1
            yield tuple(order)
            return
        for member in lanes_for[lane]:
            if member in used:
                continue
            used.add(member)
            order.append(member)
            yield from backtrack(lane + 1)
            order.pop()
            used.discard(member)

    yield from backtrack(0)
