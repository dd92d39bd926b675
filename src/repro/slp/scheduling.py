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

The live set is maintained soundly: packs containing an operand that a
scheduled statement (re)writes are invalidated, so a "reuse" here is
never a stale value. The code generator repeats the same bookkeeping at
emission time.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ScheduleCycleError
from ..analysis import DependenceGraph, OperandKey, operand_key
from ..analysis.operands import KIND_CONST, KIND_REF, KIND_VAR
from ..ir import BasicBlock, Statement
from ..trace import TRACE, provenance_id
from .model import (
    GroupNode,
    OrderedPack,
    PackData,
    Schedule,
    ScheduledSingle,
    SuperwordStatement,
    pack_data,
)

_MAX_TESTED_ORDERINGS = 24


def keys_may_alias(a: OperandKey, b: OperandKey) -> bool:
    """May-alias on operand keys (mirrors dependence.refs_may_alias)."""
    if a[0] == KIND_VAR and b[0] == KIND_VAR:
        return a[1] == b[1]
    if a[0] == KIND_REF and b[0] == KIND_REF:
        if a[1] != b[1]:
            return False
        subs_a, subs_b = a[2], b[2]
        if len(subs_a) != len(subs_b):
            return True
        for sa, sb in zip(subs_a, subs_b):
            delta = sa - sb
            if delta.is_constant and delta.const != 0:
                return False
        return True
    return False


class LiveSuperwordSet:
    """Packs "most likely in vector registers currently", one ordered
    pack per pack-data multiset (a newly ordered superword replaces any
    existing superword over the same data).

    Two keys may alias only if they name the same variable or array, so
    the live packs are indexed by their lanes' ``(kind, name)``, and a
    write alias-tests only the packs sharing its name."""

    def __init__(self) -> None:
        self._live: Dict[PackData, OrderedPack] = {}
        self._by_name: Dict[Tuple[str, str], Set[PackData]] = {}

    def lookup(self, data: PackData) -> Optional[OrderedPack]:
        return self._live.get(data)

    def contains_data(self, data: PackData) -> bool:
        return data in self._live

    def insert(self, ordered: OrderedPack) -> None:
        data = pack_data(ordered)
        if data not in self._live:
            for key in data:
                if key[0] != KIND_CONST:
                    self._by_name.setdefault(key[:2], set()).add(data)
        self._live[data] = ordered

    def invalidate_written(self, written: Sequence[OperandKey]) -> None:
        """Drop packs holding a value that aliases a just-written operand."""
        stale = set()
        for w in written:
            for data in self._by_name.get(w[:2], ()):
                if data not in stale and any(
                    keys_may_alias(lane, w) for lane in data
                ):
                    stale.add(data)
        for data in stale:
            del self._live[data]
            for key in data:
                if key[0] != KIND_CONST:
                    self._by_name[key[:2]].discard(data)

    def packs(self) -> Tuple[OrderedPack, ...]:
        return tuple(self._live.values())

    def __len__(self) -> int:
        return len(self._live)


# ---------------------------------------------------------------------------
# Group dependence graph
# ---------------------------------------------------------------------------


class GroupDependenceGraph:
    """Dependences lifted from statements to scheduling units."""

    def __init__(self, units: Sequence[GroupNode], deps: DependenceGraph):
        self.units = list(units)
        self.deps = deps
        self.succ: Dict[int, Set[int]] = {i: set() for i in range(len(units))}
        self.pred: Dict[int, Set[int]] = {i: set() for i in range(len(units))}
        for i, a in enumerate(self.units):
            for j, b in enumerate(self.units):
                if i == j:
                    continue
                if deps.group_depends(a.sid_set, b.sid_set):
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
        self.units = self._acyclic_units(list(units))
        self.graph = GroupDependenceGraph(self.units, deps)
        self.live = LiveSuperwordSet()
        # Each statement's operand keys by position, keyed by sid: the
        # ordering search reads them many times per group.
        self._operand_keys: Dict[int, Tuple[OperandKey, ...]] = {}

    def _acyclic_units(self, units: List[GroupNode]) -> List[GroupNode]:
        current = units
        while True:
            graph = GroupDependenceGraph(current, self.deps)
            cycle = graph.find_cycle()
            if cycle is None:
                return current
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
        schedule = Schedule(self.block)
        remaining: Set[int] = set(range(len(self.units)))
        scheduled: Set[int] = set()

        while remaining:
            ready = sorted(
                i
                for i in remaining
                if self.graph.pred[i] <= scheduled
            )
            assert ready, "dependence graph must be acyclic here"
            group_ready = [i for i in ready if self.units[i].size > 1]
            if group_ready:
                index = self._best_group(group_ready)
                if TRACE.enabled:
                    unit = self.units[index]
                    hits = self._reuse_count(unit)
                    TRACE.event(
                        "schedule.pick",
                        prov=provenance_id(
                            unit.sids, TRACE.current("block")
                        ),
                        reuse_hits=hits,
                        reuse_misses=len(unit.positions) - hits,
                        ready_groups=len(group_ready),
                    )
                item = self._order_group(self.units[index])
                self._retire_superword(item)
                schedule.items.append(item)
            else:
                index = min(
                    ready, key=lambda i: self._at[self.units[i].sids[0]][0]
                )
                stmt = self._at[self.units[index].sids[0]][1]
                self._retire_single(stmt)
                schedule.items.append(ScheduledSingle(stmt))
            remaining.discard(index)
            scheduled.add(index)
        return schedule

    # -- group selection (Figure 11 lines 15-18) --------------------------------

    def _reuse_count(self, unit: GroupNode) -> int:
        return sum(
            1 for data in unit.positions if self.live.contains_data(data)
        )

    def _best_group(self, indices: Sequence[int]) -> int:
        return max(
            indices,
            key=lambda i: (
                self._reuse_count(self.units[i]),
                -min(self._at[s][0] for s in self.units[i].sids),
            ),
        )

    # -- intra-group ordering (Figure 11 lines 19-27) ---------------------------

    def _order_group(self, unit: GroupNode) -> SuperwordStatement:
        members = [self._at[sid][1] for sid in unit.sids]
        base = SuperwordStatement(tuple(members))
        orderings = self._candidate_orderings(base)
        # Tie-break on list position: direct-reuse orderings come first,
        # then memory order, then program order.
        best = min(
            range(len(orderings)),
            key=lambda i: (
                self._permutation_count(base, orderings[i]),
                i,
            ),
        )
        if TRACE.enabled:
            TRACE.event(
                "schedule.order",
                prov=provenance_id(base.sids, TRACE.current("block")),
                orderings_tried=len(orderings),
                permutations=self._permutation_count(base, orderings[best]),
                order=orderings[best],
            )
        return base.reordered(orderings[best])

    def _keys_of(self, member: Statement) -> Tuple[OperandKey, ...]:
        """The operand key at each of ``member``'s positions."""
        keys = self._operand_keys.get(member.sid)
        if keys is None:
            keys = self._operand_keys[member.sid] = tuple(
                operand_key(leaf) for leaf in member.operand_positions()
            )
        return keys

    def _candidate_orderings(
        self, base: SuperwordStatement
    ) -> List[Tuple[int, ...]]:
        size = base.size
        found: List[Tuple[int, ...]] = []
        seen: Set[Tuple[int, ...]] = set()
        # The lanes' operand keys, one tuple per position.
        positions = list(
            zip(*(self._keys_of(member) for member in base.members))
        )

        # Orderings achieving at least one direct reuse.
        for keys in positions:
            data = pack_data(keys)
            live = self.live.lookup(data)
            if live is None:
                continue
            for order in _match_orderings(keys, live, _MAX_TESTED_ORDERINGS):
                if order not in seen:
                    seen.add(order)
                    found.append(order)
                if len(found) >= _MAX_TESTED_ORDERINGS:
                    return found
        if found:
            return found

        # Fallback 1: memory order — sort lanes so array-reference
        # positions come out in ascending address order (cheap packing).
        for keys in positions:
            if all(k[0] == KIND_REF for k in keys) and len(
                {k[1] for k in keys}
            ) == 1:
                order = tuple(
                    sorted(range(size), key=lambda lane: keys[lane][2])
                )
                if order not in seen:
                    seen.add(order)
                    found.append(order)
        # Fallback 2: program order.
        program = tuple(
            sorted(
                range(size),
                key=lambda lane: self._at[base.members[lane].sid][0],
            )
        )
        if program not in seen:
            found.append(program)
        return found

    def _permutation_count(
        self, base: SuperwordStatement, order: Tuple[int, ...]
    ) -> int:
        """Np: permutations needed for the reuses of this superword
        statement under a given lane order."""
        permutations = 0
        for keys in zip(
            *(self._keys_of(base.members[lane]) for lane in order)
        ):
            live = self.live.lookup(pack_data(keys))
            if live is not None and live != keys:
                permutations += 1
        return permutations

    # -- live-set maintenance (Figure 11 lines 28-35) ----------------------------

    def _retire_superword(self, item: SuperwordStatement) -> None:
        target, *sources = zip(
            *(self._keys_of(member) for member in item.members)
        )
        for source in sources:
            self.live.insert(source)
        self.live.invalidate_written(target)
        self.live.insert(target)

    def _retire_single(self, stmt: Statement) -> None:
        self.live.invalidate_written([operand_key(stmt.target)])


def _match_orderings(
    keys: Sequence[OperandKey],
    live: OrderedPack,
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
