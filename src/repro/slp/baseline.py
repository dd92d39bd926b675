"""The original SLP algorithm of Larsen & Amarasinghe (PLDI 2000) — the
paper's main comparison point ("SLP") — plus the stricter "Native"
vectorizer model, implemented as one configurable greedy pass.

The greedy algorithm, at statement granularity (as in the paper's
re-implementation on SUIF):

1. **Seeds**: isomorphic, independent statement pairs with *adjacent
   memory accesses* become the initial packs. The "SLP" configuration
   needs one adjacent array-reference position; the "Native"
   configuration (modelling a conservative built-in vectorizer) requires
   every array-reference position to be contiguous in a consistent
   order and every scalar position to be uniform.
2. **Extension**: new packs are grown by following def-use and use-def
   chains from existing packs.
3. **Combination**: packs whose memory accesses line up back-to-back are
   fused into wider groups until the datapath is full.
4. Scheduling keeps program order (earliest-member-first among ready
   units); lane order is whatever the seed/chain dictated — precisely
   the "local heuristics" the paper's Global algorithm improves on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ScheduleCycleError
from ..analysis import (
    DefUseChains,
    DependenceGraph,
    operand_key,
)
from ..analysis.alignment import flat_affine
from ..ir import ArrayDecl, ArrayRef, BasicBlock, Const, Statement
from ..trace import TRACE, provenance_id
from .model import (
    Schedule,
    ScheduledSingle,
    SuperwordStatement,
)

DeclLookup = Callable[[str], ArrayDecl]


@dataclass
class GreedyConfig:
    """Knobs distinguishing "SLP" from "Native"."""

    datapath_bits: int = 128
    #: Every memory position must be contiguous (Native) vs. at least one
    #: adjacent memory position (original SLP seeds).
    require_full_contiguity: bool = False
    #: Whether packs grow along def-use/use-def chains.
    follow_chains: bool = True


class GreedySLP:
    """One basic block through the greedy packer + program-order scheduler."""

    def __init__(
        self,
        block: BasicBlock,
        deps: DependenceGraph,
        decl_of: DeclLookup,
        config: GreedyConfig,
    ):
        self.block = block
        self.deps = deps
        self.decl_of = decl_of
        self.config = config
        self.packs: List[Tuple[Statement, ...]] = []
        self.packed: Set[int] = set()

    # -- helpers ---------------------------------------------------------------

    def _lanes_fit(self, count: int, element_bits: int) -> bool:
        return count * element_bits <= self.config.datapath_bits

    def _flat_delta(self, a: ArrayRef, b: ArrayRef) -> Optional[int]:
        """Constant flat-address distance b - a, if provable."""
        if a.array != b.array:
            return None
        delta = flat_affine(b, self.decl_of(b.array)) - flat_affine(
            a, self.decl_of(a.array)
        )
        if delta.is_constant:
            return delta.const
        return None

    def _adjacency(self, a: Statement, b: Statement) -> Optional[Tuple[Statement, Statement]]:
        """Seed test. Returns the lane order (low address first) when the
        pair qualifies under the configured policy, else ``None``."""
        pos_a = a.operand_positions()
        pos_b = b.operand_positions()
        mem_positions = [
            (la, lb)
            for la, lb in zip(pos_a, pos_b)
            if isinstance(la, ArrayRef) and isinstance(lb, ArrayRef)
        ]
        if not mem_positions:
            return None

        forward = backward = False
        for la, lb in mem_positions:
            delta = self._flat_delta(la, lb)
            if delta == 1:
                forward = True
            elif delta == -1:
                backward = True

        if self.config.require_full_contiguity:
            # Native: every memory position contiguous the same way, and
            # every scalar position uniform (same variable or constants).
            return self._full_contiguity_order(a, b, pos_a, pos_b, mem_positions)

        if forward:
            return (a, b)
        if backward:
            return (b, a)
        return None

    def _full_contiguity_order(
        self, a: Statement, b: Statement, pos_a, pos_b, mem_positions
    ) -> Optional[Tuple[Statement, Statement]]:
        deltas = [self._flat_delta(la, lb) for la, lb in mem_positions]
        if all(d == 1 for d in deltas):
            direction = 1
        elif all(d == -1 for d in deltas):
            direction = -1
        else:
            return None
        for la, lb in zip(pos_a, pos_b):
            if isinstance(la, ArrayRef):
                continue
            if isinstance(la, Const) and isinstance(lb, Const):
                continue
            if operand_key(la) != operand_key(lb):
                return None
        return (a, b) if direction == 1 else (b, a)

    def _pair_ok(self, a: Statement, b: Statement) -> bool:
        return (
            a.sid != b.sid
            and a.sid not in self.packed
            and b.sid not in self.packed
            and a.is_isomorphic_to(b)
            and self.deps.independent(a.sid, b.sid)
            and self._lanes_fit(2, a.target.type.bits)
        )

    # -- phase 1: seeds -----------------------------------------------------------

    def _find_seeds(self) -> None:
        statements = list(self.block)
        for a, b in itertools.combinations(statements, 2):
            if not self._pair_ok(a, b):
                continue
            order = self._adjacency(a, b)
            if order is None:
                continue
            self._commit(order, "seed")

    def _commit(self, lanes: Tuple[Statement, ...], reason: str) -> None:
        self.packs.append(lanes)
        self.packed.update(s.sid for s in lanes)
        if TRACE.enabled:
            sids = sorted(s.sid for s in lanes)
            TRACE.event(
                "baseline.pack",
                prov=provenance_id(sids, TRACE.current("block")),
                sids=sids,
                reason=reason,
            )

    # -- phase 2: chain extension ---------------------------------------------------

    def _extend(self) -> None:
        if not self.config.follow_chains:
            return
        chains = DefUseChains(self.block)
        changed = True
        while changed:
            changed = False
            for pack in list(self.packs):
                if self._extend_def_use(pack, chains):
                    changed = True
                if self._extend_use_def(pack, chains):
                    changed = True

    def _extend_def_use(self, pack, chains: DefUseChains) -> bool:
        """Pack the statements consuming this pack's lane targets at the
        same operand position."""
        if len(pack) != 2:
            return False
        left, right = pack
        users_left = chains.users(left.sid)
        users_right = chains.users(right.sid)
        for ul in users_left:
            for ur in users_right:
                if ul.position != ur.position:
                    continue
                a, b = self.block[ul.sid], self.block[ur.sid]
                if not self._pair_ok(a, b):
                    continue
                if not self._chain_pair_allowed(a, b):
                    continue
                self._commit((a, b), "def-use")
                return True
        return False

    def _extend_use_def(self, pack, chains: DefUseChains) -> bool:
        """Pack the definitions feeding this pack's corresponding uses."""
        if len(pack) != 2:
            return False
        left, right = pack
        left_leaf_count = len(list(left.expr.leaves()))
        for position in range(left_leaf_count):
            def_left = chains.definition_feeding(left.sid, position)
            def_right = chains.definition_feeding(right.sid, position)
            if def_left is None or def_right is None:
                continue
            if not self._pair_ok(def_left, def_right):
                continue
            if not self._chain_pair_allowed(def_left, def_right):
                continue
            self._commit((def_left, def_right), "use-def")
            return True
        return False

    def _chain_pair_allowed(self, a: Statement, b: Statement) -> bool:
        """Native additionally demands contiguity of every memory
        position even for chain-grown packs."""
        if not self.config.require_full_contiguity:
            return True
        pos_a, pos_b = a.operand_positions(), b.operand_positions()
        for la, lb in zip(pos_a, pos_b):
            if isinstance(la, ArrayRef) and isinstance(lb, ArrayRef):
                if self._flat_delta(la, lb) != 1:
                    return False
        return True

    # -- phase 3: combination into wider groups -------------------------------------

    def _combine(self) -> None:
        changed = True
        while changed:
            changed = False
            for i, first in enumerate(self.packs):
                for j, second in enumerate(self.packs):
                    if i == j:
                        continue
                    if not self._combinable(first, second):
                        continue
                    self.packs[i] = first + second
                    del self.packs[j]
                    if TRACE.enabled:
                        sids = sorted(s.sid for s in self.packs[i])
                        TRACE.event(
                            "baseline.pack",
                            prov=provenance_id(
                                sids, TRACE.current("block")
                            ),
                            sids=sids,
                            reason="combine",
                        )
                    changed = True
                    break
                if changed:
                    break

    def _combinable(self, first, second) -> bool:
        element_bits = first[0].target.type.bits
        if not self._lanes_fit(len(first) + len(second), element_bits):
            return False
        if first[0].isomorphism_signature() != second[0].isomorphism_signature():
            return False
        for p in first:
            for q in second:
                if self.deps.dependent(p.sid, q.sid):
                    return False
        # Back-to-back memory accesses: some memory position where the
        # last lane of `first` sits immediately below the first lane of
        # `second`.
        last, head = first[-1], second[0]
        for la, lb in zip(last.operand_positions(), head.operand_positions()):
            if isinstance(la, ArrayRef) and isinstance(lb, ArrayRef):
                if self._flat_delta(la, lb) == 1:
                    return True
        return False

    # -- phase 4: program-order scheduling -------------------------------------------

    def schedule(self) -> Schedule:
        self._find_seeds()
        self._extend()
        self._combine()
        units: List[Tuple[Statement, ...]] = list(self.packs)
        for stmt in self.block:
            if stmt.sid not in self.packed:
                units.append((stmt,))
        units = _demote_cyclic_units(units, self.deps)
        return _program_order_schedule(self.block, self.deps, units)


def _demote_cyclic_units(
    units: List[Tuple[Statement, ...]], deps: DependenceGraph
) -> List[Tuple[Statement, ...]]:
    """Split grouped units until the unit-level dependence graph is a
    DAG (the greedy packer has no global cycle check)."""
    current = list(units)
    while True:
        cycle = _find_unit_cycle(current, deps)
        if cycle is None:
            return current
        grouped = [i for i in cycle if len(current[i]) > 1]
        if not grouped:  # pragma: no cover - singles cannot form cycles
            raise ScheduleCycleError("dependence cycle among single statements")
        victim = min(grouped, key=lambda i: (len(current[i]), i))
        singles = [(s,) for s in current[victim]]
        current = current[:victim] + current[victim + 1:] + singles


def _find_unit_cycle(
    units: Sequence[Tuple[Statement, ...]], deps: DependenceGraph
) -> Optional[List[int]]:
    sid_sets = [frozenset(s.sid for s in unit) for unit in units]
    succ: Dict[int, List[int]] = {i: [] for i in range(len(units))}
    for i, a in enumerate(sid_sets):
        for j, b in enumerate(sid_sets):
            if i != j and deps.group_depends(a, b):
                succ[i].append(j)
    color: Dict[int, int] = {}
    stack: List[int] = []

    def visit(node: int) -> Optional[List[int]]:
        color[node] = 1
        stack.append(node)
        for nxt in succ[node]:
            if color.get(nxt) == 1:
                return stack[stack.index(nxt):]
            if color.get(nxt, 0) == 0:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        color[node] = 2
        return None

    for start in range(len(units)):
        if color.get(start, 0) == 0:
            found = visit(start)
            if found:
                return found
    return None


def _program_order_schedule(
    block: BasicBlock,
    deps: DependenceGraph,
    units: Sequence[Tuple[Statement, ...]],
) -> Schedule:
    sid_sets = [frozenset(s.sid for s in unit) for unit in units]
    preds: Dict[int, Set[int]] = {i: set() for i in range(len(units))}
    for i, a in enumerate(sid_sets):
        for j, b in enumerate(sid_sets):
            if i != j and deps.group_depends(a, b):
                preds[j].add(i)

    position = {stmt.sid: pos for pos, stmt in enumerate(block)}
    schedule = Schedule(block)
    remaining = set(range(len(units)))
    done: Set[int] = set()
    while remaining:
        ready = [i for i in remaining if preds[i] <= done]
        assert ready, "unit dependence graph must be acyclic"
        chosen = min(
            ready, key=lambda i: min(position[s.sid] for s in units[i])
        )
        unit = units[chosen]
        if len(unit) > 1:
            schedule.items.append(SuperwordStatement(tuple(unit)))
        else:
            schedule.items.append(ScheduledSingle(unit[0]))
        remaining.discard(chosen)
        done.add(chosen)
    return schedule


def greedy_slp_schedule(
    block: BasicBlock,
    deps: DependenceGraph,
    decl_of: DeclLookup,
    datapath_bits: int = 128,
) -> Schedule:
    """The paper's "SLP" baseline configuration."""
    config = GreedyConfig(datapath_bits=datapath_bits)
    return GreedySLP(block, deps, decl_of, config).schedule()


def native_schedule(
    block: BasicBlock,
    deps: DependenceGraph,
    decl_of: DeclLookup,
    datapath_bits: int = 128,
) -> Schedule:
    """The paper's "Native" (conservative compiler vectorizer) model."""
    config = GreedyConfig(
        datapath_bits=datapath_bits, require_full_contiguity=True
    )
    return GreedySLP(block, deps, decl_of, config).schedule()
