"""The variable pack conflicting graph (VP) — step 2 of the basic
grouping algorithm (Section 4.2.1, Figure 10 lines 2–11).

Each node is one variable pack *tagged with the candidate group it comes
from* ("{Vi,Vj}_{Sp,Sq}"); an edge joins packs of conflicting candidate
groups. Multiple nodes may carry the same pack data — when such nodes
are *not* connected, the corresponding superwords can coexist in the
transformed code, and their count is exactly the reuse opportunity of
that superword.

Because every edge is induced by a *candidate-level* conflict, the graph
never materializes per-node adjacency sets: it stores one conflict
bitset per candidate (bit ``j`` of ``conflict_bits(i)`` says candidates
``i`` and ``j`` conflict), and counts edges from those bitsets. On
unrolled blocks at wide datapaths an explicit edge list would hold
hundreds of thousands of entries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis import DependenceGraph
from ..analysis.operands import bit_indices
from ..perf import PERF, count
from ..trace import TRACE
from .model import CandidateGroup


class PackNode:
    """One VP node: a pack datum tagged with its originating candidate.

    Nodes compare and hash by *identity*: the graph can hold many
    distinct nodes with equal pack data — that multiplicity IS the
    reuse information. The graph makes them per query, one per
    (candidate, position) slot.
    """

    __slots__ = ("data", "candidate_index", "position", "tid")

    def __init__(self, data, candidate_index: int, position: int):
        self.data = data
        self.candidate_index = candidate_index
        self.position = position
        # Set by VariablePackGraph: the index of ``data`` in the graph's
        # sorted ``pack_types``.
        self.tid = -1

    def sort_key(self):
        return (self.data, self.candidate_index, self.position)

    def __repr__(self) -> str:
        return f"pack{self.data}@cand{self.candidate_index}/{self.position}"

    __str__ = __repr__


class VariablePackGraph:
    """VP = (V, T): pack nodes with conflict edges.

    Edges are represented implicitly by per-candidate conflict bitsets;
    ``edge_count`` reports what the explicit edge set's size would be
    (each conflicting candidate pair contributes |packs_i| x |packs_j|
    node edges).

    Pack data are id tuples over the block's operand table
    (``operands``, from ``deps``): sorted ids order like the packs they
    stand for, and ``operands.decode`` returns the pack. ``tids[i]``
    holds candidate ``i``'s merged packs, position 0 the target, as
    indices into ``pack_types``, the distinct pack data in sorted order
    (``tid_of`` inverts it), so clients compare and index small ints.
    ``unit_candidates`` maps each unit of the round, named by its first
    statement, to the bitset of the candidates holding it.
    :class:`PackNode` objects are made only when asked for
    (``nodes``, :meth:`nodes_of_candidate`, :meth:`nodes_with_data`);
    the rounds read ``tids`` instead.
    """

    def __init__(
        self,
        candidates: Sequence[CandidateGroup],
        deps: DependenceGraph,
    ):
        self.candidates = list(candidates)
        self.deps = deps
        self.operands = deps.operands
        self.tids: List[Tuple[int, ...]] = []
        self.pack_types: List[Tuple[int, ...]] = []
        self.unit_candidates: Dict[int, int] = {}
        #: Bitset of the candidates whose nodes are still in the graph.
        self.live = (1 << len(self.candidates)) - 1
        self._conflict_bits: List[int] = []
        self._tid_of: Optional[Dict[Tuple[int, ...], int]] = None
        self._holders: Optional[List[int]] = None
        self._build()

    def _build(self) -> None:
        # One pass over the candidates collects the round's units and
        # each candidate's packs. A round's units are statement-disjoint,
        # so a unit is named by its first statement.
        #
        # Each candidate's packs merge its two units' id tuples position
        # by position; two single statements' pack is the ordered pair
        # of their operand ids, keyed by one int (``low * stride +
        # high``) that orders like the pair. Every distinct pack gets a
        # provisional id on first sight.
        operands = self.operands
        rows = operands.rows
        unit_packs = operands.unit_packs
        stride = len(operands.keys)
        unit_candidates = self.unit_candidates
        unit_sids: Dict[int, Tuple[int, ...]] = {}
        of_unit: Dict[Tuple[int, ...], tuple] = {}
        provisional: Dict[object, int] = {}
        provisional_id = provisional.setdefault
        pids: List[List[int]] = []
        wide = False
        for index, candidate in enumerate(self.candidates):
            bit = 1 << index
            left, right = candidate.left.sids, candidate.right.sids
            for sids in (left, right):
                first = sids[0]
                held = unit_candidates.get(first)
                if held is None:
                    unit_candidates[first] = bit
                    unit_sids[first] = sids
                else:
                    unit_candidates[first] = held | bit
            if len(left) == 1:  # a candidate's units are equally big
                pids.append(
                    [
                        provisional_id(
                            a * stride + b if a <= b else b * stride + a,
                            len(provisional),
                        )
                        for a, b in zip(rows[left[0]], rows[right[0]])
                    ]
                )
            else:
                wide = True
                lefts = of_unit.get(left)
                if lefts is None:
                    lefts = of_unit[left] = unit_packs(left)
                rights = of_unit.get(right)
                if rights is None:
                    rights = of_unit[right] = unit_packs(right)
                pids.append(
                    [
                        provisional_id(
                            tuple(sorted(a + b)), len(provisional)
                        )
                        for a, b in zip(lefts, rights)
                    ]
                )

        # Type ids follow pack order, so (tid, candidate, position) is
        # the canonical ``PackNode.sort_key`` order and every downstream
        # tie-break compares small ints.
        keys = list(provisional)
        data = [
            divmod(key, stride) if type(key) is int else key for key in keys
        ]
        order = sorted(
            range(len(keys)),
            key=(data if wide else keys).__getitem__,
        )
        tid_of_pid = [0] * len(keys)
        for tid, pid in enumerate(order):
            tid_of_pid[pid] = tid
        self.pack_types = [data[pid] for pid in order]
        tid_of = tid_of_pid.__getitem__
        self.tids = [tuple(map(tid_of, ids)) for ids in pids]

        # Conflict relation between candidates, computed once as
        # bitsets. Two candidates conflict when they share a unit (the
        # only way to share a statement) or form a group-level
        # dependence cycle: some member of i reaches a member of j (j is
        # *forward* of i) and some member of j reaches a member of i (j
        # is *backward* of i). Instead of testing all O(n^2) pairs, each
        # unit's candidates are one bitset (``unit_candidates``), and
        # each unit's forward (backward) partners are the candidates at
        # the units its statements' successors (predecessors) belong
        # to; a candidate's partners are then unions over its two units.
        # Both relations are symmetric by construction, so no
        # symmetrize pass is needed.
        deps = self.deps
        unit_of: Dict[int, int] = {}
        held = 0
        for first, sids in unit_sids.items():
            for sid in sids:
                unit_of[sid] = first
                held |= 1 << sid
        forward_of: Dict[int, int] = {}
        backward_of: Dict[int, int] = {}
        for first, sids in unit_sids.items():
            after = before = 0
            for sid in sids:
                after |= deps.successor_bits(sid)
                before |= deps.predecessor_bits(sid)
            forward = backward = 0
            for other in bit_indices(after & held):
                forward |= unit_candidates[unit_of[other]]
            for other in bit_indices(before & held):
                backward |= unit_candidates[unit_of[other]]
            forward_of[first] = forward
            backward_of[first] = backward
        bits = []
        for index, candidate in enumerate(self.candidates):
            u, v = candidate.left.sids[0], candidate.right.sids[0]
            bits.append(
                (
                    unit_candidates[u]
                    | unit_candidates[v]
                    | (
                        (forward_of[u] | forward_of[v])
                        & (backward_of[u] | backward_of[v])
                    )
                )
                & ~(1 << index)
            )
        self._conflict_bits = bits

        nodes = sum(len(ids) for ids in pids)
        count("grouping.vp_nodes", nodes)
        if PERF.enabled or TRACE.enabled:
            # Only the counter and the trace read the edge count.
            edges = self.edge_count
            count("grouping.vp_edges", edges)
            if TRACE.enabled:
                TRACE.event(
                    "vp.build",
                    candidates=len(self.candidates),
                    nodes=nodes,
                    edges=edges,
                )

    @property
    def tid_of(self) -> Dict[Tuple[int, ...], int]:
        """Pack data -> type id, the inverse of ``pack_types``."""
        if self._tid_of is None:
            self._tid_of = {
                data: tid for tid, data in enumerate(self.pack_types)
            }
        return self._tid_of

    def packs_of(self, index: int) -> Tuple[Tuple[int, ...], ...]:
        """Candidate ``index``'s merged packs by position (id tuples)."""
        types = self.pack_types
        return tuple([types[tid] for tid in self.tids[index]])

    # -- queries -----------------------------------------------------------------

    def candidates_conflict(self, i: int, j: int) -> bool:
        return bool((self._conflict_bits[i] >> j) & 1)

    def conflict_bits(self, index: int) -> int:
        """Bitmask of candidates conflicting with ``index`` (including
        candidates already removed from the graph — callers intersect
        with whatever universe they care about)."""
        return self._conflict_bits[index]

    def nodes_of_candidate(self, index: int) -> List[PackNode]:
        """The candidate's nodes by position; empty once removed."""
        if not (self.live >> index) & 1:
            return []
        nodes = []
        types = self.pack_types
        for position, tid in enumerate(self.tids[index]):
            node = PackNode(types[tid], index, position)
            node.tid = tid
            nodes.append(node)
        return nodes

    @property
    def nodes(self) -> Set[PackNode]:
        """Every live node."""
        return {
            node
            for index in bit_indices(self.live)
            for node in self.nodes_of_candidate(index)
        }

    def nodes_with_data(self, data: Tuple[int, ...]) -> List[PackNode]:
        """The live nodes carrying ``data`` (an id tuple), in canonical
        order."""
        tid = self.tid_of.get(data)
        if tid is None:
            return []
        if self._holders is None:
            # Per type, the bitset of candidates holding it: built on
            # the first query, since the rounds never ask for nodes.
            holders = [0] * len(self.pack_types)
            for index, tids in enumerate(self.tids):
                for held in tids:
                    holders[held] |= 1 << index
            self._holders = holders
        return [
            node
            for index in bit_indices(self._holders[tid] & self.live)
            for node in self.nodes_of_candidate(index)
            if node.tid == tid
        ]

    @property
    def edge_count(self) -> int:
        """Size of the explicit node-level edge set among live
        candidates. Candidates are bucketed by node count, so each
        candidate's weighted conflict degree is a few popcounts."""
        live = bit_indices(self.live)
        by_size: Dict[int, int] = {}
        for index in live:
            size = len(self.tids[index])
            by_size[size] = by_size.get(size, 0) | (1 << index)
        twice = 0
        for index in live:
            bits = self._conflict_bits[index]
            twice += len(self.tids[index]) * sum(
                size * (bits & mask).bit_count()
                for size, mask in by_size.items()
            )
        return twice // 2

    def remove_candidate(self, index: int) -> None:
        """Drop all pack nodes of one candidate (Figure 10 line 41)."""
        self.live &= ~(1 << index)

    def coexistence_count(self, data: Tuple[int, ...]) -> int:
        """How many mutually-nonconflicting occurrences of a pack exist —
        an upper bound on its reuse (informational; the weight machinery
        uses the auxiliary graph instead)."""
        matching = self.nodes_with_data(data)
        count_ = 0
        kept: List[PackNode] = []
        for node in matching:
            if all(
                not self.candidates_conflict(
                    node.candidate_index, k.candidate_index
                )
                for k in kept
            ):
                kept.append(node)
                count_ += 1
        return count_
