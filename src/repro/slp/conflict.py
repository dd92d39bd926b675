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

from typing import Dict, List, Sequence, Set, Tuple

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
    stand for, and ``operands.decode`` returns the pack. ``packs[i]`` is
    candidate ``i``'s merged packs, position 0 the target, and
    ``tids[i]`` their indices in ``pack_types``, the distinct pack data
    in sorted order (``tid_of`` inverts it), so clients compare and
    index small ints.
    ``type_candidates[tid]`` lists the candidate of every node of that
    type in the canonical ``(data, candidate, position)`` order.
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
        self.packs: List[Tuple[Tuple[int, ...], ...]] = []
        self.tids: List[Tuple[int, ...]] = []
        self.pack_types: List[Tuple[int, ...]] = []
        self.tid_of: Dict[Tuple[int, ...], int] = {}
        self.type_candidates: List[List[int]] = []
        #: Bitset of the candidates whose nodes are still in the graph.
        self.live = (1 << len(self.candidates)) - 1
        self._conflict_bits: List[int] = []
        self._build()

    def _build(self) -> None:
        # Conflict relation between candidates, computed once as
        # bitsets. Two candidates conflict when they share a statement
        # or form a group-level dependence cycle: some member of i
        # reaches a member of j (j is *forward* of i) and some member of
        # j reaches a member of i (j is *backward* of i). Instead of
        # testing all O(n^2) pairs, index candidates by the statements
        # they contain (``member_of``), and each statement by the
        # candidates holding one of its successors (``forward_of``) or
        # predecessors (``backward_of``); a candidate's partners are
        # then unions over its members. Both relations are symmetric by
        # construction, so no symmetrize pass is needed.
        deps = self.deps
        members = [c.left.sids + c.right.sids for c in self.candidates]
        member_of: Dict[int, int] = {}   # sid -> bitmask of candidates
        for index, sids in enumerate(members):
            bit = 1 << index
            for sid in sids:
                member_of[sid] = member_of.get(sid, 0) | bit
        held = 0
        for sid in member_of:
            held |= 1 << sid
        forward_of: Dict[int, int] = {}
        backward_of: Dict[int, int] = {}
        for sid in member_of:
            forward = backward = 0
            for other in bit_indices(deps.successor_bits(sid) & held):
                forward |= member_of[other]
            for other in bit_indices(deps.predecessor_bits(sid) & held):
                backward |= member_of[other]
            forward_of[sid] = forward
            backward_of[sid] = backward
        bits = []
        for index, sids in enumerate(members):
            shared = forward = backward = 0
            for sid in sids:
                shared |= member_of[sid]
                forward |= forward_of[sid]
                backward |= backward_of[sid]
            bits.append((shared | (forward & backward)) & ~(1 << index))
        self._conflict_bits = bits

        # Each candidate's packs merge its two units' id tuples position
        # by position. Type ids follow pack order: each data bucket
        # holds its (candidate, position) pairs in that order, so (tid,
        # candidate, position) is the canonical ``PackNode.sort_key``
        # order and every downstream tie-break compares small ints.
        unit_packs = self.operands.unit_packs
        of_unit: Dict[Tuple[int, ...], tuple] = {}
        by_data: Dict[Tuple[int, ...], List[int]] = {}
        nodes = 0
        for index, candidate in enumerate(self.candidates):
            left, right = candidate.left.sids, candidate.right.sids
            lefts = of_unit.get(left)
            if lefts is None:
                lefts = of_unit[left] = unit_packs(left)
            rights = of_unit.get(right)
            if rights is None:
                rights = of_unit[right] = unit_packs(right)
            packs = tuple(
                [tuple(sorted(a + b)) for a, b in zip(lefts, rights)]
            )
            self.packs.append(packs)
            nodes += len(packs)
            for data in packs:
                bucket = by_data.get(data)
                if bucket is None:
                    by_data[data] = [index]
                else:
                    bucket.append(index)
        self.pack_types = sorted(by_data)
        tid_of = self.tid_of = {
            data: tid for tid, data in enumerate(self.pack_types)
        }
        self.tids = [
            tuple([tid_of[data] for data in packs]) for packs in self.packs
        ]
        self.type_candidates = [by_data[data] for data in self.pack_types]
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
        for position, (data, tid) in enumerate(
            zip(self.packs[index], self.tids[index])
        ):
            node = PackNode(data, index, position)
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
        return [
            node
            for index in dict.fromkeys(self.type_candidates[tid])
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
            size = len(self.packs[index])
            by_size[size] = by_size.get(size, 0) | (1 << index)
        twice = 0
        for index in live:
            bits = self._conflict_bits[index]
            twice += len(self.packs[index]) * sum(
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
