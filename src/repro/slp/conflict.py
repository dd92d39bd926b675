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
from ..perf import PERF, count
from ..trace import TRACE
from .model import CandidateGroup, PackData


class PackNode:
    """One VP node: a pack datum tagged with its originating candidate.

    Nodes compare and hash by *identity*: each (candidate, position)
    slot is one node, and the graph can hold many distinct nodes with
    equal pack data — that multiplicity IS the reuse information.
    Identity semantics also keep the (large) adjacency sets cheap: pack
    data tuples contain Affine objects and deep-hashing them per edge
    dominated compile time on wide-datapath blocks.
    """

    __slots__ = ("data", "candidate_index", "position", "tid")

    def __init__(self, data: PackData, candidate_index: int, position: int):
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

    ``packs[i]`` is candidate ``i``'s merged pack tuple, position 0 the
    target (``candidate.packs`` re-merges on every access).
    ``pack_types`` lists the distinct pack data in sorted order and each
    node's ``tid`` indexes it, so clients compare and index small ints
    instead of pack tuples; ``type_candidates[tid]`` lists the candidate
    of every node of that type, and ``nodes_with_data`` the live nodes of
    one type, both in the canonical ``(data, candidate, position)``
    order.
    """

    def __init__(
        self,
        candidates: Sequence[CandidateGroup],
        deps: DependenceGraph,
    ):
        self.candidates = list(candidates)
        self.deps = deps
        self.nodes: Set[PackNode] = set()
        self.packs: List[Tuple[PackData, ...]] = [
            c.packs for c in self.candidates
        ]
        self.pack_types: List[PackData] = []
        self.type_candidates: List[List[int]] = []
        self._nodes_of_candidate: Dict[int, List[PackNode]] = {}
        self._nodes_by_data: Dict[PackData, List[PackNode]] = {}
        self._conflict_bits: List[int] = []
        self._build()

    def _build(self) -> None:
        # Conflict relation between candidates, computed once as
        # bitsets. Two candidates conflict when they share a statement
        # or form a group-level dependence cycle. Instead of testing all
        # O(n^2) pairs with set intersections, index candidates by the
        # statements they contain (`member_of`) and the statements their
        # members reach (`succ_of`); a candidate's conflict partners are
        # then unions of those buckets:
        #
        # * shared statement: any candidate indexed under one of my sids;
        # * dependence cycle: (succ_i & mem_j) and (succ_j & mem_i),
        #   i.e. the intersection of "candidates whose members I reach"
        #   with "candidates whose successors reach my members".
        n = len(self.candidates)
        members = [c.sid_set for c in self.candidates]
        successors = [
            frozenset().union(
                *(self.deps.successors(sid) for sid in sids)
            )
            if sids
            else frozenset()
            for sids in members
        ]
        member_of: Dict[int, int] = {}   # sid -> bitmask of candidates
        succ_of: Dict[int, int] = {}     # sid -> bitmask of candidates
        for index in range(n):
            bit = 1 << index
            for sid in members[index]:
                member_of[sid] = member_of.get(sid, 0) | bit
            for sid in successors[index]:
                succ_of[sid] = succ_of.get(sid, 0) | bit

        bits = [0] * n
        for i in range(n):
            self_bit = 1 << i
            shared = 0
            for sid in members[i]:
                shared |= member_of[sid]
            # succ_i & mem_j != 0  for candidates j in `forward`;
            # succ_j & mem_i != 0  for candidates j in `backward`.
            forward = 0
            for sid in successors[i]:
                forward |= member_of.get(sid, 0)
            backward = 0
            for sid in members[i]:
                backward |= succ_of.get(sid, 0)
            # Both the shared-statement relation and forward&backward
            # are symmetric by construction, so no symmetrize pass is
            # needed.
            bits[i] |= (shared | (forward & backward)) & ~self_bit
        self._conflict_bits = bits

        by_data = self._nodes_by_data
        for index, positions in enumerate(self.packs):
            new_nodes = [
                PackNode(data, index, position)
                for position, data in enumerate(positions)
            ]
            self._nodes_of_candidate[index] = new_nodes
            for node in new_nodes:
                self.nodes.add(node)
                by_data.setdefault(node.data, []).append(node)
        # Type ids in pack order: each data bucket already holds its
        # nodes in (candidate, position) order, so (tid, candidate,
        # position) is the canonical ``PackNode.sort_key`` order and
        # every downstream tie-break compares small ints instead of
        # whole pack tuples (which hold Affine subscripts and compare
        # slowly). Only the distinct pack types are sorted.
        self.pack_types = sorted(by_data)
        for tid, data in enumerate(self.pack_types):
            nodes = by_data[data]
            for node in nodes:
                node.tid = tid
            self.type_candidates.append(
                [node.candidate_index for node in nodes]
            )
        count("grouping.vp_nodes", len(self.nodes))
        if PERF.enabled or TRACE.enabled:
            # Only the counter and the trace read the edge count.
            edges = self.edge_count
            count("grouping.vp_edges", edges)
            if TRACE.enabled:
                TRACE.event(
                    "vp.build",
                    candidates=len(self.candidates),
                    nodes=len(self.nodes),
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
        return list(self._nodes_of_candidate.get(index, ()))

    def nodes_with_data(self, data: PackData) -> List[PackNode]:
        """The live nodes carrying ``data``, in canonical order."""
        live = self._nodes_of_candidate
        return [
            node
            for node in self._nodes_by_data.get(data, ())
            if node.candidate_index in live
        ]

    @property
    def edge_count(self) -> int:
        """Size of the explicit node-level edge set among live
        candidates. Candidates are bucketed by node count, so each
        candidate's weighted conflict degree is a few popcounts."""
        live = self._nodes_of_candidate
        by_size: Dict[int, int] = {}
        for index, nodes in live.items():
            by_size[len(nodes)] = by_size.get(len(nodes), 0) | (1 << index)
        twice = 0
        for index, nodes in live.items():
            bits = self._conflict_bits[index]
            twice += len(nodes) * sum(
                size * (bits & mask).bit_count()
                for size, mask in by_size.items()
            )
        return twice // 2

    def remove_candidate(self, index: int) -> None:
        """Drop all pack nodes of one candidate (Figure 10 line 41)."""
        removed = self._nodes_of_candidate.pop(index, None)
        if removed is not None:
            self.nodes.difference_update(removed)

    def coexistence_count(self, data: PackData) -> int:
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
