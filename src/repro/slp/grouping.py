"""The statement grouping graph and the grouping decision loop —
steps 3 and 4 of the basic grouping algorithm (Section 4.2.1, Figure 10).

Each edge of the statement grouping graph (SG) is a candidate group; its
weight estimates the *global* superword-reuse benefit of committing to
that group, computed on an auxiliary graph extracted from the variable
pack conflicting graph:

1. collect every VP node whose pack data matches one of the candidate's
   packs and whose originating candidate does not conflict with it;
2. resolve residual conflicts greedily (repeatedly drop the
   highest-degree node) until the auxiliary graph has no edges;
3. combine the surviving packs with the candidate's own packs and the
   packs of already-decided groups, and score
   ``W = sum_over_pack_types(N_type - 1) / Nt`` where ``Nt`` is the
   number of distinct pack types among the decided groups and the
   candidate (the paper's "average reuse", e.g. 2/3 in Figure 6).

The decision loop then repeatedly commits the heaviest edge, removes the
candidates it conflicts with from both graphs, and recomputes weights.

Two engines implement that loop with **bit-identical decisions**:

* ``engine="incremental"`` (default) memoizes each candidate's pack
  tuple, auxiliary-graph counts, score, and weight, and after every
  commit invalidates only the *dirty set* — candidates conflicting with
  the committed group are removed outright, and candidates sharing a
  pack type with any removed candidate get their caches dropped and a
  fresh entry pushed onto a lazy max-heap. Everything else keeps its
  cached score, so a decision costs work proportional to the dirty set,
  not to the number of active candidates.
* ``engine="reference"`` recomputes every active candidate's score from
  scratch on every iteration — the paper-literal loop, kept as the
  differential-testing oracle and the baseline the compile-time
  benchmarks measure the incremental engine against.

Why the dirty-set rule is sufficient: a candidate's score depends only
on (a) VP nodes whose data matches one of its pack types, (b) decided
packs matching one of its pack types, and (c) its own static packs. A
commit changes (a) only by removing nodes of removed candidates and (b)
only by appending the committed candidate's packs — both covered by
``touched_data``, the union of pack types of the committed and removed
candidates. A candidate sharing no pack type with ``touched_data``
therefore computes exactly the same counts as before.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..engines import resolve as resolve_engine_impl
from ..errors import Diagnostic, OptionsError
from ..analysis import DependenceGraph
from ..analysis.operands import KIND_CONST, KIND_REF, KIND_VAR
from ..ir import Affine
from ..ir.expr import OP_WEIGHTS
from ..perf import count, section
from .candidates import find_candidates
from ..trace import TRACE, provenance_id
from .conflict import PackNode, VariablePackGraph
from .model import CandidateGroup, GroupNode, PackData

DeclLookup = Callable[[str], object]

#: Packing-cost constants for the decision score, in vector-op units,
#: calibrated to the machine models' deltas for two lanes:
#: * a strided/mixed memory gather costs lanes x (load + insert) against
#:   one wide load: ~3 extra;
#: * building a non-contiguous scalar pack costs lanes x (move + insert)
#:   against a contiguous arena load: ~2 extra;
#: * scattering a result to non-contiguous scalar slots costs
#:   lanes x (extract + move) against one arena store: ~1-2 extra.
GATHER_PENALTY = 3.0
SCALAR_GATHER_PENALTY = 2.0
SCALAR_SCATTER_PENALTY = 1.0
#: Residual penalty when the data layout stage is known to follow and
#: can rewrite this pack into a contiguous access (read-only array
#: replication, Section 5.2, or scalar offset assignment, Section 5.1):
#: only the amortized copy/arena cost remains.
LAYOUT_FIXABLE_PENALTY = 0.25

@dataclass(frozen=True, slots=True)
class PenaltyContext:
    """What the code generator and downstream stages will see, for
    cost-aware grouping.

    ``replicable_arrays`` — read-only arrays eligible for replication
    when the layout stage runs (None: layout will not run).
    ``scalar_slots`` — the scalar arena slots codegen will use
    (``name -> (type name, offset)``); when the layout stage runs its
    offset assignment, leave this None (slots are then optimizable).
    """

    replicable_arrays: Optional[frozenset] = None
    scalar_slots: Optional[Tuple[Tuple[str, Tuple[str, int]], ...]] = None

    @property
    def assume_layout(self) -> bool:
        return self.replicable_arrays is not None

    def slot_of(self, name: str) -> Optional[Tuple[str, int]]:
        if self.scalar_slots is None:
            return None
        for entry, slot in self.scalar_slots:
            if entry == name:
                return slot
        return None

    @staticmethod
    def from_arenas(arenas) -> Tuple[Tuple[str, Tuple[str, int]], ...]:
        """Flatten ``{type: ScalarArena}`` into the slots tuple."""
        slots = []
        for type_name, arena in arenas.items():
            for name, offset in arena.slots.items():
                slots.append((name, (type_name, offset)))
        return tuple(sorted(slots))


def _scalar_pack_contiguous(
    pack: PackData, context: Optional[PenaltyContext]
) -> bool:
    """Whether the scalar pack occupies consecutive arena slots (in some
    lane order) under the known scalar layout."""
    if context is None or context.scalar_slots is None:
        return False
    slots = []
    for key in pack:
        slot = context.slot_of(key[1])
        if slot is None:
            return False
        slots.append(slot)
    types = {t for t, _ in slots}
    if len(types) != 1:
        return False
    offsets = sorted(offset for _, offset in slots)
    return offsets == list(range(offsets[0], offsets[0] + len(offsets)))


def pack_is_contiguous_memory(
    pack: PackData, decl_of: Optional[DeclLookup]
) -> bool:
    """Whether the pack's lanes are consecutive elements of one array
    (in some lane order)."""
    if not all(key[0] == KIND_REF for key in pack):
        return False
    arrays = {key[1] for key in pack}
    if len(arrays) != 1:
        return False
    flats = []
    for key in pack:
        subscripts = key[2]
        decl = decl_of(key[1]) if decl_of is not None else None
        if decl is not None:
            shape = decl.shape
        elif len(subscripts) == 1:
            shape = (0,)
        else:
            return False
        flat = Affine((), 0)
        for subscript, dim in zip(subscripts, shape):
            flat = flat * dim + subscript
        flats.append(flat)
    flats.sort()
    base = flats[0]
    for lane, flat in enumerate(flats):
        delta = flat - base
        if not (delta.is_constant and delta.const == lane):
            return False
    return True


def pack_adjacency_score(
    pack: PackData,
    decl_of: Optional[DeclLookup],
    contiguous: Optional[bool] = None,
) -> int:
    """Static desirability of a pack absent any reuse: contiguous memory
    (one wide load/store) scores 2, a splat (all lanes equal) scores 1,
    anything else 0. Used as a tie-break between equal-weight
    candidates (the paper chooses randomly there). ``contiguous``
    optionally supplies a precomputed ``pack_is_contiguous_memory``
    answer so memoizing callers pay for that analysis once per pack."""
    if len(set(pack)) == 1:
        return 1
    if contiguous is None:
        contiguous = pack_is_contiguous_memory(pack, decl_of)
    if contiguous:
        return 2
    return 0


def pack_materialization_penalty(
    pack: PackData,
    decl_of: Optional[DeclLookup],
    context: Optional[PenaltyContext] = None,
    is_store: bool = False,
    contiguous: Optional[bool] = None,
) -> float:
    """Overhead of building (or scattering, for ``is_store``) this pack
    when nothing in the block reuses it, relative to a contiguous wide
    access. When a :class:`PenaltyContext` says the layout stage will
    run, source packs it can make contiguous (read-only array
    replication, scalar offset assignment) are almost free — the phase
    coupling that lets Global+Layout choose the reuse-maximizing
    grouping the layout stage then repairs."""
    if len(set(pack)) == 1:
        return 0.0  # splat: one broadcast
    kinds = {key[0] for key in pack}
    if kinds == {KIND_CONST}:
        return 0.0  # vector immediate, hoisted out of the loop
    if kinds == {KIND_REF}:
        if contiguous is None:
            contiguous = pack_is_contiguous_memory(pack, decl_of)
        if contiguous:
            return 0.0
        if (
            not is_store
            and context is not None
            and context.replicable_arrays is not None
            and all(key[1] in context.replicable_arrays for key in pack)
        ):
            return LAYOUT_FIXABLE_PENALTY
        return GATHER_PENALTY
    if kinds == {KIND_VAR}:
        if _scalar_pack_contiguous(pack, context):
            return 0.0
        if context is not None and context.assume_layout:
            return LAYOUT_FIXABLE_PENALTY
        return SCALAR_SCATTER_PENALTY if is_store else SCALAR_GATHER_PENALTY
    return GATHER_PENALTY  # mixed lane sources: per-lane inserts


def pack_reuse_saving(
    pack: PackData,
    decl_of: Optional[DeclLookup],
    context: Optional[PenaltyContext] = None,
    contiguous: Optional[bool] = None,
) -> float:
    """What one *reuse* of this pack saves, in vector-op units: the cost
    of the materialization it avoids. A constant vector is hoisted out
    of the loop and costs nothing per iteration, so reusing it saves
    nothing; a strided gather it saves almost entirely (unless the
    layout stage will make that gather cheap anyway)."""
    kinds = {key[0] for key in pack}
    if kinds == {KIND_CONST}:
        return 0.0
    if len(set(pack)) == 1:
        return 0.5  # a broadcast
    if kinds == {KIND_REF}:
        if contiguous is None:
            contiguous = pack_is_contiguous_memory(pack, decl_of)
        if contiguous:
            return 1.0  # one wide load
        if (
            context is not None
            and context.replicable_arrays is not None
            and all(key[1] in context.replicable_arrays for key in pack)
        ):
            return 1.0  # replication will make it one wide load
        return GATHER_PENALTY
    if kinds == {KIND_VAR}:
        if _scalar_pack_contiguous(pack, context):
            return 1.0
        # Half the avoided scalar-gather cost: consumers of the same
        # pack share one materialization (the code generator keeps it
        # live), so per-occurrence credit at full cost would double
        # count.
        return 1.5
    return GATHER_PENALTY


def candidate_adjacency_score(
    candidate: CandidateGroup, decl_of: Optional[DeclLookup]
) -> int:
    return sum(
        pack_adjacency_score(pack, decl_of) for pack in candidate.packs
    )


class PackCostModel:
    """Memoized pack-cost queries for one ``(decl_of, penalty_context)``
    pair.

    ``pack_reuse_saving`` / ``pack_materialization_penalty`` (and their
    ``Fraction(...).limit_denominator(8)`` wrappers) and
    ``pack_adjacency_score`` depend only on the pack data once the
    declaration lookup and penalty context are fixed, so one cache can
    serve every grouping round of a block — the rounds re-derive wider
    packs, but any pack they share with an earlier round is a hit.
    """

    __slots__ = (
        "decl_of", "context", "_saving", "_build", "_adjacency", "_contig",
    )

    def __init__(
        self,
        decl_of: Optional[DeclLookup] = None,
        context: Optional[PenaltyContext] = None,
    ):
        self.decl_of = decl_of
        self.context = context
        self._saving: Dict[PackData, Fraction] = {}
        self._build: Dict[Tuple[PackData, bool], Fraction] = {}
        self._adjacency: Dict[PackData, int] = {}
        self._contig: Dict[PackData, bool] = {}

    def contiguous(self, data: PackData) -> bool:
        cached = self._contig.get(data)
        if cached is None:
            cached = self._contig[data] = pack_is_contiguous_memory(
                data, self.decl_of
            )
        return cached

    def saving(self, data: PackData) -> Fraction:
        cached = self._saving.get(data)
        if cached is None:
            cached = Fraction(
                pack_reuse_saving(
                    data, self.decl_of, self.context,
                    contiguous=self.contiguous(data),
                )
            ).limit_denominator(8)
            self._saving[data] = cached
        else:
            count("grouping.pack_cost_cache_hits")
        return cached

    def build(self, data: PackData, is_store: bool = False) -> Fraction:
        key = (data, is_store)
        cached = self._build.get(key)
        if cached is None:
            cached = Fraction(
                pack_materialization_penalty(
                    data, self.decl_of, self.context, is_store=is_store,
                    contiguous=self.contiguous(data),
                )
            ).limit_denominator(8)
            self._build[key] = cached
        else:
            count("grouping.pack_cost_cache_hits")
        return cached

    def adjacency(self, data: PackData) -> int:
        cached = self._adjacency.get(data)
        if cached is None:
            cached = self._adjacency[data] = pack_adjacency_score(
                data, self.decl_of, contiguous=self.contiguous(data)
            )
        return cached


def _signature_op_cost(signature) -> float:
    """Total operator weight of one lane's expression shape, extracted
    from an isomorphism signature."""
    if not isinstance(signature, tuple) or not signature:
        return 0.0
    label = signature[0]
    if label == "leaf":
        return 0.0
    cost = float(OP_WEIGHTS.get(label, 0.0))
    for child in signature[2:]:
        cost += _signature_op_cost(child)
    return cost


def candidate_op_saving(candidate: CandidateGroup) -> float:
    """ALU work a merge saves per loop iteration: the two units' op
    streams become one SIMD stream, eliminating one full copy of the
    shared expression shape's operator cost."""
    _target_kind, _pred_kind, expr_signature = candidate.left.signature
    return _signature_op_cost(expr_signature)


@dataclass
class GroupingTrace:
    """Optional record of each decision, for tests and debugging.

    ``engine`` names the engine that produced it, ``objective`` its
    whole-selection packing value (see
    :meth:`BasicGrouping.selection_objective`), ``proven_optimal``
    whether a completed exact search certified the selection, and
    ``nodes_explored`` the search effort (0 for the greedy engines).
    """

    decisions: List[Tuple[CandidateGroup, Fraction]]
    engine: str = "incremental"
    objective: Optional[Fraction] = None
    proven_optimal: bool = False
    nodes_explored: int = 0

    def chosen_sids(self) -> List[Tuple[int, ...]]:
        return [tuple(sorted(c.sid_set)) for c, _ in self.decisions]


def eliminate_conflicts(
    nodes: Sequence[PackNode],
    adjacency: Dict[PackNode, Set[PackNode]],
) -> List[PackNode]:
    """Greedy conflict elimination: repeatedly remove the highest-degree
    node until no edges remain (Figure 7). Deterministic tie-breaking on
    the node's canonical key keeps the whole optimizer reproducible.

    The canonical keys contain whole pack tuples, so comparing them
    directly on every victim selection dominated the decision loop; one
    up-front sort assigns each node an integer rank with the same order,
    and the selection loop compares ``(degree, rank)`` pairs instead —
    byte-for-byte the same victim sequence.
    """
    alive: Set[PackNode] = set(nodes)
    degree = {n: len(adjacency.get(n, set()) & alive) for n in alive}
    order = sorted(
        alive, key=lambda n: (n.data, n.candidate_index, n.position)
    )
    rank = {n: i for i, n in enumerate(order)}
    conflicted = {n for n in alive if degree[n] > 0}
    while conflicted:
        victim = max(conflicted, key=lambda n: (degree[n], rank[n]))
        alive.discard(victim)
        conflicted.discard(victim)
        for neighbor in adjacency.get(victim, set()):
            if neighbor in alive:
                left = degree[neighbor] - 1
                degree[neighbor] = left
                if left == 0:
                    conflicted.discard(neighbor)
    return [n for n in order if n in alive]


class BasicGrouping:
    """One round of the basic grouping algorithm over a set of units."""

    def __init__(
        self,
        units: Sequence[GroupNode],
        deps: DependenceGraph,
        datapath_bits: int,
        decl_of: Optional[DeclLookup] = None,
        penalty_context: Optional[PenaltyContext] = None,
        decision_mode: str = "cost-aware",
        engine: str = "incremental",
        cost_model: Optional[PackCostModel] = None,
        *,
        engine_options: Optional[dict] = None,
        on_diagnostic: Optional[Callable[[Diagnostic], None]] = None,
    ):
        if decision_mode not in ("cost-aware", "weight-only"):
            raise OptionsError(f"unknown decision mode {decision_mode!r}")
        self._engine_impl = resolve_engine_impl("grouping", engine)
        if cost_model is not None and (
            cost_model.decl_of is not decl_of
            or cost_model.context != penalty_context
        ):
            raise OptionsError(
                "cost_model was built for a different decl_of/context"
            )
        self.units = list(units)
        self.deps = deps
        self.datapath_bits = datapath_bits
        self.engine = engine
        self.candidates = find_candidates(self.units, deps, datapath_bits)
        count("grouping.candidates_examined", len(self.candidates))
        # Per-candidate static precomputes: the merged group node (so
        # ``CandidateGroup.packs`` — a property that re-merges on every
        # access — is materialized exactly once per candidate), the pack
        # tuple, its distinct pack types both as a frozenset (dirty-set
        # intersections) and sorted (deterministic auxiliary-graph
        # iteration order).
        self._merged: List[GroupNode] = [c.merged() for c in self.candidates]
        self._packs: List[Tuple[PackData, ...]] = [
            node.positions for node in self._merged
        ]
        self._pack_sets: List[frozenset] = [
            frozenset(packs) for packs in self._packs
        ]
        self._sorted_pack_types: List[Tuple[PackData, ...]] = [
            tuple(sorted(types)) for types in self._pack_sets
        ]
        # Integer-slot views of each candidate's pack types: the weight
        # and score loops index small lists instead of hashing PackData
        # tuples (whose Affine subscripts make hashing and comparison
        # slow) on every recomputation.
        self._type_slot: List[Dict[PackData, int]] = [
            {data: slot for slot, data in enumerate(types)}
            for types in self._sorted_pack_types
        ]
        self._own_list: List[List[int]] = []
        self._target_slot: List[int] = []
        for slot_of, packs in zip(self._type_slot, self._packs):
            own = [0] * len(slot_of)
            for data in packs:
                own[slot_of[data]] += 1
            self._own_list.append(own)
            self._target_slot.append(slot_of[packs[0]])
        self._cost_rows: List[Optional[tuple]] = [None] * len(
            self.candidates
        )
        self._fcost_rows: List[Optional[tuple]] = [None] * len(
            self.candidates
        )
        # Multiset of decided groups' packs, maintained by ``_commit``
        # (the public ``weight``/``score`` entry points instead rebuild
        # it from ``decided_packs`` so direct mutation stays visible).
        self._decided_counts: Dict[PackData, int] = {}
        self.vp = VariablePackGraph(self.candidates, deps)
        self.active: Set[int] = set(range(len(self.candidates)))
        self.decided: List[int] = []
        self.decided_packs: List[PackData] = []
        self._decl_of = decl_of
        self._penalty_context = penalty_context
        self.decision_mode = decision_mode
        self.engine_options = engine_options
        self.on_diagnostic = on_diagnostic
        self.cost = cost_model or PackCostModel(decl_of, penalty_context)
        adjacency_of = self.cost.adjacency
        self.adjacency = [
            sum(adjacency_of(p) for p in packs) for packs in self._packs
        ]
        self._op_saving_frac: Dict[int, Fraction] = {}
        self._ref_pack_bonus: Dict[int, int] = {}

    # -- cached static pack costs ----------------------------------------------

    def _static_bonus(self, index: int) -> Tuple[Fraction, int]:
        """The candidate's reuse-independent score terms: the saved ALU
        work of the merge, and +1 per all-memory pack position."""
        op = self._op_saving_frac.get(index)
        if op is None:
            op = Fraction(
                candidate_op_saving(self.candidates[index])
            ).limit_denominator(8)
            self._op_saving_frac[index] = op
        bonus = self._ref_pack_bonus.get(index)
        if bonus is None:
            bonus = sum(
                1
                for data in self._packs[index]
                if all(key[0] == KIND_REF for key in data)
            )
            self._ref_pack_bonus[index] = bonus
        return op, bonus

    # -- weight computation (Figure 10 lines 22–38) ---------------------------

    @staticmethod
    def _eliminate_aux_conflicts(
        by_cand: Dict[int, List[PackNode]],
        masks: Dict[int, int],
        rank: Dict[PackNode, int],
    ) -> List[PackNode]:
        """Greedy conflict elimination over the auxiliary graph, exploiting
        its structure: every node of one candidate has the *same* neighbor
        set (all nodes of conflicting candidates), hence the same degree.
        Selecting the victim candidate by ``(degree, best node rank)`` and
        popping that candidate's highest-ranked node therefore reproduces
        :func:`eliminate_conflicts` over the expanded node graph victim for
        victim, without materializing per-node adjacency sets or comparing
        pack tuples (``rank`` is the graph's precomputed canonical node
        order). Requires each bucket in ascending canonical order — which
        the collection loop in :meth:`_counts_list` guarantees (sorted pack
        types outermost, node position ascending within). Mutates
        ``by_cand`` in place and returns the victims.
        """
        # Dense local renumbering: the selection loop then runs on plain
        # lists with integer indices instead of dicts keyed by global
        # candidate numbers.
        cands = list(by_cand)
        pos = {cand: i for i, cand in enumerate(cands)}
        n = len(cands)
        buckets = [by_cand[cand] for cand in cands]
        sizes = [len(bucket) for bucket in buckets]
        local_mask = [0] * n
        deg = [0] * n
        for i, cand in enumerate(cands):
            mask = masks[cand]
            local = 0
            total = 0
            while mask:
                low = mask & -mask
                mask ^= low
                j = pos[low.bit_length() - 1]
                local |= 1 << j
                total += sizes[j]
            local_mask[i] = local
            deg[i] = total
        last_rank = [
            rank[bucket[-1]] if bucket else -1 for bucket in buckets
        ]
        victims: List[PackNode] = []
        while True:
            # One scan finds the victim candidate (max degree, then max
            # last-node rank) and the runner-up degree.
            best_i = -1
            best_deg = 0
            best_rank = -1
            second_deg = 0
            for i in range(n):
                d = deg[i]
                if d <= 0:
                    continue
                if d > best_deg:
                    second_deg = best_deg
                    best_deg = d
                    best_i = i
                    best_rank = last_rank[i]
                elif d == best_deg:
                    second_deg = d
                    if last_rank[i] > best_rank:
                        best_i = i
                        best_rank = last_rank[i]
                elif d > second_deg:
                    second_deg = d
            if best_i < 0:
                return victims
            bucket = buckets[best_i]
            if best_deg > second_deg:
                # Strictly maximal degree: removing the candidate's own
                # nodes never changes its degree, and every other degree
                # only decreases — so the greedy drains this whole bucket
                # (descending rank) before looking anywhere else.
                removed = len(bucket)
                victims.extend(reversed(bucket))
                bucket.clear()
                deg[best_i] = 0
            else:
                removed = 1
                victims.append(bucket.pop())
                if bucket:
                    last_rank[best_i] = rank[bucket[-1]]
                else:
                    deg[best_i] = 0
            mask = local_mask[best_i]
            while mask:
                low = mask & -mask
                mask ^= low
                j = low.bit_length() - 1
                deg[j] -= removed

    def _counts_list(
        self,
        index: int,
        decided_counts: Dict[PackData, int],
        eliminate: bool = True,
    ) -> List[int]:
        """Occurrence counts of the candidate's pack types — across the
        surviving auxiliary-graph nodes, the decided groups' packs
        (``decided_counts`` multiset) and the candidate itself — as a
        list aligned with ``self._sorted_pack_types[index]``.

        With ``eliminate=False`` the residual-conflict elimination is
        skipped, yielding per-slot counts that can only be *higher* than
        the exact ones — an upper bound the incremental engine uses for
        lazily-refined heap entries (both weight and score are monotone
        nondecreasing in every count).
        """
        types = self._sorted_pack_types[index]
        counts = [0] * len(types)
        vp = self.vp
        my_conflicts = vp.conflict_bits(index)
        aux_mask = 0
        by_cand: Dict[int, List[PackNode]] = {}
        for slot, data in enumerate(types):
            for node in vp.iter_nodes_with_data(data):
                other = node.candidate_index
                if other == index or (my_conflicts >> other) & 1:
                    continue
                counts[slot] += 1
                bucket = by_cand.get(other)
                if bucket is None:
                    by_cand[other] = [node]
                    aux_mask |= 1 << other
                else:
                    bucket.append(node)

        if eliminate:
            # Residual conflicts among the auxiliary candidates, as
            # bitmasks over the auxiliary set. When there are none (the
            # common case), greedy elimination would keep every node and
            # the collected counts already stand.
            masks = {
                cand: vp.conflict_bits(cand) & aux_mask
                for cand in by_cand
            }
            if any(masks.values()):
                slot_of = self._type_slot[index]
                for victim in self._eliminate_aux_conflicts(
                    by_cand, masks, vp.node_rank
                ):
                    counts[slot_of[victim.data]] -= 1

        own = self._own_list[index]
        for slot, data in enumerate(types):
            extra = decided_counts.get(data)
            counts[slot] += own[slot] if extra is None else own[slot] + extra
        return counts

    def _decided_multiset(self) -> Dict[PackData, int]:
        """``decided_packs`` as a multiset — rebuilt fresh so callers of
        the public entry points see direct mutations of the list."""
        decided: Dict[PackData, int] = {}
        for data in self.decided_packs:
            decided[data] = decided.get(data, 0) + 1
        return decided

    def _pack_counts(
        self, index: int
    ) -> Tuple[Dict[PackData, int], Dict[PackData, int]]:
        """Occurrence counts of the candidate's pack types across the
        surviving auxiliary-graph nodes, the decided groups' packs, and
        the candidate itself; plus the candidate-internal counts.

        Always computed fresh — callers that can reuse counts across
        queries (the decision loop) memoize the result themselves, so
        direct users (tests, ``explain``) see the live graph state even
        after mutating ``decided_packs`` by hand.
        """
        types = self._sorted_pack_types[index]
        counts_list = self._counts_list(index, self._decided_multiset())
        own_list = self._own_list[index]
        counts = {data: counts_list[t] for t, data in enumerate(types)}
        own_counts = {data: own_list[t] for t, data in enumerate(types)}
        return counts, own_counts

    @staticmethod
    def _weight_from_counts(counts: Dict[PackData, int]) -> Fraction:
        reuse = sum(c - 1 for c in counts.values())
        return Fraction(reuse, len(counts))

    @staticmethod
    def _weight_from_list(counts: List[int]) -> Fraction:
        return Fraction(sum(counts) - len(counts), len(counts))

    def weight(self, index: int) -> Fraction:
        """The paper's average superword reuse (Figure 10 lines 32–38).

        Collect every VP pack node whose data matches one of the
        candidate's packs and whose originating candidate does not
        conflict with it; greedily eliminate residual conflicts; then
        for each of the candidate's pack types count its occurrences
        across the surviving nodes, the already-decided groups' packs,
        and the candidate itself — each extra occurrence is one saved
        packing operation. ``W = sum(N_t - 1) / Nt`` with ``Nt`` the
        candidate's pack-type count reproduces the paper's 2/3 for
        {S4,S5} in Figure 6 and "considers the already-decided group
        together" after each decision (Section 4.2.1).
        """
        return self._weight_from_list(
            self._counts_list(index, self._decided_multiset())
        )

    def _cost_row(
        self, index: int
    ) -> Tuple[List[Fraction], List[Fraction], int, Fraction]:
        """Per-slot reuse savings and materialization penalties for one
        candidate, plus its target slot and the target's store penalty —
        computed once so score recomputations are pure Fraction
        arithmetic over integer slots."""
        row = self._cost_rows[index]
        if row is None:
            types = self._sorted_pack_types[index]
            saving_of = self.cost.saving
            build_of = self.cost.build
            savings = [saving_of(data) for data in types]
            builds = [build_of(data) for data in types]
            target = self._target_slot[index]
            store = build_of(types[target], is_store=True)
            row = self._cost_rows[index] = (savings, builds, target, store)
        return row

    def _fcost_row(self, index: int) -> tuple:
        """Float mirror of :meth:`_cost_row` plus the static bonus, for
        the bound-score fast path."""
        row = self._fcost_rows[index]
        if row is None:
            savings, builds, target, store = self._cost_row(index)
            op_saving, ref_bonus = self._static_bonus(index)
            row = self._fcost_rows[index] = (
                [float(s) for s in savings],
                [float(b) for b in builds],
                target,
                float(store),
                float(op_saving + ref_bonus),
            )
        return row

    def _score_bound(self, index: int, counts: List[int]) -> float:
        """Float upper bound on what :meth:`_score_from_list` would
        return for *any* pointwise-smaller-or-equal counts: the score is
        monotone nondecreasing in every count, the arithmetic error of
        the float mirror is far below 1e-9, and the bound inflates by
        exactly that margin."""
        savings, builds, target, store, static = self._fcost_row(index)
        own_counts = self._own_list[index]
        score = static
        for slot, count_ in enumerate(counts):
            score += (count_ - 1) * savings[slot]
            external = count_ > own_counts[slot]
            if slot == target:
                score -= store
                if own_counts[slot] > 1 and not external:
                    score -= builds[slot]
            elif not external:
                score -= builds[slot]
        return score / len(counts) + 1e-9

    def _score_from_list(self, index: int, counts: List[int]) -> Fraction:
        savings, builds, target, store = self._cost_row(index)
        own_counts = self._own_list[index]
        score = Fraction(0)
        for slot, count_ in enumerate(counts):
            # Each extra occurrence saves one materialization of this
            # pack — valued at what that materialization would cost.
            score += (count_ - 1) * savings[slot]
            external = count_ > own_counts[slot]
            if slot == target:
                # The result superword is always written back; a
                # non-contiguous target means a scatter either way.
                score -= store
                # Read-modify-write: the same pack is also a source and
                # nobody else produces it — it must be gathered first.
                if own_counts[slot] > 1 and not external:
                    score -= builds[slot]
            elif not external:
                # A source pack no other (non-conflicting) group defines
                # or uses: it must be materialized from scratch.
                score -= builds[slot]
        # The merge's inherent benefits: one lane's worth of ALU work
        # disappears, and each all-memory position collapses per-lane
        # scalar accesses into one wide access (the gather/scatter
        # penalties above are charged relative to that baseline).
        op_saving, ref_bonus = self._static_bonus(index)
        score += op_saving + ref_bonus
        return score / len(counts)

    def score(self, index: int) -> Fraction:
        """The decision score: reuse weight minus expected packing cost.

        Documented deviation from the paper (see DESIGN.md): the paper
        ranks candidates by reuse weight alone, breaks ties randomly,
        and leaves packing cost entirely to the final go/no-go cost
        model. A deterministic reproduction that must match Figure 16's
        "Global never loses to SLP" needs the grouping itself to avoid
        reuse-free gather groups when a contiguous alternative exists,
        so each pack type nothing else produces is charged its expected
        materialization cost (strided gather ≈ two superword operations,
        scalar gather ≈ half; near-zero when the layout stage will run
        and can rewrite the pack — see :class:`PenaltyContext`).
        """
        return self._score_from_list(
            index, self._counts_list(index, self._decided_multiset())
        )

    # -- whole-selection objective (shared with repro.slp.optimal) --------------

    def selection_objective(self, indices) -> Fraction:
        """The packing value of a pairwise non-conflicting selection, in
        vector-op units: the additive analog of :meth:`score` (see
        ``repro.slp.optimal`` for the exact definition).  Evaluated in
        ascending index order; the per-candidate marginal procedure is
        order-independent, so this is a well-defined set function — the
        quantity the optimal engine maximizes and the optimality-gap
        benchmark reports for every engine."""
        seen: Dict[PackData, bool] = {}
        status: Dict[PackData, int] = {}
        total = Fraction(0)
        for index in sorted(indices):
            total += self._objective_gain(index, seen, status)
        return total

    def _objective_gain(self, index: int, seen, status) -> Fraction:
        """Marginal objective of adding ``index``; mutates the caller's
        per-pack-type ``seen`` map and build/produce ``status`` map
        (0 absent, 1 built as a source, 2 produced as a target)."""
        savings, builds, target, store = self._cost_row(index)
        types = self._sorted_pack_types[index]
        own = self._own_list[index]
        op_saving, ref_bonus = self._static_bonus(index)
        gain = op_saving + ref_bonus - store
        rmw = own[target] > 1
        for slot, data in enumerate(types):
            gain += own[slot] * savings[slot]
            if not seen.get(data):
                seen[data] = True
                gain -= savings[slot]
            state = status.get(data, 0)
            if slot == target:
                if state == 1:
                    gain += builds[slot]
                if rmw:
                    gain -= builds[slot]
                status[data] = 2
            elif state == 0:
                gain -= builds[slot]
                status[data] = 1
        return gain

    # -- decision loop (Figure 10 lines 20–43) ----------------------------------

    def run(self) -> Tuple[List[GroupNode], List[GroupNode], GroupingTrace]:
        """Returns (decided groups, leftover units, trace)."""
        with section("grouping.decide"):
            trace = self._engine_impl.factory(self)
            trace.engine = self.engine
            if trace.objective is None:
                trace.objective = self.selection_objective(self.decided)

        decided_groups = [self._merged[i] for i in self.decided]
        taken = set()
        for group in decided_groups:
            taken |= group.sid_set
        leftovers = [u for u in self.units if not (u.sid_set & taken)]
        return decided_groups, leftovers, trace

    def _commit(
        self,
        best: int,
        trace: GroupingTrace,
        weight: Fraction,
        score: Optional[Fraction] = None,
        picked_by: str = "score",
        runners: Sequence[dict] = (),
        proven_optimal: bool = False,
    ):
        """Record a decision and remove the chosen candidate plus
        everything conflicting with it from both graphs. Returns the
        touched pack-type set and the indices removed."""
        candidate = self.candidates[best]
        trace.decisions.append((candidate, weight))
        self.decided.append(best)
        self.decided_packs.extend(self._packs[best])
        decided_counts = self._decided_counts
        for data in self._packs[best]:
            decided_counts[data] = decided_counts.get(data, 0) + 1
        count("grouping.decisions")
        conflict_bits = self.vp.conflict_bits(best)
        touched_data = set(self._packs[best])
        removed = []
        for index in sorted(self.active):
            if index == best or (conflict_bits >> index) & 1:
                self.active.discard(index)
                touched_data.update(self._packs[index])
                self.vp.remove_candidate(index)
                removed.append(index)
        if TRACE.enabled:
            block = TRACE.current("block")
            TRACE.event(
                "grouping.commit",
                prov=provenance_id(candidate.sid_set, block),
                sids=sorted(candidate.sid_set),
                weight=weight,
                score=score,
                picked_by=picked_by,
                engine=self.engine,
                proven_optimal=proven_optimal,
                runners_up=runners,
                removed=[
                    provenance_id(self.candidates[r].sid_set, block)
                    for r in removed
                    if r != best
                ],
            )
        return touched_data, removed

    def _trace_runners(self, best: int, weight_of, score_of) -> List[dict]:
        """The top-2 losing SG edges at commit time, for the trace.

        Uses the same accessors the engines rank with, so for the
        incremental engine this only fills memo caches with values the
        reference loop would have computed anyway — decisions are
        unaffected by tracing.
        """
        block = TRACE.current("block")
        others = sorted(
            (i for i in self.active if i != best),
            key=lambda i: (
                score_of(i),
                self.adjacency[i],
                _neg_key(self.candidates[i]),
            ),
            reverse=True,
        )[:2]
        return [
            {
                "prov": provenance_id(self.candidates[i].sid_set, block),
                "weight": weight_of(i),
                "score": score_of(i),
            }
            for i in others
        ]

    def _run_incremental(self) -> GroupingTrace:
        """The memoizing decision loop (see module docstring)."""
        trace = GroupingTrace([])
        cost_aware = self.decision_mode == "cost-aware"

        # ``results`` holds the (weight, score) pair of clean candidates
        # and is dropped on invalidation; ``previous`` survives it, so a
        # dirty recomputation whose counts come out unchanged reuses the
        # old Fractions instead of redoing the arithmetic.
        results: Dict[int, Tuple[Fraction, Fraction]] = {}
        previous: Dict[int, Tuple[List[int], Fraction, Fraction]] = {}
        generation: Dict[int, int] = {}
        heap: List[tuple] = []
        decided_counts = self._decided_counts

        def evaluate(index: int) -> Tuple[Fraction, Fraction]:
            got = results.get(index)
            if got is None:
                count("grouping.scores_recomputed")
                with section("grouping.weights"):
                    counts = self._counts_list(index, decided_counts)
                    old = previous.get(index)
                    if old is not None and old[0] == counts:
                        got = (old[1], old[2])
                    else:
                        weight = self._weight_from_list(counts)
                        score = (
                            self._score_from_list(index, counts)
                            if cost_aware
                            else weight
                        )
                        got = (weight, score)
                        previous[index] = (counts, weight, score)
                results[index] = got
            else:
                count("grouping.score_cache_hits")
            return got

        def weight_of(index: int) -> Fraction:
            return evaluate(index)[0]

        def score_of(index: int) -> Fraction:
            return evaluate(index)[1]

        def push(index: int, force_exact: bool = False) -> None:
            # Lazy max-heap entry: Python's heapq is a min-heap, so the
            # ranking tuple is negated — ``max`` by (score, adjacency,
            # smallest candidate key) becomes ``min`` by (-score,
            # -adjacency, key). Stale entries are recognized by their
            # generation stamp and skipped at pop time.
            #
            # Entries come in two flavours. An *exact* entry carries the
            # true score. A *bound* entry carries the cheaper
            # pre-elimination score, which can only overestimate (score
            # and weight are monotone nondecreasing in the per-slot
            # counts, and elimination only lowers counts) — so a bound
            # entry sorts at or before the candidate's true position,
            # and is refined to an exact one if it ever reaches the top.
            # Elimination therefore runs only for candidates that
            # actually contend for selection.
            got = results.get(index)
            if got is None and force_exact:
                got = evaluate(index)
            if got is not None:
                entry_score = got[1]
                exact = True
            else:
                count("grouping.score_bounds")
                with section("grouping.weights"):
                    counts = self._counts_list(
                        index, decided_counts, eliminate=False
                    )
                    entry_score = (
                        self._score_bound(index, counts)
                        if cost_aware
                        else (sum(counts) - len(counts)) / len(counts)
                        + 1e-9
                    )
                exact = False
            heapq.heappush(
                heap,
                (
                    -entry_score,
                    -self.adjacency[index],
                    self.candidates[index].key(),
                    generation.get(index, 0),
                    index,
                    exact,
                ),
            )

        for index in sorted(self.active):
            push(index)

        while self.active:
            while heap:
                entry = heap[0]
                index = entry[4]
                if index not in self.active or entry[3] != generation.get(
                    index, 0
                ):
                    heapq.heappop(heap)
                    continue
                if not entry[5]:
                    # A bound entry on top: replace it with the exact
                    # one. Every other entry's true score lies at or
                    # below its heap position, so the first exact entry
                    # to surface is the true argmax (ties impossible
                    # across candidates — keys are unique).
                    heapq.heappop(heap)
                    push(index, force_exact=True)
                    continue
                break
            else:  # pragma: no cover - every active candidate has an entry
                break
            best = index
            picked_by = "score"
            if cost_aware and score_of(best) < 0:
                # Packing looks like a net loss everywhere. Candidates
                # with genuine superword reuse (the paper's criterion)
                # are still committed — the paper "exploits all the
                # opportunities" — but reuse-free, cost-negative ones
                # are left scalar rather than sinking the whole block at
                # the cost gate.
                with_reuse = [
                    i for i in self.active if weight_of(i) > 0
                ]
                if not with_reuse:
                    break
                best = max(
                    with_reuse,
                    key=lambda i: (
                        weight_of(i),
                        score_of(i),
                        self.adjacency[i],
                        _neg_key(self.candidates[i]),
                    ),
                )
                picked_by = "reuse"
            runners = (
                self._trace_runners(best, weight_of, score_of)
                if TRACE.enabled
                else []
            )
            _touched, removed = self._commit(
                best,
                trace,
                weight_of(best),
                score=score_of(best),
                picked_by=picked_by,
                runners=runners,
            )
            for index in removed:
                results.pop(index, None)
                previous.pop(index, None)
            # Dirty set: still-active candidates whose auxiliary graph
            # or decided-pack counts could have changed. The committed
            # group dirties every type-sharing candidate (its packs
            # joined ``decided_packs`` and its nodes left the VP graph);
            # a removed conflictor ``r`` dirties a type-sharing
            # candidate ``j`` only when r and j do NOT conflict — if
            # they conflict, r's nodes were never in j's auxiliary graph
            # to begin with, so their removal cannot change j's counts.
            # Dirty candidates lose their caches and get a fresh heap
            # entry; everything else keeps its cached score and live
            # heap entry.
            best_types = self._pack_sets[best]
            others = [
                (r, self._pack_sets[r], self.vp.conflict_bits(r))
                for r in removed
                if r != best
            ]
            for index in self.active:
                types = self._pack_sets[index]
                dirty = bool(best_types & types) or any(
                    not (r_conflicts >> index) & 1 and (r_types & types)
                    for _r, r_types, r_conflicts in others
                )
                if dirty:
                    results.pop(index, None)
                    generation[index] = generation.get(index, 0) + 1
                    push(index)
        return trace

    def _run_reference(self) -> GroupingTrace:
        """The from-scratch loop: every iteration recomputes every
        active candidate's score. Kept as the differential oracle."""
        trace = GroupingTrace([])
        cost_aware = self.decision_mode == "cost-aware"
        decided_counts = self._decided_counts
        while self.active:
            weights: Dict[int, Fraction] = {}
            scores: Dict[int, Fraction] = {}
            for i in self.active:
                counts = self._counts_list(i, decided_counts)
                weight = self._weight_from_list(counts)
                weights[i] = weight
                scores[i] = (
                    self._score_from_list(i, counts)
                    if cost_aware
                    else weight
                )
            count("grouping.scores_recomputed", len(scores))
            best = max(
                self.active,
                key=lambda i: (
                    scores[i],
                    self.adjacency[i],
                    _neg_key(self.candidates[i]),
                ),
            )
            picked_by = "score"
            if cost_aware and scores[best] < 0:
                with_reuse = [
                    i for i in self.active if weights[i] > 0
                ]
                if not with_reuse:
                    break
                best = max(
                    with_reuse,
                    key=lambda i: (
                        weights[i],
                        scores[i],
                        self.adjacency[i],
                        _neg_key(self.candidates[i]),
                    ),
                )
                picked_by = "reuse"
            runners = (
                self._trace_runners(
                    best, weights.__getitem__, scores.__getitem__
                )
                if TRACE.enabled
                else []
            )
            self._commit(
                best,
                trace,
                weights[best],
                score=scores[best],
                picked_by=picked_by,
                runners=runners,
            )
        return trace


class _NegatedKey:
    """Inverts comparison so ``max`` picks the *smallest* candidate key
    among equal weights — the deterministic stand-in for the paper's
    "randomly choose one" tie-break."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_NegatedKey") -> bool:
        return self.key > other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NegatedKey) and self.key == other.key


def _neg_key(candidate: CandidateGroup) -> _NegatedKey:
    return _NegatedKey(candidate.key())
