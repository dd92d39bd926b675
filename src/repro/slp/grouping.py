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
* ``engine="reference"`` recomputes every active candidate's score,
  conflict elimination included, on every iteration — the
  paper-literal loop, kept as the differential-testing oracle and the
  baseline the compile-time benchmarks measure the incremental engine
  against.

Both share the per-round machinery: pack costs in integer units of
``1 / COST_SCALE``, pack type ids from the VP graph, and each
candidate's auxiliary graph, built on first use in the round (the
incremental engine builds one only for a candidate that contends for
selection) and filtered as candidates leave. A round sets up once per
candidate, before any decision: :func:`find_candidates`, the VP graph,
one :meth:`PackCostModel.classify_types` call for all its pack types,
and one loop filling the per-candidate tables (slots, multiplicities,
statement bits) and the per-type holder bitsets the bounds read. The reference engine is
therefore the oracle of the incremental engine's caches, dirty sets
and heap bounds, not of the auxiliary graphs; the tests check those
against the node-level :func:`eliminate_conflicts` after every commit.

Why the dirty-set rule is sufficient: a candidate's score depends only
on (a) VP nodes whose data matches one of its pack types, (b) decided
packs matching one of its pack types, and (c) its own static packs. A
commit changes (a) only by removing nodes of removed candidates and (b)
only by appending the committed candidate's packs — both covered by
the union of pack types of the committed and removed candidates. A
candidate sharing no pack type with that union therefore computes
exactly the same counts as before.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import Diagnostic, OptionsError, choose
from ..analysis import DependenceGraph
from ..analysis.operands import (
    KIND_CONST,
    KIND_REF,
    KIND_VAR,
    OperandTable,
    bit_indices,
)
from ..ir import Affine
from ..ir.expr import OP_WEIGHTS
from ..perf import count, span
from .candidates import find_candidates
from ..trace import TRACE, provenance_id
from .conflict import PackNode, VariablePackGraph
from .model import CandidateGroup, GroupNode, PackData

DeclLookup = Callable[[str], object]

#: The grouping rankings: the cost-aware decision score (default) and
#: the paper-literal weight-only ranking (for ablations).
DECISION_MODES = ("cost-aware", "weight-only")

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

#: Grouping scores are computed in integer units of ``1 / COST_SCALE``
#: vector ops: every penalty and saving above is a multiple of 1/4 and
#: every ``OP_WEIGHTS`` entry is whole, so the arithmetic stays exact
#: without building a ``Fraction`` per term.
COST_SCALE = 4


def cost_units(value: float) -> int:
    """``value`` in units of ``1 / COST_SCALE``; raises ``ValueError``
    unless that is exact (a cost constant off the 1/4 grid)."""
    units = value * COST_SCALE
    if units != int(units):
        raise ValueError(
            f"pack cost {value!r} is not a multiple of 1/{COST_SCALE}"
        )
    return int(units)


#: The cost constants in cost units: a one-wide-access reuse saving, a
#: broadcast's, a scalar pack's (see :func:`pack_reuse_saving` for why
#: it is half a scalar gather), and the penalties above.
_WIDE = cost_units(1.0)
_BROADCAST = cost_units(0.5)
_SCALAR_SAVING = cost_units(1.5)
_GATHER = cost_units(GATHER_PENALTY)
_SCALAR_GATHER = cost_units(SCALAR_GATHER_PENALTY)
_SCALAR_SCATTER = cost_units(SCALAR_SCATTER_PENALTY)
_FIXABLE = cost_units(LAYOUT_FIXABLE_PENALTY)

#: The rows :meth:`PackCostModel.classify_types` returns: ``(saving,
#: build, store build, adjacency, all memory)`` per case of its
#: analysis, shared by every pack type in that case.
_SPLAT_CONST = (0, 0, 0, 1, False)
_SPLAT_REF = (_BROADCAST, 0, 0, 1, True)
_SPLAT_VAR = (_BROADCAST, 0, 0, 1, False)
_MIXED = (_GATHER, _GATHER, _GATHER, 0, False)
_REF_WIDE = (_WIDE, 0, 0, 2, True)
_REF_REPLICATED = (_WIDE, _FIXABLE, _GATHER, 0, True)
_REF_GATHERED = (_GATHER, _GATHER, _GATHER, 0, True)
_VAR_WIDE = (_WIDE, 0, 0, 0, False)
_VAR_FIXABLE = (_SCALAR_SAVING, _FIXABLE, _FIXABLE, 0, False)
_VAR_GATHERED = (_SCALAR_SAVING, _SCALAR_GATHER, _SCALAR_SCATTER, 0, False)
_IMMEDIATE = (0, 0, 0, 0, False)


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
    #: ``scalar_slots`` as a lookup table, derived once.
    _slot_table: Dict[str, Tuple[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name, slot in self.scalar_slots or ():
            self._slot_table.setdefault(name, slot)

    @property
    def assume_layout(self) -> bool:
        return self.replicable_arrays is not None

    def slot_of(self, name: str) -> Optional[Tuple[str, int]]:
        return self._slot_table.get(name)

    @staticmethod
    def from_arenas(arenas) -> Tuple[Tuple[str, Tuple[str, int]], ...]:
        """Flatten ``{type: ScalarArena}`` into the slots tuple."""
        slots = []
        for type_name, arena in arenas.items():
            for name, offset in arena.slots.items():
                slots.append((name, (type_name, offset)))
        return tuple(sorted(slots))


def _slots_contiguous(
    names: Sequence[str], context: Optional[PenaltyContext]
) -> bool:
    """Whether scalars ``names`` occupy consecutive arena slots (in some
    lane order) under the known scalar layout."""
    if context is None or context.scalar_slots is None:
        return False
    slots = []
    for name in names:
        slot = context.slot_of(name)
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
    pack: PackData, decl_of: Optional[DeclLookup]
) -> int:
    """Static desirability of a pack absent any reuse: contiguous memory
    (one wide load/store) scores 2, a splat (all lanes equal) scores 1,
    anything else 0. Used as a tie-break between equal-weight
    candidates (the paper chooses randomly there).

    This and the two cost functions below are the reference
    definitions: grouping rounds call :meth:`PackCostModel.classify`,
    and the tests check it against them."""
    if pack[0] == pack[-1]:  # sorted: all lanes equal
        return 1
    if pack_is_contiguous_memory(pack, decl_of):
        return 2
    return 0


def pack_materialization_penalty(
    pack: PackData,
    decl_of: Optional[DeclLookup],
    context: Optional[PenaltyContext] = None,
    is_store: bool = False,
) -> float:
    """Overhead of building (or scattering, for ``is_store``) this pack
    when nothing in the block reuses it, relative to a contiguous wide
    access. When a :class:`PenaltyContext` says the layout stage will
    run, source packs it can make contiguous (read-only array
    replication, scalar offset assignment) are almost free — the phase
    coupling that lets Global+Layout choose the reuse-maximizing
    grouping the layout stage then repairs."""
    if pack[0] == pack[-1]:
        return 0.0  # splat (the pack is sorted): one broadcast
    kinds = {key[0] for key in pack}
    if kinds == {KIND_CONST}:
        return 0.0  # vector immediate, hoisted out of the loop
    if kinds == {KIND_REF}:
        if pack_is_contiguous_memory(pack, decl_of):
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
        if _slots_contiguous([key[1] for key in pack], context):
            return 0.0
        if context is not None and context.assume_layout:
            return LAYOUT_FIXABLE_PENALTY
        return SCALAR_SCATTER_PENALTY if is_store else SCALAR_GATHER_PENALTY
    return GATHER_PENALTY  # mixed lane sources: per-lane inserts


def pack_reuse_saving(
    pack: PackData,
    decl_of: Optional[DeclLookup],
    context: Optional[PenaltyContext] = None,
) -> float:
    """What one *reuse* of this pack saves, in vector-op units: the cost
    of the materialization it avoids. A constant vector is hoisted out
    of the loop and costs nothing per iteration, so reusing it saves
    nothing; a strided gather it saves almost entirely (unless the
    layout stage will make that gather cheap anyway)."""
    kinds = {key[0] for key in pack}
    if kinds == {KIND_CONST}:
        return 0.0
    if pack[0] == pack[-1]:
        return 0.5  # a broadcast (the pack is sorted: all lanes equal)
    if kinds == {KIND_REF}:
        if pack_is_contiguous_memory(pack, decl_of):
            return 1.0  # one wide load
        if (
            context is not None
            and context.replicable_arrays is not None
            and all(key[1] in context.replicable_arrays for key in pack)
        ):
            return 1.0  # replication will make it one wide load
        return GATHER_PENALTY
    if kinds == {KIND_VAR}:
        if _slots_contiguous([key[1] for key in pack], context):
            return 1.0
        # Half the avoided scalar-gather cost: consumers of the same
        # pack share one materialization (the code generator keeps it
        # live), so per-occurrence credit at full cost would double
        # count.
        return 1.5
    return GATHER_PENALTY


class PackCostModel:
    """Pack-cost classification for one ``(decl_of, penalty_context)``
    pair.

    :meth:`classify_types` derives everything the grouping score needs
    of a round's pack types — given as id tuples over the block's
    :class:`~repro.analysis.operands.OperandTable` — in one pass:
    :func:`pack_reuse_saving` and :func:`pack_materialization_penalty`
    (as a source and as a store) as ints in units of
    ``1 / COST_SCALE``, :func:`pack_adjacency_score`, and whether every
    lane is an array reference.
    """

    __slots__ = ("decl_of", "context")

    def __init__(
        self,
        decl_of: Optional[DeclLookup] = None,
        context: Optional[PenaltyContext] = None,
    ):
        self.decl_of = decl_of
        self.context = context

    def classify_types(
        self, types: Sequence[Tuple[int, ...]], table: OperandTable
    ) -> List[Tuple[int, int, int, int, bool]]:
        """``(saving, build, store build, adjacency, all memory)`` of each
        pack type in ``types`` (sorted operand ids): the reference cost
        functions' case analysis, with one pass over each type's lanes
        and at most one contiguity test. The table's kinds, names and
        flattened offsets, and the context's scalar slots, are read
        once per call.

        A reference pack is contiguous when its lanes are one array's
        references with equal flattened coefficients whose constants
        form a consecutive run (:func:`pack_is_contiguous_memory`); a
        variable pack when its names sit in consecutive slots of one
        arena (``_slots_contiguous``)."""
        kinds = table.kinds
        names = table.names
        flats = table.flat_offsets(self.decl_of)
        context = self.context
        replicable = slot_of = None
        var_fallback = _VAR_GATHERED
        if context is not None:
            replicable = context.replicable_arrays
            if context.scalar_slots is not None:
                slot_of = context._slot_table.get
            if context.assume_layout:
                var_fallback = _VAR_FIXABLE
        rows: List[Tuple[int, int, int, int, bool]] = []
        for ids in types:
            first = ids[0]
            kind = kinds[first]
            if first == ids[-1]:  # a splat (the pack is sorted)
                rows.append(
                    _SPLAT_CONST if kind == KIND_CONST
                    else _SPLAT_REF if kind == KIND_REF
                    else _SPLAT_VAR
                )
                continue
            for i in ids:
                if kinds[i] != kind:  # mixed lane sources
                    rows.append(_MIXED)
                    break
            else:
                if kind == KIND_REF:
                    row = _REF_GATHERED
                    array = names[first]
                    flat = flats[first]
                    if flat is not None:
                        coeffs = flat[0]
                        consts = []
                        for i in ids:
                            flat = flats[i]
                            if (
                                names[i] != array
                                or flat is None
                                or flat[0] != coeffs
                            ):
                                break
                            consts.append(flat[1])
                        else:
                            consts.sort()
                            low = consts[0]
                            if consts == list(range(low, low + len(consts))):
                                row = _REF_WIDE
                    if row is _REF_GATHERED and replicable is not None:
                        for i in ids:
                            if names[i] not in replicable:
                                break
                        else:
                            row = _REF_REPLICATED
                    rows.append(row)
                elif kind == KIND_VAR:
                    row = var_fallback
                    if slot_of is not None:
                        slots = [slot_of(names[i]) for i in ids]
                        if None not in slots and len(
                            {arena for arena, _ in slots}
                        ) == 1:
                            offsets = sorted(offset for _, offset in slots)
                            low = offsets[0]
                            if offsets == list(
                                range(low, low + len(offsets))
                            ):
                                row = _VAR_WIDE
                    rows.append(row)
                else:  # a vector immediate, hoisted out of the loop
                    rows.append(_IMMEDIATE)
        return rows


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


#: Heap entry tiers, cheapest first. A bitset entry caps the score from
#: round bitsets alone, a bound entry from the auxiliary graph's cached
#: bound, and an exact entry carries the score after elimination. Each
#: cap is at least the next tier's; entries order by rank, then the
#: tie-break, then tier (see ``_run_incremental``).
_BITSET = 0
_BOUND = 1
_EXACT = 2


class _AuxGraph:
    """One candidate's auxiliary graph, cached for its grouping round.

    ``cands`` are the candidates that share a pack type with the owner
    and do not conflict with it, ``sids`` their statement bitsets, and
    ``mask`` is the bitset of those still live. The matching nodes are
    numbered in canonical order (the *local rank*): node ``r`` belongs
    to ``cands[owner[r]]`` (-1 once that candidate left the round) and
    to the owner's slot ``slot_of[r]``, and ``counts`` is the live node
    count per owner slot.

    ``bound`` caps each slot's count after elimination, and is
    refreshed whenever candidates leave. Elimination leaves pairwise
    non-conflicting candidates, and two candidates that share a
    statement conflict, so the candidates surviving in one slot are
    statement-disjoint. ``caps[slot]`` is ``(multiplicity, lanes)``:
    the most positions one candidate holds the slot's type at, and the
    type's lane count, which is every holder's statement count. So at
    most ``|union of the slot's live candidates' sids| // lanes``
    candidates survive there, each with at most ``multiplicity`` nodes.
    """

    __slots__ = (
        "mask", "cands", "sids", "owner", "slot_of", "counts", "caps",
        "bound",
    )

    def __init__(
        self, mask, cands, sids, owner, slot_of, counts, caps, unions
    ):
        self.mask = mask
        self.cands = cands
        self.sids = sids
        self.owner = owner
        self.slot_of = slot_of
        self.counts = counts
        self.caps = caps
        self._set_bound(unions)

    def _set_bound(self, unions: List[int]) -> None:
        """``bound`` from each slot's union of live statement bits."""
        self.bound = [
            min(count_, mult * (union.bit_count() // lanes))
            for count_, union, (mult, lanes) in zip(
                self.counts, unions, self.caps
            )
        ]

    def buckets(self) -> List[List[int]]:
        """Each candidate's live node ranks, ascending."""
        buckets: List[List[int]] = [[] for _ in self.cands]
        for rank, k in enumerate(self.owner):
            if k >= 0:
                buckets[k].append(rank)
        return buckets

    def drop(self, live: int) -> None:
        """Remove the nodes of candidates missing from ``live`` and
        refresh ``bound``."""
        gone = [not (live >> cand) & 1 for cand in self.cands]
        owner = self.owner
        counts = self.counts
        slot_of = self.slot_of
        sids = self.sids
        unions = [0] * len(counts)
        for rank, k in enumerate(owner):
            if k >= 0:
                if gone[k]:
                    owner[rank] = -1
                    counts[slot_of[rank]] -= 1
                else:
                    unions[slot_of[rank]] |= sids[k]
        self.mask &= live
        self._set_bound(unions)


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
        node_budget: Optional[int] = None,
        on_diagnostic: Optional[Callable[[Diagnostic], None]] = None,
    ):
        choose("decision mode", DECISION_MODES, decision_mode)
        self._run_engine = GROUPING_ENGINES[
            choose("grouping engine", GROUPING_ENGINES, engine)
        ]
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
        n = len(self.candidates)
        with span("slp.vp_graph"):
            self.vp = VariablePackGraph(self.candidates, deps)
        # Pack data are id tuples over the block's operand table, decoded
        # to keys only where they leave the round (``decided_packs`` and
        # the merged groups of ``run``). Per-round pack type ids
        # (``tid``): indices into the VP graph's sorted ``pack_types``,
        # so tid order is pack order. Each candidate keeps its distinct
        # tids ascending (its *slots*), the multiplicity of each and its
        # target slot; ``_holders[t]`` is the bitset of candidates
        # holding type ``t``. ``_type_costs[t]`` is type ``t``'s
        # ``(saving, build, store build, adjacency, all memory)``, from
        # one classification pass per round; ``_sid_bits``,
        # ``_type_sids[t]`` (the statements of type ``t``'s holders),
        # ``_max_mult[t]`` (the most positions one candidate holds type
        # ``t`` at) and ``_lanes[t]`` feed the heap bounds.
        self.operands = deps.operands
        self.cost = cost_model or PackCostModel(decl_of, penalty_context)
        pack_types = self.vp.pack_types
        type_costs = self._type_costs = self.cost.classify_types(
            pack_types, self.operands
        )
        n_types = len(pack_types)
        self._lanes: List[int] = [len(data) for data in pack_types]
        holders = self._holders = [0] * n_types
        max_mult = self._max_mult = [1] * n_types
        type_sids = self._type_sids = [0] * n_types
        types_of: List[Tuple[int, ...]] = []
        own_of: List[List[int]] = []
        target_of: List[int] = []
        adjacency: List[int] = []
        sid_bits_of: List[int] = []
        # A candidate's two units (``CandidateGroup.left/right``), each
        # named by its first statement id — a round's units are
        # statement-disjoint (``vp.unit_candidates`` has each unit's
        # candidates).
        units_of: List[Tuple[int, int]] = []
        # The reuse-independent score terms, in cost units: the merge's
        # saved ALU work (one per isomorphism signature) plus one wide
        # access per all-memory pack position.
        static_bonus: List[int] = []
        # Per type, the adjacency and the wide access one position of it
        # adds; per unit, its statement bits and, for a left unit, its
        # merge's ALU saving.
        adjacency_of = [row[3] for row in type_costs]
        memory_of = [COST_SCALE if row[4] else 0 for row in type_costs]
        unit_bits: Dict[int, int] = {}
        unit_saving: Dict[int, int] = {}
        op_savings: Dict[tuple, int] = {}
        for index, (candidate, tids) in enumerate(
            zip(self.candidates, self.vp.tids)
        ):
            left, right = candidate.left, candidate.right
            u, v = left.sids[0], right.sids[0]
            saving = unit_saving.get(u)
            if saving is None:
                unit_bits[u] = sum([1 << sid for sid in left.sids])
                saving = op_savings.get(left.signature)
                if saving is None:
                    saving = op_savings[left.signature] = cost_units(
                        candidate_op_saving(candidate)
                    )
                unit_saving[u] = saving
            right_bits = unit_bits.get(v)
            if right_bits is None:
                right_bits = unit_bits[v] = sum(
                    [1 << sid for sid in right.sids]
                )
            sids = unit_bits[u] | right_bits
            bit = 1 << index
            types = tuple(sorted(set(tids)))
            if len(types) == len(tids):
                own = [1] * len(types)
            else:
                own = [tids.count(tid) for tid in types]
                for tid, mult in zip(types, own):
                    if mult > max_mult[tid]:
                        max_mult[tid] = mult
            for tid in types:
                holders[tid] |= bit
                type_sids[tid] |= sids
            memory = 0
            adjacent = 0
            for tid in tids:
                memory += memory_of[tid]
                adjacent += adjacency_of[tid]
            types_of.append(types)
            own_of.append(own)
            target_of.append(types.index(tids[0]))
            adjacency.append(adjacent)
            sid_bits_of.append(sids)
            units_of.append((u, v))
            static_bonus.append(saving + memory)
        self._types = types_of
        self._own_list = own_of
        self._target_slot = target_of
        self.adjacency = adjacency
        self._sid_bits = sid_bits_of
        self._units_of = units_of
        self._static_bonus = static_bonus
        # Each candidate's conflicts that no shared unit explains (the
        # dependence cycles): elimination lists these explicitly and
        # counts the rest from per-unit loads.
        conflict_bits = self.vp.conflict_bits
        unit_cands = self.vp.unit_candidates
        self._extra_conflicts: List[int] = [
            conflict_bits(index) & ~(unit_cands[u] | unit_cands[v])
            for index, (u, v) in enumerate(units_of)
        ]
        # Heap ranks: a candidate's score has denominator dividing
        # ``COST_SCALE * slots``, so scaling by the lcm of those over the
        # round turns every score (and every bound) into an exactly
        # comparable int.
        rank_scale = lcm(*{COST_SCALE * len(types) for types in self._types})
        self._rank_scale: List[int] = [
            rank_scale // (COST_SCALE * len(types)) for types in self._types
        ]
        self._aux: List[Optional[_AuxGraph]] = [None] * n
        self._cost_rows: List[Optional[tuple]] = [None] * n
        # Multiset of decided groups' packs by tid, maintained by
        # ``_commit`` (the public ``weight``/``score`` entry points
        # instead rebuild it from ``decided_packs`` so direct mutation
        # stays visible).
        self._decided_counts: List[int] = [0] * n_types
        # Bitset of the candidates still in the round.
        self.active = (1 << n) - 1
        self.decided: List[int] = []
        self.decided_packs: List[PackData] = []
        self._decl_of = decl_of
        self._penalty_context = penalty_context
        self.decision_mode = decision_mode
        self.node_budget = node_budget
        self.on_diagnostic = on_diagnostic

    # -- cached static pack costs ----------------------------------------------

    def _cost_row(self, index: int) -> Tuple[List[int], List[int], int, int]:
        """Per-slot reuse savings and materialization penalties for one
        candidate, plus its target slot and the target's store penalty,
        in cost units — gathered once from the round's per-type
        classification so score recomputations are pure int arithmetic
        over slots."""
        row = self._cost_rows[index]
        if row is None:
            costs = [self._type_costs[tid] for tid in self._types[index]]
            target = self._target_slot[index]
            row = self._cost_rows[index] = (
                [cost[0] for cost in costs],
                [cost[1] for cost in costs],
                target,
                costs[target][2],
            )
        return row

    # -- weight computation (Figure 10 lines 22–38) ---------------------------

    @staticmethod
    def _eliminate_over_units(
        buckets: Sequence[Sequence[int]],
        units: Sequence[Tuple[int, int]],
        extra: Sequence[Sequence[int]],
    ) -> List[int]:
        """Greedy conflict elimination over an auxiliary graph, at
        candidate granularity: every node of one auxiliary candidate has
        the *same* neighbor set (all nodes of the candidates conflicting
        with it), hence the same degree. ``buckets[k]`` holds candidate
        ``k``'s node ranks (distinct ints in canonical node order),
        ascending; ``units[k]`` is its pair of units, no two candidates
        holding the same pair; ``extra[k]`` lists the candidates
        conflicting with it without sharing a unit. Candidates sharing a
        unit always conflict. Each step removes the last node of the
        bucket with the largest ``(degree, last rank)`` —
        :func:`eliminate_conflicts` over the expanded node graph, victim
        for victim. Returns the victims' ranks in removal order; the
        inputs are not modified.

        The degree comes from unit incidence lists, with no neighbor
        lists built: with ``load[u]`` the live nodes of the candidates at
        unit ``u``, candidate ``k`` at ``(u, v)`` has degree ``load[u] +
        load[v] - 2 * size[k]`` plus its extra neighbors' sizes. Each
        candidate's rule is packed into one int key, ``degree << shift |
        last rank`` with ``shift`` the ranks' bit width, so the victim is
        a builtin ``max`` over the keys and its rank the key's low bits;
        removing a node lowers the keys of the candidates at the victim's
        two units and of its extra neighbors by one degree unit. (A
        degree-bucket queue would not help: those updates already cost as
        much as the scan.) Small local ranks keep the keys single-digit
        ints.
        """
        sizes = [len(bucket) for bucket in buckets]
        tops = list(sizes)
        at: Dict[int, List[int]] = {}
        load: Dict[int, int] = {}
        member: Dict[int, int] = {}
        for k, bucket in enumerate(buckets):
            if bucket:
                for u in units[k]:
                    at.setdefault(u, []).append(k)
                    load[u] = load.get(u, 0) + sizes[k]
                for rank in bucket:
                    member[rank] = k
        shift = max((b[-1] for b in buckets if b), default=0).bit_length()
        one = 1 << shift
        keys = []
        for k, bucket in enumerate(buckets):
            if bucket:
                u, v = units[k]
                degree = load[u] + load[v] - 2 * sizes[k]
                for x in extra[k]:
                    degree += sizes[x]
                keys.append(degree << shift | bucket[-1])
            else:
                keys.append(0)
        victims: List[int] = []
        while True:
            best = max(keys, default=0)
            if best < one:
                return victims
            rank = best & (one - 1)
            victims.append(rank)
            k = member[rank]
            top = tops[k] - 1
            tops[k] = top
            at_u = at[units[k][0]]
            at_v = at[units[k][1]]
            for x in at_u:
                keys[x] -= one
            for x in at_v:
                keys[x] -= one
            for x in extra[k]:
                keys[x] -= one
            # The victim's own degree is unchanged: reset its key, which
            # the loops above lowered twice. An emptied candidate leaves
            # its units' lists.
            if top:
                keys[k] = best - rank + buckets[k][top - 1]
            else:
                keys[k] = 0
                at_u.remove(k)
                at_v.remove(k)

    def _eliminate(self, aux: _AuxGraph) -> List[int]:
        """Per-slot node counts of ``aux`` after greedy elimination of
        its residual conflicts."""
        counts = list(aux.counts)
        mask = aux.mask
        if mask:
            cands = aux.cands
            units_of = self._units_of
            extra_of = self._extra_conflicts
            extra: List[Sequence[int]] = []
            local: Optional[Dict[int, int]] = None
            for cand in cands:
                bits = extra_of[cand] & mask
                if not bits:
                    extra.append(())
                    continue
                if local is None:
                    local = {c: k for k, c in enumerate(cands)}
                row = []
                while bits:
                    low = bits & -bits
                    row.append(local[low.bit_length() - 1])
                    bits ^= low
                extra.append(row)
            victims = self._eliminate_over_units(
                aux.buckets(), [units_of[cand] for cand in cands], extra
            )
            # With no residual conflicts (the common case) greedy
            # elimination keeps every node: the collected counts stand.
            if victims:
                count("grouping.elimination_victims", len(victims))
                slot_of = aux.slot_of
                for victim in victims:
                    counts[slot_of[victim]] -= 1
        return counts

    def _bitset_bound(self, index: int) -> List[int]:
        """Per-slot caps on what survives elimination in the candidate's
        auxiliary graph, from the round's bitsets alone: no graph is
        built. A slot holds at most ``max_mult`` nodes of each live,
        non-conflicting holder of its type, and (by the statement
        disjointness behind ``_AuxGraph.bound``) keeps at most ``max_mult``
        nodes per ``lanes`` statements of the type's holders outside the
        candidate — a superset of the graph's live union, since a
        candidate sharing a statement with the owner conflicts with it.
        Each cap is therefore at least the graph's ``bound``."""
        allowed = self.active & ~(self.vp.conflict_bits(index) | 1 << index)
        outside = ~self._sid_bits[index]
        holders = self._holders
        type_sids = self._type_sids
        max_mult = self._max_mult
        lanes = self._lanes
        return [
            max_mult[tid]
            * min(
                (holders[tid] & allowed).bit_count(),
                (type_sids[tid] & outside).bit_count() // lanes[tid],
            )
            for tid in self._types[index]
        ]

    def _aux_graph(self, index: int) -> _AuxGraph:
        """The candidate's auxiliary graph over the live candidates:
        built on first use in the round, then filtered as candidates
        leave."""
        live = self.active
        aux = self._aux[index]
        if aux is not None:
            if aux.mask & ~live:
                aux.drop(live)
            return aux
        count("grouping.aux_graphs")
        # Walk the owner's types in tid order and each type's allowed
        # holders in candidate order, one node per position holding the
        # type, so local ranks follow the canonical order.
        allowed = live & ~(self.vp.conflict_bits(index) | 1 << index)
        holders = self._holders
        max_mult = self._max_mult
        tids_of = self.vp.tids
        sid_bits = self._sid_bits
        union = 0
        cands: List[int] = []
        sids: List[int] = []
        owner: List[int] = []
        slot_of: List[int] = []
        counts: List[int] = []
        caps: List[Tuple[int, int]] = []
        unions: List[int] = []
        local: Dict[int, int] = {}
        for slot, tid in enumerate(self._types[index]):
            union |= holders[tid]
            before = len(slot_of)
            covered = 0
            for cand in bit_indices(holders[tid] & allowed):
                k = local.get(cand)
                if k is None:
                    k = local[cand] = len(cands)
                    cands.append(cand)
                    sids.append(sid_bits[cand])
                if max_mult[tid] == 1:
                    owner.append(k)
                    slot_of.append(slot)
                else:
                    nodes = tids_of[cand].count(tid)
                    owner += [k] * nodes
                    slot_of += [slot] * nodes
                covered |= sid_bits[cand]
            counts.append(len(slot_of) - before)
            caps.append((max_mult[tid], self._lanes[tid]))
            unions.append(covered)
        aux = self._aux[index] = _AuxGraph(
            union & allowed, cands, sids, owner, slot_of, counts, caps,
            unions,
        )
        return aux

    def _counts_list(
        self,
        index: int,
        decided_counts: List[int],
        tier: int = _EXACT,
    ) -> List[int]:
        """Occurrence counts of the candidate's pack types — across the
        surviving auxiliary-graph nodes, the decided groups' packs
        (``decided_counts``, by tid) and the candidate itself — as a
        list aligned with the candidate's slots (``self._types[index]``).

        ``tier`` picks how the auxiliary-graph survivors are counted:
        ``_EXACT`` runs the residual-conflict elimination; ``_BOUND``
        takes the graph's cached statement-disjointness ``bound`` and
        ``_BITSET`` the cheaper :meth:`_bitset_bound`, which builds no
        graph. Each yields per-slot counts at least the next tier's —
        upper bounds the incremental engine uses for lazily-refined heap
        entries (both weight and score are monotone nondecreasing in
        every count).
        """
        if tier == _EXACT:
            counts = self._eliminate(self._aux_graph(index))
        elif tier == _BOUND:
            counts = list(self._aux_graph(index).bound)
        else:
            counts = self._bitset_bound(index)
        own = self._own_list[index]
        for slot, tid in enumerate(self._types[index]):
            counts[slot] += own[slot] + decided_counts[tid]
        return counts

    def _decided_multiset(self) -> List[int]:
        """``decided_packs`` as a multiset by tid — rebuilt fresh so
        callers of the public entry points see direct mutations of the
        list."""
        decided = [0] * len(self.vp.pack_types)
        tid_of = self.vp.tid_of
        for data in self.decided_packs:
            tid = tid_of.get(self.operands.encode(data))
            if tid is not None:
                decided[tid] += 1
        return decided

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

    def _score_units(self, index: int, counts: List[int]) -> int:
        """The score's numerator, in cost units: the candidate's score
        is this over ``COST_SCALE * len(counts)``."""
        savings, builds, target, store = self._cost_row(index)
        own_counts = self._own_list[index]
        # The merge's inherent benefits: one lane's worth of ALU work
        # disappears, and each all-memory position collapses per-lane
        # scalar accesses into one wide access (the gather/scatter
        # penalties below are charged relative to that baseline). The
        # result superword is always written back; a non-contiguous
        # target means a scatter either way.
        total = self._static_bonus[index] - store
        for slot, count_ in enumerate(counts):
            # Each extra occurrence saves one materialization of this
            # pack — valued at what that materialization would cost.
            total += (count_ - 1) * savings[slot]
            if count_ <= own_counts[slot] and (
                slot != target or own_counts[slot] > 1
            ):
                # A source pack no other (non-conflicting) group defines
                # or uses must be materialized from scratch; so must a
                # read-modify-write target nobody else produces (it is
                # gathered before being overwritten).
                total -= builds[slot]
        return total

    def _score_from_list(self, index: int, counts: List[int]) -> Fraction:
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
        return Fraction(
            self._score_units(index, counts), COST_SCALE * len(counts)
        )

    # -- whole-selection objective (shared with repro.slp.optimal) --------------

    def selection_objective(self, indices) -> Fraction:
        """The packing value of a pairwise non-conflicting selection, in
        vector-op units: the additive analog of the decision score
        (:meth:`_score_from_list`; ``repro.slp.optimal`` has the exact
        definition).  Evaluated in
        ascending index order; the per-candidate marginal procedure is
        order-independent, so this is a well-defined set function — the
        quantity the optimal engine maximizes and the optimality-gap
        benchmark reports for every engine."""
        seen: Set[int] = set()
        status: Dict[int, int] = {}
        total = 0
        for index in sorted(indices):
            total += self._objective_gain(index, seen, status)
        return Fraction(total, COST_SCALE)

    def _objective_gain(self, index: int, seen, status) -> int:
        """Marginal objective of adding ``index``, in cost units;
        mutates the caller's set of ``seen`` pack tids and their
        build/produce ``status`` map (0 absent, 1 built as a source, 2
        produced as a target)."""
        savings, builds, target, store = self._cost_row(index)
        own = self._own_list[index]
        gain = self._static_bonus[index] - store
        rmw = own[target] > 1
        for slot, tid in enumerate(self._types[index]):
            gain += own[slot] * savings[slot]
            if tid not in seen:
                seen.add(tid)
                gain -= savings[slot]
            state = status.get(tid, 0)
            if slot == target:
                if state == 1:
                    gain += builds[slot]
                if rmw:
                    gain -= builds[slot]
                status[tid] = 2
            elif state == 0:
                gain -= builds[slot]
                status[tid] = 1
        return gain

    # -- decision loop (Figure 10 lines 20–43) ----------------------------------

    def run(self) -> Tuple[List[GroupNode], List[GroupNode], GroupingTrace]:
        """Returns (decided groups, leftover units, trace)."""
        trace = self._run_engine(self)
        trace.engine = self.engine
        if trace.objective is None:
            trace.objective = self.selection_objective(self.decided)

        decided_groups = [self._merged(i) for i in self.decided]
        taken = set()
        for group in decided_groups:
            taken |= group.sid_set
        leftovers = [u for u in self.units if not (u.sid_set & taken)]
        return decided_groups, leftovers, trace

    def _merged(self, index: int) -> GroupNode:
        """``candidates[index].merged()``, its packs decoded from the VP
        graph's id tuples instead of re-sorted."""
        left, right = self.candidates[index].left, self.candidates[index].right
        decode = self.operands.decode
        return GroupNode(
            tuple(sorted(left.sids + right.sids)),
            left.signature,
            tuple([decode(data) for data in self.vp.packs_of(index)]),
            left.element_bits,
        )

    def _commit(
        self,
        best: int,
        trace: GroupingTrace,
        weight: Fraction,
        score: Optional[Fraction] = None,
        picked_by: str = "score",
        runners: Sequence[dict] = (),
        proven_optimal: bool = False,
    ) -> List[int]:
        """Record a decision and remove the chosen candidate plus
        everything conflicting with it from both graphs. Returns the
        indices removed, ascending."""
        candidate = self.candidates[best]
        trace.decisions.append((candidate, weight))
        self.decided.append(best)
        decode = self.operands.decode
        self.decided_packs.extend(
            decode(data) for data in self.vp.packs_of(best)
        )
        decided_counts = self._decided_counts
        for tid in self.vp.tids[best]:
            decided_counts[tid] += 1
        count("grouping.decisions")
        gone = (self.vp.conflict_bits(best) | 1 << best) & self.active
        self.active &= ~gone
        removed = bit_indices(gone)
        for index in removed:
            self.vp.remove_candidate(index)
            self._aux[index] = None
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
        return removed

    def _dirty_mask(self, best: int, removed: Sequence[int]) -> int:
        """The dirty set of a commit (see ``_run_incremental``) as a
        bitset over the still-active candidates: every holder of one of
        ``best``'s pack types, plus every holder of a removed
        conflictor's type that does not conflict with that conflictor."""
        holders = self._holders
        dirty = 0
        for tid in self._types[best]:
            dirty |= holders[tid]
        for r in removed:
            if r == best:
                continue
            reach = 0
            for tid in self._types[r]:
                reach |= holders[tid]
            dirty |= reach & ~self.vp.conflict_bits(r)
        return dirty & self.active

    def _trace_runners(self, best: int, weight_of, score_of) -> List[dict]:
        """The top-2 losing SG edges at commit time, for the trace.

        Uses the same accessors the engines rank with, so for the
        incremental engine this only fills memo caches with values the
        reference loop would have computed anyway — decisions are
        unaffected by tracing. Candidates are in key order (see
        :func:`find_candidates`), so the smaller index is the smaller
        key.
        """
        block = TRACE.current("block")
        others = sorted(
            (i for i in bit_indices(self.active) if i != best),
            key=lambda i: (score_of(i), self.adjacency[i], -i),
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

    def _heap_rank(
        self, index: int, counts: List[int], cost_aware: bool
    ) -> int:
        """The decision value of ``counts`` — the score, or the weight
        in weight-only mode — scaled to an int comparable across the
        round's candidates (see ``_rank_scale``)."""
        if cost_aware:
            units = self._score_units(index, counts)
        else:
            units = (sum(counts) - len(counts)) * COST_SCALE
        return units * self._rank_scale[index]

    def _run_incremental(self) -> GroupingTrace:
        """The memoizing decision loop (see module docstring).

        A heap entry is ``(-rank, -adjacency, index, tier,
        generation)``: Python's heapq is a min-heap, so ``max`` by
        (score, adjacency, smallest candidate key) becomes ``min`` by
        that tuple — the candidates are in key order (see
        :func:`find_candidates`), so the index stands for the key.
        The opening heap holds every candidate's bitset-bound entry,
        ranked inline by ``bitset_entry`` and heapified once; a dirtied
        candidate without an auxiliary graph is re-entered the same
        way. The heap pops its entries in one total order, so how they
        were put in does not change what surfaces.
        """
        trace = GroupingTrace([])
        cost_aware = self.decision_mode == "cost-aware"

        # ``results`` holds the (weight, score, heap rank) of clean
        # candidates and is dropped on invalidation; ``previous``
        # survives it, so a dirty recomputation whose counts come out
        # unchanged reuses the old values instead of recomputing them.
        results: Dict[int, Tuple[Fraction, Fraction, int]] = {}
        previous: Dict[int, Tuple[List[int], tuple]] = {}
        generation: Dict[int, int] = {}
        heap: List[tuple] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        decided_counts = self._decided_counts
        adjacency = self.adjacency
        aux_of = self._aux
        # What ``_bitset_bound`` and ``_score_units`` read, bound once.
        conflict_bits = self.vp.conflict_bits
        holders = self._holders
        type_sids = self._type_sids
        max_mult = self._max_mult
        lanes = self._lanes
        sid_bits = self._sid_bits
        types_of = self._types
        own_of = self._own_list
        target_of = self._target_slot
        static_bonus = self._static_bonus
        type_costs = self._type_costs
        rank_scale = self._rank_scale

        def bitset_entry(index: int, active: int, stamp: int) -> tuple:
            # The candidate's bitset-tier heap entry. Its rank is
            # ``_heap_rank`` of ``_counts_list(index, decided_counts,
            # _BITSET)`` with ``self.active == active``: each slot's
            # count is its bitset bound, the candidate's own
            # multiplicity and the decided packs of its type.
            allowed = active & ~(conflict_bits(index) | 1 << index)
            outside = ~sid_bits[index]
            own = own_of[index]
            types = types_of[index]
            target = target_of[index]
            total = 0
            for slot, tid in enumerate(types):
                free = (holders[tid] & allowed).bit_count()
                room = (type_sids[tid] & outside).bit_count() // lanes[tid]
                extra = decided_counts[tid] + max_mult[tid] * (
                    free if free < room else room
                )
                mult = own[slot]
                if cost_aware:
                    cost = type_costs[tid]
                    total += (mult + extra - 1) * cost[0]
                    if not extra and (slot != target or mult > 1):
                        total -= cost[1]
                else:
                    total += mult + extra - 1
            if cost_aware:
                total += static_bonus[index] - type_costs[types[target]][2]
            else:
                total *= COST_SCALE
            return (
                -total * rank_scale[index],
                -adjacency[index],
                index,
                _BITSET,
                stamp,
            )

        def evaluate(index: int) -> Tuple[Fraction, Fraction, int]:
            got = results.get(index)
            if got is None:
                count("grouping.scores_recomputed")
                counts = self._counts_list(index, decided_counts)
                old = previous.get(index)
                if old is not None and old[0] == counts:
                    got = old[1]
                else:
                    weight = self._weight_from_list(counts)
                    score = (
                        self._score_from_list(index, counts)
                        if cost_aware
                        else weight
                    )
                    got = (
                        weight,
                        score,
                        self._heap_rank(index, counts, cost_aware),
                    )
                    previous[index] = (counts, got)
                results[index] = got
            else:
                count("grouping.score_cache_hits")
            return got

        def weight_of(index: int) -> Fraction:
            return evaluate(index)[0]

        def score_of(index: int) -> Fraction:
            return evaluate(index)[1]

        def push(index: int, tier: int) -> None:
            # Stale entries are recognized by their generation stamp and
            # skipped at pop time.
            #
            # Entries come in three tiers. An *exact* entry carries the
            # true score. A *bound* entry carries the score of the
            # auxiliary graph's cached per-slot bounds, and a *bitset*
            # entry that of the round-bitset bounds, which need no
            # graph; each can only overestimate the next tier (score
            # and weight are monotone nondecreasing in the per-slot
            # counts, and each bound caps its slot's survivors of
            # elimination). The tier sorts after the tie-break:
            # adjacency and index are constants of the candidate, so an
            # entry still sorts at or before the candidate's true
            # position, and is refined one tier whenever it reaches the
            # top — but a bound that ties an exact entry's score and
            # loses its tie-break waits below it. Graphs are therefore
            # built, and elimination run, only for candidates that
            # actually contend for selection.
            got = results.get(index)
            if got is None and tier == _EXACT:
                got = evaluate(index)
            if got is not None:
                rank = got[2]
                tier = _EXACT
            else:
                rank = self._heap_rank(
                    index,
                    self._counts_list(index, decided_counts, tier),
                    cost_aware,
                )
            heappush(
                heap,
                (
                    -rank,
                    -adjacency[index],
                    index,
                    tier,
                    generation.get(index, 0),
                ),
            )

        # The opening entries: the bitset bound, or the graph's bound
        # for a candidate whose graph a caller already built.
        active = self.active
        opening = bit_indices(active)
        if opening:
            count("grouping.score_bounds", len(opening))
        for index in opening:
            if aux_of[index] is None:
                heap.append(bitset_entry(index, active, 0))
        heapq.heapify(heap)
        for index in opening:
            if aux_of[index] is not None:
                push(index, _BOUND)

        while self.active:
            while heap:
                entry = heap[0]
                index = entry[2]
                if (
                    not (self.active >> index) & 1
                    or entry[4] != generation.get(index, 0)
                ):
                    heappop(heap)
                    continue
                if entry[3] != _EXACT:
                    # A bound on top: refine it one tier. Every other
                    # entry's true score lies at or below its heap
                    # position, so the first exact entry to surface is
                    # the true argmax (ties impossible across candidates
                    # — indices are unique).
                    heappop(heap)
                    push(index, entry[3] + 1)
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
                # the cost gate. A candidate without a cached score is
                # scored exactly only if its bitset bound leaves room
                # for reuse: the weight is monotone in the counts, which
                # the bound caps.
                with_reuse = []
                for i in bit_indices(self.active):
                    if i not in results:
                        capped = self._counts_list(i, decided_counts, _BITSET)
                        if sum(capped) <= len(capped):
                            continue
                    if weight_of(i) > 0:
                        with_reuse.append(i)
                if not with_reuse:
                    break
                best = max(
                    with_reuse,
                    key=lambda i: (
                        weight_of(i),
                        score_of(i),
                        adjacency[i],
                        -i,
                    ),
                )
                picked_by = "reuse"
            runners = (
                self._trace_runners(best, weight_of, score_of)
                if TRACE.enabled
                else []
            )
            removed = self._commit(
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
            # Dirty candidates lose their caches and get a fresh bound
            # entry: the graph's bound if it has a graph, else the
            # bitset bound. Everything else keeps its cached score and
            # live heap entry.
            dirty = bit_indices(self._dirty_mask(best, removed))
            if dirty:
                count("grouping.score_bounds", len(dirty))
            active = self.active
            for index in dirty:
                results.pop(index, None)
                stamp = generation[index] = generation.get(index, 0) + 1
                if aux_of[index] is None:
                    heappush(heap, bitset_entry(index, active, stamp))
                else:
                    push(index, _BOUND)
        return trace

    def _run_reference(self) -> GroupingTrace:
        """The non-memoizing loop: every iteration recomputes every
        active candidate's score, conflict elimination included, from
        the round's shared auxiliary graphs. Kept as the differential
        oracle of the incremental engine's score caches, dirty sets and
        heap; the auxiliary graphs themselves are checked against the
        node-level :func:`eliminate_conflicts` in the tests."""
        trace = GroupingTrace([])
        cost_aware = self.decision_mode == "cost-aware"
        decided_counts = self._decided_counts
        keys = [candidate.key() for candidate in self.candidates]
        while self.active:
            active = bit_indices(self.active)
            weights: Dict[int, Fraction] = {}
            scores: Dict[int, Fraction] = {}
            for i in active:
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
                active,
                key=lambda i: (
                    scores[i],
                    self.adjacency[i],
                    _NegatedKey(keys[i]),
                ),
            )
            picked_by = "score"
            if cost_aware and scores[best] < 0:
                with_reuse = [i for i in active if weights[i] > 0]
                if not with_reuse:
                    break
                best = max(
                    with_reuse,
                    key=lambda i: (
                        weights[i],
                        scores[i],
                        self.adjacency[i],
                        _NegatedKey(keys[i]),
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


def _run_optimal(grouping: BasicGrouping) -> GroupingTrace:
    from .optimal import run_optimal

    return run_optimal(grouping)


#: The grouping decision loops by name. Each takes the constructed
#: :class:`BasicGrouping`, decides through ``BasicGrouping._commit`` and
#: returns the round's :class:`GroupingTrace`. ``incremental`` and
#: ``reference`` must emit identical plans (the fuzzer checks it);
#: ``optimal`` may pick different, better-scoring groups.
GROUPING_ENGINES: Dict[str, Callable[[BasicGrouping], GroupingTrace]] = {
    "incremental": BasicGrouping._run_incremental,
    "reference": BasicGrouping._run_reference,
    "optimal": _run_optimal,
}


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
