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
candidate's auxiliary graph, built once per round and filtered as
candidates leave. The reference engine is therefore the oracle of the
incremental engine's caches and dirty sets, not of the auxiliary
graphs; the tests check those against the node-level
:func:`eliminate_conflicts` after every commit.

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
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import Diagnostic, OptionsError, choose
from ..analysis import DependenceGraph
from ..analysis.operands import KIND_CONST, KIND_REF, KIND_VAR
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
    if pack[0] == pack[-1]:  # sorted: all lanes equal
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
    if pack[0] == pack[-1]:
        return 0.0  # splat (the pack is sorted): one broadcast
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
    if pack[0] == pack[-1]:
        return 0.5  # a broadcast (the pack is sorted: all lanes equal)
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


class PackCostModel:
    """Memoized pack-cost queries for one ``(decl_of, penalty_context)``
    pair.

    ``saving`` / ``build`` return :func:`pack_reuse_saving` /
    :func:`pack_materialization_penalty` as ints in units of
    ``1 / COST_SCALE``; ``adjacency`` is :func:`pack_adjacency_score`.
    All depend only on the pack data once the declaration lookup and
    penalty context are fixed, so one cache serves every grouping round
    of a block — the rounds re-derive wider packs, but any pack they
    share with an earlier round is a hit. Contiguity is decided from
    each array reference's flattened ``(coeffs, const)``, cached per
    reference: a wider pack in a later round reuses its lanes' entries.
    """

    __slots__ = (
        "decl_of", "context", "_saving", "_build", "_adjacency", "_contig",
        "_flat",
    )

    def __init__(
        self,
        decl_of: Optional[DeclLookup] = None,
        context: Optional[PenaltyContext] = None,
    ):
        self.decl_of = decl_of
        self.context = context
        self._saving: Dict[PackData, int] = {}
        self._build: Dict[Tuple[PackData, bool], int] = {}
        self._adjacency: Dict[PackData, int] = {}
        self._contig: Dict[PackData, bool] = {}
        self._flat: Dict[tuple, Optional[tuple]] = {}

    def _flattened(self, key) -> Optional[tuple]:
        """``(coeffs, const)`` of one array reference's row-major flat
        offset, or None when the shape is unknown — the per-lane step
        of :func:`pack_is_contiguous_memory`."""
        try:
            return self._flat[key]
        except KeyError:
            pass
        subscripts = key[2]
        decl = self.decl_of(key[1]) if self.decl_of is not None else None
        if decl is not None:
            shape = decl.shape
        elif len(subscripts) == 1:
            shape = (0,)
        else:
            self._flat[key] = None
            return None
        flat = Affine((), 0)
        for subscript, dim in zip(subscripts, shape):
            flat = flat * dim + subscript
        result = self._flat[key] = (flat.coeffs, flat.const)
        return result

    def contiguous(self, data: PackData) -> bool:
        """:func:`pack_is_contiguous_memory`: the lanes are one array's
        references with equal flattened coefficients whose constants
        form a consecutive run."""
        cached = self._contig.get(data)
        if cached is None:
            cached = self._contig[data] = self._contiguous(data)
        return cached

    def _contiguous(self, data: PackData) -> bool:
        array = data[0][1]
        for key in data:
            if key[0] != KIND_REF or key[1] != array:
                return False
        coeffs = None
        consts = []
        for key in data:
            flat = self._flattened(key)
            if flat is None:
                return False
            if coeffs is None:
                coeffs = flat[0]
            elif flat[0] != coeffs:
                return False
            consts.append(flat[1])
        consts.sort()
        return consts == list(range(consts[0], consts[0] + len(consts)))

    def saving(self, data: PackData) -> int:
        cached = self._saving.get(data)
        if cached is None:
            cached = self._saving[data] = cost_units(
                pack_reuse_saving(
                    data, self.decl_of, self.context,
                    contiguous=self.contiguous(data),
                )
            )
        else:
            count("grouping.pack_cost_cache_hits")
        return cached

    def build(self, data: PackData, is_store: bool = False) -> int:
        key = (data, is_store)
        cached = self._build.get(key)
        if cached is None:
            cached = self._build[key] = cost_units(
                pack_materialization_penalty(
                    data, self.decl_of, self.context, is_store=is_store,
                    contiguous=self.contiguous(data),
                )
            )
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


#: Heap entry flavours: at equal rank a bound entry pops first, so it is
#: refined before any exact entry it might tie with.
_BOUND = 0
_EXACT = 1


class _AuxGraph:
    """One candidate's auxiliary graph, cached for its grouping round.

    ``cands`` are the candidates that share a pack type with the owner
    and do not conflict with it; ``mask`` is the bitset of those still
    live. The matching nodes are numbered in canonical order (the
    *local rank*): node ``r`` belongs to ``cands[owner[r]]`` (-1 once
    that candidate left the round) and to the owner's slot
    ``slot_of[r]``, and ``counts`` is the live node count per owner
    slot. ``neighbors[k]`` lists the local indices conflicting with
    ``k``; it is built on the first elimination and keeps the entries
    of candidates that left, whose buckets are then empty.
    """

    __slots__ = ("mask", "cands", "owner", "slot_of", "counts", "neighbors")

    def __init__(self, mask, cands, owner, slot_of, counts):
        self.mask = mask
        self.cands = cands
        self.owner = owner
        self.slot_of = slot_of
        self.counts = counts
        self.neighbors: Optional[List[List[int]]] = None

    def buckets(self) -> List[List[int]]:
        """Each candidate's live node ranks, ascending."""
        buckets: List[List[int]] = [[] for _ in self.cands]
        for rank, k in enumerate(self.owner):
            if k >= 0:
                buckets[k].append(rank)
        return buckets

    def neighbor_lists(
        self, conflicts_of: Callable[[int], List[int]]
    ) -> List[List[int]]:
        """``neighbors``, built on first use from each candidate's list
        of conflicting candidates."""
        neighbors = self.neighbors
        if neighbors is None:
            local = {cand: k for k, cand in enumerate(self.cands)}
            neighbors = self.neighbors = [
                [local[other] for other in local.keys() & conflicts_of(cand)]
                for cand in self.cands
            ]
        return neighbors

    def drop(self, live: int) -> None:
        """Remove the nodes of candidates missing from ``live``."""
        gone = [not (live >> cand) & 1 for cand in self.cands]
        owner = self.owner
        counts = self.counts
        slot_of = self.slot_of
        for rank, k in enumerate(owner):
            if k >= 0 and gone[k]:
                owner[rank] = -1
                counts[slot_of[rank]] -= 1
        self.mask &= live


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
        self._keys = [c.key() for c in self.candidates]
        with span("slp.vp_graph"):
            self.vp = VariablePackGraph(self.candidates, deps)
        # Per-round pack type ids (``tid``): indices into the VP graph's
        # sorted ``pack_types``, so tid order is pack order. Each
        # candidate keeps its distinct tids ascending (its *slots*), the
        # multiplicity of each and its target slot; ``_holders[t]`` is
        # the bitset of candidates holding type ``t``. The score loops
        # index these instead of hashing pack tuples (whose Affine
        # subscripts hash and compare slowly).
        self.cost = cost_model or PackCostModel(decl_of, penalty_context)
        type_adjacency = [
            self.cost.adjacency(data) for data in self.vp.pack_types
        ]
        n_types = len(type_adjacency)
        self._types: List[Tuple[int, ...]] = []
        self._own_list: List[List[int]] = []
        self._target_slot: List[int] = []
        self._holders: List[int] = [0] * n_types
        self.adjacency: List[int] = []
        for index in range(n):
            nodes = self.vp.nodes_of_candidate(index)
            own: Dict[int, int] = {}
            for node in nodes:
                own[node.tid] = own.get(node.tid, 0) + 1
            types = tuple(sorted(own))
            self._types.append(types)
            self._own_list.append([own[tid] for tid in types])
            self._target_slot.append(types.index(nodes[0].tid))
            self.adjacency.append(
                sum(type_adjacency[node.tid] for node in nodes)
            )
            bit = 1 << index
            for tid in types:
                self._holders[tid] |= bit
        # Heap ranks: a candidate's score has denominator dividing
        # ``COST_SCALE * slots``, so scaling by the lcm of those over the
        # round turns every score (and every pre-elimination bound) into
        # an exactly comparable int.
        rank_scale = lcm(*{COST_SCALE * len(types) for types in self._types})
        self._rank_scale: List[int] = [
            rank_scale // (COST_SCALE * len(types)) for types in self._types
        ]
        self._aux: List[Optional[_AuxGraph]] = [None] * n
        self._conflict_lists: List[Optional[List[int]]] = [None] * n
        self._type_costs: List[Optional[Tuple[int, int]]] = [None] * n_types
        self._cost_rows: List[Optional[tuple]] = [None] * n
        self._static: List[Optional[int]] = [None] * n
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

    def _static_bonus(self, index: int) -> int:
        """The candidate's reuse-independent score terms, in cost units:
        the saved ALU work of the merge, and +1 per all-memory pack
        position."""
        bonus = self._static[index]
        if bonus is None:
            ref_positions = sum(
                1
                for data in self.vp.packs[index]
                if all(key[0] == KIND_REF for key in data)
            )
            bonus = self._static[index] = cost_units(
                candidate_op_saving(self.candidates[index])
            ) + ref_positions * COST_SCALE
        return bonus

    def _type_cost(self, tid: int) -> Tuple[int, int]:
        """``(saving, build)`` of one pack type, in cost units."""
        cost = self._type_costs[tid]
        if cost is None:
            data = self.vp.pack_types[tid]
            cost = self._type_costs[tid] = (
                self.cost.saving(data),
                self.cost.build(data),
            )
        return cost

    def _cost_row(self, index: int) -> Tuple[List[int], List[int], int, int]:
        """Per-slot reuse savings and materialization penalties for one
        candidate, plus its target slot and the target's store penalty,
        in cost units — computed once so score recomputations are pure
        int arithmetic over slots."""
        row = self._cost_rows[index]
        if row is None:
            costs = [self._type_cost(tid) for tid in self._types[index]]
            target = self._target_slot[index]
            store = self.cost.build(
                self.vp.pack_types[self._types[index][target]], is_store=True
            )
            row = self._cost_rows[index] = (
                [saving for saving, _ in costs],
                [build for _, build in costs],
                target,
                store,
            )
        return row

    # -- weight computation (Figure 10 lines 22–38) ---------------------------

    @staticmethod
    def _eliminate_aux_conflicts(
        buckets: Sequence[Sequence[int]],
        neighbors: Sequence[Sequence[int]],
    ) -> List[int]:
        """Greedy conflict elimination over an auxiliary graph, at
        candidate granularity: every node of one auxiliary candidate has
        the *same* neighbor set (all nodes of the candidates conflicting
        with it), hence the same degree. ``buckets[k]`` holds candidate
        ``k``'s node ranks (distinct ints in canonical node order),
        ascending, and ``neighbors[k]`` the candidates conflicting with
        it. Each step removes the last node of the bucket with the largest
        ``(degree, last rank)`` — :func:`eliminate_conflicts` over the
        expanded node graph, victim for victim. Returns the victims'
        ranks in removal order; the inputs are not modified.

        Each candidate's rule is packed into one int key,
        ``degree << shift | last rank`` with ``shift`` the ranks' bit
        width, so the victim is a builtin ``max`` over the keys; removing
        a node lowers each neighbor's key by one degree unit. (A
        degree-bucket queue would not help: the neighbor updates already
        cost as much as the scan.) Small local ranks keep the keys
        single-digit ints.
        """
        sizes = [len(bucket) for bucket in buckets]
        tops = list(sizes)
        shift = max((b[-1] for b in buckets if b), default=0).bit_length()
        unit = 1 << shift
        keys = []
        for k, bucket in enumerate(buckets):
            if bucket:
                degree = 0
                for x in neighbors[k]:
                    degree += sizes[x]
                keys.append(degree << shift | bucket[-1])
            else:
                keys.append(0)
        victims: List[int] = []
        while True:
            best = max(keys, default=0)
            if best < unit:
                return victims
            k = keys.index(best)
            bucket = buckets[k]
            top = tops[k] - 1
            tops[k] = top
            victims.append(bucket[top])
            keys[k] = (best >> shift) << shift | bucket[top - 1] if top else 0
            for x in neighbors[k]:
                keys[x] -= unit

    def _eliminate(self, aux: _AuxGraph) -> List[int]:
        """Per-slot node counts of ``aux`` after greedy elimination of
        its residual conflicts."""
        counts = list(aux.counts)
        if aux.mask:
            neighbors = aux.neighbor_lists(self._conflicts_of)
            if any(neighbors):
                slot_of = aux.slot_of
                for victim in self._eliminate_aux_conflicts(
                    aux.buckets(), neighbors
                ):
                    counts[slot_of[victim]] -= 1
            # With no residual conflicts (the common case) greedy
            # elimination keeps every node: the collected counts stand.
        return counts

    def _conflicts_of(self, index: int) -> List[int]:
        """The candidates conflicting with ``index``, ascending."""
        conflicts = self._conflict_lists[index]
        if conflicts is None:
            conflicts = self._conflict_lists[index] = _bit_indices(
                self.vp.conflict_bits(index)
            )
        return conflicts

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
        # Walk the owner's types in tid order and each type's nodes in
        # canonical order, so local ranks follow the canonical order.
        blocked = self.vp.conflict_bits(index) | 1 << index | ~live
        holders = self._holders
        members = self.vp.type_candidates
        union = 0
        cands: List[int] = []
        owner: List[int] = []
        slot_of: List[int] = []
        counts: List[int] = []
        local: Dict[int, int] = {}
        for slot, tid in enumerate(self._types[index]):
            union |= holders[tid]
            before = len(slot_of)
            for cand in members[tid]:
                if (blocked >> cand) & 1:
                    continue
                k = local.get(cand)
                if k is None:
                    k = local[cand] = len(cands)
                    cands.append(cand)
                owner.append(k)
                slot_of.append(slot)
            counts.append(len(slot_of) - before)
        aux = self._aux[index] = _AuxGraph(
            union & ~blocked, cands, owner, slot_of, counts
        )
        return aux

    def _counts_list(
        self,
        index: int,
        decided_counts: List[int],
        eliminate: bool = True,
    ) -> List[int]:
        """Occurrence counts of the candidate's pack types — across the
        surviving auxiliary-graph nodes, the decided groups' packs
        (``decided_counts``, by tid) and the candidate itself — as a
        list aligned with the candidate's slots (``self._types[index]``).

        With ``eliminate=False`` the residual-conflict elimination is
        skipped, yielding per-slot counts that can only be *higher* than
        the exact ones — an upper bound the incremental engine uses for
        lazily-refined heap entries (both weight and score are monotone
        nondecreasing in every count).
        """
        aux = self._aux_graph(index)
        counts = self._eliminate(aux) if eliminate else list(aux.counts)
        own = self._own_list[index]
        for slot, tid in enumerate(self._types[index]):
            counts[slot] += own[slot] + decided_counts[tid]
        return counts

    def _decided_multiset(self) -> List[int]:
        """``decided_packs`` as a multiset by tid — rebuilt fresh so
        callers of the public entry points see direct mutations of the
        list."""
        decided = [0] * len(self.vp.pack_types)
        tid_of = {data: tid for tid, data in enumerate(self.vp.pack_types)}
        for data in self.decided_packs:
            tid = tid_of.get(data)
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
        total = self._static_bonus(index) - store
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
        return Fraction(
            self._score_units(index, counts), COST_SCALE * len(counts)
        )

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
        gain = self._static_bonus(index) - store
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

        decided_groups = [self.candidates[i].merged() for i in self.decided]
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
    ) -> List[int]:
        """Record a decision and remove the chosen candidate plus
        everything conflicting with it from both graphs. Returns the
        indices removed, ascending."""
        candidate = self.candidates[best]
        trace.decisions.append((candidate, weight))
        self.decided.append(best)
        self.decided_packs.extend(self.vp.packs[best])
        decided_counts = self._decided_counts
        for node in self.vp.nodes_of_candidate(best):
            decided_counts[node.tid] += 1
        count("grouping.decisions")
        gone = (self.vp.conflict_bits(best) | 1 << best) & self.active
        self.active &= ~gone
        removed = _bit_indices(gone)
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
        unaffected by tracing.
        """
        block = TRACE.current("block")
        others = sorted(
            (i for i in _bit_indices(self.active) if i != best),
            key=lambda i: (
                score_of(i),
                self.adjacency[i],
                _NegatedKey(self._keys[i]),
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
        """The memoizing decision loop (see module docstring)."""
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
        decided_counts = self._decided_counts
        keys = self._keys

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
            # counts, and elimination only lowers counts) — so with
            # bounds sorting first among equal values, a bound entry
            # sorts before the candidate's true position, and is refined
            # to an exact one if it ever reaches the top. Elimination
            # therefore runs only for candidates that actually contend
            # for selection.
            got = results.get(index)
            if got is None and force_exact:
                got = evaluate(index)
            if got is not None:
                rank = got[2]
                flavour = _EXACT
            else:
                count("grouping.score_bounds")
                rank = self._heap_rank(
                    index,
                    self._counts_list(index, decided_counts, eliminate=False),
                    cost_aware,
                )
                flavour = _BOUND
            heapq.heappush(
                heap,
                (
                    -rank,
                    flavour,
                    -self.adjacency[index],
                    keys[index],
                    generation.get(index, 0),
                    index,
                ),
            )

        for index in _bit_indices(self.active):
            push(index)

        while self.active:
            while heap:
                entry = heap[0]
                index = entry[5]
                if (
                    not (self.active >> index) & 1
                    or entry[4] != generation.get(index, 0)
                ):
                    heapq.heappop(heap)
                    continue
                if entry[1] == _BOUND:
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
                    i for i in _bit_indices(self.active) if weight_of(i) > 0
                ]
                if not with_reuse:
                    break
                best = max(
                    with_reuse,
                    key=lambda i: (
                        weight_of(i),
                        score_of(i),
                        self.adjacency[i],
                        _NegatedKey(keys[i]),
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
            # Dirty candidates lose their caches and get a fresh heap
            # entry; everything else keeps its cached score and live
            # heap entry.
            for index in _bit_indices(self._dirty_mask(best, removed)):
                results.pop(index, None)
                generation[index] = generation.get(index, 0) + 1
                push(index)
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
        keys = self._keys
        while self.active:
            active = _bit_indices(self.active)
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


def _bit_indices(mask: int) -> List[int]:
    """The set bit positions of a non-negative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
