"""Exact statement packing: branch-and-bound with DP memoization.

goSLP (PAPERS.md) shows the pairing step of SLP can be solved
*optimally*, turning the greedy heuristic's quality into a measurable
quantity.  This module is the ``grouping_engine="optimal"`` backend: it
maximizes a whole-selection packing objective over all pairwise
non-conflicting subsets of one grouping round's candidates (the VP/SG
candidate graphs of :class:`~repro.slp.grouping.BasicGrouping`).

**Objective.**  For a selection ``S`` of candidates, evaluated with the
same :class:`~repro.slp.grouping.PackCostModel` rows the greedy engines
score with::

    value(S) = sum_c [ op_saving(c) + ref_bonus(c) - store(tgt(c)) ]
             + sum_d (N_d - 1) * saving(d)          # reuse: one build serves all
             - sum_d [d used, never produced] * build(d)
             - sum_c [tgt(c) also a source of c] * build(tgt(c))   # RMW gather

where ``N_d`` counts occurrences of pack type ``d`` across all selected
candidates' pack lists.  This is the additive (un-normalized) analog of
the greedy per-candidate score, and — crucially — a well-defined *set*
function: :meth:`BasicGrouping.selection_objective` evaluates it
incrementally in ascending index order, and the marginal-gain procedure
is order-independent (source charges are refunded when a later selected
candidate produces the type).

**Bound (admissibility sketch).**  The marginal gain of adding ``c`` to
any selection is at most::

    ub(c) = op_saving(c) + ref_bonus(c) - store(tgt(c))
          + build(tgt(c))                    # best-case relief of a prior source charge
          + sum_slots mult(slot) * saving(slot)

since every other term of the marginal (first-occurrence saving
discount, source builds, RMW charge) is non-positive.  Hence for any
partial selection with accumulated value ``v`` at search position ``p``,
``v + sum_{q >= p} max(0, ub(q))`` bounds every completion, and a
candidate with ``ub(c) <= 0`` can never strictly improve a selection and
is dropped before the search.

**Search.**  Candidates are ordered by descending ``ub``; the DFS
branches include-first, pruning against the incumbent.  The greedy
(incremental) engine's selection — computed on a twin instance so this
one stays pristine — seeds the incumbent, so the reported gap is
``>= 0`` by construction and the search only records *strictly* better
selections.  States ``(position, blocked-set, pack-type statuses
relevant to the remaining candidates)`` are memoized with dominance
pruning: reaching a state at a value no better than a previous visit
cannot improve the incumbent.  All arithmetic is exact: the cost rows
are already ints in units of ``1 / COST_SCALE``.

A configurable node budget (the grouping's ``node_budget``, set from
``CompilerOptions.optimal_node_budget``) and a candidate-count ceiling
fall back to the bit-exact incremental result, emitting a structured
:class:`~repro.errors.Diagnostic` (``action="note"``) through the
grouping's ``on_diagnostic`` callback.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..errors import Diagnostic
from ..perf import count
from .grouping import COST_SCALE, BasicGrouping, GroupingTrace
from ..trace import TRACE

#: Search-node ceiling before falling back to the incremental result.
DEFAULT_NODE_BUDGET = 50_000
#: Candidate-count ceiling: beyond this the search is not attempted at
#: all (the budget would dominate; fall back immediately).
MAX_CANDIDATES = 160
#: States whose relevant-type signature is longer than this are not
#: memoized (signature construction would outweigh the hits).
_MEMO_SIG_LIMIT = 64


class _BudgetExceeded(Exception):
    pass


class _Spec:
    """Integer-scaled per-candidate cost row for the search hot loop."""

    __slots__ = ("slots", "store", "static", "rmw", "ub")

    def __init__(self, slots, store, static, rmw, ub):
        self.slots = slots      # tuple of (tid, mult, saving, build, is_target)
        self.store = store
        self.static = static
        self.rmw = rmw
        self.ub = ub


def _build_specs(
    grouping: BasicGrouping, indices: List[int]
) -> List[_Spec]:
    """The integer cost rows of ``indices`` (units of
    ``1 / COST_SCALE``), keyed by the round's pack type ids.

    Each spec's ``ub`` is sharpened with instance-wide exclusivity
    facts: a pack type no *other* candidate contains can never have its
    first-occurrence discount absorbed elsewhere nor its source build
    charge relieved, and a target only earns the cross-candidate relief
    term when some other candidate reads that type as a source.  Both
    facts hold for every possible selection, so the bound stays
    admissible."""
    holders: Dict[int, int] = {}         # tid -> candidates containing it
    source_holders: Dict[int, int] = {}  # tid -> candidates sourcing it
    rows = []
    for j in indices:
        savings, builds, target, store = grouping._cost_row(j)
        own = grouping._own_list[j]
        slots = []
        for slot, tid in enumerate(grouping._types[j]):
            slots.append(
                (tid, own[slot], savings[slot], builds[slot], slot == target)
            )
            holders[tid] = holders.get(tid, 0) + 1
            if slot != target:
                source_holders[tid] = source_holders.get(tid, 0) + 1
        rows.append((slots, store, grouping._static_bonus(j)))
    specs = []
    for slots, store, static in rows:
        rmw = False
        ub = static - store
        for tid, mult, saving, build, is_target in slots:
            shared = holders[tid] > 1
            ub += (mult if shared else mult - 1) * saving
            if is_target:
                rmw = mult > 1
                if source_holders.get(tid, 0) > 0:
                    ub += build
                if rmw:
                    ub -= build
            elif not shared:
                ub -= build
        specs.append(_Spec(tuple(slots), store, static, rmw, ub))
    return specs


def _apply(spec: _Spec, seen, status) -> Tuple[int, list]:
    """Marginal gain of selecting ``spec`` given the current pack-type
    state; mutates ``seen``/``status`` and returns an undo trail."""
    gain = spec.static - spec.store
    trail = []
    for tid, mult, saving, build, is_target in spec.slots:
        trail.append((tid, seen[tid], status[tid]))
        gain += mult * saving
        if not seen[tid]:
            seen[tid] = 1
            gain -= saving
        st = status[tid]
        if is_target:
            if st == 1:
                gain += build       # refund the earlier source charge
            if spec.rmw:
                gain -= build       # read-modify-write gathers first
            status[tid] = 2
        elif st == 0:
            gain -= build           # source nobody (yet) produces
            status[tid] = 1
    return gain, trail


def _undo(trail, seen, status) -> None:
    for tid, was_seen, was_status in reversed(trail):
        seen[tid] = was_seen
        status[tid] = was_status


def _clique_partition(n: int, masks: List[int]) -> List[int]:
    """Greedy partition of the positions into conflict cliques: at most
    one member of a clique fits in any selection, so a completion bound
    may count each clique once instead of each candidate once.
    Positions arrive in descending-``ub`` order, so within a clique the
    smallest position always carries the clique's largest ``ub``."""
    clique_of = [0] * n
    member_masks: List[int] = []
    for p in range(n):
        conf = masks[p]
        for c, members in enumerate(member_masks):
            if members & conf == members:
                member_masks[c] = members | (1 << p)
                clique_of[p] = c
                break
        else:
            clique_of[p] = len(member_masks)
            member_masks.append(1 << p)
    return clique_of


def _search(
    specs: List[_Spec],
    masks: List[int],
    n_types: int,
    incumbent: int,
    budget: int,
) -> Tuple[Optional[Tuple[int, ...]], int, int]:
    """Branch-and-bound over search positions; returns (best position
    set strictly beating the incumbent or None, best value, nodes)."""
    n = len(specs)
    ubs = [spec.ub for spec in specs]
    clique_of = _clique_partition(n, masks)
    n_cliques = len(set(clique_of)) if n else 0
    relevant: List[Tuple[int, ...]] = [()] * (n + 1)
    acc: set = set()
    for p in range(n - 1, -1, -1):
        acc.update(tid for tid, *_ in specs[p].slots)
        relevant[p] = tuple(sorted(acc))
    seen = bytearray(n_types)
    status = bytearray(n_types)
    clique_stamp = [0] * n_cliques
    stamp = 0
    memo: Dict = {}
    best_value = incumbent
    best_set: Optional[Tuple[int, ...]] = None
    chosen: List[int] = []
    nodes = 0

    def bound(p: int, blocked: int) -> int:
        """Clique-cover completion bound over the unblocked remainder:
        positions are ub-descending, so the first unblocked member seen
        per clique contributes its clique's maximum."""
        nonlocal stamp
        stamp += 1
        total = 0
        rest = blocked >> p
        for q in range(p, n):
            if rest & 1:
                rest >>= 1
                continue
            rest >>= 1
            c = clique_of[q]
            if clique_stamp[c] != stamp:
                clique_stamp[c] = stamp
                total += ubs[q]
        return total

    def dfs(p: int, value: int, blocked: int) -> None:
        nonlocal nodes, best_value, best_set
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        while p < n and (blocked >> p) & 1:
            p += 1
        if p == n:
            if value > best_value:
                best_value = value
                best_set = tuple(chosen)
            return
        if value + bound(p, blocked) <= best_value:
            return
        rel = relevant[p]
        if len(rel) <= _MEMO_SIG_LIMIT:
            # Blocked bits below p no longer matter; dropping them
            # merges states that differ only in their past.
            sig = bytes(seen[t] | (status[t] << 1) for t in rel)
            key = (p, blocked >> p, sig)
            prev = memo.get(key)
            if prev is not None and prev >= value:
                return
            memo[key] = value
        spec = specs[p]
        gain, trail = _apply(spec, seen, status)
        chosen.append(p)
        dfs(p + 1, value + gain, blocked | masks[p])
        chosen.pop()
        _undo(trail, seen, status)
        dfs(p + 1, value, blocked)

    dfs(0, 0, 0)
    return best_set, best_value, nodes


def _greedy_incumbent(grouping: BasicGrouping) -> List[int]:
    """The incremental engine's selection, computed on a twin instance
    (same units/deps/cost model -> identical candidate indices) so the
    caller's instance stays pristine for the search.  Trace events are
    suppressed: the twin's greedy commits are scaffolding, not
    decisions of this compile."""
    twin = BasicGrouping(
        grouping.units,
        grouping.deps,
        grouping.datapath_bits,
        grouping._decl_of,
        grouping._penalty_context,
        grouping.decision_mode,
        "incremental",
        grouping.cost,
    )
    was_enabled = TRACE.enabled
    TRACE.enabled = False
    try:
        twin._run_incremental()
    finally:
        TRACE.enabled = was_enabled
    return sorted(twin.decided)


def _fallback(
    grouping: BasicGrouping, nodes: int, reason: str
) -> GroupingTrace:
    """Budget exhausted (or instance too large): hand the round to the
    bit-exact incremental engine and leave a structured note."""
    count("grouping.optimal.fallbacks")
    callback = grouping.on_diagnostic
    if callback is not None:
        callback(
            Diagnostic(
                stage="schedule",
                block=TRACE.current("block") if TRACE.enabled else None,
                error="OptimalBudgetExceeded",
                message=f"optimal grouping fell back to incremental: "
                f"{reason}",
                action="note",
            )
        )
    trace = grouping._run_incremental()
    trace.nodes_explored = nodes
    trace.proven_optimal = False
    return trace


def run_optimal(grouping: BasicGrouping) -> GroupingTrace:
    """The ``grouping_engine="optimal"`` entry point (see module
    docstring); listed in :data:`repro.slp.grouping.GROUPING_ENGINES`."""
    budget = grouping.node_budget or DEFAULT_NODE_BUDGET
    n = len(grouping.candidates)
    if n == 0:
        return GroupingTrace(
            [], proven_optimal=True, objective=Fraction(0)
        )
    if n > MAX_CANDIDATES:
        return _fallback(
            grouping, 0, f"{n} candidates > ceiling {MAX_CANDIDATES}"
        )

    greedy_selection = _greedy_incumbent(grouping)
    greedy_value = grouping.selection_objective(greedy_selection)

    # Candidates that can never strictly improve a selection
    # (ub <= 0) are dropped before the search; order the rest by
    # descending bound so the suffix sums prune early.
    all_specs = _build_specs(grouping, list(range(n)))
    order = sorted(
        (j for j in range(n) if all_specs[j].ub > 0),
        key=lambda j: (-all_specs[j].ub, j),
    )
    specs = [all_specs[j] for j in order]
    masks = []
    conflict_rows = [grouping.vp.conflict_bits(j) for j in order]
    for p, j in enumerate(order):
        mask = 0
        for q, k in enumerate(order):
            if p != q and (
                (conflict_rows[p] >> k) & 1 or (conflict_rows[q] >> j) & 1
            ):
                mask |= 1 << q
        masks.append(mask)

    incumbent = int(greedy_value * COST_SCALE)
    try:
        best_set, best_value, nodes = _search(
            specs, masks, len(grouping.vp.pack_types), incumbent, budget
        )
    except _BudgetExceeded:
        return _fallback(
            grouping, budget, f"node budget {budget} exhausted"
        )

    count("grouping.optimal.nodes", nodes)
    if best_set is not None:
        chosen = sorted(order[p] for p in best_set)
        objective = grouping.selection_objective(chosen)
        if objective <= greedy_value:  # defensive; search is exact
            chosen, objective = greedy_selection, greedy_value
    else:
        chosen, objective = greedy_selection, greedy_value

    trace = GroupingTrace(
        [],
        proven_optimal=True,
        objective=objective,
        nodes_explored=nodes,
    )
    seen: set = set()
    status: Dict[int, int] = {}
    for index in chosen:
        gain = Fraction(
            grouping._objective_gain(index, seen, status), COST_SCALE
        )
        grouping._commit(
            index,
            trace,
            gain,
            score=gain,
            picked_by="optimal",
            proven_optimal=True,
        )
    return trace
