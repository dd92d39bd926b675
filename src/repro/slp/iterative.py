"""Iterative grouping — Section 4.2.2.

The basic grouping algorithm produces SIMD groups of size two. To fill
wider datapaths, each decided group is treated as a new atomic statement
(its variable packs become its "variables") and the basic algorithm runs
again over the updated unit set, until no further merge happens or every
group fills the datapath. Group sizes therefore grow 2, 4, 8, ... up to
``datapath_bits / element_bits`` lanes.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis import DependenceGraph
from ..ir import BasicBlock
from ..perf import count, span
from ..trace import TRACE
from .grouping import BasicGrouping, GroupingTrace, PackCostModel
from .model import GroupNode


def iterative_grouping(
    block: BasicBlock,
    deps: DependenceGraph,
    datapath_bits: int,
    decl_of=None,
    penalty_context=None,
    decision_mode: str = "cost-aware",
    engine: str = "incremental",
    *,
    node_budget=None,
    on_diagnostic=None,
) -> Tuple[List[GroupNode], List[GroupingTrace]]:
    """Run grouping rounds to fixpoint.

    Returns the final unit list (groups of size >= 2 become superword
    statements; size-1 units stay scalar) and the per-round traces.
    ``decl_of`` (array name -> declaration) enables exact memory
    adjacency tie-breaking for multi-dimensional arrays. ``engine``
    selects the decision-loop implementation (see
    :mod:`repro.slp.grouping`); both greedy loops produce identical
    results, and ``node_budget`` bounds the ``"optimal"`` engine's
    search per round.
    """
    units: List[GroupNode] = [GroupNode.of_statement(s) for s in block]
    traces: List[GroupingTrace] = []
    # One pack-cost model serves every round; each round classifies its
    # own pack types once, reading flattened offsets from the block's
    # operand table (``deps.operands``), which keeps them per operand.
    cost_model = PackCostModel(decl_of, penalty_context)
    round_index = 0
    while True:
        count("grouping.rounds")
        with span("round", round=round_index):
            round_pass = BasicGrouping(
                units, deps, datapath_bits, decl_of, penalty_context,
                decision_mode, engine, cost_model,
                node_budget=node_budget,
                on_diagnostic=on_diagnostic,
            )
            decided, leftovers, trace = round_pass.run()
        traces.append(trace)
        if TRACE.enabled:
            TRACE.event(
                "grouping.round",
                round=round_index,
                units=len(units),
                decided=len(decided),
                leftovers=len(leftovers),
            )
        round_index += 1
        if not decided:
            return units, traces
        units = decided + leftovers
        # Every unit is as wide as the datapath allows: nothing more to do.
        if all(u.width_bits * 2 > datapath_bits for u in units):
            return units, traces
