"""Superword statement generation — the paper's main contribution
(Section 4): global grouping over the variable-pack conflicting and
statement grouping graphs, iterative widening, and reuse-driven
scheduling — plus the Larsen–Amarasinghe and Native baselines."""

from ..perf import span
from .baseline import (
    GreedyConfig,
    GreedySLP,
    greedy_slp_schedule,
    native_schedule,
)
from .candidates import find_candidates
from .conflict import PackNode, VariablePackGraph
from .grouping import (
    DECISION_MODES,
    BasicGrouping,
    GroupingTrace,
    PenaltyContext,
    eliminate_conflicts,
)
from .iterative import iterative_grouping
from .model import (
    CandidateGroup,
    GroupNode,
    InvalidScheduleError,
    OrderedPack,
    PackData,
    Schedule,
    ScheduledSingle,
    SuperwordStatement,
    pack_data,
)
from .scheduling import (
    GroupDependenceGraph,
    LiveSuperwordSet,
    Scheduler,
    keys_may_alias,
)


def holistic_slp_schedule(
    block,
    deps,
    datapath_bits: int = 128,
    decl_of=None,
    penalty_context=None,
    decision_mode: str = "cost-aware",
    engine: str = "incremental",
    *,
    node_budget=None,
    on_diagnostic=None,
) -> Schedule:
    """The paper's "Global" algorithm for one basic block: iterative
    global grouping (Section 4.2) followed by reuse-driven scheduling
    (Section 4.3). ``penalty_context`` tells the grouping cost model
    whether the data layout stage will run afterwards; ``decision_mode``
    selects between the cost-aware decision score (default) and the
    paper-literal weight-only ranking (for ablations); ``engine``
    selects the grouping decision loop, a key of
    :data:`repro.slp.grouping.GROUPING_ENGINES` (both greedy loops
    produce identical results; ``"optimal"`` runs the exact search of
    :mod:`repro.slp.optimal` within ``node_budget`` search nodes,
    reporting budget fallbacks through ``on_diagnostic``)."""
    with span("slp.grouping"):
        units, _traces = iterative_grouping(
            block, deps, datapath_bits, decl_of, penalty_context,
            decision_mode, engine,
            node_budget=node_budget,
            on_diagnostic=on_diagnostic,
        )
    scheduler = Scheduler(block, deps, units)
    with span("slp.schedule"):
        return scheduler.run()


__all__ = [
    "DECISION_MODES",
    "BasicGrouping",
    "CandidateGroup",
    "GreedyConfig",
    "GreedySLP",
    "GroupDependenceGraph",
    "GroupNode",
    "GroupingTrace",
    "InvalidScheduleError",
    "LiveSuperwordSet",
    "OrderedPack",
    "PackData",
    "PenaltyContext",
    "PackNode",
    "Schedule",
    "ScheduledSingle",
    "Scheduler",
    "SuperwordStatement",
    "VariablePackGraph",
    "eliminate_conflicts",
    "find_candidates",
    "greedy_slp_schedule",
    "holistic_slp_schedule",
    "iterative_grouping",
    "keys_may_alias",
    "native_schedule",
    "pack_data",
]
