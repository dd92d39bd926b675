"""The compiler framework driver — Figure 3 end to end.

``compile_program`` takes a source :class:`Program` and a variant name
and produces an :class:`ExecutablePlan` for the virtual SIMD machine:

* ``Variant.SCALAR`` — no SLP; the baseline every figure normalizes to.
* ``Variant.NATIVE`` — the conservative built-in-vectorizer model.
* ``Variant.SLP`` — Larsen & Amarasinghe's greedy algorithm.
* ``Variant.GLOBAL`` — the paper's holistic superword statement
  generation (global grouping + reuse-driven scheduling).
* ``Variant.GLOBAL_LAYOUT`` — Global plus the data layout stage
  (Section 5).

Pre-processing (loop unrolling + alignment analysis) is shared by every
non-scalar variant, exactly as in the paper's experimental setup ("both
the implementations use exactly the same pre-processing steps"). A cost
model gates each basic block: when the estimated vector cost is not
better than scalar, the block is left scalar (end of Section 4.3).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import DependenceGraph, OperandTable
from .errors import Diagnostic, OptionsError, ReproError, choose
from .ir import BasicBlock, Loop, Program
from .layout import (
    ArrayLayoutPlan,
    LoopContext,
    apply_array_layout,
    default_scalar_layout,
    optimized_scalar_layout,
    plan_array_layout,
)
from .layout.scalar import ScalarArena
from .perf import count, span
from .slp import (
    DECISION_MODES,
    PenaltyContext,
    Schedule,
    ScheduledSingle,
    greedy_slp_schedule,
    holistic_slp_schedule,
    native_schedule,
)
from .slp.grouping import GROUPING_ENGINES
from .trace import TRACE
from .transform import if_convert_program, unroll_program
from .verify import (
    resolve_checks,
    verify_program,
    verify_schedule,
    verify_unit,
)
from .vm import (
    CompiledCopy,
    CompiledLoop,
    CompiledStraight,
    ExecutablePlan,
    LoopSpec,
    MachineModel,
    VectorCodegen,
    compile_scalar_block,
)
from .vm.machine import check_datapath
from .vm.simulator import SIM_ENGINES


class Variant(enum.Enum):
    SCALAR = "scalar"
    NATIVE = "native"
    SLP = "slp"
    GLOBAL = "global"
    GLOBAL_LAYOUT = "global+layout"

    @property
    def uses_layout(self) -> bool:
        return self is Variant.GLOBAL_LAYOUT


def _one_of(what: str, choices) -> Callable[[str, Any], None]:
    return lambda _name, value: choose(what, choices, value)


def _at_least(low: int) -> Callable[[str, Any], None]:
    def check(name: str, value: int) -> None:
        if value < low:
            raise OptionsError(
                f"compiler option {name!r} is {value!r}; expected at "
                f"least {low}"
            )

    return check


def _finite_above_zero(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise OptionsError(
            f"compiler option {name!r} is {value!r}; expected a finite "
            f"number above 0"
        )


_NONE = type(None)

#: What each field a caller (or the service wire) may set accepts: its
#: types, ``None`` only where listed, and the range, closed set or rule
#: its value must pass. ``CompilerOptions`` checks every row when it is
#: built; ``debug_schedule_mutator`` is a test hook and has no row.
OPTION_RULES: Dict[str, Tuple[Tuple[type, ...], Optional[Callable]]] = {
    "datapath_bits": ((int, _NONE), lambda _, bits: check_datapath(bits)),
    "unroll_factor": ((int, _NONE), _at_least(1)),
    "cost_gate": ((bool,), None),
    "layout_budget_elements": ((int,), _at_least(0)),
    "layout_amortization": ((float, int), _finite_above_zero),
    "peel_for_alignment": ((bool,), None),
    "indirect_reuse": ((bool, _NONE), None),
    "decision_mode": ((str,), _one_of("decision mode", DECISION_MODES)),
    "grouping_engine": ((str,), _one_of("grouping engine", GROUPING_ENGINES)),
    "optimal_node_budget": ((int, _NONE), _at_least(1)),
    "engine": ((str, _NONE), _one_of("sim engine", SIM_ENGINES)),
    "checks": ((str, _NONE), lambda _, spec: resolve_checks(spec)),
    "on_error": ((str,), _one_of("on_error", ("raise", "fallback"))),
}


@dataclass(frozen=True)
class CompilerOptions:
    """Knobs; defaults reproduce the paper's configuration.

    **Option precedence** (the single place this rule is defined): an
    explicit ``CompilerOptions`` field value wins; the CLI expresses its
    flags *by building* a ``CompilerOptions`` (so a CLI flag is the same
    thing as an explicit field); ``checks`` left at ``None`` defers to
    the ``REPRO_CHECKS`` environment variable; and only then does the
    built-in default apply. Nothing else consults the environment
    directly.
    """

    datapath_bits: Optional[int] = None   # None: the machine's width
    #: Loop unrolling before grouping. ``None`` picks a factor per loop
    #: (the lane count of its narrowest element type); 1 keeps every
    #: loop rolled.
    unroll_factor: Optional[int] = None
    cost_gate: bool = True
    #: Elements the layout stage may replicate in all (0: none).
    layout_budget_elements: int = 1 << 20
    #: A replication copy is charged 1/``layout_amortization`` of its
    #: cost per run: the paper's applications run each kernel many times.
    layout_amortization: float = 16.0
    #: Extension (off in the paper's configuration): peel leading loop
    #: iterations so the dominant memory streams start superword-aligned.
    peel_for_alignment: bool = False
    #: Ablation knobs. ``indirect_reuse`` overrides the variant default
    #: (holistic variants shuffle, greedy baselines re-gather);
    #: ``decision_mode`` selects "cost-aware" (default) or the
    #: paper-literal "weight-only" grouping ranking.
    indirect_reuse: Optional[bool] = None
    decision_mode: str = "cost-aware"
    #: Grouping decision loop, a key of
    #: :data:`repro.slp.grouping.GROUPING_ENGINES`: "incremental"
    #: (memoized dirty-set engine, default), "reference" (recomputes
    #: every active candidate's score every iteration; same schedules,
    #: kept for differential testing and compile-time benchmarking) or
    #: "optimal" (exact search, :mod:`repro.slp.optimal`).
    grouping_engine: str = "incremental"
    #: Search-node budget for ``grouping_engine="optimal"`` before it
    #: falls back (per grouping round) to the incremental result with a
    #: Diagnostic note; ``None`` uses
    #: ``repro.slp.optimal.DEFAULT_NODE_BUDGET``. Ignored by the greedy
    #: engines.
    optimal_node_budget: Optional[int] = None
    #: Simulation engine for runs driven by these options: "batched"
    #: (vectorized loop engine — see ``repro.vm.batched``; the default
    #: when ``None``), "reference" (per-instruction interpreter, the
    #: oracle), or "compiled" (one emitted NumPy function per affine
    #: loop, with batched's accounting — see ``repro.vm.compiled``).
    #: All three produce identical reports and memories. Compilation
    #: itself is engine-independent.
    engine: Optional[str] = None
    #: Pipeline verifier stages to run during compilation: "none",
    #: "all", or a comma-separated subset of "ir", "schedule", "plan"
    #: (see :mod:`repro.verify`). ``None`` defers to the
    #: ``REPRO_CHECKS`` environment variable, then to "none". The test
    #: suite pins the variable to "all".
    checks: Optional[str] = None
    #: What to do when a per-block pass fails or a verifier check
    #: trips: "raise" (default) propagates the exception; "fallback"
    #: compiles the offending block scalar, records a structured
    #: :class:`repro.errors.Diagnostic` on the result, and keeps going.
    #: Failures at the whole-program level (preprocessing, or an
    #: invalid *input* program) fall back to an all-scalar plan; an
    #: ``ir``-stage violation in the source program itself always
    #: raises — no transformation can repair a malformed input.
    on_error: str = "raise"
    #: Test/fuzz hook: a callable ``(schedule, block_label) ->
    #: Optional[Schedule]`` applied to every block schedule before
    #: verification — used to seed deliberate compiler bugs for the
    #: differential oracle and the mutation tests. Excluded from repr
    #: (and hence from compile-cache keys) and comparison.
    debug_schedule_mutator: Optional[Callable] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        # A value that means nothing fails here, at construction, with
        # an OptionsError naming it — identically for the API, the CLI
        # and the service wire (a 400, before a queue slot or a worker
        # is spent).
        for name, (types, check) in OPTION_RULES.items():
            value = getattr(self, name)
            # bool is an int subclass; only a bool field takes it.
            if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types
            ):
                expected = " or ".join(
                    "None" if t is _NONE else t.__name__ for t in types
                )
                raise OptionsError(
                    f"compiler option {name!r} must be {expected}, got "
                    f"{value!r}"
                )
            if value is not None and check is not None:
                check(name, value)


@dataclass
class CompileStats:
    """What the compiler did — inputs to several figures."""

    blocks_total: int = 0
    blocks_vectorized: int = 0
    superword_statements: int = 0
    grouped_statements: int = 0
    total_statements: int = 0
    replications: int = 0
    #: Wall-clock measurement of the compile, not artifact content:
    #: excluded from equality so a served/stored ``CompileResult``
    #: compares ``==`` to a fresh local compile of the same input.
    compile_seconds: float = field(default=0.0, compare=False)

    @property
    def grouped_fraction(self) -> float:
        if not self.total_statements:
            return 0.0
        return self.grouped_statements / self.total_statements


@dataclass
class CompileResult:
    plan: ExecutablePlan
    variant: Variant
    machine: MachineModel
    stats: CompileStats
    schedules: List[Schedule] = field(default_factory=list)
    #: Structured record of every recoverable failure the compile
    #: degraded around (``on_error="fallback"``). Empty on clean runs.
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Labels (``b<position>``) of blocks compiled scalar *because of a
    #: failure* — distinct from blocks the cost gate left scalar.
    fallback_blocks: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------


def scalar_schedule(block: BasicBlock) -> Schedule:
    """An all-singles schedule — what the cost gate falls back to and a
    convenient baseline for tests and tools."""
    schedule = Schedule(block)
    schedule.items = [ScheduledSingle(s) for s in block]
    return schedule


def _schedule_block(
    block: BasicBlock,
    variant: Variant,
    program: Program,
    datapath_bits: int,
    decision_mode: str = "cost-aware",
    grouping_engine: str = "incremental",
    node_budget: Optional[int] = None,
    on_diagnostic: Optional[Callable[[Diagnostic], None]] = None,
) -> Tuple[Schedule, OperandTable]:
    """The block's schedule, and the operand table its dependence
    analysis built, which code generation reads again."""
    with span("analysis.deps"):
        deps = DependenceGraph(block)
    decl_of = lambda name: program.arrays[name]  # noqa: E731
    if variant is Variant.NATIVE:
        with span("slp.baseline"):
            schedule = native_schedule(block, deps, decl_of, datapath_bits)
        return schedule, deps.operands
    if variant is Variant.SLP:
        with span("slp.baseline"):
            schedule = greedy_slp_schedule(
                block, deps, decl_of, datapath_bits
            )
        return schedule, deps.operands
    if variant.uses_layout:
        # Phase coupling: the layout stage can turn read-only strided
        # gathers and scattered scalar superwords into contiguous
        # accesses, so grouping should not shy away from them.
        from .layout import written_arrays

        replicable = frozenset(program.arrays) - written_arrays(program)
        penalty_context = PenaltyContext(replicable)
    else:
        # Plain Global will emit code against the default scalar arena:
        # tell the grouping cost model which scalar packs come out
        # contiguous under it.
        penalty_context = PenaltyContext(
            scalar_slots=PenaltyContext.from_arenas(
                default_scalar_layout(program)
            )
        )
    schedule = holistic_slp_schedule(
        block, deps, datapath_bits, decl_of, penalty_context,
        decision_mode, grouping_engine,
        node_budget=node_budget,
        on_diagnostic=on_diagnostic,
    )
    return schedule, deps.operands


def _loop_chain(loop: Loop) -> List[Loop]:
    chain = [loop]
    while chain[-1].inner is not None:
        chain.append(chain[-1].inner)
    return chain


def _spec(loop: Loop) -> LoopSpec:
    return LoopSpec(loop.index, loop.start, loop.stop, loop.step)


def compile_program(
    program: Program,
    variant: Variant,
    machine: MachineModel,
    options: Optional[CompilerOptions] = None,
) -> CompileResult:
    """Run the full framework on a program for one variant.

    Each block that ``on_error="fallback"`` compiles scalar instead
    adds one to ``compile.fallback_blocks``; a failed preprocess
    counts once, as ``<program>``."""
    options = options or CompilerOptions()
    datapath = options.datapath_bits or machine.datapath_bits
    with span("compile", variant=variant.value, datapath=datapath):
        result = _compile(program, variant, machine, options, datapath)
    if result.fallback_blocks:
        count("compile.fallback_blocks", len(result.fallback_blocks))
    return result


def _compile(
    program: Program,
    variant: Variant,
    machine: MachineModel,
    options: CompilerOptions,
    datapath: int,
) -> CompileResult:
    machine = machine.with_datapath(datapath)
    started = time.perf_counter()
    stats = CompileStats()
    checks = resolve_checks(options.checks)
    fallback = options.on_error == "fallback"
    diagnostics: List[Diagnostic] = []
    fallback_blocks: List[str] = []

    if "ir" in checks:
        # The *input* program must be well formed no matter the error
        # policy: falling back to scalar cannot repair a bad program.
        verify_program(program)

    # Control flow is lowered first, for every variant including SCALAR:
    # all downstream phases (and all engines) consume the same
    # predicated straight-line form, so the differential oracle compares
    # identical select semantics across variants. Programs without
    # regions pass through untouched (same object).
    with span("transform"):
        converted = if_convert_program(program)
    if converted is not program:
        if "ir" in checks:
            # The lowering must preserve well-formedness; a violation
            # here is a compiler bug, not a user error.
            verify_program(converted)
        program = converted

    if variant is Variant.SCALAR:
        plan = _compile_all_scalar(program)
        stats.blocks_total = sum(1 for _ in program.blocks())
        stats.total_statements = sum(len(b) for b in program.blocks())
        stats.compile_seconds = time.perf_counter() - started
        return CompileResult(plan, variant, machine, stats)

    pre = program
    try:
        with span("transform"):
            if options.peel_for_alignment:
                from .transform import choose_unroll_factor, peel_program

                pre, _peeled = peel_program(
                    pre, lambda loop: choose_unroll_factor(loop, datapath)
                )
            pre = unroll_program(pre, datapath, options.unroll_factor)
        if "ir" in checks and pre is not program:
            # The compiler's own preprocessing must preserve
            # well-formedness; a violation here is a compiler bug.
            verify_program(pre)
    except Exception as exc:
        if not fallback:
            if isinstance(exc, ReproError):
                exc.with_context(stage="preprocess")
            raise
        # Whole-program degradation: preprocessing failed, so compile
        # everything scalar and say so.
        diagnostics.append(
            Diagnostic.from_error(exc, stage="preprocess", block="<program>")
        )
        plan = _compile_all_scalar(program)
        stats.blocks_total = sum(1 for _ in program.blocks())
        stats.total_statements = sum(len(b) for b in program.blocks())
        stats.compile_seconds = time.perf_counter() - started
        result = CompileResult(plan, variant, machine, stats)
        result.diagnostics = diagnostics
        result.fallback_blocks = ["<program>"]
        return result
    if pre is program and variant.uses_layout:
        # The layout phase declares replicated arrays on `pre`; when no
        # preprocessing made a copy, work on a shallow twin so the
        # caller's program object is never mutated (the bench harness
        # reuses one program across all variants).
        pre = program.clone_shell()
        pre.body = list(program.body)

    # Phase 1: superword statement generation per optimizable block.
    scheduled: List[Tuple[object, Optional[Schedule], Optional[LoopContext]]] = []
    # Each scheduled block's operand table, by position, for codegen.
    tables: Dict[int, OperandTable] = {}
    forced_scalar: set = set()
    # Blocks are identified by their position in the program body; the
    # ``b<position>`` label qualifies provenance IDs because statement
    # IDs restart at zero in every block.
    for position, item in enumerate(pre.body):
        label = f"b{position}"
        if isinstance(item, BasicBlock):
            blk, ctx = item, None
            span_kwargs = dict(block=label, kind="straight")
        else:
            chain = _loop_chain(item)
            innermost = chain[-1]
            blk = innermost.body
            ctx = LoopContext(
                innermost.index,
                innermost.start,
                innermost.stop,
                innermost.step,
            )
            span_kwargs = dict(
                block=label, kind="loop", index=innermost.index
            )
        # Engine-level notes (e.g. the optimal engine's budget
        # fallback) land on the result's diagnostics with their block
        # label filled in; they are informational, not failures, so
        # they are collected under both error policies.
        def _note(diag: Diagnostic, _label: str = label) -> None:
            diagnostics.append(
                diag if diag.block else replace(diag, block=_label)
            )

        try:
            with span("block", **span_kwargs):
                schedule, tables[position] = _schedule_block(
                    blk, variant, pre, datapath, options.decision_mode,
                    options.grouping_engine,
                    node_budget=options.optimal_node_budget,
                    on_diagnostic=_note,
                )
            if options.debug_schedule_mutator is not None:
                mutated = options.debug_schedule_mutator(schedule, label)
                if mutated is not None:
                    # Code generation builds the mutated block's table.
                    schedule = mutated
                    del tables[position]
            if "schedule" in checks:
                verify_schedule(blk, schedule, datapath, block=label)
        except Exception as exc:
            if not fallback:
                if isinstance(exc, ReproError):
                    exc.with_context(stage="schedule", block=label)
                raise
            diagnostics.append(
                Diagnostic.from_error(exc, stage="schedule", block=label)
            )
            fallback_blocks.append(label)
            forced_scalar.add(position)
            schedule = scalar_schedule(blk)
        scheduled.append((item, schedule, ctx))

    # Phase 2 (Global+Layout only): data layout optimization.
    arenas = default_scalar_layout(pre)
    layout_plans: Dict[int, ArrayLayoutPlan] = {}
    if variant.uses_layout:
        schedules_only = [s for _, s, _ in scheduled if s is not None]
        with span("layout"):
            arenas = optimized_scalar_layout(pre, schedules_only)
        budget = options.layout_budget_elements
        for index, (item, schedule, ctx) in enumerate(scheduled):
            if schedule is None or ctx is None or index in forced_scalar:
                continue
            label = f"b{index}"
            try:
                with span("block", block=label), span("layout"):
                    plan = plan_array_layout(pre, schedule, ctx, budget)
            except Exception as exc:
                if not fallback:
                    if isinstance(exc, ReproError):
                        exc.with_context(stage="layout", block=label)
                    raise
                # Layout is an optimization: skip it for the block and
                # keep the (already verified) vector schedule.
                diagnostics.append(
                    Diagnostic.from_error(
                        exc, stage="layout", block=label, action="skipped"
                    )
                )
                continue
            if not plan.replications:
                continue
            budget -= plan.total_elements
            for replication in plan.replications:
                pre.declare_array(
                    replication.new_name,
                    (replication.elements,),
                    pre.arrays[replication.source].type,
                )
            layout_plans[index] = plan

    # Phase 3: code generation with the per-block cost gate.
    result_plan = ExecutablePlan(pre, arenas)
    used_schedules: List[Schedule] = []
    for index, (item, schedule, ctx) in enumerate(scheduled):
        label = f"b{index}"
        if index in forced_scalar:
            # An earlier stage already degraded this block; emit the
            # plain scalar lowering, bit-identical to Variant.SCALAR.
            result_plan.units.append(_scalar_item(item, pre))
            continue
        layout_plan = layout_plans.get(index)
        try:
            with span("block", block=label):
                unit, copies, used_schedule = _emit_item(
                    item, schedule, tables.get(index), ctx, layout_plan,
                    pre, machine, arenas, options, stats, variant,
                    block_label=label,
                )
            if "plan" in checks:
                for copy in copies:
                    verify_unit(copy, pre, machine, result_plan, block=label)
                verify_unit(unit, pre, machine, result_plan, block=label)
        except Exception as exc:
            if not fallback:
                if isinstance(exc, ReproError):
                    exc.with_context(stage="codegen", block=label)
                raise
            diagnostics.append(
                Diagnostic.from_error(exc, stage="codegen", block=label)
            )
            fallback_blocks.append(label)
            forced_scalar.add(index)
            result_plan.units.append(_scalar_item(item, pre))
            continue
        for copy in copies:
            # Replicated arrays are declared in `pre`, so the plan's
            # memory image allocates them like any other array; the
            # copy unit fills them before the kernel runs.
            result_plan.units.append(copy)
        result_plan.units.append(unit)
        if used_schedule is not None:
            used_schedules.append(used_schedule)
            stats.superword_statements += sum(
                1 for _ in used_schedule.superwords()
            )
            stats.grouped_statements += sum(
                sw.size for sw in used_schedule.superwords()
            )
    stats.blocks_total = len(scheduled)
    stats.total_statements = sum(
        len(s.block) for _, s, _ in scheduled if s is not None
    )
    stats.compile_seconds = time.perf_counter() - started

    result = CompileResult(result_plan, variant, machine, stats)
    result.schedules = used_schedules
    result.diagnostics = diagnostics
    result.fallback_blocks = fallback_blocks
    return result


def _scalar_item(item, program: Program):
    """The scalar lowering of one top-level item (fallback path)."""
    if isinstance(item, BasicBlock):
        return CompiledStraight(compile_scalar_block(item, program))
    return _scalar_loop(item, program)


def _compile_all_scalar(program: Program) -> ExecutablePlan:
    plan = ExecutablePlan(program, default_scalar_layout(program))
    for item in program.body:
        if isinstance(item, BasicBlock):
            plan.units.append(
                CompiledStraight(compile_scalar_block(item, program))
            )
        else:
            plan.units.append(_scalar_loop(item, program))
    return plan


def _scalar_loop(loop: Loop, program: Program) -> CompiledLoop:
    compiled = CompiledLoop(
        _spec(loop), body=compile_scalar_block(loop.body, program)
    )
    if loop.inner is not None:
        compiled.inner = _scalar_loop(loop.inner, program)
    return compiled


def _emit_item(
    item,
    schedule: Optional[Schedule],
    operands: Optional[OperandTable],
    ctx: Optional[LoopContext],
    layout_plan: Optional[ArrayLayoutPlan],
    program: Program,
    machine: MachineModel,
    arenas: Dict[str, ScalarArena],
    options: CompilerOptions,
    stats: CompileStats,
    variant: Variant,
    block_label: Optional[str] = None,
):
    """Compile one top-level item; returns (unit, copies, schedule_used).
    ``operands`` is the operand table of ``schedule.block``, or None."""
    copies: List[CompiledCopy] = []
    # Section 4.3: only the holistic framework exploits indirect
    # (register-permutation) superword reuse; the greedy baselines
    # re-materialize reordered packs. CompilerOptions.indirect_reuse
    # overrides for ablations.
    shuffle_reuse = variant in (Variant.GLOBAL, Variant.GLOBAL_LAYOUT)
    if options.indirect_reuse is not None:
        shuffle_reuse = options.indirect_reuse

    if isinstance(item, BasicBlock):
        assert schedule is not None
        scalar_instrs = compile_scalar_block(item, program)
        codegen = VectorCodegen(
            program, machine, arenas, None,
            allow_shuffle_reuse=shuffle_reuse,
            prov_block=block_label,
        )
        _pre, body = codegen.compile(schedule, operands)
        vector_unit = CompiledStraight(_pre + body)
        scalar_unit = CompiledStraight(scalar_instrs)
        if options.cost_gate:
            vector_cost = _unit_cycles(vector_unit, machine)
            scalar_cost = _unit_cycles(scalar_unit, machine)
            if TRACE.enabled:
                TRACE.event(
                    "codegen.gate",
                    block=block_label,
                    vector_cycles=round(vector_cost, 3),
                    scalar_cycles=round(scalar_cost, 3),
                    vectorized=vector_cost < scalar_cost,
                )
            if vector_cost >= scalar_cost:
                return scalar_unit, copies, None
        stats.blocks_vectorized += 1
        return vector_unit, copies, schedule

    # A loop nest: SLP applies to the innermost block; outer-level blocks
    # are compiled scalar (the workloads keep their work innermost).
    assert isinstance(item, Loop) and schedule is not None and ctx is not None
    chain = _loop_chain(item)
    innermost = chain[-1]

    block = innermost.body
    used_schedule = schedule
    if layout_plan is not None and layout_plan.rewrites:
        with span("layout"):
            block, used_schedule = apply_array_layout(
                block, schedule, layout_plan
            )
        # The rewritten block reads replicas: codegen builds its table.
        operands = None
        for replication in layout_plan.replications:
            copies.append(
                CompiledCopy(replication, options.layout_amortization)
            )

    codegen = VectorCodegen(
        program, machine, arenas, innermost.index,
        allow_shuffle_reuse=shuffle_reuse,
        loop=_spec(innermost),
        prov_block=block_label,
    )
    preheader, body = codegen.compile(used_schedule, operands)
    vector_inner = CompiledLoop(_spec(innermost), preheader, body)
    scalar_inner = CompiledLoop(
        _spec(innermost), body=compile_scalar_block(innermost.body, program)
    )

    if options.cost_gate:
        vector_cost = _unit_cycles(vector_inner, machine) + sum(
            _copy_cycles(c, machine) for c in copies
        )
        scalar_cost = _unit_cycles(scalar_inner, machine)
        if TRACE.enabled:
            TRACE.event(
                "codegen.gate",
                block=block_label,
                vector_cycles=round(vector_cost, 3),
                scalar_cycles=round(scalar_cost, 3),
                vectorized=vector_cost < scalar_cost,
            )
        if vector_cost >= scalar_cost:
            copies = []
            vector_inner = scalar_inner
            used_schedule = None
        else:
            stats.blocks_vectorized += 1
            stats.replications += len(copies)
    else:
        stats.blocks_vectorized += 1
        stats.replications += len(copies)

    unit: CompiledLoop = vector_inner
    for loop in reversed(chain[:-1]):
        unit = CompiledLoop(
            _spec(loop),
            body=compile_scalar_block(loop.body, program),
            inner=unit,
        )
    return unit, copies, used_schedule


def _unit_cycles(unit, machine: MachineModel) -> float:
    from .vm.codegen import _static_unit_cycles

    return _static_unit_cycles(unit, machine)


def _copy_cycles(copy: CompiledCopy, machine: MachineModel) -> float:
    from .vm.codegen import _static_unit_cycles

    return _static_unit_cycles(copy, machine)
