"""The exact statement-packing engine (``repro.slp.optimal``).

The contract under test: ``grouping_engine="optimal"`` maximizes the
whole-selection packing objective
(:meth:`~repro.slp.grouping.BasicGrouping.selection_objective`) over
all pairwise conflict-free candidate subsets — verified here against
brute-force enumeration on random blocks — never scores below the
greedy incumbent that seeds it, stays semantically bit-exact through
the full compile + simulate pipeline, degrades to the incremental
result (plus a structured ``Diagnostic``) when its node budget runs
out, and stamps provenance (``picked_by``, ``proven_optimal``) on its
trace events.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CompilerOptions, Variant, compile_program
from repro.analysis import DependenceGraph
from repro.bench import KERNELS, intel_dunnington
from repro.ir import (
    Affine,
    ArrayRef,
    BasicBlock,
    BinOp,
    Const,
    FLOAT64,
    Loop,
    Program,
    Statement,
    Var,
)
from repro.slp.grouping import BasicGrouping, PenaltyContext
from repro.slp.model import GroupNode
from repro.trace import TRACE
from repro.vm import Simulator

SCALARS = ["s0", "s1", "s2", "s3"]
ARRAYS = ["X", "Y", "Z"]


@st.composite
def affine_subscripts(draw):
    coeff = draw(st.sampled_from([1, 1, 1, 2]))
    const = draw(st.integers(min_value=0, max_value=6))
    return Affine.of(const, i=coeff)


@st.composite
def leaf_exprs(draw):
    kind = draw(st.sampled_from(["var", "ref", "const", "ref"]))
    if kind == "var":
        return Var(draw(st.sampled_from(SCALARS)), FLOAT64)
    if kind == "const":
        return Const(
            float(draw(st.integers(min_value=1, max_value=9))), FLOAT64
        )
    return ArrayRef(
        draw(st.sampled_from(ARRAYS)), (draw(affine_subscripts()),), FLOAT64
    )


@st.composite
def exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(leaf_exprs())
    op = draw(st.sampled_from(["+", "-", "*", "+"]))
    return BinOp(
        op, draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1))
    )


@st.composite
def statements(draw, sid):
    if draw(st.booleans()):
        target = Var(draw(st.sampled_from(SCALARS)), FLOAT64)
    else:
        target = ArrayRef(
            draw(st.sampled_from(ARRAYS)),
            (draw(affine_subscripts()),),
            FLOAT64,
        )
    return Statement(sid, target, draw(exprs()))


@st.composite
def programs(draw):
    count = draw(st.integers(min_value=2, max_value=7))
    body = BasicBlock([draw(statements(sid)) for sid in range(count)])
    program = Program("random")
    for name in ARRAYS:
        program.declare_array(name, (64,), FLOAT64)
    for name in SCALARS:
        program.declare_scalar(name, FLOAT64)
    program.add(Loop("i", 0, 8, 1, body))
    return program


COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _fresh_grouping(program, engine, datapath=256, **kwargs):
    block = next(iter(program.loops())).body
    deps = DependenceGraph(block)
    return BasicGrouping(
        [GroupNode.of_statement(s) for s in block],
        deps,
        datapath,
        lambda name: program.arrays[name],
        None,
        "cost-aware",
        engine,
        **kwargs,
    )


def _brute_force_optimum(grouping) -> Fraction:
    """Maximum selection objective over every pairwise conflict-free
    candidate subset, by explicit DFS enumeration."""
    n = len(grouping.candidates)
    conflicts = [grouping.vp.conflict_bits(j) for j in range(n)]
    best = Fraction(0)  # the empty selection is always available

    def extend(start, chosen, blocked):
        nonlocal best
        value = grouping.selection_objective(chosen)
        if value > best:
            best = value
        for j in range(start, n):
            if (blocked >> j) & 1:
                continue
            extend(
                j + 1,
                chosen + [j],
                blocked | conflicts[j] | (1 << j),
            )

    extend(0, [], 0)
    return best


class TestExactness:
    @given(program=programs())
    @settings(**COMMON)
    def test_matches_brute_force_and_dominates_greedy(self, program):
        probe = _fresh_grouping(program, "optimal")
        if len(probe.candidates) > 12:
            return  # keep enumeration tractable; larger cases below
        expected = _brute_force_optimum(probe)

        greedy = _fresh_grouping(program, "incremental")
        _, _, greedy_trace = greedy.run()

        optimal = _fresh_grouping(program, "optimal")
        _, _, trace = optimal.run()

        assert trace.proven_optimal
        assert trace.engine == "optimal"
        assert trace.objective == expected
        assert trace.objective >= greedy_trace.objective

    @pytest.mark.parametrize(
        "kernel,factor", [("cactusADM", 4), ("lbm", 2), ("milc", 4)]
    )
    def test_gap_nonnegative_on_kernels(self, kernel, factor):
        from repro.bench.optimality import pairing_objectives
        from repro.transform import unroll_program

        program = KERNELS[kernel].build(32)
        pre = unroll_program(program, 128, factor)
        greedy_score, _, _ = pairing_objectives(pre, 128, "incremental")
        optimal_score, proven, nodes = pairing_objectives(
            pre, 128, "optimal"
        )
        assert optimal_score >= greedy_score
        assert proven
        assert nodes > 0


class TestPipeline:
    @pytest.mark.parametrize("kernel", ["cactusADM", "lbm", "cg"])
    def test_compiled_plan_is_semantically_exact(self, kernel):
        program = KERNELS[kernel].build(32)
        machine = intel_dunnington()
        result = compile_program(
            program, Variant.GLOBAL, machine,
            CompilerOptions(grouping_engine="optimal", unroll_factor=4),
        )
        baseline = compile_program(program, Variant.SCALAR, machine)
        _, memory = Simulator(machine).run(result.plan)
        _, ref_memory = Simulator(machine).run(baseline.plan)
        assert memory.state_equal(ref_memory)

    @staticmethod
    def _traced_commits(options):
        program = KERNELS["cactusADM"].build(32)
        TRACE.reset()
        TRACE.enable()
        try:
            compile_program(
                program, Variant.GLOBAL, intel_dunnington(), options
            )
            records = TRACE.records()
        finally:
            TRACE.disable()
            TRACE.reset()
        return [r for r in records if r.get("ev") == "grouping.commit"]

    def test_trace_events_carry_engine_and_proof(self):
        commits = self._traced_commits(
            CompilerOptions(grouping_engine="optimal", unroll_factor=4)
        )
        assert commits
        assert all(c["engine"] == "optimal" for c in commits)
        assert all(c["picked_by"] == "optimal" for c in commits)
        assert all(c["proven_optimal"] is True for c in commits)

    def test_greedy_trace_events_say_so(self):
        commits = self._traced_commits(
            CompilerOptions(unroll_factor=4)
        )
        assert commits
        assert all(c["engine"] == "incremental" for c in commits)
        assert all(c["proven_optimal"] is False for c in commits)


class TestBudgetFallback:
    def test_budget_exhaustion_falls_back_to_incremental(self):
        program = KERNELS["cactusADM"].build(32)
        from repro.transform import unroll_program

        pre = unroll_program(program, 128, 4)
        diagnostics = []
        starved = _fresh_grouping(
            pre, "optimal", datapath=128,
            node_budget=1,
            on_diagnostic=diagnostics.append,
        )
        _, _, trace = starved.run()
        greedy = _fresh_grouping(pre, "incremental", datapath=128)
        _, _, greedy_trace = greedy.run()

        assert not trace.proven_optimal
        assert trace.decisions == greedy_trace.decisions
        assert starved.decided == greedy.decided
        assert trace.objective == greedy_trace.objective
        assert len(diagnostics) == 1
        assert diagnostics[0].error == "OptimalBudgetExceeded"
        assert diagnostics[0].action == "note"

    def test_compile_surfaces_the_fallback_diagnostic(self):
        program = KERNELS["cactusADM"].build(32)
        machine = intel_dunnington()
        result = compile_program(
            program, Variant.GLOBAL, machine,
            CompilerOptions(
                grouping_engine="optimal",
                optimal_node_budget=1,
                unroll_factor=4,
            ),
        )
        notes = [
            d for d in result.diagnostics
            if d.error == "OptimalBudgetExceeded"
        ]
        assert notes
        assert all(d.block for d in notes)
        # The fallback is the greedy compile: identical plan.
        from repro.vm.pretty import disassemble_plan

        greedy = compile_program(
            program, Variant.GLOBAL, machine,
            CompilerOptions(unroll_factor=4),
        )
        assert disassemble_plan(result.plan) == disassemble_plan(
            greedy.plan
        )
        # A compile that stays within budget reports no such note.
        clean = compile_program(
            program, Variant.GLOBAL, machine,
            CompilerOptions(grouping_engine="optimal", unroll_factor=4),
        )
        assert not any(
            d.error == "OptimalBudgetExceeded" for d in clean.diagnostics
        )
