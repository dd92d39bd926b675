"""Differential guarantees of the incremental grouping engine.

The incremental engine (memoized scores, dirty-set invalidation, lazy
bound-refined heap) exists purely as a compile-time optimization: its
decisions, traces, and emitted schedules must be bit-identical to the
reference engine's from-scratch recomputation. These tests pin that
equivalence on random well-formed blocks and on the real kernel suite,
and pin the parallel suite runner + compile cache to the sequential
uncached results.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ArtifactStore, CompilerOptions, Variant, compile_program
from repro.analysis import DependenceGraph
from repro.bench import KERNELS, intel_dunnington
from repro.bench.suite import run_kernel, run_suite
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
from repro.perf import PERF
from repro.slp import iterative_grouping
from repro.vm.pretty import disassemble_plan

SCALARS = ["s0", "s1", "s2", "s3"]
ARRAYS = ["X", "Y", "Z"]


@st.composite
def affine_subscripts(draw):
    coeff = draw(st.sampled_from([1, 1, 1, 2, 3]))
    const = draw(st.integers(min_value=0, max_value=8))
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
    array = draw(st.sampled_from(ARRAYS))
    return ArrayRef(array, (draw(affine_subscripts()),), FLOAT64)


@st.composite
def exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(leaf_exprs())
    op = draw(st.sampled_from(["+", "-", "*", "+", "*"]))
    return BinOp(op, draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))


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
    count = draw(st.integers(min_value=2, max_value=8))
    body = BasicBlock([draw(statements(sid)) for sid in range(count)])
    program = Program("random")
    for name in ARRAYS:
        program.declare_array(name, (64,), FLOAT64)
    for name in SCALARS:
        program.declare_scalar(name, FLOAT64)
    program.add(Loop("i", 0, 8, 1, body))
    return program


COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _grouping_outcome(program, engine, datapath_bits):
    block = next(iter(program.loops())).body
    deps = DependenceGraph(block)
    units, traces = iterative_grouping(
        block,
        deps,
        datapath_bits,
        lambda n: program.arrays[n],
        engine=engine,
    )
    decisions = [
        (candidate, weight)
        for trace in traces
        for candidate, weight in trace.decisions
    ]
    return [u.sids for u in units], decisions


class TestDifferentialGrouping:
    @given(program=programs(), datapath=st.sampled_from([128, 256, 512]))
    @settings(**COMMON)
    def test_decisions_and_traces_identical(self, program, datapath):
        inc_units, inc_decisions = _grouping_outcome(
            program, "incremental", datapath
        )
        ref_units, ref_decisions = _grouping_outcome(
            program, "reference", datapath
        )
        assert inc_units == ref_units
        assert inc_decisions == ref_decisions

    @given(program=programs(), datapath=st.sampled_from([128, 512]))
    @settings(**COMMON)
    def test_compiled_plans_identical(self, program, datapath):
        plans = {}
        for engine in ("incremental", "reference"):
            result = compile_program(
                program,
                Variant.GLOBAL,
                intel_dunnington().with_datapath(datapath),
                CompilerOptions(grouping_engine=engine),
            )
            plans[engine] = disassemble_plan(result.plan)
        assert plans["incremental"] == plans["reference"]

    @given(program=programs())
    @settings(**COMMON)
    def test_weight_only_mode_identical(self, program):
        plans = {}
        for engine in ("incremental", "reference"):
            result = compile_program(
                program,
                Variant.GLOBAL,
                intel_dunnington(),
                CompilerOptions(
                    grouping_engine=engine, decision_mode="weight-only"
                ),
            )
            plans[engine] = disassemble_plan(result.plan)
        assert plans["incremental"] == plans["reference"]


@pytest.mark.parametrize(
    "name, n, unroll, datapath",
    [
        pytest.param(name, 8, 4, 512, id=name)
        for name in ("cactusADM", "milc", "ua", "cg")
    ]
    # Cells of the repository benchmark's compile-wide workload, where
    # the auxiliary graphs are dense and conflict elimination does most
    # of the grouping work.
    + [
        pytest.param(name, 16, 8, 256, id=f"{name}-u8-256")
        for name in ("sp", "namd")
    ],
)
def test_kernels_identical_across_engines(name, n, unroll, datapath):
    """Real Table 3 kernels, unrolled wide — the regime the incremental
    engine was built for."""
    machine = intel_dunnington().with_datapath(datapath)
    program = KERNELS[name].build(n)
    plans = {}
    for engine in ("incremental", "reference"):
        result = compile_program(
            program,
            Variant.GLOBAL,
            machine,
            CompilerOptions(unroll_factor=unroll, grouping_engine=engine),
        )
        plans[engine] = disassemble_plan(result.plan)
    assert plans["incremental"] == plans["reference"]


def test_incremental_recomputes_fewer_scores():
    """The point of the engine: commits dirty only a neighborhood, so
    exact score evaluations stay far below the reference engine's
    all-active-every-iteration count."""
    machine = intel_dunnington().with_datapath(512)
    program = KERNELS["ua"].build(8)
    recomputed = {}
    for engine in ("incremental", "reference"):
        PERF.reset()
        PERF.enable()
        compile_program(
            program,
            Variant.GLOBAL,
            machine,
            CompilerOptions(unroll_factor=4, grouping_engine=engine),
        )
        PERF.disable()
        recomputed[engine] = PERF.counters.get(
            "grouping.scores_recomputed", 0
        )
    assert recomputed["reference"] > 0
    assert recomputed["incremental"] * 2 <= recomputed["reference"]


# -- parallel suite runner ---------------------------------------------------------


def _suite_fingerprint(results):
    out = {}
    for name, result in results.items():
        for variant, run in result.runs.items():
            report = run.report
            out[(name, variant)] = (
                report.cycles,
                report.dynamic_instructions,
                report.pack_unpack_ops,
                report.total_instructions,
                run.stats.superword_statements,
            )
        out[(name, "semantics")] = result.semantics_preserved()
    return out


def test_parallel_suite_matches_sequential():
    machine = intel_dunnington()
    kernels = [KERNELS[n] for n in ("mg", "soplex", "cactusADM", "cg")]
    variants = (Variant.SCALAR, Variant.GLOBAL)
    sequential = run_suite(
        machine, kernels=kernels, variants=variants, n=8, jobs=1
    )
    parallel = run_suite(
        machine, kernels=kernels, variants=variants, n=8, jobs=4
    )
    assert list(sequential) == list(parallel)
    assert _suite_fingerprint(sequential) == _suite_fingerprint(parallel)


def test_compile_cache_round_trip(tmp_path):
    machine = intel_dunnington()
    kernel = KERNELS["mg"]
    cache = ArtifactStore(tmp_path)

    PERF.reset()
    PERF.enable()
    cold = run_kernel(kernel, machine, n=8, cache=cache)
    cold_hits = PERF.counters.get("compile_cache.hits", 0)
    cold_misses = PERF.counters.get("compile_cache.misses", 0)
    warm = run_kernel(kernel, machine, n=8, cache=cache)
    PERF.disable()
    warm_hits = PERF.counters.get("compile_cache.hits", 0) - cold_hits

    assert cold_hits == 0
    assert cold_misses == len(cold.runs)
    # Every variant of the second run is served from disk and the
    # replayed plans simulate to the same results.
    assert warm_hits == len(warm.runs)
    assert _suite_fingerprint({"mg": cold}) == _suite_fingerprint(
        {"mg": warm}
    )


def test_compile_cache_distinguishes_options(tmp_path):
    machine = intel_dunnington()
    program = KERNELS["mg"].build(8)
    base = ArtifactStore.key(program, Variant.GLOBAL, machine, None)
    assert base == ArtifactStore.key(
        program, Variant.GLOBAL, machine, CompilerOptions()
    )
    assert base != ArtifactStore.key(
        program, Variant.SLP, machine, CompilerOptions()
    )
    assert base != ArtifactStore.key(
        program, Variant.GLOBAL, machine.with_datapath(512), CompilerOptions()
    )
    assert base != ArtifactStore.key(
        program, Variant.GLOBAL, machine, CompilerOptions(unroll_factor=2)
    )
    assert base != ArtifactStore.key(
        KERNELS["mg"].build(16), Variant.GLOBAL, machine, CompilerOptions()
    )
