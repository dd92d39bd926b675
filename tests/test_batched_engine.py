"""Differential guarantees of the batched execution engine.

The batched engine (``src/repro/vm/batched.py``) is purely a
simulation-speed optimization: for every plan it must produce an
``ExecutionReport`` — cycles, instruction counts, cache hits/misses,
per-array access stats, provenance attribution — and a final ``Memory``
that are *exactly equal* to the reference interpreter's, falling back
per-unit whenever its closed-form model does not apply. These tests pin
that contract on the full kernel × variant × machine matrix, on random
well-formed loops, and on kernels built to force the fallback path.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    ArtifactStore,
    CompilerOptions,
    Variant,
    compile_program,
    parse_program,
)
from repro.bench import ALL_KERNELS, KERNELS
from repro.bench.suite import DEFAULT_VARIANTS, run_kernel
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
from repro.vm import (
    MACHINES,
    Simulator,
    amd_phenom_ii,
    intel_dunnington,
    resolve_engine,
)

MATRIX_MACHINES = [("intel", intel_dunnington), ("amd", amd_phenom_ii)]


def _run_both(plan, machine, seed=0):
    ref_report, ref_mem = Simulator(machine, engine="reference").run(
        plan, seed=seed
    )
    bat_report, bat_mem = Simulator(machine, engine="batched").run(
        plan, seed=seed
    )
    return (ref_report, ref_mem), (bat_report, bat_mem)


def _assert_identical(plan, machine, seed=0):
    (ref_report, ref_mem), (bat_report, bat_mem) = _run_both(
        plan, machine, seed=seed
    )
    # Dataclass equality covers counts, cycle charge buckets,
    # extra_cycles, cache hit/miss totals, per-array access/miss stats,
    # and the per-provenance cost breakdown.
    assert bat_report == ref_report
    assert bat_report.cycles == ref_report.cycles
    assert bat_mem.state_equal(ref_mem)


# -- the full paper matrix ---------------------------------------------------------


@pytest.mark.parametrize(
    "kernel,n",
    [pytest.param(k, 8, id=k.name) for k in ALL_KERNELS]
    + [pytest.param(k, 1024, id=f"{k.name}-1024") for k in ALL_KERNELS],
)
def test_kernel_matrix_identical(kernel, n):
    """Every kernel × variant × machine combination produces reports and
    memories indistinguishable from the reference interpreter — at
    n=1024 with loop entries spanning several ``BLOCK_TRIPS`` blocks."""
    program = kernel.build(n)
    for _, factory in MATRIX_MACHINES:
        machine = factory()
        for variant in DEFAULT_VARIANTS:
            compiled = compile_program(program, variant, machine)
            _assert_identical(compiled.plan, compiled.machine)


def test_amd_non_dyadic_costs_identical():
    """AMD's fractional per-op costs (1.2/1.5/1.6 cycles) are the reason
    accounting uses exact integer charge buckets: summation order cannot
    perturb the float total. Pin one deeper run on that machine."""
    machine = amd_phenom_ii()
    for name in ("namd", "lbm", "milc"):
        program = KERNELS[name].build(32)
        for variant in (Variant.GLOBAL, Variant.GLOBAL_LAYOUT):
            compiled = compile_program(program, variant, machine)
            _assert_identical(compiled.plan, compiled.machine)


# -- fallback coverage -------------------------------------------------------------

REDUCTION_SRC = """
double A[64];
double s;
for (i = 0; i < 64; i += 1) {
    s = s + A[i];
}
"""

RECURRENCE_SRC = """
double A[66];
for (i = 0; i < 64; i += 1) {
    A[i + 1] = A[i] * 0.5;
}
"""

NESTED_SRC = """
double A[64];
double B[64];
for (i = 0; i < 8; i += 1) {
    for (j = 0; j < 8; j += 1) {
        A[i + j] = A[i + j] + B[j];
    }
}
"""

#: Trip counts straddling the batched engine's block size (256).
TRIPS = [8, 255, 256, 257, 600]

#: Batchable at any trip count: a scalar temporary and a constant
#: address, each written before it is read, beside streaming arrays.
AFFINE_SRC = """
double A[{trips}];
double B[{trips}];
double C[{trips}];
double D[4];
double t;
for (i = 0; i < {trips}; i += 1) {{
    t = A[i] * B[i];
    D[1] = t + 2.0;
    C[i] = D[1] - A[i];
}}
"""


def _counters_for(src, variant=Variant.SCALAR):
    program = parse_program(src)
    machine = intel_dunnington()
    compiled = compile_program(program, variant, machine)
    PERF.reset()
    PERF.enable()
    try:
        Simulator(machine, engine="batched").run(compiled.plan)
    finally:
        PERF.disable()
    return (
        PERF.counters.get("simulate.batched_loops", 0),
        PERF.counters.get("simulate.batched_fallbacks", 0),
        compiled,
    )


@pytest.mark.parametrize(
    "src",
    [REDUCTION_SRC, RECURRENCE_SRC],
    ids=["scalar-reduction", "array-recurrence"],
)
def test_fallback_kernels_identical(src):
    """Loops with cross-iteration carries must take the reference path —
    and still match it exactly."""
    batched, fallbacks, compiled = _counters_for(src)
    assert fallbacks >= 1
    assert batched == 0
    _assert_identical(compiled.plan, compiled.machine)


def test_nested_loop_outer_falls_back_inner_batches():
    """Loop nests decompose: the outer loop (which carries an inner
    loop) is not batchable, but each inner instance — affine once the
    outer index is bound — batches on its own."""
    batched, fallbacks, compiled = _counters_for(NESTED_SRC)
    assert fallbacks >= 1      # the outer loop, once
    assert batched == 8        # the inner loop, per outer trip
    _assert_identical(compiled.plan, compiled.machine)


def test_affine_kernel_takes_batched_path():
    """Batched at every trip count, across partial, exact and multiple
    blocks, and still identical to the interpreter."""
    for trips in TRIPS:
        batched, fallbacks, compiled = _counters_for(
            AFFINE_SRC.format(trips=trips)
        )
        assert batched >= 1, trips
        assert fallbacks == 0, trips
        _assert_identical(compiled.plan, compiled.machine)


def test_vectorized_fallback_mix_identical():
    """A real kernel whose loops split between the two paths (reductions
    fall back, streaming loops batch) still reconciles globally."""
    program = KERNELS["cg"].build(16)
    machine = intel_dunnington()
    for variant in DEFAULT_VARIANTS:
        compiled = compile_program(program, variant, machine)
        _assert_identical(compiled.plan, compiled.machine)


# -- random programs ---------------------------------------------------------------

SCALARS = ["s0", "s1", "s2", "s3"]
ARRAYS = ["X", "Y", "Z"]
MAX_COEFF = 3
MAX_CONST = 8


@st.composite
def affine_subscripts(draw):
    coeff = draw(st.sampled_from([0, 1, 1, 1, 2, MAX_COEFF]))
    const = draw(st.integers(min_value=0, max_value=MAX_CONST))
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
    op = draw(st.sampled_from(["+", "-", "*", "+", "/"]))
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
    trips = draw(st.sampled_from(TRIPS))
    size = MAX_COEFF * (trips - 1) + MAX_CONST + 1
    program = Program("random")
    for name in ARRAYS:
        program.declare_array(name, (size,), FLOAT64)
    for name in SCALARS:
        program.declare_scalar(name, FLOAT64)
    program.add(Loop("i", 0, trips, 1, body))
    return program


COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomDifferential:
    @given(
        program=programs(),
        variant=st.sampled_from([Variant.SCALAR, Variant.GLOBAL]),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(**COMMON)
    def test_reports_and_memory_identical(self, program, variant, seed):
        compiled = compile_program(program, variant, intel_dunnington())
        _assert_identical(compiled.plan, compiled.machine, seed=seed)


# -- engine selection plumbing -----------------------------------------------------


class TestEngineSelection:
    def test_default_is_batched(self):
        assert resolve_engine(None) == "batched"
        assert Simulator(intel_dunnington()).engine == "batched"
        assert Simulator(
            intel_dunnington(), engine="reference"
        ).engine == "reference"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("simd-ultra")

    def test_engines_registry(self):
        assert set(MACHINES) == {"intel", "amd"}


class TestOptionsPlumbing:
    def test_run_kernel_engine_option_matches_reference(self):
        machine = intel_dunnington()
        kernel = KERNELS["lbm"]
        ref = run_kernel(
            kernel, machine, n=8, options=CompilerOptions(engine="reference")
        )
        bat = run_kernel(
            kernel, machine, n=8, options=CompilerOptions(engine="batched")
        )
        for variant in DEFAULT_VARIANTS:
            assert bat.runs[variant].report == ref.runs[variant].report
            assert bat.runs[variant].memory.state_equal(
                ref.runs[variant].memory
            )

    def test_compile_cache_key_ignores_engine(self):
        machine = intel_dunnington()
        program = KERNELS["mg"].build(8)
        base = ArtifactStore.key(program, Variant.GLOBAL, machine, None)
        assert base == ArtifactStore.key(
            program,
            Variant.GLOBAL,
            machine,
            CompilerOptions(engine="batched"),
        )
        assert base == ArtifactStore.key(
            program,
            Variant.GLOBAL,
            machine,
            CompilerOptions(engine="reference"),
        )
