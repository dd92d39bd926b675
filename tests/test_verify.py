"""The pipeline verifier: IR well-formedness, schedule invariants,
plan executability — exercised by corrupting known-good artifacts and
asserting the right rule fires."""

import pytest

from repro import (
    CompilerOptions,
    Variant,
    VerifyError,
    compile_program,
    intel_dunnington,
    simulate,
)
from repro.compiler import scalar_schedule, _schedule_block
from repro.errors import OptionsError
from repro.perf import PERF
from repro.ir import (
    Affine,
    ArrayDecl,
    ArrayRef,
    BasicBlock,
    FLOAT32,
    FLOAT64,
    Program,
    Statement,
    Var,
    parse_block,
    parse_program,
)
from repro.slp.model import Schedule, SuperwordStatement
from repro.verify import (
    affine_bounds,
    resolve_checks,
    verify_plan,
    verify_program,
    verify_schedule,
)


# ---------------------------------------------------------------------------
# resolve_checks
# ---------------------------------------------------------------------------


class TestResolveChecks:
    def test_explicit_values(self):
        assert resolve_checks("none") == frozenset()
        assert resolve_checks("all") == {"ir", "schedule", "plan"}
        assert resolve_checks("ir,plan") == {"ir", "plan"}

    def test_unknown_stage_rejected(self):
        with pytest.raises(OptionsError):
            resolve_checks("ir,typo")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "schedule")
        assert resolve_checks(None) == {"schedule"}
        monkeypatch.delenv("REPRO_CHECKS")
        assert resolve_checks(None) == frozenset()

    def test_explicit_beats_env(self, monkeypatch):
        # The documented precedence: an options value wins over env.
        monkeypatch.setenv("REPRO_CHECKS", "all")
        assert resolve_checks("none") == frozenset()


# ---------------------------------------------------------------------------
# Stage: ir
# ---------------------------------------------------------------------------


def _rule(excinfo):
    return excinfo.value.rule


class TestVerifyProgram:
    def test_clean_program_passes(self):
        verify_program(parse_program(
            "float A[8]; float s;\n"
            "for (i = 0; i < 8; i += 1) { A[i] = s; }"
        ))

    def test_undeclared_array(self):
        program = Program()
        program.declare_scalar("s", FLOAT32)
        ghost = ArrayRef("G", (Affine((), 0),), FLOAT32)
        program.add(BasicBlock([Statement(0, Var("s", FLOAT32), ghost)]))
        with pytest.raises(VerifyError) as excinfo:
            verify_program(program)
        assert _rule(excinfo) == "ir.undeclared-array"

    def test_undeclared_scalar(self):
        program = Program()
        program.declare_array("A", (4,), FLOAT32)
        target = ArrayRef("A", (Affine((), 0),), FLOAT32)
        program.add(
            BasicBlock([Statement(0, target, Var("ghost", FLOAT32))])
        )
        with pytest.raises(VerifyError) as excinfo:
            verify_program(program)
        assert _rule(excinfo) == "ir.undeclared-scalar"

    def test_subscript_exceeds_bounds(self):
        program = parse_program(
            "float A[8]; for (i = 0; i < 9; i += 1) { A[i] = 1.0; }"
        )
        with pytest.raises(VerifyError) as excinfo:
            verify_program(program)
        assert _rule(excinfo) == "ir.bounds"
        assert excinfo.value.stage == "ir"
        assert excinfo.value.block == "b0"

    def test_type_mismatch(self):
        program = Program()
        program.declare_array("A", (4,), FLOAT32)
        # The reference claims FLOAT64 against a FLOAT32 declaration.
        bad = ArrayRef("A", (Affine((), 0),), FLOAT64)
        program.declare_scalar("s", FLOAT64)
        program.add(BasicBlock([Statement(0, Var("s", FLOAT64), bad)]))
        with pytest.raises(VerifyError) as excinfo:
            verify_program(program)
        assert _rule(excinfo) == "ir.type"

    def test_duplicate_sid(self):
        program = Program()
        program.declare_scalar("s", FLOAT32)
        block = BasicBlock()
        block.append(
            Statement(0, Var("s", FLOAT32), Var("s", FLOAT32))
        )
        # Bypass BasicBlock.append's own guard — simulate a corrupted
        # block produced by a buggy transformation.
        block.statements.append(
            Statement(0, Var("s", FLOAT32), Var("s", FLOAT32))
        )
        program.add(block)
        with pytest.raises(VerifyError) as excinfo:
            verify_program(program)
        assert _rule(excinfo) == "ir.duplicate-sid"

    def test_degenerate_shape(self):
        program = Program()
        program.arrays["A"] = ArrayDecl("A", (0,), FLOAT32)
        with pytest.raises(VerifyError) as excinfo:
            verify_program(program)
        assert _rule(excinfo) == "ir.shape"

    def test_zero_trip_loop_body_is_dead(self):
        # The subscript would run out of bounds, but the loop never
        # executes, so there is nothing to bound.
        verify_program(parse_program(
            "float A[2]; for (i = 5; i < 5; i += 1) { A[i + 8] = 1.0; }"
        ))


def test_affine_bounds_negative_coefficient():
    affine = Affine.var("i", -2) + 10
    assert affine_bounds(affine, {"i": (0, 4, 1)}) == (4, 10)


# ---------------------------------------------------------------------------
# Stage: schedule (mutation tests)
# ---------------------------------------------------------------------------

_DECLS = "float A[64]; float B[64];"
_PACKABLE = """
A[0] = B[0] + 1.0;
A[1] = B[1] + 1.0;
A[2] = B[2] + 1.0;
A[3] = B[3] + 1.0;
"""


def _schedule_for(src=_PACKABLE, decls=_DECLS):
    block = parse_block(src, decls)
    program = parse_program(decls + "\n" + src)
    schedule, _ = _schedule_block(block, Variant.SLP, program, 128)
    return block, schedule


class TestVerifySchedule:
    def test_good_schedule_passes(self):
        block, schedule = _schedule_for()
        verify_schedule(block, schedule, 128, block="b0")

    def test_dropped_statement(self):
        block, _ = _schedule_for()
        schedule = scalar_schedule(block)
        schedule.items = schedule.items[:-1]          # lose S3
        with pytest.raises(VerifyError) as excinfo:
            verify_schedule(block, schedule, 128, block="b0")
        assert _rule(excinfo) == "schedule.complete"
        assert excinfo.value.stage == "schedule"
        assert excinfo.value.block == "b0"

    def test_swapped_dependent_statements(self):
        block = parse_block(
            "A[0] = B[0] + 1.0;\nA[1] = A[0] + 1.0;", _DECLS
        )
        schedule = scalar_schedule(block)
        schedule.items = list(reversed(schedule.items))
        with pytest.raises(VerifyError) as excinfo:
            verify_schedule(block, schedule, 128, block="b0")
        assert _rule(excinfo) == "schedule.dependence"

    def test_oversize_pack(self):
        src = "\n".join(f"A[{k}] = B[{k}] + 1.0;" for k in range(8))
        block = parse_block(src, _DECLS)
        pack = SuperwordStatement(tuple(block.statements))  # 8 x 32 bits
        schedule = Schedule(block, [pack])
        with pytest.raises(VerifyError) as excinfo:
            verify_schedule(block, schedule, 128, block="b0")
        assert _rule(excinfo) == "schedule.width"

    def test_dependent_statements_in_one_pack(self):
        block = parse_block(
            "A[0] = B[0] + 1.0;\nA[1] = A[0] + 1.0;", _DECLS
        )
        pack = SuperwordStatement(tuple(block.statements))
        schedule = Schedule(block, [pack])
        with pytest.raises(VerifyError) as excinfo:
            verify_schedule(block, schedule, 128, block="b0")
        assert _rule(excinfo) == "schedule.independent"

    def test_statement_scheduled_twice(self):
        block, _ = _schedule_for()
        schedule = scalar_schedule(block)
        schedule.items = schedule.items + [schedule.items[0]]
        with pytest.raises(VerifyError) as excinfo:
            verify_schedule(block, schedule, 128, block="b0")
        assert _rule(excinfo) == "schedule.duplicate"

    def test_non_isomorphic_pack(self):
        block = parse_block(
            "A[0] = B[0] + 1.0;\nA[1] = B[1] * B[2];", _DECLS
        )
        # The constructor refuses non-isomorphic members, so corrupt a
        # pack the way a buggy pass would: behind the constructor.
        pack = SuperwordStatement.__new__(SuperwordStatement)
        object.__setattr__(pack, "members", tuple(block.statements))
        schedule = Schedule(block, [pack])
        with pytest.raises(VerifyError) as excinfo:
            verify_schedule(block, schedule, 128, block="b0")
        assert _rule(excinfo) == "schedule.isomorphic"


# ---------------------------------------------------------------------------
# Stage: plan
# ---------------------------------------------------------------------------


class TestVerifyPlan:
    def test_every_variant_of_a_real_kernel_passes(self):
        program = parse_program(
            "float A[64]; float B[64]; float C[64];\n"
            "for (i = 0; i < 64; i += 1) { C[i] = A[i] * B[i] + C[i]; }"
        )
        machine = intel_dunnington()
        for variant in Variant:
            result = compile_program(
                program, variant, machine, CompilerOptions(checks="none")
            )
            verify_plan(result.plan, machine)

    def test_undefined_register_caught(self):
        from repro.vm.isa import VOp
        from repro.vm.codegen import CompiledStraight

        program = parse_program("float A[4];")
        result = compile_program(
            program, Variant.SCALAR, intel_dunnington(),
            CompilerOptions(checks="none"),
        )
        result.plan.units.append(
            CompiledStraight([VOp("+", 99, (7, 8), 4)])
        )
        with pytest.raises(VerifyError) as excinfo:
            verify_plan(result.plan, intel_dunnington())
        assert _rule(excinfo) == "plan.register-live"


# ---------------------------------------------------------------------------
# Compiler integration: checks= and on_error=
# ---------------------------------------------------------------------------

_LOOP_SRC = """
float A[64]; float B[64]; float C[64];
for (i = 0; i < 64; i += 1) {
  A[i] = B[i] + 1.0;
  C[i] = A[i] * 2.0;
}
"""


class TestCompilerIntegration:
    def test_mutated_schedule_raises_with_context(self):
        from repro.fuzz import buggy_swap_mutator

        program = parse_program(
            _DECLS + "\nA[0] = B[0] + 1.0;\nA[1] = A[0] + 1.0;"
        )
        with pytest.raises(VerifyError) as excinfo:
            compile_program(
                program, Variant.SLP, intel_dunnington(),
                CompilerOptions(
                    checks="all",
                    debug_schedule_mutator=buggy_swap_mutator,
                ),
            )
        assert excinfo.value.stage == "schedule"
        assert excinfo.value.block == "b0"

    def test_fallback_recovers_with_scalar_semantics(self):
        from repro.fuzz import buggy_swap_mutator

        program = parse_program(_LOOP_SRC)
        machine = intel_dunnington()
        scalar = compile_program(program, Variant.SCALAR, machine)
        _, base_memory = simulate(scalar)

        PERF.reset()
        PERF.enable()
        try:
            compile_program(
                program, Variant.GLOBAL, machine,
                CompilerOptions(checks="all", on_error="fallback"),
            )
            clean = PERF.counters.get("compile.fallback_blocks", 0)
            result = compile_program(
                program, Variant.GLOBAL, machine,
                CompilerOptions(
                    checks="all",
                    on_error="fallback",
                    cost_gate=False,
                    debug_schedule_mutator=buggy_swap_mutator,
                ),
            )
            counted = PERF.counters.get("compile.fallback_blocks", 0)
        finally:
            PERF.disable()
            PERF.reset()
        # The degradation is counted, one per degraded block, and a
        # clean compile counts nothing.
        assert clean == 0
        assert counted == len(result.fallback_blocks)
        assert result.fallback_blocks == ["b0"]
        assert len(result.diagnostics) == 1
        diagnostic = result.diagnostics[0]
        assert diagnostic.stage == "schedule"
        assert diagnostic.block == "b0"
        assert diagnostic.error == "VerifyError"
        _, memory = simulate(result)
        assert memory.state_equal(base_memory)

    def test_preprocess_fallback_counts_the_program_once(self, monkeypatch):
        import repro.compiler as compiler_mod
        from repro.errors import IRError

        def failing_unroll(*args, **kwargs):
            raise IRError("unroll failed")

        monkeypatch.setattr(compiler_mod, "unroll_program", failing_unroll)
        PERF.reset()
        PERF.enable()
        try:
            result = compile_program(
                parse_program(_LOOP_SRC), Variant.GLOBAL, intel_dunnington(),
                CompilerOptions(on_error="fallback"),
            )
            counted = PERF.counters.get("compile.fallback_blocks", 0)
        finally:
            PERF.disable()
            PERF.reset()
        assert result.fallback_blocks == ["<program>"]
        assert result.diagnostics[0].stage == "preprocess"
        assert counted == 1

    def test_fallback_never_hides_bad_input(self):
        # An ir-stage violation in the *source* is not recoverable.
        program = parse_program(
            "float A[4]; for (i = 0; i < 8; i += 1) { A[i] = 1.0; }"
        )
        with pytest.raises(VerifyError):
            compile_program(
                program, Variant.GLOBAL, intel_dunnington(),
                CompilerOptions(checks="all", on_error="fallback"),
            )

    def test_checks_none_lets_the_mutation_through(self):
        from repro.fuzz import buggy_swap_mutator

        program = parse_program(
            _DECLS + "\nA[0] = B[0] + 1.0;\nA[1] = A[0] + 1.0;"
        )
        result = compile_program(
            program, Variant.SLP, intel_dunnington(),
            CompilerOptions(
                checks="none", cost_gate=False,
                debug_schedule_mutator=buggy_swap_mutator,
            ),
        )
        assert result.diagnostics == []
