"""If-conversion: region lowering, predicated packing, and the
branch-semantics differential oracle across every engine axis."""

import pytest

from repro import (
    CompilerOptions,
    Variant,
    compile_program,
    intel_dunnington,
    simulate,
)
from repro.bench import BRANCHY_KERNELS
from repro.bench.predication import count_vselects
from repro.ir import (
    FLOAT64,
    Predicate,
    ProgramBuilder,
    Select,
    parse_program,
    select,
)
from repro.slp.grouping import GROUPING_ENGINES
from repro.transform import (
    convert_region,
    has_regions,
    if_convert_block,
    if_convert_program,
)
from repro.vm import Simulator
from repro.vm.simulator import SIM_ENGINES, interpret_program


def _diamond_program():
    return parse_program(
        """
        double A[16]; double B[16]; double c;
        for (i = 0; i < 8; i += 1) {
            if (A[i] > c) {
                B[i] = c;
            } else {
                B[i] = A[i];
            }
        }
        """
    )


def _masked_program():
    return parse_program(
        """
        double A[16]; double ACC[16]; double B[16];
        for (i = 0; i < 8; i += 1) {
            if (A[i] > B[i]) {
                ACC[i] = ACC[i] + A[i];
                B[i] = B[i] * 2.0;
            }
        }
        """
    )


class TestConvertShapes:
    def test_select_merge_is_unpredicated(self):
        region = next(iter(_diamond_program().loops())).body.statements[0]
        lowered = convert_region(region)
        assert len(lowered) == 1
        stmt = lowered[0]
        assert isinstance(stmt.expr, Select)
        assert stmt.pred is None
        assert stmt.expr.cond == region.cond

    def test_masked_update_carries_predicates(self):
        region = next(iter(_masked_program().loops())).body.statements[0]
        lowered = convert_region(region)
        assert len(lowered) == 2
        for stmt in lowered:
            assert isinstance(stmt.expr, Select)
            assert stmt.pred == Predicate(region.cond, True)
            # The untaken arm re-reads the target lane.
            assert stmt.expr.on_false == stmt.target

    def test_else_statements_get_inverted_polarity(self):
        program = parse_program(
            """
            double A[8]; double B[8]; double c;
            if (A[0] > c) {
                B[0] = c;
            } else {
                B[1] = c;
            }
            """
        )
        lowered = convert_region(program.body[0].statements[0])
        assert lowered[0].pred.when is True
        assert lowered[1].pred.when is False
        # select(c, target, rhs): the else arm only fires when c is 0.
        assert lowered[1].expr.on_true == lowered[1].target

    def test_identity_when_no_regions(self):
        program = parse_program("double a;\na = 1.0;")
        assert if_convert_program(program) is program
        block = program.body[0]
        assert if_convert_block(block) is block

    def test_converted_block_is_straight_line_and_renumbered(self):
        program = if_convert_program(_masked_program())
        block = next(iter(program.loops())).body
        assert not block.has_regions
        assert [s.sid for s in block.flat_statements()] == [0, 1]

    def test_mergeable_property_matches_shapes(self):
        diamond = next(iter(_diamond_program().loops())).body.statements[0]
        masked = next(iter(_masked_program().loops())).body.statements[0]
        assert diamond.mergeable
        assert not masked.mergeable

    def test_region_rejects_early_condition_operand_write(self):
        from repro.errors import IRError
        from repro.ir import parse_program as parse

        legal = parse(
            """
            double A[8]; double B[8]; double c;
            if (A[0] > c) {
                B[0] = c;
                A[1] = B[0];
            }
            """
        )
        region = legal.body[0].statements[0]
        # Reordering puts the A-write before a later cond re-evaluation.
        with pytest.raises(IRError) as exc:
            type(region)(
                region.cond,
                (region.then_body[1], region.then_body[0]),
            )
        assert "'A'" in str(exc.value)

    def test_mixed_predicates_never_share_a_signature(self):
        program = parse_program(
            """
            double A[8]; double B[8]; double C[8]; double c;
            if (A[0] > c) {
                B[0] = A[0];
            } else {
                C[0] = A[0];
            }
            """
        )
        lowered = convert_region(program.body[0].statements[0])
        then_sig = lowered[0].isomorphism_signature()
        else_sig = lowered[1].isomorphism_signature()
        assert then_sig != else_sig


class TestDifferentialOracle:
    """The tentpole contract: the original branchy program under true
    branch semantics must match the if-converted, vectorized program
    under every grouping engine x sim engine, bit for bit."""

    PROGRAMS = {
        "diamond": _diamond_program,
        "masked": _masked_program,
        **{k.name: (lambda k=k: k.build(16)) for k in BRANCHY_KERNELS},
    }

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @pytest.mark.parametrize("variant", [Variant.SLP, Variant.GLOBAL])
    def test_branch_semantics_preserved_everywhere(self, name, variant):
        machine = intel_dunnington()
        program = self.PROGRAMS[name]()
        assert has_regions(program)
        oracle = interpret_program(program, seed=0)
        for grouping in GROUPING_ENGINES:
            options = CompilerOptions(
                grouping_engine=grouping, on_error="raise"
            )
            result = compile_program(program, variant, machine, options)
            for sim_engine in SIM_ENGINES:
                _, memory = Simulator(machine, engine=sim_engine).run(
                    result.plan, seed=0
                )
                assert memory.state_equal(oracle), (
                    f"{name}/{variant.value}/{grouping}/{sim_engine}"
                )

    @pytest.mark.parametrize(
        "kernel", BRANCHY_KERNELS, ids=lambda k: k.name
    )
    def test_branchy_kernels_emit_vselect_packs(self, kernel):
        machine = intel_dunnington()
        result = compile_program(
            kernel.build(64),
            Variant.GLOBAL,
            machine,
            CompilerOptions(on_error="raise"),
        )
        assert count_vselects(result.plan) >= 1

    def test_scalar_variant_also_runs_converted_form(self):
        machine = intel_dunnington()
        program = _diamond_program()
        result = compile_program(
            program, Variant.SCALAR, machine, CompilerOptions()
        )
        _, memory = simulate(result)
        assert memory.state_equal(interpret_program(program, seed=0))


class TestBuilderRegions:
    def test_builder_if_else_matches_parsed_form(self):
        b = ProgramBuilder("diamond")
        A = b.array("A", (16,), FLOAT64)
        B = b.array("B", (16,), FLOAT64)
        c = b.scalar("c", FLOAT64)
        with b.loop("i", 0, 8) as i:
            with b.if_(A[i] > c):
                b.assign(B[i], c)
            with b.else_():
                b.assign(B[i], A[i])
        from repro.ir import format_program

        # The builder canonicalizes `A[i] > c` to `c < A[i]`; compare
        # against the same program parsed in canonical form.
        reference = parse_program(
            """
            double A[16]; double B[16]; double c;
            for (i = 0; i < 8; i += 1) {
                if (c < A[i]) {
                    B[i] = c;
                } else {
                    B[i] = A[i];
                }
            }
            """
        )
        built = format_program(b.build())
        parsed = format_program(reference)
        assert built.splitlines()[1:] == parsed.splitlines()[1:]

    def test_builder_select_expression(self):
        b = ProgramBuilder("sel")
        A = b.array("A", (8,), FLOAT64)
        c = b.scalar("c", FLOAT64)
        stmt = b.assign(A[0], select(A[1] > c, c, A[1]))
        assert isinstance(stmt.expr, Select)

    def test_nested_if_rejected(self):
        b = ProgramBuilder("nested")
        A = b.array("A", (8,), FLOAT64)
        c = b.scalar("c", FLOAT64)
        with pytest.raises(Exception):
            with b.if_(A[0] > c):
                with b.if_(A[1] > c):
                    b.assign(A[0], c)


class TestMachineCosts:
    def test_select_and_compare_are_costed(self):
        from repro.vm import amd_phenom_ii

        intel = intel_dunnington()
        amd = amd_phenom_ii()
        assert intel.op_cost("select") == intel.blend
        assert intel.op_cost("<") == intel.compare
        assert amd.op_cost("select") == pytest.approx(1.4)
        assert amd.op_cost("!=") == pytest.approx(1.2)


class TestTraceEvents:
    def test_if_convert_events_are_traced(self):
        from repro.trace import TRACE

        TRACE.reset()
        TRACE.enable()
        try:
            if_convert_program(_diamond_program())
            events = [
                e for e in TRACE.events if e.get("ev") == "if_convert"
            ]
        finally:
            TRACE.disable()
            TRACE.reset()
        assert len(events) == 1
        assert events[0]["decision"] == "select-merge"
        assert events[0]["has_else"] is True

    def test_if_convert_events_pass_schema_validation(self):
        # Regression: `repro trace --validate` used to reject the
        # if_convert event kind.
        from repro.trace import TRACE, validate_records

        TRACE.reset()
        TRACE.enable()
        try:
            if_convert_program(_diamond_program())
            errors = validate_records(TRACE.records())
        finally:
            TRACE.disable()
            TRACE.reset()
        assert errors == []
