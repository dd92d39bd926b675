"""The end-to-end framework driver: variants, cost gate, layout stage,
differential correctness."""

import dataclasses

import pytest

from repro import (
    CompilerOptions,
    OptionsError,
    Variant,
    compile_program,
    intel_dunnington,
    simulate,
)
from repro.compiler import OPTION_RULES
from repro.ir import parse_program
from repro.vm import CompiledCopy, CompiledLoop, CompiledStraight

REUSE_RICH = """
double U[4096]; double V[4096]; double W[4096];
double tl, tr, lap;
for (i = 1; i < 257; i += 1) {
    tl = U[i - 1] + U[i];
    tr = U[i] + U[i + 1];
    lap = tr - tl;
    V[i] = V[i] + lap * 0.5;
    W[i] = W[i] + lap * 0.25;
}
"""


def compile_and_run(variant, src=REUSE_RICH, **options):
    program = parse_program(src)
    result = compile_program(
        program, variant, intel_dunnington(), CompilerOptions(**options)
    )
    report, memory = simulate(result)
    return result, report, memory


class TestVariants:
    def test_scalar_plan_has_no_vector_code(self):
        result, report, _ = compile_and_run(Variant.SCALAR)
        assert report.counts.get("vector_op", 0) == 0
        assert result.stats.superword_statements == 0

    def test_global_vectorizes_and_wins(self):
        scalar, s_report, s_mem = compile_and_run(Variant.SCALAR)
        result, report, memory = compile_and_run(Variant.GLOBAL)
        assert result.stats.superword_statements > 0
        assert report.cycles < s_report.cycles
        assert memory.state_equal(s_mem)

    def test_all_variants_preserve_semantics(self):
        _, _, base = compile_and_run(Variant.SCALAR)
        for variant in Variant:
            _, _, memory = compile_and_run(variant)
            assert memory.state_equal(base), variant.value

    def test_compile_stats_populated(self):
        result, _, _ = compile_and_run(Variant.GLOBAL)
        stats = result.stats
        assert stats.blocks_total >= 1
        assert stats.total_statements > 0
        assert 0.0 < stats.grouped_fraction <= 1.0
        assert stats.compile_seconds > 0


class TestCostGate:
    UNPROFITABLE = """
    double X[256]; double Y[256];
    for (i = 0; i < 32; i += 1) {
        Y[17 + 2*i] = X[31 + 2*i] / X[2*i];
    }
    """

    def test_gate_falls_back_to_scalar(self):
        # Strided loads + strided stores + a lone statement per group:
        # vectorization cannot pay for the gathers.
        result, report, _ = compile_and_run(
            Variant.GLOBAL, self.UNPROFITABLE
        )
        gated, gated_report, _ = compile_and_run(
            Variant.GLOBAL, self.UNPROFITABLE, cost_gate=False
        )
        # Either the gate fired (no vector ops) or vectorizing was
        # genuinely profitable; in both cases the gated build must not
        # be slower than the ungated one.
        assert report.cycles <= gated_report.cycles + 1e-9

    def test_gate_never_worse_than_scalar(self):
        _, scalar_report, _ = compile_and_run(
            Variant.SCALAR, self.UNPROFITABLE
        )
        _, report, _ = compile_and_run(Variant.GLOBAL, self.UNPROFITABLE)
        assert report.cycles <= scalar_report.cycles + 1e-9


class TestLayoutStage:
    STRIDED = """
    double F[4096]; double R[512];
    for (i = 0; i < 128; i += 1) {
        R[i] = F[9*i] + F[9*i + 1];
    }
    """

    def test_layout_variant_creates_replicas(self):
        result, report, memory = compile_and_run(
            Variant.GLOBAL_LAYOUT, self.STRIDED
        )
        assert result.stats.replications > 0
        copies = [
            u for u in result.plan.units if isinstance(u, CompiledCopy)
        ]
        assert copies
        assert any(
            name.startswith("__slp_rep") for name in memory.arrays
        )

    def test_layout_beats_plain_global_on_strided_code(self):
        _, plain, _ = compile_and_run(Variant.GLOBAL, self.STRIDED)
        _, layout, _ = compile_and_run(Variant.GLOBAL_LAYOUT, self.STRIDED)
        assert layout.cycles < plain.cycles

    def test_layout_preserves_semantics(self):
        _, _, base = compile_and_run(Variant.SCALAR, self.STRIDED)
        _, _, memory = compile_and_run(Variant.GLOBAL_LAYOUT, self.STRIDED)
        assert memory.state_equal(base)

    def test_budget_disables_replication(self):
        result, _, _ = compile_and_run(
            Variant.GLOBAL_LAYOUT,
            self.STRIDED,
            layout_budget_elements=4,
        )
        assert result.stats.replications == 0


class TestOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("layout_amortization", -1.0),
            ("layout_amortization", 0),
            ("datapath_bits", 100),
            ("unroll_factor", -2),
            ("unroll_factor", 0),
            ("unroll_factor", "eight"),
            ("unroll_factor", True),
            ("layout_budget_elements", -5),
            ("optimal_node_budget", 0),
            ("cost_gate", 1),
        ],
    )
    def test_meaningless_values_raise_at_construction(self, field, value):
        with pytest.raises(OptionsError):
            CompilerOptions(**{field: value})

    def test_boundary_values_are_accepted(self):
        CompilerOptions(
            unroll_factor=1,
            layout_budget_elements=0,
            layout_amortization=16,
            optimal_node_budget=1,
            datapath_bits=64,
        )

    def test_rules_cover_every_field_the_wire_can_set(self):
        names = [f.name for f in dataclasses.fields(CompilerOptions)]
        assert list(OPTION_RULES) == [
            name for name in names if name != "debug_schedule_mutator"
        ]

    def test_datapath_override(self):
        program = parse_program(REUSE_RICH)
        wide = compile_program(
            program,
            Variant.GLOBAL,
            intel_dunnington(),
            CompilerOptions(datapath_bits=256),
        )
        assert wide.machine.datapath_bits == 256

    def test_unroll_disabled_keeps_loop_rolled(self):
        program = parse_program(
            "double X[64]; for (i = 0; i < 32; i += 1) "
            "{ X[i] = X[i] + 1.0; }"
        )
        result = compile_program(
            program,
            Variant.GLOBAL,
            intel_dunnington(),
            CompilerOptions(unroll_factor=1),
        )
        loops = [
            u for u in result.plan.units if isinstance(u, CompiledLoop)
        ]
        assert loops[0].spec.step == 1

    def test_remainder_loop_executes(self):
        # 30 trips with unroll factor 2: 15 main + no remainder; with
        # 31 trips the remainder loop must cover the last iteration.
        src = (
            "double X[64]; for (i = 0; i < 31; i += 1) "
            "{ X[i] = X[i] * 2.0; }"
        )
        _, _, base = compile_and_run(Variant.SCALAR, src)
        result, _, memory = compile_and_run(Variant.GLOBAL, src)
        assert memory.state_equal(base)

    def test_straight_line_blocks_compile(self):
        src = """
        double a, b, c, d;
        double X[8];
        a = X[0]; b = X[1];
        X[2] = a * 2.0; X[3] = b * 2.0;
        """
        _, _, base = compile_and_run(Variant.SCALAR, src)
        result, _, memory = compile_and_run(Variant.GLOBAL, src)
        assert memory.state_equal(base)

    def test_nested_loops_compile_and_match(self):
        src = """
        double M[1024];
        for (i = 0; i < 8; i += 1) {
            for (j = 0; j < 16; j += 1) {
                M[64 + 16*i + j] = M[16*i + j] * 2.0;
            }
        }
        """
        _, _, base = compile_and_run(Variant.SCALAR, src)
        _, _, memory = compile_and_run(Variant.GLOBAL, src)
        assert memory.state_equal(base)
