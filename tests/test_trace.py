"""The structured decision tracer: determinism, round-trip, provenance
consistency between the compile-time trace and the emitted plan, schema
validation, runtime attribution, and the diff view."""

import pytest

from repro.compiler import CompilerOptions, Variant, compile_program
from repro.ir import parse_program
from repro.trace import (
    SCHEMA,
    TRACE,
    canonical_jsonl,
    diff_records,
    load_jsonl,
    provenance_id,
    render_tree,
    summarize,
    to_jsonl,
    traced_run,
    validate_records,
)
from repro.vm import MACHINES, Simulator
from repro.vm.codegen import CompiledLoop, CompiledStraight

SRC = """
float A[64]; float B[64]; float C[64];
float ar, ai, br, bi;
for (i = 0; i < 16; i += 1) {
    ar = A[2*i];
    ai = A[2*i + 1];
    br = B[2*i];
    bi = B[2*i + 1];
    C[2*i] = ar * br - ai * bi;
    C[2*i + 1] = ar * bi + ai * br;
}
"""


@pytest.fixture(autouse=True)
def _clean_tracer():
    TRACE.disable()
    TRACE.reset()
    yield
    TRACE.disable()
    TRACE.reset()


def traced_compile(variant=Variant.GLOBAL, simulate=True, src=SRC):
    run = traced_run(
        parse_program(src), variant, MACHINES["intel"](),
        simulate=simulate, meta={"variant": variant.value},
    )
    return run.result, run.records


def plan_instructions(plan):
    for unit in plan.units:
        if isinstance(unit, CompiledStraight):
            yield from unit.instructions
        elif isinstance(unit, CompiledLoop):
            loop = unit
            while loop is not None:
                yield from loop.preheader
                yield from loop.body
                loop = loop.inner


class TestDeterminism:
    def test_same_compile_gives_byte_identical_canonical_trace(self):
        _, first = traced_compile()
        _, second = traced_compile()
        assert canonical_jsonl(first) == canonical_jsonl(second)

    def test_only_wall_clock_fields_differ_between_runs(self):
        _, records = traced_compile()
        # The canonical form strips something real: the raw form carries
        # wall_ms on span ends.
        assert any("wall_ms" in record for record in records)
        assert "wall_ms" not in canonical_jsonl(records)


class TestRoundTrip:
    def test_jsonl_round_trips(self):
        _, records = traced_compile()
        assert load_jsonl(to_jsonl(records)) == records

    def test_wrong_schema_is_rejected(self):
        with pytest.raises(ValueError):
            load_jsonl('{"schema": "someone.else/9", "meta": {}}\n')

    def test_empty_trace_is_rejected(self):
        with pytest.raises(ValueError):
            load_jsonl("")

    def test_header_carries_schema_and_meta(self):
        _, records = traced_compile()
        assert records[0]["schema"] == SCHEMA
        assert records[0]["meta"]["variant"] == "global"


class TestSchema:
    def test_real_trace_validates_clean(self):
        _, records = traced_compile()
        assert validate_records(records) == []

    def test_validate_flags_unknown_events_and_bad_seq(self):
        _, records = traced_compile()
        broken = [dict(r) for r in records]
        broken[1]["ev"] = "nonsense.event"
        broken[2]["seq"] = 0
        errors = validate_records(broken)
        assert any("unknown event" in e for e in errors)
        assert any("not strictly increasing" in e for e in errors)


class TestProvenance:
    def test_plan_provenance_ids_come_from_grouping_commits(self):
        result, records = traced_compile(Variant.GLOBAL)
        committed = {
            r["prov"] for r in records if r.get("ev") == "grouping.commit"
        }
        plan_provs = {
            instr.prov
            for instr in plan_instructions(result.plan)
            if getattr(instr, "prov", None) is not None
        }
        superword_provs = {p for p in plan_provs if "+" in p}
        assert superword_provs
        assert superword_provs <= committed

    def test_runtime_attribution_uses_the_same_ids(self):
        _, records = traced_compile(Variant.GLOBAL)
        committed = {
            r["prov"] for r in records if r.get("ev") == "grouping.commit"
        }
        attributed = {
            r["prov"]
            for r in records
            if r.get("ev") == "runtime.provenance" and "+" in r["prov"]
        }
        assert attributed
        assert attributed <= committed

    def test_provenance_ids_are_block_qualified(self):
        _, records = traced_compile(Variant.GLOBAL)
        provs = [
            r["prov"] for r in records if r.get("ev") == "grouping.commit"
        ]
        assert provs
        assert all(p.startswith("b0:") for p in provs)

    def test_provenance_id_formatting(self):
        assert provenance_id((3, 1), "b2") == "b2:S1+S3"
        assert provenance_id((7,)) == "S7"

    def test_untraced_compile_emits_untagged_plan(self):
        TRACE.disable()
        TRACE.reset()
        program = parse_program(SRC)
        machine = MACHINES["intel"]()
        result = compile_program(
            program, Variant.GLOBAL, machine, CompilerOptions()
        )
        assert all(
            getattr(instr, "prov", None) is None
            for instr in plan_instructions(result.plan)
        )
        # ...and nothing was recorded while disabled.
        assert TRACE.records()[1:] == []


class TestRuntimeAttribution:
    def test_simulator_populates_provenance_costs(self):
        result, _ = traced_compile(Variant.GLOBAL, simulate=False)
        report, _memory = Simulator(result.machine).run(result.plan)
        assert report.provenance
        assert all(
            cost.cycles >= 0 and cost.instructions > 0
            for cost in report.provenance.values()
        )

    def test_array_cache_hits_never_negative(self):
        result, _ = traced_compile(Variant.GLOBAL, simulate=False)
        report, _memory = Simulator(result.machine).run(result.plan)
        assert report.array_accesses
        for array, accesses in report.array_accesses.items():
            assert accesses >= report.array_misses.get(array, 0)

    def test_runtime_events_present_in_trace(self):
        _, records = traced_compile(Variant.GLOBAL)
        kinds = {r.get("ev") for r in records[1:]}
        assert "runtime.provenance" in kinds
        assert "runtime.array_cache" in kinds
        assert "runtime.totals" in kinds


class TestViews:
    def test_render_tree_mentions_decisions(self):
        _, records = traced_compile()
        tree = render_tree(records)
        assert "grouping.commit" in tree
        assert "runtime.totals" in tree

    def test_summarize_counts_decisions(self):
        _, records = traced_compile()
        summary = summarize(records)
        assert summary["decisions"] > 0
        assert summary["events"] == len(records) - 1
        assert summary["runtime"]["cycles"] > 0

    def test_diff_between_variants_reports_deltas(self):
        _, global_records = traced_compile(Variant.GLOBAL)
        _, slp_records = traced_compile(Variant.SLP)
        text = diff_records(global_records, slp_records, "global", "slp")
        assert "--- global" in text
        assert "+++ slp" in text
        assert "totals: cycles" in text
        assert "dcycles=" in text or "decisions only" in text

    def test_diff_of_identical_traces_is_all_shared(self):
        _, records = traced_compile()
        text = diff_records(records, records, "a", "b")
        assert "decisions only in a (0)" in text
        assert "decisions only in b (0)" in text


class TestDisabledCost:
    # Span behaviour (shared null object, resets while open) is tested
    # with the span primitive itself, in test_perf.py.
    def test_disabled_event_records_nothing(self):
        TRACE.disable()
        TRACE.event("grouping.commit", prov="b0:S0+S1")
        assert TRACE.records()[1:] == []
