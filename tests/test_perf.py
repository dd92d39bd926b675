"""The instrumentation spine (`repro.perf`): one span primitive feeding
the timing registry and the decision tracer, plus counters."""

from __future__ import annotations

import json
import time

import pytest

from repro.perf import CONTEXT_SPANS, PERF, PerfRegistry, count, span
from repro.trace import TRACE, validate_records

#: The layers every compile span is named after, besides its context.
LAYERS = {
    "transform", "analysis.deps", "slp.grouping", "slp.vp_graph",
    "slp.schedule", "slp.baseline", "layout", "codegen.vector",
    "codegen.scalar",
}


@pytest.fixture(autouse=True)
def _quiet_sinks():
    for sink in (PERF, TRACE):
        sink.disable()
        sink.reset()
    yield
    for sink in (PERF, TRACE):
        sink.disable()
        sink.reset()


def test_disabled_registry_records_nothing():
    reg = PerfRegistry()
    with reg.span("anything"):
        pass
    reg.count("events", 5)
    assert reg.sections == {}
    assert reg.counters == {}


def test_disabled_span_is_shared_null_object():
    # Both sinks off: every span site gets the same stateless object,
    # whatever its name or fields, and nothing is pushed.
    a = span("x", foo=1)
    b = span("y")
    assert a is b
    with a:
        assert PERF.stack == []


def test_sections_accumulate_time_and_calls():
    reg = PerfRegistry()
    reg.enable()
    for _ in range(3):
        with reg.span("stage"):
            time.sleep(0.001)
    stat = reg.sections["stage"]
    assert stat.calls == 3
    assert stat.seconds >= 0.003


def test_nested_sections_record_the_path():
    reg = PerfRegistry()
    reg.enable()
    with reg.span("outer"):
        with reg.span("inner"):
            with reg.span("leaf"):
                assert [f.path for f in reg.stack] == [
                    "outer", "outer;inner", "outer;inner;leaf",
                ]
        with reg.span("inner"):
            pass
    # Each span records under its path only: no flat-name duplicates.
    assert set(reg.sections) == {"outer", "outer;inner", "outer;inner;leaf"}
    assert reg.sections["outer;inner"].calls == 2
    assert reg.stack == []


def test_counters_accumulate():
    reg = PerfRegistry()
    reg.enable()
    reg.count("scores")
    reg.count("scores", 4)
    assert reg.counters == {"scores": 5}


def test_snapshot_merge_and_json():
    worker = PerfRegistry()
    worker.enable()
    with worker.span("compile"):
        pass
    worker.count("kernels", 2)

    parent = PerfRegistry()
    parent.enable()
    with parent.span("compile"):
        pass
    parent.count("kernels", 1)
    parent.merge(worker.snapshot())
    assert parent.counters["kernels"] == 3
    assert parent.sections["compile"].calls == 2

    # /metrics embeds the snapshot in its JSON body.
    decoded = json.loads(json.dumps(parent.snapshot()))
    assert decoded["counters"]["kernels"] == 3


def test_reset_clears_everything():
    reg = PerfRegistry()
    reg.enable()
    with reg.span("s"):
        reg.count("c")
    reg.reset()
    assert reg.sections == {} and reg.counters == {}


def test_reset_while_section_open_does_not_desync_the_stack():
    reg = PerfRegistry()
    reg.enable()
    outer = reg.span("outer")
    outer.__enter__()
    reg.reset()  # stack cleared, generation bumped — outer is now stale
    outer.__exit__(None, None, None)  # must not pop or record anything
    assert reg.sections == {}
    assert reg.stack == []
    # The registry still works: fresh spans nest and record cleanly.
    with reg.span("a"):
        with reg.span("b"):
            pass
    assert set(reg.sections) == {"a", "a;b"}
    assert reg.stack == []


def test_reset_inside_open_section_leaves_new_epoch_intact():
    reg = PerfRegistry()
    reg.enable()
    with reg.span("old"):
        reg.reset()
        # A span of the new epoch opened before the stale exit runs.
        inner = reg.span("new")
        inner.__enter__()
    # "old"'s exit ran while "new" held the stack top: nothing popped.
    assert [f.path for f in reg.stack] == ["new"]
    inner.__exit__(None, None, None)
    assert reg.stack == []
    assert set(reg.sections) == {"new"}


def test_disable_while_section_open_drops_partial_timing():
    reg = PerfRegistry()
    reg.enable()
    with reg.span("timed"):
        reg.disable()
    assert reg.sections == {}
    assert reg.stack == []


def test_reset_while_span_open_does_not_corrupt():
    # The trace half of the generation guard: a trace reset drops the
    # open span, so its exit ends nothing in the new trace.
    TRACE.enable()
    outer = span("outer")
    outer.__enter__()
    TRACE.reset()
    outer.__exit__(None, None, None)  # stale exit: must be a no-op
    with span("fresh"):
        TRACE.event("grouping.round", round=0, units=1, decided=0,
                    leftovers=1)
    records = TRACE.records()
    names = [r.get("name") for r in records[1:]
             if r.get("ev") == "span.begin"]
    assert names == ["fresh"]
    assert records[2]["span"] == "fresh"
    assert validate_records(records) == []


def test_trace_disable_while_span_open_emits_no_end():
    TRACE.enable()
    with span("cut"):
        TRACE.disable()
    assert PERF.stack == []
    assert [r["ev"] for r in TRACE.records()[1:]] == ["span.begin"]


def test_one_span_feeds_both_sinks():
    PERF.enable()
    TRACE.enable()
    with span("compile", variant="global"):
        with span("block", block="b3"):
            assert TRACE.current("block") == "b3"
            assert TRACE.current("variant") == "global"
            TRACE.event("layout.skip", source="A", reason="test")
        assert TRACE.current("block") is None
    # Timing: one record per path, none under a flat name.
    assert set(PERF.sections) == {"compile", "compile;block"}
    assert PERF.sections["compile;block"].calls == 1
    # Events: begin/end pairs carrying the enclosing path, and the
    # event in between carrying the open spans' path.
    records = TRACE.records()[1:]
    assert [(r["ev"], r.get("name"), r["span"]) for r in records] == [
        ("span.begin", "compile", ""),
        ("span.begin", "block", "compile"),
        ("layout.skip", None, "compile;block"),
        ("span.end", "block", "compile"),
        ("span.end", "compile", ""),
    ]
    assert records[0]["variant"] == "global"
    assert records[1]["block"] == "b3"
    assert all("wall_ms" in r for r in records if r["ev"] == "span.end")


def test_module_level_shorthands_hit_the_global_registry():
    PERF.enable()
    with span("global-stage"):
        count("global-counter")
    assert PERF.sections["global-stage"].calls == 1
    assert PERF.counters["global-counter"] == 1


def test_compile_populates_registry():
    from repro import CompilerOptions, Variant, compile_program
    from repro.bench import KERNELS, intel_dunnington

    PERF.enable()
    compile_program(
        KERNELS["mg"].build(8),
        Variant.GLOBAL,
        intel_dunnington(),
        CompilerOptions(),
    )
    assert "compile;block;slp.grouping" in PERF.sections
    assert "compile;block;slp.schedule" in PERF.sections
    assert PERF.counters.get("grouping.rounds", 0) > 0


def test_compile_spans_are_the_benchmark_layers():
    """Every frame of a compile is a layer or a context span, every
    layer shows up across the variants, and the self times telescope
    to the compile root's total."""
    from repro import Variant, compile_program
    from repro.bench import KERNELS, intel_dunnington

    program = KERNELS["sp"].build(16)
    machine = intel_dunnington().with_datapath(512)
    PERF.enable()
    for variant in Variant:
        compile_program(program, variant, machine)

    frames = {name for path in PERF.sections for name in path.split(";")}
    assert frames == LAYERS | {"compile", "block", "round"}
    assert CONTEXT_SPANS >= frames - LAYERS - {"compile"}
    assert {path.split(";")[0] for path in PERF.sections} == {"compile"}
    own = PERF.self_times()
    total = PERF.sections["compile"].seconds
    assert sum(own.values()) == pytest.approx(total, rel=1e-9)
    by_name = {}
    for path, seconds in own.items():
        name = path.rpartition(";")[2]
        by_name[name] = by_name.get(name, 0.0) + seconds
    assert sum(by_name.values()) == pytest.approx(total, rel=1e-9)
    assert PERF.sections["compile"].calls == len(Variant)


def test_snapshot_merge_is_associative():
    """Shard perf snapshots may arrive in any order; the merged result
    must not depend on it — (a+b)+c == a+(b+c)."""

    from repro.perf import SectionStat

    def registry(seconds, calls, kernels):
        reg = PerfRegistry()
        reg.enable()
        stat = reg.sections["compile"] = SectionStat()
        stat.seconds, stat.calls = seconds, calls
        reg.counters["kernels"] = kernels
        return reg

    snaps = [
        registry(0.5, 1, 2).snapshot(),
        registry(0.25, 3, 5).snapshot(),
        registry(1.0, 2, 1).snapshot(),
    ]

    left = PerfRegistry()
    left.enable()
    left.merge(snaps[0])
    left.merge(snaps[1])
    left.merge(snaps[2])

    inner = PerfRegistry()
    inner.enable()
    inner.merge(snaps[1])
    inner.merge(snaps[2])
    right = PerfRegistry()
    right.enable()
    right.merge(snaps[0])
    right.merge(inner.snapshot())

    assert left.snapshot() == right.snapshot()
    assert left.counters["kernels"] == 8
    assert left.sections["compile"].calls == 6
    assert left.sections["compile"].seconds == 1.75


def test_report_renders_flat_timings_and_counters():
    reg = PerfRegistry()
    reg.merge(
        {
            "sections": {
                "compile": (1.0, 2),
                "compile;block": (0.75, 4),
                "compile;block;slp.grouping": (0.5, 4),
                "compile;block;slp.grouping;round": (0.25, 8),
                "simulate": (0.125, 1),
            },
            "counters": {"events": 7},
        }
    )
    text = reg.report()
    assert text.startswith("-- self time --")
    assert "-- counters --" in text
    assert "events" in text and "7" in text
    rows = {
        line.split()[0]: line.split()[1:]
        for line in text.split("-- total --")[0].splitlines()[1:]
    }
    # Context spans count toward their enclosing layer: block's self
    # time is the compiler's, round's is the grouping loop's.
    assert rows == {
        "slp.grouping": ["500.00", "ms", "x4"],
        "compile": ["500.00", "ms", "x2"],
        "simulate": ["125.00", "ms", "x1"],
    }
    totals = text.split("-- total --")[1].split("-- counters --")[0]
    assert totals.split() == [
        "compile", "1000.00", "ms", "x2", "simulate", "125.00", "ms", "x1",
    ]
