"""The compile-time observability registry (`repro.perf`)."""

from __future__ import annotations

import json
import time

from repro.perf import PERF, PerfRegistry, count, section


def test_disabled_registry_records_nothing():
    reg = PerfRegistry()
    with reg.section("anything"):
        pass
    reg.count("events", 5)
    assert reg.sections == {}
    assert reg.counters == {}


def test_sections_accumulate_time_and_calls():
    reg = PerfRegistry()
    reg.enable()
    for _ in range(3):
        with reg.section("stage"):
            time.sleep(0.001)
    stat = reg.sections["stage"]
    assert stat.calls == 3
    assert stat.seconds >= 0.003


def test_nested_sections_record_the_path():
    reg = PerfRegistry()
    reg.enable()
    with reg.section("outer"):
        with reg.section("inner"):
            pass
    assert set(reg.sections) == {"outer", "inner", "outer;inner"}
    # The report lists flat names only; the paths feed the stage profile.
    assert "outer;inner" not in reg.report()


def test_counters_accumulate():
    reg = PerfRegistry()
    reg.enable()
    reg.count("scores")
    reg.count("scores", 4)
    assert reg.counters == {"scores": 5}


def test_snapshot_merge_and_json():
    worker = PerfRegistry()
    worker.enable()
    with worker.section("compile"):
        pass
    worker.count("kernels", 2)

    parent = PerfRegistry()
    parent.enable()
    with parent.section("compile"):
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
    with reg.section("s"):
        reg.count("c")
    reg.reset()
    assert reg.sections == {} and reg.counters == {}


def test_reset_while_section_open_does_not_desync_the_stack():
    reg = PerfRegistry()
    reg.enable()
    outer = reg.section("outer")
    outer.__enter__()
    reg.reset()  # stack cleared, generation bumped — outer is now stale
    outer.__exit__(None, None, None)  # must not pop or record anything
    assert reg.sections == {}
    assert reg._stack == []
    # The registry still works: fresh sections nest and record cleanly.
    with reg.section("a"):
        with reg.section("b"):
            pass
    assert set(reg.sections) == {"a", "b", "a;b"}
    assert reg._stack == []


def test_reset_inside_open_section_leaves_new_epoch_intact():
    reg = PerfRegistry()
    reg.enable()
    with reg.section("old"):
        reg.reset()
        # A section of the new epoch opened before the stale exit runs.
        inner = reg.section("new")
        inner.__enter__()
    # "old"'s exit ran while "new" held the stack top: nothing popped.
    assert reg._stack == ["new"]
    inner.__exit__(None, None, None)
    assert reg._stack == []
    assert set(reg.sections) == {"new"}


def test_disable_while_section_open_drops_partial_timing():
    reg = PerfRegistry()
    reg.enable()
    with reg.section("timed"):
        reg.disable()
    assert reg.sections == {}
    assert reg._stack == []


def test_module_level_shorthands_hit_the_global_registry():
    PERF.reset()
    PERF.enable()
    try:
        with section("global-stage"):
            count("global-counter")
    finally:
        PERF.disable()
    assert PERF.sections["global-stage"].calls == 1
    assert PERF.counters["global-counter"] == 1
    PERF.reset()


def test_compile_populates_registry():
    from repro import CompilerOptions, Variant, compile_program
    from repro.bench import KERNELS, intel_dunnington

    PERF.reset()
    PERF.enable()
    try:
        compile_program(
            KERNELS["mg"].build(8),
            Variant.GLOBAL,
            intel_dunnington(),
            CompilerOptions(),
        )
    finally:
        PERF.disable()
    assert "compile.schedule" in PERF.sections
    assert "grouping" in PERF.sections
    assert PERF.counters.get("grouping.rounds", 0) > 0
    PERF.reset()


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
    reg.enable()
    with reg.section("outer"):
        with reg.section("inner"):
            time.sleep(0.001)
    reg.count("events", 7)

    text = reg.report()
    assert text.startswith("-- timings --")
    assert "-- counters --" in text
    assert "events" in text and "7" in text
    assert "outer;inner" not in text
    inner_lines = [
        line for line in text.splitlines() if line.split()[0] == "inner"
    ]
    assert len(inner_lines) == 1
    assert "ms" in inner_lines[0] and "x1" in inner_lines[0]
