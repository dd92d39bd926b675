"""Disabled-tracer overhead: ``repro.trace`` must be free when off.

Every hook the tracer threads through the pipeline is either a
``repro.perf.span(...)`` context (cold, per-layer/per-block) or an
``if TRACE.enabled:`` guard (hot, per-decision). A direct
enabled-vs-disabled timing shows the *enabled* cost; the disabled cost
is too small to measure that way — it drowns in compile-time noise. So
this harness bounds it analytically, and conservatively:

1. compile the whole suite with tracing ON and count the hooks that
   fired (every trace record = one hook execution, and span records
   also cover their paired guard);
2. microbenchmark the *most expensive* disabled hook form — a full
   ``TRACE.event(...)`` call with kwargs, costlier than the bare
   attribute check most hot sites use — and charge every hook that
   price;
3. divide by the measured disabled compile time.

The resulting estimate overstates the true disabled overhead and must
still land under 2%.
"""

from __future__ import annotations

import os
import time

from conftest import SUITE_N, write_result

from repro import Variant, compile_program
from repro.bench import ALL_KERNELS, intel_dunnington
from repro.bench.record import write_bench_json
from repro.trace import TRACE, validate_records

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = 2 if SMOKE else 5
KERNELS = ALL_KERNELS[:4] if SMOKE else ALL_KERNELS
THRESHOLD = 0.02


def _compile_all(programs, machine) -> float:
    """Best-of-``REPEATS`` total compile time for the suite."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for program in programs:
            compile_program(program, Variant.GLOBAL, machine)
        samples.append(time.perf_counter() - started)
    return min(samples)


def test_disabled_tracing_overhead(results_dir):
    machine = intel_dunnington()
    programs = [kernel.build(SUITE_N) for kernel in KERNELS]

    TRACE.disable()
    TRACE.reset()
    disabled_seconds = _compile_all(programs, machine)

    # Hook census + schema sanity on a fully-traced suite compile.
    TRACE.reset()
    TRACE.enable(bench="trace_overhead")
    try:
        enabled_seconds = _compile_all(programs, machine)
        records = TRACE.records()
    finally:
        TRACE.disable()
        TRACE.reset()
    assert validate_records(records) == []
    # Records accumulate across repeats; hooks per compile sweep is the
    # per-repeat share. Each span record covers its guard too, so this
    # counts every instrumentation site that executed.
    hooks_per_sweep = (len(records) - 1) / REPEATS

    # Price of one *disabled* hook, taking the expensive form (a real
    # event call that builds a kwargs dict before the enabled check).
    loops = 20_000 if SMOKE else 200_000
    started = time.perf_counter()
    for _ in range(loops):
        TRACE.event("grouping.round", round=0, units=0, decided=0,
                    leftovers=0)
    per_hook_seconds = (time.perf_counter() - started) / loops

    estimated = hooks_per_sweep * per_hook_seconds / disabled_seconds
    payload = {
        "kernels": len(KERNELS),
        "n": SUITE_N,
        "repeats": REPEATS,
        "disabled_compile_seconds": round(disabled_seconds, 6),
        "enabled_compile_seconds": round(enabled_seconds, 6),
        "enabled_over_disabled": round(
            enabled_seconds / disabled_seconds, 4
        ),
        "hook_executions_per_sweep": int(hooks_per_sweep),
        "per_hook_disabled_seconds": per_hook_seconds,
        "estimated_disabled_overhead_fraction": round(estimated, 6),
        "threshold_fraction": THRESHOLD,
    }
    write_bench_json(results_dir / "BENCH_trace_overhead.json", payload)
    write_result(
        results_dir / "trace_overhead.txt",
        "Disabled-tracer compile-time overhead (conservative bound)",
        "\n".join(f"{key}: {value}" for key, value in payload.items()),
    )

    assert estimated < THRESHOLD, (
        f"disabled tracing costs an estimated {estimated:.2%} of compile "
        f"time (bound {THRESHOLD:.0%}); hooks={hooks_per_sweep:.0f}, "
        f"per-hook {per_hook_seconds * 1e9:.0f} ns"
    )
