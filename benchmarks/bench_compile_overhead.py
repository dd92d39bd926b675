"""Section 7.1's compilation-overhead claim: "compared to the SLP
version, our approach increased compilation time by 27% on average."

Global does strictly more work than the greedy baseline (it builds the
variable-pack conflicting graph and re-evaluates auxiliary-graph weights
after every decision), so its compile time must be higher — but by a
constant factor, not asymptotically blowing up on these block sizes.

``test_top_width_compile_row`` records the same comparison at Figure
18's top width (1024 bits, n=32, intel, the default unroll that fills
the datapath), where Global's blocks are largest: per kernel, SLP and
Global compile seconds (reported, not gated) and Global's exact work
counters, in ``results/BENCH_compile_topwidth.json`` and
``results/compile_topwidth.txt``. With ``REPRO_BENCH_SMOKE=1`` it
measures only the four kernels that dominate the row and requires
their counters to equal the committed row's; its own row goes to the
git-ignored ``results/smoke/``.
"""

from __future__ import annotations

import gc
import os
import time

from conftest import RESULTS_DIR, SUITE_N, write_result

from repro import CompilerOptions, Variant, compile_program
from repro.bench import (
    ALL_KERNELS,
    KERNELS,
    ascii_table,
    intel_dunnington,
)
from repro.bench.record import (
    machine_fingerprint,
    read_bench_json,
    write_bench_json,
)
from repro.perf import PERF

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Figure 18's top width, at the harness size Figure 18 uses.
TOP_WIDTH = 1024
TOP_WIDTH_N = 32
#: The smoke run's kernels: Global compile time of the row is theirs.
TOP_WIDTH_SMOKE = ("sp", "namd", "cg", "wrf")
#: Global's exact work counters, without their ``grouping.`` prefix.
TOP_WIDTH_COUNTERS = (
    "scores_recomputed",
    "decisions",
    "vp_nodes",
    "aux_graphs",
    "elimination_victims",
)


def _compile_all(variant, machine, repeats=3):
    best = {}
    for kernel in ALL_KERNELS:
        program = kernel.build(SUITE_N)
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            compile_program(program, variant, machine)
            samples.append(time.perf_counter() - started)
        best[kernel.name] = min(samples)
    return best


def test_compile_time_overhead(benchmark, results_dir):
    machine = intel_dunnington()
    program = ALL_KERNELS[0].build(SUITE_N)
    benchmark(compile_program, program, Variant.GLOBAL, machine)

    slp_times = _compile_all(Variant.SLP, machine)
    global_times = _compile_all(Variant.GLOBAL, machine)
    rows = []
    ratios = []
    for name in slp_times:
        ratio = global_times[name] / max(slp_times[name], 1e-9)
        ratios.append(ratio)
        rows.append(
            (
                name,
                f"{slp_times[name] * 1e3:.2f} ms",
                f"{global_times[name] * 1e3:.2f} ms",
                f"{ratio:.2f}x",
            )
        )
    mean_ratio = sum(ratios) / len(ratios)
    body = ascii_table(("benchmark", "SLP", "Global", "ratio"), rows)
    body += (
        f"\n\nmean Global/SLP compile-time ratio: {mean_ratio:.2f}x"
        "\n(paper: +27% average compilation-time overhead)"
    )
    write_result(
        results_dir / "compile_overhead.txt",
        "Section 7.1: compilation-time overhead of Global over SLP",
        body,
    )

    # Global costs more (global analysis) but stays within a small
    # constant factor on these block sizes.
    assert mean_ratio > 1.0
    assert mean_ratio < 30.0


def _timed_counted(program, variant, machine, options):
    """One compile's wall seconds (after a full collection, outside
    the timer) and its grouping counters."""
    gc.collect()
    PERF.reset()
    PERF.enable()
    started = time.perf_counter()
    compile_program(program, variant, machine, options)
    seconds = time.perf_counter() - started
    PERF.disable()
    counters = {
        name: int(PERF.counters.get(f"grouping.{name}", 0))
        for name in TOP_WIDTH_COUNTERS
    }
    PERF.reset()
    return seconds, counters


def test_top_width_compile_row(results_dir):
    path = results_dir / "BENCH_compile_topwidth.json"
    committed = (
        read_bench_json(RESULTS_DIR / path.name)["kernels"] if SMOKE else None
    )
    kernels = (
        [KERNELS[name] for name in TOP_WIDTH_SMOKE] if SMOKE else ALL_KERNELS
    )
    machine = intel_dunnington()
    options = CompilerOptions(datapath_bits=TOP_WIDTH)
    rows = {}
    for kernel in kernels:
        program = kernel.build(TOP_WIDTH_N)
        slp_seconds, _ = _timed_counted(
            program, Variant.SLP, machine, options
        )
        global_seconds, work = _timed_counted(
            program, Variant.GLOBAL, machine, options
        )
        rows[kernel.name] = {
            "slp_seconds": round(slp_seconds, 4),
            "global_seconds": round(global_seconds, 4),
            **work,
        }
    if committed is not None:
        for name, row in rows.items():
            for counter in TOP_WIDTH_COUNTERS:
                assert row[counter] == committed[name][counter], (
                    f"{name}: {counter} {row[counter]} != committed "
                    f"{committed[name][counter]}"
                )
    totals = {
        field: round(sum(row[field] for row in rows.values()), 4)
        for field in ("slp_seconds", "global_seconds", *TOP_WIDTH_COUNTERS)
    }
    write_bench_json(
        path,
        {
            "config": {
                "machine": "intel",
                "n": TOP_WIDTH_N,
                "datapath": TOP_WIDTH,
                "unroll": "default",
            },
            "kernels": rows,
            "totals": totals,
        },
    )
    table = [
        (
            name,
            f"{row['slp_seconds']:.3f}",
            f"{row['global_seconds']:.3f}",
            f"{row['global_seconds'] / max(row['slp_seconds'], 1e-9):.1f}x",
            *(str(row[counter]) for counter in TOP_WIDTH_COUNTERS),
        )
        for name, row in [*rows.items(), ("total", totals)]
    ]
    fingerprint = machine_fingerprint()
    body = ascii_table(
        ("kernel", "SLP s", "Global s", "ratio", *TOP_WIDTH_COUNTERS),
        table,
    )
    body += (
        f"\n\nmachine: {fingerprint['system']} {fingerprint['machine']}, "
        f"{fingerprint['cpu_count']} CPU, Python {fingerprint['python']} "
        f"(fingerprint {fingerprint['id']})"
        "\nseconds are one compile each; the counters are exact"
    )
    write_result(
        results_dir / "compile_topwidth.txt",
        f"Section 7.1 at Figure 18's top width: {TOP_WIDTH}-bit, "
        f"n={TOP_WIDTH_N}, intel, default unroll",
        body,
    )
