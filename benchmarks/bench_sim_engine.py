"""Simulate-phase speed of the batched and compiled execution engines.

The reference interpreter dispatches every instruction of every loop
iteration through Python, so simulation wall-time — not compilation —
dominates the figure sweeps as the iteration count grows. Two engines
attack that, both under an exactness contract (identical
``ExecutionReport`` and ``Memory`` on every run, per-unit fallback
where their model does not apply):

* **batched** decodes each affine loop body once into closed-form
  NumPy address/value streams and replays the cache over the
  precomputed chronological line stream.
* **compiled** goes one step further: it emits a specialized NumPy
  *function* per affine loop (after a superoptimizing peephole pass),
  compiles it once, and replays cache lines through the bulk
  set-associative replay — so a warm run does no per-loop decoding or
  Python-level dispatch at all.

This harness does three things:

1. **Grid**: sweeps the fig16 kernel set across every compiler variant
   on both machine models at n=256, times all three engines on the
   same compiled plan, and asserts report + memory equality on every
   measured combination (AMD's fractional op costs are the stress test
   for order-independent cycle accounting).
2. **Gate**: times the affine kernel set at n=1024 — the regime the
   compiled engine was built for — with the ``Memory`` prebuilt
   outside the timed region (identical work for every engine) and
   kernels prewarmed, and asserts a >= 50x aggregate compiled-vs-
   reference simulate-phase speedup (measured ~55-60x) alongside the
   batched engine's >= 5x grid gate.
3. **Plan sweep**: the row behind the default engine. Every kernel x
   variant x machine is compiled fresh at n in {128, 1024} (400 plans)
   and each engine simulates every plan once per pass, for two passes:
   pass 1 is cold, pass 2 shows what the compiled engine's kernel memo
   keeps. It records seconds per pass, kernel emissions and memo hits,
   and each engine's ``tracemalloc`` peak on the largest run, and
   asserts report + memory equality with ``reference`` on every run.
   It has no wall-clock gate.

Results land in ``results/sim_engine.txt`` and machine-readable
``results/BENCH_sim_engine.json``. Set ``REPRO_BENCH_SMOKE=1`` (CI) for
a reduced grid that still enforces the equality contract and checks
that both fast paths are actually taken (the speedup gates stay
full-run only: CI machines are too noisy to pin wall-clock ratios).
"""

from __future__ import annotations

import math
import os
import time
import tracemalloc

from conftest import write_result

from repro import Variant, compile_program
from repro.bench import (
    ALL_KERNELS,
    KERNELS,
    amd_phenom_ii,
    ascii_table,
    intel_dunnington,
)
from repro.bench.record import write_bench_json
from repro.bench.suite import DEFAULT_VARIANTS
from repro.perf import PERF
from repro.vm import Simulator
from repro.vm.compiled import clear_kernel_memo
from repro.vm.simulator import Memory

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

ENGINES = ("reference", "batched", "compiled")

N = 64 if SMOKE else 256
SUITE_KERNELS = (
    [KERNELS[n] for n in ("milc", "lbm", "namd", "cg")]
    if SMOKE
    else ALL_KERNELS
)
VARIANTS = (
    (Variant.SCALAR, Variant.GLOBAL, Variant.GLOBAL_LAYOUT)
    if SMOKE
    else DEFAULT_VARIANTS
)
MACHINES = (("intel", intel_dunnington), ("amd", amd_phenom_ii))
REPEATS = 1 if SMOKE else 3

#: The n=1024 gate population: the affine SPEC kernels the compiled
#: engine covers without a single fallback (pinned by
#: ``tests/test_compiled_engine.py::test_full_kernel_set_has_no_fallbacks``).
GATE_KERNELS = ("cactusADM", "soplex", "lbm", "milc")
GATE_N = 256 if SMOKE else 1024
GATE_SPEEDUP = 50.0
GATE_REPEATS = {"reference": 1, "batched": 8, "compiled": 8}
GATE_ROUNDS = 1 if SMOKE else 5

#: The plan sweep: suite-sized plans, all compiled before the first
#: run, as a suite run sees them.
SWEEP_NS = (128, 1024)
SWEEP_PASSES = 2


def _timed_run(machine, engine, plan):
    """Best-of-``REPEATS`` simulate wall time plus the results of the
    final run (simulation is deterministic; the minimum sheds scheduler
    noise)."""
    best = math.inf
    for _ in range(REPEATS):
        simulator = Simulator(machine, engine=engine)
        started = time.perf_counter()
        report, memory = simulator.run(plan)
        best = min(best, time.perf_counter() - started)
    return best, report, memory


def _timed_gate_run(machine, engine, plan):
    """Best-of-``GATE_ROUNDS`` of a ``GATE_REPEATS[engine]``-run
    average, with every ``Memory`` prebuilt outside the timed region —
    memory construction is identical for all engines and would
    otherwise dilute exactly the quantity the gate measures. Kernels
    are prewarmed by the caller."""
    reps = GATE_REPEATS[engine]
    simulator = Simulator(machine, engine=engine)
    best = math.inf
    for _ in range(GATE_ROUNDS):
        memories = [Memory(plan, seed=0) for _ in range(reps)]
        started = time.perf_counter()
        for memory in memories:
            report, _ = simulator.run(plan, memory=memory, seed=0)
        best = min(best, (time.perf_counter() - started) / reps)
    return best, report


def _plan_sweep():
    """Seconds per pass per engine over every sweep plan (engines
    interleaved per plan; the compiled engine's memo still sees the
    plans in sweep order, pass after pass), with report and memory
    equality against ``reference`` on every run, then each engine's
    ``tracemalloc`` peak on the run with the most instructions."""
    plans = []
    for machine_name, factory in MACHINES:
        machine = factory()
        for kernel in SUITE_KERNELS:
            for n in SWEEP_NS:
                program = kernel.build(n)
                for variant in VARIANTS:
                    plans.append(
                        (
                            f"{kernel.name}/{variant.value}/"
                            f"{machine_name}/n={n}",
                            compile_program(program, variant, machine),
                        )
                    )
    clear_kernel_memo()
    passes = []
    largest = None
    for _ in range(SWEEP_PASSES):
        seconds = {engine: 0.0 for engine in ENGINES}
        PERF.reset()
        PERF.enable()
        for label, compiled in plans:
            runs = {}
            for engine in ENGINES:
                simulator = Simulator(compiled.machine, engine=engine)
                started = time.perf_counter()
                runs[engine] = simulator.run(compiled.plan)
                seconds[engine] += time.perf_counter() - started
            ref_report, ref_mem = runs["reference"]
            for engine in ("batched", "compiled"):
                report, memory = runs[engine]
                assert report == ref_report, (
                    f"sweep report diverged: {label}/{engine}"
                )
                assert memory.state_equal(ref_mem), (
                    f"sweep memory diverged: {label}/{engine}"
                )
            if largest is None or (
                ref_report.total_instructions > largest[0]
            ):
                largest = (ref_report.total_instructions, label, compiled)
        PERF.disable()
        counters = dict(PERF.counters)
        passes.append(
            {
                "seconds": seconds,
                "kernel_emissions": counters.get("compiled.emissions", 0),
                "kernel_memo_hits": counters.get(
                    "compiled.kernel_memo_hits", 0
                ),
            }
        )
    PERF.reset()
    instructions, label, compiled = largest
    clear_kernel_memo()
    peaks = {}
    for engine in ENGINES:
        simulator = Simulator(compiled.machine, engine=engine)
        tracemalloc.start()
        simulator.run(compiled.plan)
        peaks[engine] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {
        "ns": list(SWEEP_NS),
        "plans": len(plans),
        "passes": passes,
        "largest_run": {
            "plan": label,
            "instructions": instructions,
            "tracemalloc_peak_bytes": peaks,
        },
    }


def test_sim_engine(results_dir):
    payload = {
        "smoke": SMOKE,
        "n": N,
        "repeats": REPEATS,
        "runs": [],
        "gate": {"n": GATE_N, "kernels": list(GATE_KERNELS), "runs": []},
        "summary": {},
    }

    totals = {engine: 0.0 for engine in ENGINES}
    per_machine = {
        name: {engine: 0.0 for engine in ENGINES} for name, _ in MACHINES
    }

    PERF.reset()
    PERF.enable()
    for machine_name, factory in MACHINES:
        machine = factory()
        for kernel in SUITE_KERNELS:
            program = kernel.build(N)
            for variant in VARIANTS:
                compiled = compile_program(program, variant, machine)
                seconds, reports, memories = {}, {}, {}
                for engine in ENGINES:
                    seconds[engine], reports[engine], memories[engine] = (
                        _timed_run(compiled.machine, engine, compiled.plan)
                    )
                ref_report, ref_mem = reports["reference"], memories["reference"]
                for engine in ("batched", "compiled"):
                    # The contract: not approximately equal — equal.
                    assert reports[engine] == ref_report, (
                        f"reports diverged: {kernel.name}/{variant.value}/"
                        f"{machine_name}/{engine}"
                    )
                    assert reports[engine].cycles == ref_report.cycles
                    assert memories[engine].state_equal(ref_mem), (
                        f"memory diverged: {kernel.name}/{variant.value}/"
                        f"{machine_name}/{engine}"
                    )
                for engine in ENGINES:
                    totals[engine] += seconds[engine]
                    per_machine[machine_name][engine] += seconds[engine]
                payload["runs"].append(
                    {
                        "kernel": kernel.name,
                        "variant": variant.value,
                        "machine": machine_name,
                        "reference_seconds": seconds["reference"],
                        "batched_seconds": seconds["batched"],
                        "compiled_seconds": seconds["compiled"],
                        "speedup": seconds["reference"] / seconds["batched"],
                        "compiled_speedup": (
                            seconds["reference"] / seconds["compiled"]
                        ),
                        "cycles": ref_report.cycles,
                    }
                )

    # -- the n=1024 gate series --------------------------------------------
    gate_totals = {engine: 0.0 for engine in ENGINES}
    gate_machine = intel_dunnington()
    for name in GATE_KERNELS:
        program = KERNELS[name].build(GATE_N)
        compiled = compile_program(program, Variant.GLOBAL, gate_machine)
        # Prewarm: kernel emission (compiled) and decode memos happen
        # here, off the clock — warm workers never pay them either.
        for engine in ENGINES:
            Simulator(gate_machine, engine=engine).run(compiled.plan)
        seconds, reports = {}, {}
        for engine in ENGINES:
            seconds[engine], reports[engine] = _timed_gate_run(
                gate_machine, engine, compiled.plan
            )
        assert reports["batched"] == reports["reference"]
        assert reports["compiled"] == reports["reference"]
        for engine in ENGINES:
            gate_totals[engine] += seconds[engine]
        payload["gate"]["runs"].append(
            {
                "kernel": name,
                "reference_seconds": seconds["reference"],
                "batched_seconds": seconds["batched"],
                "compiled_seconds": seconds["compiled"],
                "compiled_speedup": (
                    seconds["reference"] / seconds["compiled"]
                ),
            }
        )
    PERF.disable()

    counters = dict(PERF.counters)
    PERF.reset()
    sweep = payload["sweep"] = _plan_sweep()

    batched_loops = counters.get("simulate.batched_loops", 0)
    fallbacks = counters.get("simulate.batched_fallbacks", 0)
    compiled_loops = counters.get("simulate.compiled_loops", 0)
    compiled_fallbacks = counters.get("simulate.compiled_fallbacks", 0)

    aggregate = totals["reference"] / totals["batched"]
    gate_aggregate = gate_totals["reference"] / gate_totals["compiled"]
    payload["summary"] = {
        "aggregate_speedup": aggregate,
        "compiled_aggregate_speedup": (
            totals["reference"] / totals["compiled"]
        ),
        "gate_compiled_speedup": gate_aggregate,
        "per_machine_speedup": {
            name: t["reference"] / t["batched"]
            for name, t in per_machine.items()
        },
        "batched_loops": batched_loops,
        "batched_fallbacks": fallbacks,
        "compiled_loops": compiled_loops,
        "compiled_fallbacks": compiled_fallbacks,
        "kernel_emissions": counters.get("compiled.emissions", 0),
        "reference_seconds": totals["reference"],
        "batched_seconds": totals["batched"],
        "compiled_seconds": totals["compiled"],
    }

    # The fast paths must actually run: a silent always-fallback engine
    # would pass every equality assertion while measuring nothing.
    assert batched_loops > 0
    assert compiled_loops > 0
    # The gate population must stay fallback-free, or the headline
    # number silently measures the batched engine instead.
    assert compiled_fallbacks == 0, (
        f"gate kernels fell back {compiled_fallbacks} time(s)"
    )
    if not SMOKE:
        # The batched engine's claim at the figure-sweep count.
        assert aggregate >= 5.0, (
            f"expected >=5x aggregate simulate-phase speedup at n={N}, "
            f"got {aggregate:.2f}x"
        )
        # The compiled engine's headline claim at n=1024.
        assert gate_aggregate >= GATE_SPEEDUP, (
            f"expected >={GATE_SPEEDUP:.0f}x aggregate compiled speedup "
            f"at n={GATE_N}, got {gate_aggregate:.2f}x"
        )

    # -- artifacts ---------------------------------------------------------
    write_bench_json(results_dir / "BENCH_sim_engine.json", payload)

    table_rows = [
        (
            r["kernel"],
            r["variant"],
            r["machine"],
            f"{r['reference_seconds'] * 1e3:8.1f} ms",
            f"{r['batched_seconds'] * 1e3:8.1f} ms",
            f"{r['compiled_seconds'] * 1e3:8.1f} ms",
            f"{r['speedup']:5.2f}x",
            f"{r['compiled_speedup']:5.2f}x",
        )
        for r in payload["runs"]
    ]
    body = ascii_table(
        (
            "kernel",
            "variant",
            "machine",
            "reference",
            "batched",
            "compiled",
            "bat x",
            "comp x",
        ),
        table_rows,
    )
    gate_rows = [
        (
            r["kernel"],
            f"{r['reference_seconds'] * 1e3:8.2f} ms",
            f"{r['batched_seconds'] * 1e3:8.2f} ms",
            f"{r['compiled_seconds'] * 1e3:8.2f} ms",
            f"{r['compiled_speedup']:5.1f}x",
        )
        for r in payload["gate"]["runs"]
    ]
    body += (
        f"\n\naggregate at n={N}: {aggregate:.2f}x batched, "
        f"{totals['reference'] / totals['compiled']:.2f}x compiled "
        f"({totals['reference']:.2f}s reference)"
        f"\nbatched loops: {batched_loops}, fallbacks: {fallbacks}; "
        f"compiled loops: {compiled_loops}, fallbacks: "
        f"{compiled_fallbacks}"
        f"\nper-machine batched: "
        + ", ".join(
            f"{name} {t['reference'] / t['batched']:.2f}x"
            for name, t in per_machine.items()
        )
        + f"\n\ncompiled-engine gate (n={GATE_N}, GLOBAL, intel, memory "
        "prebuilt, kernels warm):\n"
        + ascii_table(
            ("kernel", "reference", "batched", "compiled", "speedup"),
            gate_rows,
        )
        + f"\n\ngate aggregate: {gate_aggregate:.1f}x compiled vs "
        f"reference (gate: >={GATE_SPEEDUP:.0f}x)"
        + f"\n\nplan sweep ({sweep['plans']} fresh plans, n in "
        f"{{{', '.join(str(n) for n in SWEEP_NS)}}}, every engine "
        "simulates every plan once per pass; no gate):\n"
        + ascii_table(
            ("pass", "reference", "batched", "compiled",
             "kernel emissions", "memo hits"),
            [
                (
                    str(i + 1),
                    *(
                        f"{p['seconds'][engine]:7.2f} s"
                        for engine in ENGINES
                    ),
                    str(p["kernel_emissions"]),
                    str(p["kernel_memo_hits"]),
                )
                for i, p in enumerate(sweep["passes"])
            ],
        )
        + f"\n\nlargest run ({sweep['largest_run']['plan']}, "
        f"{sweep['largest_run']['instructions']} instructions), "
        "tracemalloc peak: "
        + ", ".join(
            f"{engine} {peak / 2**20:.2f} MiB"
            for engine, peak in sweep["largest_run"][
                "tracemalloc_peak_bytes"
            ].items()
        )
    )
    write_result(
        results_dir / "sim_engine.txt",
        "Simulate-phase speed: batched + compiled vs reference engine",
        body,
    )
