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
  *function* per affine loop and compiles it once, so a warm run does
  no per-loop decoding or Python-level dispatch of the loop's values.
  Its accounting and cache replay are the batched engine's.

This harness does four things:

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
   each engine's cache replay work (``simulate.replay_lines``, the
   accesses replayed, and ``simulate.replay_visits``, those the LRU
   loop visits after set compaction; the batched and compiled engines
   both replay, the reference interpreter touches line by line), and
   each engine's ``tracemalloc`` peak on the largest run, and asserts
   report + memory equality with ``reference`` on every run. It has no
   wall-clock gate.
4. **Service traffic**: the simulate requests the repository
   benchmark's serve-mixed workload sends a worker. The 120 hot plans
   (every kernel x slp/global/global+layout x both machines, n=64)
   are pickled once and unpickled for every run, as a worker does; 200
   fresh ``generate_case`` plans are simulated once each. They run on
   batched, and on compiled with its 32-entry kernel memo and a fresh
   kernel store: ``hot-store`` cycles the hot plans in order after a
   priming pass (more plans than memo entries, so compiled loads every
   kernel set from the store), ``hot-memo`` times the second of two
   back-to-back runs of each hot plan (compiled's memo hits). It
   records milliseconds per run and the engines' counters (kernel
   emissions, memo and store hits, batched fallbacks, ``Memory``
   seeding cache hits) per case, asserts report + memory equality with
   ``reference`` on every run, and has no wall-clock gate.

Results land in ``results/sim_engine.txt`` and machine-readable
``results/BENCH_sim_engine.json``. Set ``REPRO_BENCH_SMOKE=1`` (CI) for
a reduced grid that still enforces the equality contract and checks
that both fast paths are actually taken and that set compaction
leaves the batched engine's replay loop fewer accesses than it
replays (the speedup gates stay full-run only: CI machines are too
noisy to pin wall-clock ratios).
"""

from __future__ import annotations

import math
import os
import pickle
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
from repro.fuzz import generate_case
from repro.perf import PERF
from repro.store import ArtifactStore
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
#: Recorded per engine: one ``PERF`` window spans every engine's runs.
REPLAY_COUNTERS = ("simulate.replay_lines", "simulate.replay_visits")

#: The service row: serve-mixed's hot set and its fresh simulates.
SERVICE_HOT_N = 64
SERVICE_VARIANTS = (Variant.SLP, Variant.GLOBAL, Variant.GLOBAL_LAYOUT)
SERVICE_FRESH = 40 if SMOKE else 200
SERVICE_FRESH_BASE = 1_000_000
SERVICE_SEEDS = 4
SERVICE_ENGINES = ("batched", "compiled")
SERVICE_COUNTERS = (
    "simulate.batched_loops",
    "simulate.batched_fallbacks",
    "simulate.compiled_loops",
    "simulate.compiled_fallbacks",
    "compiled.emissions",
    "compiled.kernel_memo_hits",
    "compiled.kernel_store_hits",
    "simulate.seed_state_hits",
    "simulate.seed_state_misses",
)


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
        replay = {
            counter: {engine: 0 for engine in ENGINES}
            for counter in REPLAY_COUNTERS
        }
        PERF.reset()
        PERF.enable()
        for label, compiled in plans:
            runs = {}
            for engine in ENGINES:
                simulator = Simulator(compiled.machine, engine=engine)
                before = [PERF.counters.get(c, 0) for c in REPLAY_COUNTERS]
                started = time.perf_counter()
                runs[engine] = simulator.run(compiled.plan)
                seconds[engine] += time.perf_counter() - started
                for counter, start in zip(REPLAY_COUNTERS, before):
                    replay[counter][engine] += (
                        PERF.counters.get(counter, 0) - start
                    )
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
                "replay_lines": replay["simulate.replay_lines"],
                "replay_visits": replay["simulate.replay_visits"],
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


def _service_plans():
    """``(label, pickled CompileResult)`` pairs for the hot set and for
    the fresh plans."""
    machines = [(name, factory()) for name, factory in MACHINES]
    hot = []
    for kernel in ALL_KERNELS:
        program = kernel.build(SERVICE_HOT_N)
        for variant in SERVICE_VARIANTS:
            for machine_name, machine in machines:
                result = compile_program(program, variant, machine)
                hot.append(
                    (
                        f"{kernel.name}/{variant.value}/{machine_name}",
                        pickle.dumps(result),
                    )
                )
    fresh = []
    for k in range(SERVICE_FRESH):
        seed = SERVICE_FRESH_BASE + k
        variant = SERVICE_VARIANTS[k % len(SERVICE_VARIANTS)]
        machine_name, machine = machines[k % len(machines)]
        result = compile_program(
            generate_case(seed).program, variant, machine
        )
        label = f"fuzz{seed}/{variant.value}/{machine_name}"
        fresh.append((label, pickle.dumps(result)))
    return hot, fresh


def _service_traffic(store_root):
    """Milliseconds per run and counters per case and engine for
    serve-mixed's simulate traffic, every run checked against
    ``reference``."""
    hot, fresh = _service_plans()
    oracle = {}

    def check(label, blob, seed, engine, report, memory):
        key = (label, seed)
        if key not in oracle:
            result = pickle.loads(blob)
            oracle[key] = Simulator(result.machine, engine="reference").run(
                result.plan, seed=seed
            )
        ref_report, ref_memory = oracle[key]
        assert report == ref_report, (
            f"service report diverged: {key}/{engine}"
        )
        assert memory.state_equal(ref_memory), (
            f"service memory diverged: {key}/{engine}"
        )

    def run_case(engine, store, schedule):
        """Simulate ``(label, blob, seed, timed)`` runs on ``engine``;
        each unpickles its plan. Returns (ms per timed run, counters)."""
        PERF.reset()
        PERF.enable()
        seconds, timed_runs = 0.0, 0
        for label, blob, seed, timed in schedule:
            result = pickle.loads(blob)
            simulator = Simulator(
                result.machine, engine=engine, kernel_store=store
            )
            started = time.perf_counter()
            report, memory = simulator.run(result.plan, seed=seed)
            if timed:
                seconds += time.perf_counter() - started
                timed_runs += 1
            check(label, blob, seed, engine, report, memory)
        PERF.disable()
        counters = {
            name: PERF.counters.get(name, 0) for name in SERVICE_COUNTERS
        }
        PERF.reset()
        return (seconds * 1e3 / timed_runs if timed_runs else 0.0), counters

    store_order = [
        (label, blob, k % SERVICE_SEEDS, True)
        for k, (label, blob) in enumerate(hot)
    ]
    memo_pairs = [
        (label, blob, k % SERVICE_SEEDS, timed)
        for k, (label, blob) in enumerate(hot)
        for timed in (False, True)
    ]
    fresh_once = [
        (label, blob, k % SERVICE_SEEDS, True)
        for k, (label, blob) in enumerate(fresh)
    ]
    cases = {}
    for engine in SERVICE_ENGINES:
        clear_kernel_memo()
        store = None
        if engine == "compiled":
            store = ArtifactStore(store_root / engine)
        # Priming pass: compiled emits every hot kernel set to the store.
        run_case(engine, store, [run[:3] + (False,) for run in store_order])
        for case, schedule in (
            ("hot-store", store_order),
            ("hot-memo", memo_pairs),
            ("fresh", fresh_once),
        ):
            ms, counters = run_case(engine, store, schedule)
            entry = cases.setdefault(
                case,
                {
                    "runs": sum(1 for run in schedule if run[3]),
                    "ms_per_run": {},
                    "counters": {},
                },
            )
            entry["ms_per_run"][engine] = ms
            entry["counters"][engine] = counters
    clear_kernel_memo()
    return {
        "hot_plans": len(hot),
        "fresh_plans": len(fresh),
        "hot_n": SERVICE_HOT_N,
        "seeds": SERVICE_SEEDS,
        "cases": cases,
    }


def _seed_hit_share(counters) -> str:
    hits = counters["simulate.seed_state_hits"]
    total = hits + counters["simulate.seed_state_misses"]
    return f"{hits / total:.3f}" if total else "-"


def test_sim_engine(results_dir, tmp_path):
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
    service = payload["service"] = _service_traffic(tmp_path)

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
    # Set compaction must take work off the replay loop: a repeat of
    # its set's previous line is a hit the loop never visits.
    first_pass = sweep["passes"][0]
    assert (
        0
        < first_pass["replay_visits"]["batched"]
        < first_pass["replay_lines"]["batched"]
    )
    # The service row measures what it names: compiled finds every hot
    # kernel set in the store, or in the memo where plans share one,
    # hits the memo on a back-to-back repeat, and emits for fresh plans.
    hot_store = service["cases"]["hot-store"]["counters"]["compiled"]
    hot_memo = service["cases"]["hot-memo"]["counters"]["compiled"]
    fresh_compiled = service["cases"]["fresh"]["counters"]["compiled"]
    assert hot_store["compiled.emissions"] == 0
    assert hot_store["compiled.kernel_store_hits"] > 0
    assert (
        hot_store["compiled.kernel_store_hits"]
        + hot_store["compiled.kernel_memo_hits"]
    ) == service["hot_plans"]
    assert hot_memo["compiled.kernel_memo_hits"] >= service["hot_plans"]
    assert fresh_compiled["compiled.emissions"] > 0
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
             "kernel emissions", "memo hits",
             "replay lines (batched/compiled)",
             "replay visits (batched/compiled)"),
            [
                (
                    str(i + 1),
                    *(
                        f"{p['seconds'][engine]:7.2f} s"
                        for engine in ENGINES
                    ),
                    str(p["kernel_emissions"]),
                    str(p["kernel_memo_hits"]),
                    *(
                        f"{p[key]['batched']}/{p[key]['compiled']}"
                        for key in ("replay_lines", "replay_visits")
                    ),
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
    service_rows = []
    for case, entry in service["cases"].items():
        for engine in SERVICE_ENGINES:
            c = entry["counters"][engine]
            service_rows.append(
                (
                    case,
                    engine,
                    str(entry["runs"]),
                    f"{entry['ms_per_run'][engine]:6.3f} ms",
                    f"{c['simulate.batched_loops']}"
                    f"/{c['simulate.batched_fallbacks']}",
                    str(c["simulate.compiled_loops"]),
                    str(c["compiled.emissions"]),
                    str(c["compiled.kernel_memo_hits"]),
                    str(c["compiled.kernel_store_hits"]),
                    _seed_hit_share(c),
                )
            )
    body += (
        f"\n\nservice traffic ({service['hot_plans']} hot plans at "
        f"n={service['hot_n']}, each unpickled per run, and "
        f"{service['fresh_plans']} fresh generate_case plans; compiled "
        "with its 32-entry kernel memo and a fresh kernel store; no "
        "gate):\n"
        + ascii_table(
            ("case", "engine", "runs", "per run",
             "batched loops/fallbacks", "compiled loops", "emissions",
             "memo hits", "store hits", "seed-state hit share"),
            service_rows,
        )
    )
    write_result(
        results_dir / "sim_engine.txt",
        "Simulate-phase speed: batched + compiled vs reference engine",
        body,
    )
