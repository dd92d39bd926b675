"""One workload in one fresh interpreter: set up, measure, check.

``run.py`` starts this file as a child process (``PYTHONPATH=src``, with
``REPRO_CHECKS`` and ``REPRO_SIM_ENGINE`` removed from the environment)
and reads the JSON object it prints last. Set-up time is measured by the
parent from just before it starts this process to ``first_op_at``, the
monotonic clock reading taken right before the first measured op.

Workloads (see README.md for why each exists):

* ``compile-wide``  — ``compile_program`` on big unrolled blocks.
* ``suite-paper``   — ``compile_program`` + ``Simulator.run`` over the
  paper's suite on the default (reference) engine.
* ``serve-mixed``   — two closed-loop clients against ``repro serve``.

Every output is checked after the measured phase, outside the timed ops,
against an oracle that does not use the compiler:
``repro.vm.simulator.interpret_program`` for memory, and a local
``compile_program`` for served compile results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Seed of every simulation's initial memory (the plan oracle uses it too).
SIM_SEED = 7

HOLISTIC = ("slp", "global", "global+layout")
ALL_VARIANTS = ("scalar", "native", "slp", "global", "global+layout")
MACHINE_NAMES = ("intel", "amd")

# compile-wide: Fig. 18's regime of big unrolled blocks.
CW_N = 16
CW_UNROLLS = (4, 8)
CW_DATAPATHS = (256, 512, 1024)

# suite-paper: the paper's configuration, n drawn per (kernel, machine).
SP_NS = (128, 256, 512, 1024)

# serve-mixed: request mix and the hot set primed in set-up.
SM_HOT_N = 64
SM_MIX = (
    ("hot-compile", 0.60),
    ("fresh-compile", 0.20),
    ("hot-simulate", 0.12),
    ("fresh-simulate", 0.08),
)
#: Every PAIR_EVERY-th request slot is the same fresh compile sent by
#: both clients at once, so request coalescing fires.
PAIR_EVERY = 25
SM_CLIENTS = 2
SM_WORKERS = 2
SM_SIM_SEEDS = 4


# -- small helpers ----------------------------------------------------------------


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_stats(latencies_ms: List[float]) -> Dict[str, float]:
    """Median, p90 and p99 of op latency, with the sample count."""
    if len(latencies_ms) < 2:
        only = latencies_ms[0] if latencies_ms else float("nan")
        return {"p50": only, "p90": only, "p99": only,
                "count": len(latencies_ms)}
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    return {
        "p50": statistics.median(latencies_ms),
        "p90": cuts[89],
        "p99": cuts[98],
        "count": len(latencies_ms),
    }


def memory_digest(memory, program) -> str:
    """Digest of the arrays and scalars the *source* program declares
    (replicated layout arrays and codegen temporaries are left out,
    exactly the state ``Memory.state_equal`` compares)."""
    digest = hashlib.sha256()
    for name in sorted(program.arrays):
        digest.update(name.encode())
        digest.update(memory.arrays[name].tobytes())
    for name in sorted(program.scalars):
        digest.update(name.encode())
        digest.update(repr(float(memory.scalars[name])).encode())
    return digest.hexdigest()


def plan_instructions(plan) -> int:
    """Static instruction count of an emitted plan (code size)."""
    from repro.vm import CompiledLoop, CompiledStraight

    def unit_size(unit) -> int:
        if isinstance(unit, CompiledStraight):
            return len(unit.instructions)
        if isinstance(unit, CompiledLoop):
            inner = unit_size(unit.inner) if unit.inner is not None else 0
            return len(unit.preheader) + len(unit.body) + inner
        return 1  # a layout copy loop

    return sum(unit_size(unit) for unit in plan.units)


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (the server's forked workers)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def peak_rss_tree_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of ``pid`` and its direct children."""
    total_kb = 0
    for member in [pid] + child_pids(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


#: The host probe's median sample time the gated wall-clock metrics are
#: scaled to (see ``HostProbe``).
HOST_REFERENCE_MS = 1.25


class HostProbe:
    """Times a fixed piece of pure-Python work between ops: how fast the
    host runs Python right now.

    The host drifts by up to 40% for seconds to minutes at a time (CPU
    time slows as much as wall time), moving every wall-clock figure of
    a run together. The workloads therefore sample the probe at most
    every ``interval`` seconds while they measure (between ops; in
    serve-mixed from the harness's main thread while the clients run)
    and divide each op's latency by ``current``, the latest sample over
    ``HOST_REFERENCE_MS``; the raw figures are reported next to the
    scaled ones. The probe is benchmark code, so no change to the
    repository can speed it up or slow it down.

    Set-up time is not scaled: samples taken in bursts from an idle CPU
    (before a set-up process starts) moved by up to 40% while set-up
    times stayed within 7%, so scaling by them made that spread four
    times wider."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.current = 1.0
        self.next_at = 0.0

    @staticmethod
    def sample() -> float:
        """Best of three runs of a fixed integer loop. It allocates
        nothing and runs with the collector paused, so the size of the
        process's heap (which the repository's code decides) cannot
        change it; only the host's speed can."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = math.inf
            for _ in range(3):
                started = time.perf_counter()
                value = 0
                for i in range(20000):
                    value = (value * 31 + i) & 0xFFFF
                best = min(best, time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        return best

    def maybe(self) -> None:
        """Refresh ``current`` if ``interval`` has passed since the last
        sample; called between ops, outside their timing."""
        if time.perf_counter() >= self.next_at:
            self.current = self.sample() * 1e3 / HOST_REFERENCE_MS
            self.next_at = time.perf_counter() + self.interval


class Outcome:
    """Counts of attempted and failed ops plus the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


# -- traced-run support ------------------------------------------------------------


#: Span name -> per-layer metric holding its self time.
SELF_TIME_METRICS = {
    "compiler": "compiler.self_ms",
    "transform": "transform.ms",
    "analysis.deps": "analysis.deps_ms",
    "slp.grouping": "slp.grouping_ms",
    "slp.vp_graph": "slp.vp_graph_ms",
    "slp.schedule": "slp.schedule_ms",
    "slp.baseline": "slp.baseline_ms",
    "layout": "layout.ms",
    "codegen.vector": "codegen.vector_ms",
    "codegen.scalar": "codegen.scalar_ms",
    "vm.simulate": "vm.simulate_ms",
    "op": "trace.unattributed_ms",
}


class Tracer:
    """Span recorder plus the perf-counter window of the measured phase."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.recorder = None
        self.perf_before: Dict[str, int] = {}
        self.perf_after: Dict[str, int] = {}
        if enabled:
            from spans import Recorder

            self.recorder = Recorder()
            self.recorder.install()

    def start(self) -> None:
        if self.enabled:
            from repro.perf import PERF

            PERF.reset()
            PERF.enable()
            self.perf_before = dict(PERF.counters)

    def stop(self) -> None:
        if self.enabled:
            from repro.perf import PERF

            self.perf_after = dict(PERF.counters)
            PERF.disable()

    def counter_delta(self, name: str) -> int:
        return self.perf_after.get(name, 0) - self.perf_before.get(name, 0)

    def op(self, op_id: int):
        """Context manager around one measured op (a no-op untraced)."""
        if not self.enabled:
            return contextlib.nullcontext()
        self.recorder.op_id = op_id
        return self.recorder.span("op")

    def end_op(self) -> None:
        if self.enabled:
            self.recorder.op_id = None

    def wrap_compile(self, fn):
        return self.recorder.timed("compiler", fn) if self.enabled else fn

    def layer_times(self, ops: int) -> Tuple[Dict[str, float], float, float]:
        """Per-op self time of every layer in ms, the mean traced op time,
        and the total simulate seconds inside ops."""
        totals = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        op_total = 0.0
        sim_seconds = 0.0
        for name, self_s, op, duration in self.recorder.self_times():
            if op is None:
                continue
            totals[SELF_TIME_METRICS[name]] += self_s
            if name == "op":
                op_total += duration
            elif name == "vm.simulate":
                sim_seconds += duration
        per_op = {metric: total * 1e3 / ops for metric, total in totals.items()}
        return per_op, op_total * 1e3 / ops, sim_seconds

    def dump(self, path: Optional[str]) -> None:
        if self.enabled and path:
            self.recorder.dump(path)


def source_timings(sources: List[str]) -> Dict[str, float]:
    """``parse_program`` per source and ``format_program`` per parsed
    program, in ms per call, over the workload's own sources."""
    from repro.ir import parse_program
    from repro.ir.printer import format_program

    format_s = parse_s = 0.0
    for source in sources:
        started = time.perf_counter()
        program = parse_program(source)
        parse_s += time.perf_counter() - started
        started = time.perf_counter()
        format_program(program)
        format_s += time.perf_counter() - started
    count = max(1, len(sources))
    return {
        "ir.format_ms": format_s * 1e3 / count,
        "ir.parse_ms": parse_s * 1e3 / count,
    }


def compile_layers(tracer: Tracer, compiles, ops: int) -> Dict[str, float]:
    """Per-layer metrics of an in-process compile workload. ``compiles``
    holds ``(variant name, CompileResult)`` for each distinct op (every op
    compiles once); ``ops`` counts the traced ops."""
    per_op, op_ms, _sim_s = tracer.layer_times(ops)
    layers = dict(per_op)
    layers["trace.op_ms"] = op_ms
    count = max(1, len(compiles))
    vector = [result for variant, result in compiles if variant != "scalar"]
    total_statements = sum(r.stats.total_statements for r in vector)
    blocks = sum(r.stats.blocks_total for r in vector)
    layers.update(
        {
            "transform.statements_out": sum(
                r.stats.total_statements for _, r in compiles
            ) / count,
            "slp.candidates": tracer.recorder.counts.get("slp.candidates", 0)
            / ops,
            "slp.exact_scores": tracer.counter_delta(
                "grouping.scores_recomputed"
            ) / ops,
            "slp.superwords": sum(
                r.stats.superword_statements for _, r in compiles
            ) / count,
            "slp.grouped_share": (
                sum(r.stats.grouped_statements for r in vector)
                / total_statements
                if total_statements
                else 0.0
            ),
            "layout.replications": sum(
                r.stats.replications for _, r in compiles
            ) / count,
            "codegen.vectorized_share": (
                sum(r.stats.blocks_vectorized for r in vector) / blocks
                if blocks
                else 0.0
            ),
            "codegen.static_instructions": sum(
                plan_instructions(r.plan) for _, r in compiles
            ) / count,
        }
    )
    return layers


#: Per-layer metrics of the in-process compile pipeline; serve-mixed
#: reports 0 for those its requests do not reach in this process.
COMPILE_LAYERS = tuple(SELF_TIME_METRICS.values()) + (
    "transform.statements_out",
    "slp.candidates",
    "slp.exact_scores",
    "slp.superwords",
    "slp.grouped_share",
    "layout.replications",
    "codegen.vectorized_share",
    "codegen.static_instructions",
    "codegen.pack_unpack_ops",
    "vm.instr_per_s",
)

#: Per-layer metrics only ``serve-mixed`` exercises; in-process
#: workloads report 0 for them (their ops never reach these layers).
SERVICE_LAYERS = (
    "vm.kernel_emissions",
    "vm.kernel_reuse_share",
    "store.hit_share",
    "store.entry_kb",
    "service.parse_ms",
    "service.queue_wait_ms",
    "service.execute_ms",
    "service.client_ms",
    "service.coalesced_share",
)


# -- compile-wide ------------------------------------------------------------------


def compile_wide_cells(seed: int, kernel_names: List[str]):
    """Every (kernel, unroll, datapath) once, on a seed-drawn machine:
    120 of the 240 tuples per seed. The machine barely moves compile
    time while the kernel, unroll and datapath do, so every seed runs
    nearly the same work."""
    rng = rng_for("compile-wide", seed)
    cells = [
        (kernel, rng.choice(MACHINE_NAMES), unroll, datapath)
        for kernel in kernel_names
        for unroll in CW_UNROLLS
        for datapath in CW_DATAPATHS
    ]
    ops = [(i, v) for i in range(len(cells)) for v in HOLISTIC]
    rng.shuffle(ops)
    return cells, ops


def run_compile_wide(args) -> dict:
    from repro import CompilerOptions, Variant, compile_program
    from repro.bench.kernels import ALL_KERNELS
    from repro.ir.printer import format_program
    from repro.vm import MACHINES, Simulator
    from repro.vm.simulator import interpret_program

    mutator = None
    if args.mutate:
        from repro.fuzz import buggy_swap_mutator as mutator

    cells, ops = compile_wide_cells(args.seed, [k.name for k in ALL_KERNELS])
    programs = {k.name: k.build(CW_N) for k in ALL_KERNELS}
    machines = {name: MACHINES[name]() for name in MACHINE_NAMES}
    cell_options = [
        CompilerOptions(
            datapath_bits=datapath,
            unroll_factor=unroll,
            debug_schedule_mutator=mutator,
        )
        for _kernel, _machine, unroll, datapath in cells
    ]
    tracer = Tracer(args.trace)
    compile_op = tracer.wrap_compile(compile_program)
    # Warm-up (part of set-up): one small cell per variant loads every
    # lazily imported module before timing starts.
    for variant in HOLISTIC:
        compile_program(
            programs["soplex"], Variant(variant), machines["intel"],
            CompilerOptions(datapath_bits=256, unroll_factor=4),
        )

    first_op_at = time.monotonic()
    if args.setup_only:
        return {"first_op_at": first_op_at}
    tracer.start()
    probe = HostProbe()
    outcome = Outcome()
    latencies: List[float] = []
    scaled: List[float] = []  # latencies over the host slowdown
    compile_s = {v: 0.0 for v in HOLISTIC}
    # Only pass 1's results are kept (later passes must equal them), so
    # memory does not grow with the number of passes.
    first: Dict[Tuple[int, str], object] = {}
    phase_started = time.perf_counter()
    passes = 0
    while True:
        for op_index, (ci, variant) in enumerate(ops):
            kernel, machine, _unroll, _datapath = cells[ci]
            outcome.attempted += 1
            probe.maybe()
            with tracer.op(op_index):
                started = time.perf_counter()
                try:
                    result = compile_op(
                        programs[kernel], Variant(variant), machines[machine],
                        cell_options[ci],
                    )
                except Exception as exc:  # a failed op, not a harness bug
                    result = None
                    outcome.fail(f"{kernel}/{variant}: {exc!r}")
                seconds = time.perf_counter() - started
            tracer.end_op()
            if result is None:
                continue
            latencies.append(seconds * 1e3)
            scaled.append(latencies[-1] / probe.current)
            compile_s[variant] += seconds / probe.current
            if (ci, variant) not in first:
                first[(ci, variant)] = result
            elif result != first[(ci, variant)]:
                outcome.fail(f"{cells[ci]}/{variant}: differs from pass 1")
        passes += 1
        elapsed = time.perf_counter() - phase_started
        if passes >= args.max_passes or ends_near(elapsed, passes, args):
            break
    tracer.stop()
    peak_rss = peak_rss_self_mb()

    # -- after the measured phase: baselines and the plan oracle ----------------
    reference = {
        name: memory_digest(
            interpret_program(program, seed=SIM_SEED), program
        )
        for name, program in programs.items()
    }
    cycles: Dict[Tuple[int, str], float] = {}
    pack_unpack: List[int] = []
    for (ci, variant), result in first.items():
        kernel = cells[ci][0]
        try:
            report, memory = Simulator(result.machine).run(
                result.plan, seed=SIM_SEED
            )
        except Exception as exc:
            outcome.fail(f"{kernel}/{variant} simulate: {exc!r}")
            continue
        if memory_digest(memory, programs[kernel]) != reference[kernel]:
            outcome.fail(f"{cells[ci]}/{variant}: memory differs from oracle")
            continue
        cycles[(ci, variant)] = report.cycles
        if variant == "global":
            pack_unpack.append(report.pack_unpack_ops)
    for ci, (kernel, machine, _unroll, _datapath) in enumerate(cells):
        scalar = compile_program(
            programs[kernel], Variant.SCALAR, machines[machine],
            cell_options[ci],
        )
        report, _memory = Simulator(scalar.machine).run(
            scalar.plan, seed=SIM_SEED
        )
        cycles[(ci, "scalar")] = report.cycles

    out = base_result(
        args, first_op_at, outcome, latencies, elapsed, peak_rss, scaled
    )
    out["metrics"].update(
        {
            "cycles_ratio_global": cycles_ratio(cycles, len(cells), "global"),
            "cycles_ratio_layout": cycles_ratio(
                cycles, len(cells), "global+layout"
            ),
            "compile_ratio_global_slp": compile_s["global"] / compile_s["slp"],
        }
    )
    out["passes"] = passes
    out["cells"] = [list(cell) for cell in cells]
    if args.trace:
        layers = compile_layers(
            tracer, [(v, r) for (_ci, v), r in first.items()],
            outcome.attempted,
        )
        # Simulation is not part of a compile-wide op; pack/unpack counts
        # come from the cycle-baseline runs of the global plans above.
        layers["codegen.pack_unpack_ops"] = (
            sum(pack_unpack) / len(pack_unpack) if pack_unpack else 0.0
        )
        layers["vm.instr_per_s"] = 0.0
        layers.update(
            source_timings([format_program(p) for p in programs.values()])
        )
        layers.update(dict.fromkeys(SERVICE_LAYERS, 0.0))
        out["layers"] = layers
        tracer.dump(args.spans_out)
    return out


def cycles_ratio(cycles, cell_count: int, variant: str) -> float:
    """Geometric mean over cells of ``variant`` cycles / scalar cycles."""
    values = [
        cycles[(ci, variant)] / cycles[(ci, "scalar")]
        for ci in range(cell_count)
        if (ci, variant) in cycles and (ci, "scalar") in cycles
    ]
    return geomean(values) if values else float("nan")


def ends_near(elapsed: float, passes: int, args) -> bool:
    """Whole passes only: stop when one more would end further past
    ``--seconds`` than stopping now falls short of it."""
    return elapsed + 0.5 * elapsed / passes >= args.seconds


def base_result(args, first_op_at, outcome, latencies, phase_s, peak_rss,
                scaled: Optional[List[float]] = None):
    """The fields every workload reports. The gated percentiles come
    from the ``scaled`` latencies (see ``HostProbe``) and the op rate is
    scaled by the run's overall factor; without them nothing is scaled."""
    stats = latency_stats(latencies)
    slowdown = sum(latencies) / sum(scaled) if scaled else 1.0
    gated = latency_stats(scaled) if scaled else stats
    ops_per_s = len(latencies) / phase_s
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "first_op_at": first_op_at,
        "phase_s": phase_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.reasons,
        "latency": stats,
        "host_slowdown": slowdown,
        "raw": {
            "ops_per_s": ops_per_s,
            "op_ms_p50": stats["p50"],
            "op_ms_p90": stats["p90"],
        },
        "metrics": {
            "ops_per_s": ops_per_s * slowdown,
            "op_ms_p50": gated["p50"],
            "op_ms_p90": gated["p90"],
            "ok_share": 1.0 - outcome.failed / max(1, outcome.attempted),
            "peak_rss_mb": peak_rss,
        },
    }


# -- suite-paper -------------------------------------------------------------------


def suite_paper_cells(seed: int, kernel_names: List[str]):
    """Every kernel at all four sizes of ``SP_NS`` in each pass: one
    machine runs n in {128, 1024}, the other {256, 512}, and the seed
    draws which. 80 cells per seed, the same total work for every seed."""
    rng = rng_for("suite-paper", seed)
    cells = []
    for kernel in kernel_names:
        pairs = [(SP_NS[0], SP_NS[3]), (SP_NS[1], SP_NS[2])]
        rng.shuffle(pairs)
        for machine, sizes in zip(MACHINE_NAMES, pairs):
            for n in sizes:
                cells.append((kernel, machine, n))
    ops = [(i, v) for i in range(len(cells)) for v in ALL_VARIANTS]
    rng.shuffle(ops)
    return cells, ops


def run_suite_paper(args) -> dict:
    from repro import Variant, compile_program
    from repro.bench.kernels import ALL_KERNELS, KERNELS
    from repro.ir.printer import format_program
    from repro.vm import MACHINES, Simulator
    from repro.vm.simulator import interpret_program

    cells, ops = suite_paper_cells(args.seed, [k.name for k in ALL_KERNELS])
    programs = {
        (kernel, n): KERNELS[kernel].build(n) for kernel, _m, n in cells
    }
    machines = {name: MACHINES[name]() for name in MACHINE_NAMES}
    tracer = Tracer(args.trace)
    compile_op = tracer.wrap_compile(compile_program)
    small = KERNELS["soplex"].build(16)
    for variant in ALL_VARIANTS:
        warm = compile_program(small, Variant(variant), machines["intel"])
        Simulator(warm.machine).run(warm.plan, seed=SIM_SEED)

    first_op_at = time.monotonic()
    if args.setup_only:
        return {"first_op_at": first_op_at}
    tracer.start()
    probe = HostProbe()
    outcome = Outcome()
    latencies: List[float] = []
    scaled: List[float] = []  # latencies over the host slowdown
    compile_s = {v: 0.0 for v in ALL_VARIANTS}
    instructions = 0
    # Pass 1's (memory digest, report, result) per op; later passes must
    # reproduce the digest.
    first: Dict[Tuple[int, str], tuple] = {}
    phase_started = time.perf_counter()
    passes = 0
    while True:
        for op_index, (ci, variant) in enumerate(ops):
            kernel, machine, n = cells[ci]
            program = programs[(kernel, n)]
            outcome.attempted += 1
            probe.maybe()
            with tracer.op(op_index):
                started = time.perf_counter()
                try:
                    result = compile_op(
                        program, Variant(variant), machines[machine]
                    )
                    compiled = time.perf_counter()
                    report, memory = Simulator(result.machine).run(
                        result.plan, seed=SIM_SEED
                    )
                except Exception as exc:
                    result = None
                    outcome.fail(f"{kernel}/{variant}: {exc!r}")
                finished = time.perf_counter()
            tracer.end_op()
            if result is None:
                continue
            latencies.append((finished - started) * 1e3)
            scaled.append(latencies[-1] / probe.current)
            compile_s[variant] += (compiled - started) / probe.current
            instructions += report.total_instructions
            digest = memory_digest(memory, program)
            del memory
            if (ci, variant) not in first:
                first[(ci, variant)] = (digest, report, result)
            elif digest != first[(ci, variant)][0]:
                outcome.fail(f"{cells[ci]}/{variant}: differs from pass 1")
        passes += 1
        elapsed = time.perf_counter() - phase_started
        if passes >= args.max_passes or ends_near(elapsed, passes, args):
            break
    tracer.stop()
    peak_rss = peak_rss_self_mb()

    reference = {
        key: memory_digest(interpret_program(program, seed=SIM_SEED), program)
        for key, program in programs.items()
    }
    cycles: Dict[Tuple[int, str], float] = {}
    for (ci, variant), (digest, report, _result) in first.items():
        kernel, _machine, n = cells[ci]
        if digest != reference[(kernel, n)]:
            outcome.fail(f"{cells[ci]}/{variant}: memory differs from oracle")
            continue
        cycles[(ci, variant)] = report.cycles

    out = base_result(
        args, first_op_at, outcome, latencies, elapsed, peak_rss, scaled
    )
    out["metrics"].update(
        {
            "cycles_ratio_global": cycles_ratio(cycles, len(cells), "global"),
            "cycles_ratio_layout": cycles_ratio(
                cycles, len(cells), "global+layout"
            ),
            "compile_ratio_global_slp": compile_s["global"] / compile_s["slp"],
        }
    )
    out["passes"] = passes
    out["cells"] = [list(cell) for cell in cells]
    if args.trace:
        layers = compile_layers(
            tracer, [(v, r) for (_ci, v), (_d, _rep, r) in first.items()],
            outcome.attempted,
        )
        _per_op, _op_ms, sim_seconds = tracer.layer_times(outcome.attempted)
        global_runs = [
            report.pack_unpack_ops
            for (_ci, v), (_d, report, _r) in first.items()
            if v == "global"
        ]
        layers["codegen.pack_unpack_ops"] = (
            sum(global_runs) / len(global_runs) if global_runs else 0.0
        )
        layers["vm.instr_per_s"] = (
            instructions / sim_seconds if sim_seconds else 0.0
        )
        layers.update(
            source_timings([format_program(p) for p in programs.values()])
        )
        layers.update(dict.fromkeys(SERVICE_LAYERS, 0.0))
        out["layers"] = layers
        tracer.dump(args.spans_out)
    return out


# -- serve-mixed -------------------------------------------------------------------


@dataclass
class Request:
    kind: str
    hot: Optional[str] = None
    fuzz_seed: Optional[int] = None
    variant: str = "global"
    machine: str = "intel"
    sim_seed: int = 0
    paired: bool = False


def serve_requests(seed: int, hot_keys, length: int) -> List[List[Request]]:
    """Each client's request list. Slot ``i`` of both lists is the same
    fresh compile whenever ``i % PAIR_EVERY == PAIR_EVERY - 1``."""
    rng = rng_for("serve-mixed", seed)
    kinds = [kind for kind, _share in SM_MIX]
    weights = [share for _kind, share in SM_MIX]
    base = 1_000_000 + seed * 100_000
    lists: List[List[Request]] = [[] for _ in range(SM_CLIENTS)]
    for slot in range(length):
        if slot % PAIR_EVERY == PAIR_EVERY - 1:
            shared = Request(
                "fresh-compile", fuzz_seed=base + slot * SM_CLIENTS,
                variant=rng.choice(HOLISTIC),
                machine=rng.choice(MACHINE_NAMES), paired=True,
            )
            for requests in lists:
                requests.append(shared)
            continue
        for client, requests in enumerate(lists):
            kind = rng.choices(kinds, weights)[0]
            if kind.startswith("hot"):
                kernel, variant, machine = hot_keys[rng.randrange(len(hot_keys))]
                request = Request(kind, hot=kernel, variant=variant,
                                  machine=machine)
            else:
                request = Request(
                    kind, fuzz_seed=base + slot * SM_CLIENTS + client,
                    variant=rng.choice(HOLISTIC),
                    machine=rng.choice(MACHINE_NAMES),
                )
            if kind.endswith("simulate"):
                request.sim_seed = rng.randrange(SM_SIM_SEEDS)
            requests.append(request)
    return lists


class Server:
    """A ``repro serve`` subprocess with a fresh store directory."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.store_dir = os.path.join(run_dir, "store")
        self.log_path = os.path.join(run_dir, "serve.log")
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> None:
        os.makedirs(self.run_dir, exist_ok=True)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0",
                    "--workers", str(SM_WORKERS),
                    "--cache-dir", self.store_dir,
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on (http://[0-9.]+:\d+)")
        while time.monotonic() < deadline:
            with open(self.log_path, "r", errors="replace") as handle:
                found = pattern.search(handle.read())
            if found:
                self.url = found.group(1)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not start; see {self.log_path}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure every process of the
        server is gone before returning."""
        if self.proc is None:
            return
        children = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        for pid in children:
            deadline = time.monotonic() + 10
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.02)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.proc = None


def metrics_delta(before: dict, after: dict) -> Dict[str, float]:
    """Service and store per-layer metrics from two ``/metrics`` scrapes."""

    def stage(name: str) -> float:
        a = after["service"]["latency_ms"][name]
        b = before["service"]["latency_ms"][name]
        count = a["count"] - b["count"]
        return (a["sum_ms"] - b["sum_ms"]) / count if count else 0.0

    def counter(name: str) -> int:
        return after["perf"]["counters"].get(name, 0) - before["perf"][
            "counters"
        ].get(name, 0)

    def requests(payload: dict) -> int:
        paths = payload["service"]["requests"]
        return paths.get("/v1/compile", 0) + paths.get("/v1/simulate", 0)

    def section(payload: dict, name: str) -> Tuple[float, int]:
        seconds, calls = payload["perf"]["sections"].get(name, (0.0, 0))
        return seconds, calls

    jobs = requests(after) - requests(before)
    memo = counter("compiled.kernel_memo_hits")
    store_hits = counter("compiled.kernel_store_hits")
    emissions = counter("compiled.emissions")
    lookups = memo + store_hits + emissions
    sim_a, calls_a = section(after, "simulate")
    sim_b, calls_b = section(before, "simulate")
    sim_calls = calls_a - calls_b
    return {
        "service.parse_ms": stage("parse"),
        "service.queue_wait_ms": stage("queue_wait"),
        "service.execute_ms": stage("execute"),
        "service.total_ms": stage("total"),
        "service.coalesced_share": (
            (after["service"]["coalesced"] - before["service"]["coalesced"])
            / jobs
            if jobs
            else 0.0
        ),
        "vm.kernel_emissions_total": emissions,
        "vm.kernel_reuse_share": (
            (memo + store_hits) / lookups if lookups else 0.0
        ),
        "vm.simulate_ms": (
            (sim_a - sim_b) * 1e3 / sim_calls if sim_calls else 0.0
        ),
    }


def run_serve_mixed(args) -> dict:
    from repro import CompilerOptions, Variant, compile_program
    from repro.bench.kernels import ALL_KERNELS
    from repro.fuzz import generate_case
    from repro.ir import parse_program
    from repro.ir.printer import format_program
    from repro.service.client import ServiceClient
    from repro.store import ArtifactStore
    from repro.vm import MACHINES, Simulator
    from repro.vm.simulator import interpret_program

    hot_sources = {
        k.name: format_program(k.build(SM_HOT_N)) for k in ALL_KERNELS
    }
    hot_keys = [
        (kernel, variant, machine)
        for kernel in hot_sources
        for variant in HOLISTIC
        for machine in MACHINE_NAMES
    ]
    # Both clients together have served under 200 requests/s on 2 CPUs.
    length = int(max(1.0, args.seconds) * 200) + PAIR_EVERY
    lists = serve_requests(args.seed, hot_keys, length)
    sim_options = CompilerOptions(engine="compiled")
    run_dir = os.path.join(
        args.run_root, f"serve-{args.seed}-{os.getpid()}"
    )
    server = Server(run_dir)
    server.start()
    try:
        client = ServiceClient(server.url, timeout=60.0)
        primed: Dict[Tuple[str, str, str], object] = {}
        primed_sims: Dict[Tuple[str, str, str], object] = {}

        def prime(keys) -> None:
            for kernel, variant, machine in keys:
                primed[(kernel, variant, machine)] = client.compile(
                    source=hot_sources[kernel], variant=variant,
                    machine=machine,
                )
            for kernel, variant, machine in keys:
                primed_sims[(kernel, variant, machine)] = client.simulate(
                    source=hot_sources[kernel], variant=variant,
                    machine=machine, options=sim_options, seed=0,
                )
            client.close()

        threads = [
            threading.Thread(target=prime, args=(hot_keys[i::SM_CLIENTS],))
            for i in range(SM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if len(primed_sims) != len(hot_keys):
            raise RuntimeError("priming the hot set failed")
        before = client.metrics()

        first_op_at = time.monotonic()
        if args.setup_only:
            return {"first_op_at": first_op_at}

        probe = HostProbe()
        barrier = threading.Barrier(SM_CLIENTS)
        start_gate = threading.Barrier(SM_CLIENTS + 1)
        deadline_box = [0.0]
        records: List[List[tuple]] = [[] for _ in range(SM_CLIENTS)]
        errors: List[List[str]] = [[] for _ in range(SM_CLIENTS)]
        attempted = [0] * SM_CLIENTS

        def run_client(index: int) -> None:
            start_gate.wait()
            deadline = deadline_box[0]
            out = records[index]
            try:
                for request in lists[index]:
                    if time.monotonic() >= deadline:
                        break
                    if request.paired:
                        try:
                            barrier.wait(timeout=60)
                        except threading.BrokenBarrierError:
                            break
                    if request.hot is not None:
                        source = hot_sources[request.hot]
                    else:
                        source = generate_case(request.fuzz_seed).source
                    attempted[index] += 1
                    started = time.perf_counter()
                    try:
                        if request.kind.endswith("compile"):
                            response = client.compile(
                                source=source, variant=request.variant,
                                machine=request.machine,
                            )
                        else:
                            response = client.simulate(
                                source=source, variant=request.variant,
                                machine=request.machine,
                                options=sim_options, seed=request.sim_seed,
                            )
                    except Exception as exc:  # refused, timed out, crashed
                        errors[index].append(f"{request.kind}: {exc!r}")
                        continue
                    latency = time.perf_counter() - started
                    out.append(
                        (request, source, latency * 1e3, response,
                         probe.current)
                    )
            finally:
                barrier.abort()
                client.close()

        threads = [
            threading.Thread(target=run_client, args=(i,))
            for i in range(SM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        deadline_box[0] = time.monotonic() + args.seconds
        phase_started = time.perf_counter()
        start_gate.wait()
        while any(thread.is_alive() for thread in threads):
            probe.maybe()
            time.sleep(0.05)
        for thread in threads:
            thread.join()
        phase_s = time.perf_counter() - phase_started
        after = client.metrics()
        peak_rss = peak_rss_tree_mb(server.proc.pid)
        store_stats = ArtifactStore(server.store_dir).stats()
    finally:
        server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    # -- oracle checks, outside the measured phase ------------------------------
    outcome = Outcome()
    outcome.attempted = sum(attempted)
    for per_client in errors:
        for reason in per_client:
            outcome.fail(reason)
    machines = {name: MACHINES[name]() for name in MACHINE_NAMES}
    local: Dict[Tuple[str, str, str], object] = {}
    interpreted: Dict[Tuple[str, int], str] = {}
    parsed: Dict[str, object] = {}

    def program_of(source: str):
        if source not in parsed:
            parsed[source] = parse_program(source)
        return parsed[source]

    def local_compile(source: str, variant: str, machine: str):
        key = (source, variant, machine)
        if key not in local:
            local[key] = compile_program(
                program_of(source), Variant(variant), machines[machine]
            )
        return local[key]

    def oracle_digest(source: str, seed: int) -> str:
        key = (source, seed)
        if key not in interpreted:
            program = program_of(source)
            interpreted[key] = memory_digest(
                interpret_program(program, seed=seed), program
            )
        return interpreted[key]

    def check(kind, source, variant, machine, seed, response) -> Optional[str]:
        if kind.endswith("compile"):
            if response.result != local_compile(source, variant, machine):
                return "compile result differs from a local compile"
            return None
        program = program_of(source)
        if memory_digest(response.memory, program) != oracle_digest(
            source, seed
        ):
            return "simulated memory differs from the interpreter"
        return None

    latencies: List[float] = []
    scaled: List[float] = []
    by_kind: Dict[str, List[float]] = {kind: [] for kind, _share in SM_MIX}
    compiles = cached = 0
    simulates = 0
    for per_client in records:
        for request, source, latency_ms, response, slowdown in per_client:
            reason = check(
                request.kind, source, request.variant, request.machine,
                request.sim_seed, response,
            )
            if reason is not None:
                outcome.fail(f"{request.kind}: {reason}")
                continue
            latencies.append(latency_ms)
            scaled.append(latency_ms / slowdown)
            by_kind[request.kind].append(latency_ms)
            if request.kind.endswith("compile"):
                compiles += 1
                cached += bool(response.cached)
            else:
                simulates += 1
    scalar_cycles: Dict[Tuple[str, str], float] = {}
    for (kernel, variant, machine), response in list(primed.items()) + list(
        primed_sims.items()
    ):
        kind = "simulate" if response.report is not None else "compile"
        reason = check(kind, hot_sources[kernel], variant, machine, 0, response)
        if reason is not None:
            outcome.fail(f"priming {kind}: {reason}")
    for kernel in hot_sources:
        for machine in MACHINE_NAMES:
            result = local_compile(hot_sources[kernel], "scalar", machine)
            report, _memory = Simulator(result.machine).run(result.plan, seed=0)
            scalar_cycles[(kernel, machine)] = report.cycles

    def ratio(variant: str) -> float:
        return geomean(
            [
                primed_sims[(kernel, variant, machine)].report.cycles
                / scalar_cycles[(kernel, machine)]
                for kernel in hot_sources
                for machine in MACHINE_NAMES
            ]
        )

    def hot_compile_ratio() -> float:
        """Global over slp compile seconds for the hot set, compiled here
        (variants interleaved per cell), median of three rounds."""
        ratios = []
        for _round in range(3):
            seconds = {"slp": 0.0, "global": 0.0}
            for kernel, source in hot_sources.items():
                program = program_of(source)
                for machine in MACHINE_NAMES:
                    for variant in seconds:
                        started = time.perf_counter()
                        compile_program(
                            program, Variant(variant), machines[machine]
                        )
                        seconds[variant] += time.perf_counter() - started
            ratios.append(seconds["global"] / seconds["slp"])
        return statistics.median(ratios)

    out = base_result(
        args, first_op_at, outcome, latencies, phase_s, peak_rss, scaled
    )
    out["metrics"].update(
        {
            # The generated code the service hands out for its hot set,
            # against a local scalar baseline. The workers' own compile
            # times are too few and too contended to be steady, so the
            # compile ratio is the hot set's, measured here.
            "cycles_ratio_global": ratio("global"),
            "cycles_ratio_layout": ratio("global+layout"),
            "compile_ratio_global_slp": hot_compile_ratio(),
        }
    )
    out["requests"] = {
        "compiles": compiles, "simulates": simulates, "cached": cached,
    }
    out["by_kind"] = {
        kind: latency_stats(values) for kind, values in by_kind.items()
    }
    out["request_digest"] = hashlib.sha256(
        "\n".join(
            f"{r.kind}:{r.hot}:{r.fuzz_seed}:{r.variant}:{r.machine}:"
            f"{r.sim_seed}"
            for requests in lists
            for r in requests[:200]
        ).encode()
    ).hexdigest()
    if args.trace:
        delta = metrics_delta(before, after)
        mean_client_ms = statistics.fmean(latencies) if latencies else 0.0
        sources = sorted(
            {record[1] for per_client in records for record in per_client}
        )
        layers = dict.fromkeys(COMPILE_LAYERS, 0.0)
        layers.update(
            {
                "trace.op_ms": mean_client_ms,
                "vm.simulate_ms": delta["vm.simulate_ms"],
                "vm.kernel_emissions": (
                    delta["vm.kernel_emissions_total"] / simulates
                    if simulates
                    else 0.0
                ),
                "vm.kernel_reuse_share": delta["vm.kernel_reuse_share"],
                "store.hit_share": cached / compiles if compiles else 0.0,
                "store.entry_kb": (
                    store_stats.bytes / store_stats.entries / 1024.0
                    if store_stats.entries
                    else 0.0
                ),
                "service.parse_ms": delta["service.parse_ms"],
                "service.queue_wait_ms": delta["service.queue_wait_ms"],
                "service.execute_ms": delta["service.execute_ms"],
                "service.client_ms": mean_client_ms - delta["service.total_ms"],
                "service.coalesced_share": delta["service.coalesced_share"],
            }
        )
        layers.update(source_timings(sources))
        out["layers"] = layers
    return out


RUNNERS = {
    "compile-wide": run_compile_wide,
    "suite-paper": run_suite_paper,
    "serve-mixed": run_serve_mixed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-passes", type=int, default=1 << 30, dest="max_passes",
        help="stop after this many passes over the op list",
    )
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    parser.add_argument(
        "--mutate", action="store_true",
        help="compile with repro.fuzz.buggy_swap_mutator (oracle self-check)",
    )
    parser.add_argument("--spans-out", default=None, dest="spans_out")
    parser.add_argument("--run-root", default=".perfbench", dest="run_root")
    args = parser.parse_args(argv)
    result = RUNNERS[args.workload](args)
    if not args.setup_only:
        from repro.bench.record import machine_fingerprint

        result["fingerprint"] = machine_fingerprint()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
