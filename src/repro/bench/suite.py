"""The evaluation harness: run kernels through every compiler variant on
a simulated machine and collect the measurements the paper's figures
plot.

``run_kernel`` produces one benchmark's four-variant comparison;
``run_suite`` sweeps the whole Table 3 suite; ``run_multicore`` produces
one Figure 21 data point (P cores = each core runs a 1/P slice with a
private L1, plus a synchronization overhead shared by both versions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from ..compiler import (
    CompileResult,
    CompilerOptions,
    CompileStats,
    Variant,
    compile_program,
)
from ..errors import Diagnostic, SuiteError, format_failure
from ..store import ArtifactStore
from ..trace import summarize, to_jsonl, traced_run
from ..vm import (
    ExecutionReport,
    MachineModel,
    Memory,
    MulticorePoint,
    Simulator,
    parallel_cycles,
    reduction,
)
from .kernels import ALL_KERNELS, Kernel

DEFAULT_VARIANTS: Tuple[Variant, ...] = (
    Variant.SCALAR,
    Variant.NATIVE,
    Variant.SLP,
    Variant.GLOBAL,
    Variant.GLOBAL_LAYOUT,
)


@dataclass
class VariantRun:
    variant: Variant
    report: ExecutionReport
    stats: CompileStats
    memory: Memory


@dataclass
class KernelResult:
    """One benchmark across variants, plus derived figure metrics."""

    kernel: Kernel
    runs: Dict[Variant, VariantRun] = field(default_factory=dict)
    # Per-variant ``repro.trace.summarize`` dicts, filled only when the
    # suite runs with a trace directory. Plain dicts so results pickle
    # across the worker-pool boundary.
    trace_summaries: Dict[Variant, dict] = field(default_factory=dict)
    # Per-variant compile diagnostics (graceful-degradation fallbacks,
    # skipped layout plans, ...). Empty unless a compile degraded.
    diagnostics: Dict[Variant, Tuple[Diagnostic, ...]] = field(
        default_factory=dict
    )

    def cycles(self, variant: Variant) -> float:
        return self.runs[variant].report.cycles

    def time_reduction(self, variant: Variant) -> float:
        """Execution-time reduction over scalar (Figures 16/19/20)."""
        return reduction(self.cycles(Variant.SCALAR), self.cycles(variant))

    def dyn_instr_reduction_over(
        self, better: Variant, worse: Variant
    ) -> float:
        """Figure 17 left axis: dynamic instructions (excl. pack/unpack)."""
        return reduction(
            self.runs[worse].report.dynamic_instructions,
            self.runs[better].report.dynamic_instructions,
        )

    def pack_unpack_reduction_over(
        self, better: Variant, worse: Variant
    ) -> float:
        """Figure 17 right axis: packing/unpacking overhead."""
        return reduction(
            self.runs[worse].report.pack_unpack_ops,
            self.runs[better].report.pack_unpack_ops,
        )

    def dyn_instr_elimination(self, variant: Variant) -> float:
        """Figure 18: dynamic instructions eliminated vs. scalar code."""
        return reduction(
            self.runs[Variant.SCALAR].report.total_instructions,
            self.runs[variant].report.total_instructions,
        )

    def semantics_preserved(self) -> bool:
        base = self.runs[Variant.SCALAR].memory
        return all(
            run.memory.state_equal(base)
            for variant, run in self.runs.items()
            if variant is not Variant.SCALAR
        )


def run_kernel(
    kernel: Kernel,
    machine: MachineModel,
    variants: Sequence[Variant] = DEFAULT_VARIANTS,
    options: Optional[CompilerOptions] = None,
    n: int = 0,
    seed: int = 0,
    cache: Optional[ArtifactStore] = None,
    trace_dir: Optional[Union[str, Path]] = None,
) -> KernelResult:
    result = KernelResult(kernel)
    # One program serves every variant: the compiler never mutates its
    # input IR, so rebuilding (and re-elaborating) the kernel per
    # variant was pure waste. The scalar run doubles as the semantics
    # reference — its memory is kept on the result and compared against
    # by ``semantics_preserved`` instead of being re-simulated.
    program = kernel.build(n)
    for variant in variants:
        if trace_dir is not None:
            run = traced_run(
                program, variant, machine, options, seed=seed,
                meta={"kernel": kernel.name, "variant": variant.value},
            )
            _write_trace(trace_dir, kernel, variant, run.records)
            result.trace_summaries[variant] = summarize(run.records)
            compiled, report, memory = run.result, run.report, run.memory
        else:
            compiled = None
            key = ""
            if cache is not None:
                key = cache.key(program, variant, machine, options)
                compiled = cache.get(key)
            if compiled is None:
                compiled = compile_program(program, variant, machine, options)
                if cache is not None:
                    cache.put(key, compiled)
            report, memory = Simulator(
                compiled.machine, engine=options.engine if options else None
            ).run(compiled.plan, seed=seed)
        result.runs[variant] = VariantRun(
            variant, report, compiled.stats, memory
        )
        diags = _result_diagnostics(compiled)
        if diags:
            result.diagnostics[variant] = diags
    return result


def _result_diagnostics(compiled: CompileResult) -> Tuple[Diagnostic, ...]:
    # getattr: cache entries pickled before the diagnostics API existed
    # have no such attribute and count as clean compiles.
    return tuple(getattr(compiled, "diagnostics", None) or ())


def _write_trace(
    trace_dir: Union[str, Path],
    kernel: Kernel,
    variant: Variant,
    records: Sequence[dict],
) -> None:
    """Write one kernel x variant trace into ``trace_dir``. Traced runs
    bypass the compile cache (see :func:`repro.trace.traced_run`)."""
    root = Path(trace_dir)
    root.mkdir(parents=True, exist_ok=True)
    stem = f"{kernel.name}__{variant.value.replace('+', '_')}"
    (root / f"{stem}.jsonl").write_text(
        to_jsonl(records), encoding="utf-8"
    )


def run_suite(
    machine: MachineModel,
    kernels: Optional[Iterable[Kernel]] = None,
    variants: Sequence[Variant] = DEFAULT_VARIANTS,
    options: Optional[CompilerOptions] = None,
    n: int = 0,
    cache_dir: Optional[Union[str, Path]] = None,
    trace_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, KernelResult]:
    """Sweep the suite, one kernel after another. ``cache_dir`` enables
    the on-disk compile cache. A kernel that fails does not stop the
    sweep: every failure is raised together, as a :class:`SuiteError`,
    after the last kernel ran."""
    cache = ArtifactStore(cache_dir) if cache_dir else None
    out: Dict[str, KernelResult] = {}
    failures: Dict[str, str] = {}
    for kernel in kernels or ALL_KERNELS:
        try:
            out[kernel.name] = run_kernel(
                kernel, machine, variants, options, n=n, cache=cache,
                trace_dir=trace_dir,
            )
        except Exception as exc:
            failures[kernel.name] = format_failure(exc)
    if failures:
        raise _suite_error(failures, out)
    return out


def _suite_error(
    failures: Dict[str, str], out: Dict[str, KernelResult]
) -> SuiteError:
    error = SuiteError(failures)
    # The kernels that *did* finish; lets callers report partial tables.
    error.results = out
    return error


def run_multicore(
    kernel: Kernel,
    machine: MachineModel,
    variant: Variant,
    cores: int,
    n: int = 0,
    options: Optional[CompilerOptions] = None,
) -> MulticorePoint:
    """One Figure 21 point: per-core slice simulation + sync overhead."""
    total_n = n or kernel.default_n
    slice_n = max(1, total_n // cores)
    sliced = run_kernel(
        kernel,
        machine,
        variants=(Variant.SCALAR, variant),
        options=options,
        n=slice_n,
    )
    scalar = parallel_cycles(
        sliced.cycles(Variant.SCALAR),
        cores,
        machine,
        sliced.runs[Variant.SCALAR].report.memory_operations,
    )
    optimized = parallel_cycles(
        sliced.cycles(variant),
        cores,
        machine,
        sliced.runs[variant].report.memory_operations,
    )
    return MulticorePoint(cores, scalar, optimized)


# -- presentation helpers (shared by the benchmark harnesses) -----------------------


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def percent(x: float) -> str:
    return f"{100.0 * x:5.1f}%"
