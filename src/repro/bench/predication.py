"""The predication plane: branchy kernels through if-conversion.

The ``branchy`` kernel family (:mod:`repro.bench.kernels`) carries
if/else regions that :mod:`repro.transform.if_convert` must flatten
into predicated select blocks before any SLP stage runs. This module
turns that path into measured, gateable quantities — for every branchy
kernel it reports

* **cycles** — end-to-end simulated cycles of the SCALAR baseline and
  the GLOBAL variant, plus their ratio (``speedup``: > 1 means the
  if-converted superword code beats the if-converted scalar code).
* **vector** — ``vselect_ops``, the static count of lane-parallel
  ``select`` ops (``vselect``/blend) in the GLOBAL plan, and
  ``vectorized``/``beats_scalar`` flags. A branchy kernel that stops
  emitting vselects, or stops beating scalar, changed behaviour — the
  gate should trip.

Every metric is deterministic (the simulator is a cost model), so
``check_predication`` — wired into ``repro bench --check`` whenever a
committed ``BENCH_predication.json`` sits next to the suite baseline —
recomputes the full grid on any machine and fails on drift beyond the
deterministic tolerance.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from .kernels import BRANCHY_KERNELS, KERNELS
from .record import read_bench_json, write_bench_json
from .regress import DETERMINISTIC_TOLERANCE, _check_plane, plane_verdict

#: Baseline problem size (matches the suite baseline's default).
DEFAULT_N = 64
#: The committed grid: the whole branchy family.
DEFAULT_KERNELS = tuple(k.name for k in BRANCHY_KERNELS)


def count_vselects(plan) -> int:
    """Static count of lane-parallel ``select`` ops in a plan."""
    from ..vm.codegen import CompiledLoop, CompiledStraight
    from ..vm.isa import VOp

    count = 0

    def visit(instrs) -> None:
        nonlocal count
        for instr in instrs:
            if isinstance(instr, VOp) and instr.op == "select":
                count += 1

    def walk(unit) -> None:
        if isinstance(unit, CompiledStraight):
            visit(unit.instructions)
        elif isinstance(unit, CompiledLoop):
            visit(unit.preheader)
            visit(unit.body)
            if unit.inner is not None:
                walk(unit.inner)

    for unit in plan.units:
        walk(unit)
    return count


def predication_metrics(
    *,
    machine_name: str = "intel",
    n: int = DEFAULT_N,
    kernels: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """The metric planes (see module docstring) for the branchy grid."""
    from ..compiler import CompilerOptions, Variant, compile_program
    from ..vm import MACHINES, Simulator

    machine = MACHINES[machine_name]()
    selected = [KERNELS[name] for name in (kernels or DEFAULT_KERNELS)]
    cycles: Dict[str, float] = {}
    vector: Dict[str, float] = {}
    for kernel in selected:
        program = kernel.build(n)
        options = CompilerOptions(on_error="raise")
        run_cycles: Dict[Any, float] = {}
        plans: Dict[Any, Any] = {}
        for variant in (Variant.SCALAR, Variant.GLOBAL):
            result = compile_program(program, variant, machine, options)
            report, _ = Simulator(machine).run(result.plan)
            run_cycles[variant] = float(report.cycles)
            plans[variant] = result.plan
        scalar_cycles = run_cycles[Variant.SCALAR]
        global_cycles = run_cycles[Variant.GLOBAL]
        vselects = count_vselects(plans[Variant.GLOBAL])
        cycles[f"{kernel.name}.scalar"] = scalar_cycles
        cycles[f"{kernel.name}.global"] = global_cycles
        cycles[f"{kernel.name}.speedup"] = (
            round(scalar_cycles / global_cycles, 6)
            if global_cycles
            else 0.0
        )
        vector[f"{kernel.name}.vselect_ops"] = float(vselects)
        vector[f"{kernel.name}.vectorized"] = float(vselects > 0)
        vector[f"{kernel.name}.beats_scalar"] = float(
            global_cycles < scalar_cycles
        )
    return {"cycles": cycles, "vector": vector}


def write_predication_baseline(
    path: Path,
    metrics: Dict[str, Dict[str, float]],
    *,
    machine: str,
    n: int,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    **extra: Any,
) -> Dict[str, Any]:
    """Record ``BENCH_predication.json`` — the committed gate baseline.
    ``extra`` keys ride along in the artifact; the checker only reads
    ``config`` and ``metrics``."""
    return write_bench_json(
        path,
        {
            "config": {
                "machine": machine,
                "n": n,
                "kernels": list(kernels),
            },
            "metrics": metrics,
            **extra,
        },
    )


def check_predication(
    baseline_path: Path,
    *,
    out_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Gate the committed predication baseline: recompute both planes
    (all deterministic) with the baseline's recorded config and compare
    metric by metric."""
    baseline = read_bench_json(baseline_path)
    config = baseline.get("config") or {}
    base_metrics = baseline.get("metrics") or {}
    current = predication_metrics(
        machine_name=config.get("machine", "intel"),
        n=int(config.get("n", DEFAULT_N)),
        kernels=config.get("kernels") or None,
    )
    checks = _check_plane(
        "predication-cycles",
        base_metrics.get("cycles") or {},
        current["cycles"],
        DETERMINISTIC_TOLERANCE,
        comparable=True,
        skip_reason=None,
    )
    checks += _check_plane(
        "predication-vector",
        base_metrics.get("vector") or {},
        current["vector"],
        DETERMINISTIC_TOLERANCE,
        comparable=True,
        skip_reason=None,
    )
    return plane_verdict(baseline_path, checks, out_path=out_path)


__all__ = [
    "DEFAULT_KERNELS",
    "DEFAULT_N",
    "check_predication",
    "count_vselects",
    "predication_metrics",
    "write_predication_baseline",
]
