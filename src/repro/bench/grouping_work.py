"""The grouping work plane: what the Global grouping loop *does*, counted.

Compile time is host-dependent; the work behind it is not. For every
kernel this module compiles GLOBAL at unroll 8 x 512-bit on intel
(n=16, one cell of the repository benchmark's compile-wide grid, where
grouping dominates compile time) and reads the grouping loop's
:mod:`repro.perf` counters:

* ``rounds`` — iterative grouping rounds (Section 4.2.2);
* ``decisions`` — committed SIMD groups;
* ``candidates_examined`` — candidate groups over all rounds;
* ``scores_recomputed`` — exact (post-elimination) score evaluations;
* ``score_bounds`` — cheap bound evaluations (heap entries pushed
  without running elimination for new and dirtied candidates);
* ``vp_nodes`` / ``vp_edges`` — size of the variable pack graphs;
* ``aux_graphs`` — auxiliary graphs built (only for candidates whose
  bitset bound reached the top of the heap, or whose exact score was
  asked for);
* ``elimination_victims`` — nodes removed by exact conflict
  eliminations.

Every counter is exact on any machine, so ``check_grouping_work`` —
one of the side planes ``repro bench --check`` runs through
``regress.check_planes`` — gates them with tolerance 0. A change that
only makes the loop cheaper per step leaves this plane untouched; one
that changes what the loop decides or how many scores it computes moves
it — a tighter heap bound, for one, lowers ``scores_recomputed`` alone,
since fewer bound entries surface above the winner.

The same rule gates Figure 18's top width. ``BENCH_compile_topwidth.json``
(recorded by ``benchmarks/bench_compile_overhead.py``: 1024 bits, n=32,
intel, the default unroll) holds per kernel SLP's and Global's compile
seconds and five of Global's counters (``TOP_WIDTH_COUNTERS``);
``check_topwidth`` — another side plane of ``repro bench --check`` —
recompiles every kernel's Global cell and requires each of those
counters to equal the committed row. The seconds are not compared.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from .kernels import ALL_KERNELS
from .record import read_bench_json, write_bench_json
from .regress import _check_plane, plane_verdict

#: The gated counters, without their ``grouping.`` prefix.
COUNTERS = (
    "rounds",
    "decisions",
    "candidates_examined",
    "scores_recomputed",
    "score_bounds",
    "vp_nodes",
    "vp_edges",
    "aux_graphs",
    "elimination_victims",
)
#: The measured cell: compile-wide's biggest blocks at a mid datapath.
MACHINE = "intel"
N = 16
UNROLL = 8
DATAPATH = 512
#: Work counters are exact: any drift is a changed grouping loop.
WORK_TOLERANCE = 0.0

#: Figure 18's top width, at the harness size Figure 18 uses.
TOP_WIDTH = 1024
TOP_WIDTH_N = 32
#: The top-width row's exact counters, without their ``grouping.``
#: prefix.
TOP_WIDTH_COUNTERS = (
    "scores_recomputed",
    "decisions",
    "vp_nodes",
    "aux_graphs",
    "elimination_victims",
)


def global_work(
    program, machine, options, counters: Sequence[str] = COUNTERS
) -> Dict[str, int]:
    """One Global compile's ``grouping.`` counters, by name without the
    prefix. The process-global perf registry is restored afterwards."""
    from ..compiler import Variant, compile_program
    from ..perf import PERF

    was_enabled = PERF.enabled
    saved = PERF.snapshot()
    try:
        PERF.reset()
        PERF.enable()
        compile_program(program, Variant.GLOBAL, machine, options)
        PERF.disable()
        return {
            name: int(PERF.counters.get(f"grouping.{name}", 0))
            for name in counters
        }
    finally:
        PERF.reset()
        PERF.merge(saved)
        PERF.enabled = was_enabled


def grouping_work_metrics() -> Dict[str, Dict[str, float]]:
    """``{"work": {"<kernel>.<counter>": value}}`` for every kernel at
    the measured cell."""
    from ..compiler import CompilerOptions
    from ..vm import MACHINES

    machine = MACHINES[MACHINE]()
    options = CompilerOptions(datapath_bits=DATAPATH, unroll_factor=UNROLL)
    work: Dict[str, float] = {}
    for kernel in ALL_KERNELS:
        counts = global_work(kernel.build(N), machine, options)
        for name, value in counts.items():
            work[f"{kernel.name}.{name}"] = float(value)
    return {"work": work}


def topwidth_work(kernel) -> Dict[str, int]:
    """``kernel``'s Global counters at the top-width cell."""
    from ..compiler import CompilerOptions
    from ..vm import MACHINES

    return global_work(
        kernel.build(TOP_WIDTH_N),
        MACHINES["intel"](),
        CompilerOptions(datapath_bits=TOP_WIDTH),
        TOP_WIDTH_COUNTERS,
    )


def check_topwidth(
    baseline_path: Path,
    *,
    out_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Gate the committed top-width row's counters: recompile every
    kernel's Global cell and require each counter to match exactly."""
    rows = read_bench_json(baseline_path).get("kernels") or {}
    baseline: Dict[str, float] = {}
    current: Dict[str, float] = {}
    for kernel in ALL_KERNELS:
        for name, value in topwidth_work(kernel).items():
            current[f"{kernel.name}.{name}"] = float(value)
    for kernel, row in rows.items():
        for name in TOP_WIDTH_COUNTERS:
            baseline[f"{kernel}.{name}"] = float(row[name])
    checks = _check_plane(
        "topwidth-work",
        baseline,
        current,
        WORK_TOLERANCE,
        comparable=True,
        skip_reason=None,
    )
    return plane_verdict(baseline_path, checks, out_path=out_path)


def write_grouping_work_baseline(
    path: Path, metrics: Dict[str, Dict[str, float]]
) -> Dict[str, Any]:
    """Record ``BENCH_grouping_work.json`` — the committed gate baseline.
    The config names the measured cell for readers."""
    return write_bench_json(
        path,
        {
            "config": {
                "machine": MACHINE,
                "n": N,
                "unroll": UNROLL,
                "datapath": DATAPATH,
            },
            "metrics": metrics,
        },
    )


def check_grouping_work(
    baseline_path: Path,
    *,
    out_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Gate the committed grouping work baseline: recompute the counters
    and require every one to match exactly."""
    baseline = read_bench_json(baseline_path)
    current = grouping_work_metrics()
    checks = _check_plane(
        "grouping-work",
        (baseline.get("metrics") or {}).get("work") or {},
        current["work"],
        WORK_TOLERANCE,
        comparable=True,
        skip_reason=None,
    )
    return plane_verdict(baseline_path, checks, out_path=out_path)


__all__ = [
    "COUNTERS",
    "TOP_WIDTH",
    "TOP_WIDTH_COUNTERS",
    "TOP_WIDTH_N",
    "check_grouping_work",
    "check_topwidth",
    "global_work",
    "grouping_work_metrics",
    "topwidth_work",
    "write_grouping_work_baseline",
]
