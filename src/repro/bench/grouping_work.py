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
* ``score_bounds`` — cheap pre-elimination bound evaluations;
* ``vp_nodes`` / ``vp_edges`` — size of the variable pack graphs.

Every counter is exact on any machine, so ``check_grouping_work`` —
one of the side planes ``repro bench --check`` runs through
``regress.check_planes`` — gates them with tolerance 0. A change that
only makes the loop cheaper per step leaves this plane untouched; one
that changes what the loop decides or how many scores it computes moves
it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

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
)
#: The measured cell: compile-wide's biggest blocks at a mid datapath.
MACHINE = "intel"
N = 16
UNROLL = 8
DATAPATH = 512
#: Work counters are exact: any drift is a changed grouping loop.
WORK_TOLERANCE = 0.0


def grouping_work_metrics() -> Dict[str, Dict[str, float]]:
    """``{"work": {"<kernel>.<counter>": value}}`` for every kernel at
    the measured cell. The process-global perf registry is restored
    afterwards."""
    from ..compiler import CompilerOptions, Variant, compile_program
    from ..perf import PERF
    from ..vm import MACHINES

    machine = MACHINES[MACHINE]()
    options = CompilerOptions(datapath_bits=DATAPATH, unroll_factor=UNROLL)
    was_enabled = PERF.enabled
    saved = PERF.snapshot()
    work: Dict[str, float] = {}
    try:
        for kernel in ALL_KERNELS:
            PERF.reset()
            PERF.enable()
            compile_program(kernel.build(N), Variant.GLOBAL, machine, options)
            PERF.disable()
            for name in COUNTERS:
                work[f"{kernel.name}.{name}"] = float(
                    PERF.counters.get(f"grouping.{name}", 0)
                )
    finally:
        PERF.reset()
        PERF.merge(saved)
        PERF.enabled = was_enabled
    return {"work": work}


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
    "check_grouping_work",
    "grouping_work_metrics",
    "write_grouping_work_baseline",
]
