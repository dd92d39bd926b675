"""Workloads (Table 3) and the evaluation harness."""

from ..vm.machine import amd_phenom_ii, intel_dunnington
from .kernels import (
    ALL_KERNELS,
    BRANCHY_KERNELS,
    KERNELS,
    Kernel,
    NAS_KERNELS,
    SPEC_KERNELS,
    build_kernel,
)
from .predication import (
    check_predication,
    predication_metrics,
    write_predication_baseline,
)
from ..store import ArtifactStore
from .optimality import (
    check_optimality,
    optimality_metrics,
    write_optimality_baseline,
)
from .suite import (
    DEFAULT_VARIANTS,
    KernelResult,
    VariantRun,
    ascii_table,
    percent,
    run_kernel,
    run_multicore,
    run_suite,
)

__all__ = [
    "ALL_KERNELS",
    "ArtifactStore",
    "BRANCHY_KERNELS",
    "DEFAULT_VARIANTS",
    "KERNELS",
    "Kernel",
    "KernelResult",
    "NAS_KERNELS",
    "SPEC_KERNELS",
    "VariantRun",
    "amd_phenom_ii",
    "ascii_table",
    "build_kernel",
    "check_optimality",
    "check_predication",
    "intel_dunnington",
    "optimality_metrics",
    "percent",
    "predication_metrics",
    "run_kernel",
    "run_multicore",
    "run_suite",
    "write_optimality_baseline",
    "write_predication_baseline",
]
