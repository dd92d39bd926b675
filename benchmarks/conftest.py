"""Shared fixtures for the per-figure benchmark harnesses.

Suite runs are memoized per (machine, size, datapath) so the figure
harnesses — which all consume the same kernel sweep — only pay for
each simulation once per pytest session. Every harness writes its
rendered table to ``benchmarks/results/`` so the numbers that back
EXPERIMENTS.md are regenerable artifacts. A smoke run
(``REPRO_BENCH_SMOKE=1``) writes its reduced-grid artifacts to the
git-ignored ``benchmarks/results/smoke/`` instead, so it never
overwrites a committed row; a harness that compares against a committed
row reads it from :data:`RESULTS_DIR`.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, Optional, Tuple

import pytest

from repro import CompilerOptions, Variant
from repro.bench import (
    ALL_KERNELS,
    KernelResult,
    amd_phenom_ii,
    intel_dunnington,
    run_suite,
)

#: Iterations per kernel in the harnesses — big enough for stable cache
#: behaviour, small enough that the full sweep stays interactive.
SUITE_N = 64

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

_MACHINES = {
    "intel": intel_dunnington,
    "amd": amd_phenom_ii,
}

_cache: Dict[Tuple, Dict[str, KernelResult]] = {}


def suite_results(
    machine_name: str = "intel",
    n: int = SUITE_N,
    datapath_bits: Optional[int] = None,
    variants=None,
) -> Dict[str, KernelResult]:
    from repro.bench.suite import DEFAULT_VARIANTS

    variants = tuple(variants) if variants else DEFAULT_VARIANTS
    key = (machine_name, n, datapath_bits, variants)
    if key not in _cache:
        machine = _MACHINES[machine_name]()
        options = CompilerOptions(datapath_bits=datapath_bits)
        _cache[key] = run_suite(
            machine, variants=variants, options=options, n=n
        )
    return _cache[key]


@pytest.fixture(scope="session")
def intel_suite():
    return suite_results("intel")


@pytest.fixture(scope="session")
def amd_suite():
    return suite_results("amd")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    out = RESULTS_DIR / "smoke" if SMOKE else RESULTS_DIR
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_result(path: pathlib.Path, title: str, body: str) -> None:
    path.write_text(f"{title}\n{'=' * len(title)}\n\n{body}\n")
