"""Every suite cell's plan, report and final memory, and every
compile-wide cell's plan and schedules, digested.

Compiles and simulates the 20 kernels x 5 variants on intel and amd at
n=64 (default sim engine, seed 0) and records the sha256 of each
cell's plan disassembly, execution report and final memory; compiles
the 20 kernels at n=16 x unroll 4 and 8 x 256, 512 and 1024 bits x
slp, global and global+layout on intel and records the sha256 of each
cell's plan disassembly and schedules; compiles the ``generate_case``
programs of seeds 0-49 at 128 and 256 bits x the same three variants
and records the same two digests (a change to the fuzz grammar
re-records them); all in ``results/BENCH_identity.json``. ``repro bench --check`` (the
regression gate CI runs) gates every digest exactly (see
``repro.bench.identity``). A change that moves outputs on purpose runs
this harness to re-record the row and names the moved cells in
CHANGES.md.
"""

from __future__ import annotations

from repro.bench.identity import (
    FUZZ_DATAPATHS,
    FUZZ_SEEDS,
    MACHINES,
    PARTS,
    VARIANTS,
    WIDE_DATAPATHS,
    WIDE_PARTS,
    WIDE_UNROLLS,
    WIDE_VARIANTS,
    identity_metrics,
    write_identity_baseline,
)
from repro.bench.kernels import ALL_KERNELS


def test_identity(results_dir):
    metrics = identity_metrics()
    assert len(metrics["digests"]) == len(ALL_KERNELS) * (
        len(VARIANTS) * len(MACHINES) * len(PARTS)
        + len(WIDE_UNROLLS)
        * len(WIDE_DATAPATHS)
        * len(WIDE_VARIANTS)
        * len(WIDE_PARTS)
    ) + len(FUZZ_SEEDS) * len(FUZZ_DATAPATHS) * len(WIDE_VARIANTS) * len(
        WIDE_PARTS
    )
    write_identity_baseline(results_dir / "BENCH_identity.json", metrics)
