"""The Global grouping loop's work, counted and committed.

Compiles GLOBAL for every kernel at unroll 8 x 512-bit on intel (n=16,
one cell of the repository benchmark's compile-wide grid) and records
the grouping loop's host-independent work counters — rounds, decisions,
candidates, exact scores, bound scores, VP nodes and edges, auxiliary
graphs built and elimination victims — in
``results/BENCH_grouping_work.json`` and ``results/grouping_work.txt``.
``repro bench --check`` (the regression gate CI runs) gates the JSON
exactly (see ``repro.bench.grouping_work``): a constant-factor speed-up
of the loop must leave every counter where it was.
"""

from __future__ import annotations

from conftest import write_result

from repro.bench import ascii_table
from repro.bench.grouping_work import (
    COUNTERS,
    DATAPATH,
    MACHINE,
    N,
    UNROLL,
    grouping_work_metrics,
    write_grouping_work_baseline,
)
from repro.bench.kernels import ALL_KERNELS


def test_grouping_work(results_dir):
    metrics = grouping_work_metrics()
    work = metrics["work"]
    names = [kernel.name for kernel in ALL_KERNELS]
    for name in names:
        # Every kernel vectorizes at this cell: at least one round
        # commits at least one group.
        assert work[f"{name}.rounds"] >= 2
        assert work[f"{name}.decisions"] >= 1
    write_grouping_work_baseline(
        results_dir / "BENCH_grouping_work.json", metrics
    )
    rows = [
        (name, *(f"{int(work[f'{name}.{c}'])}" for c in COUNTERS))
        for name in names
    ]
    rows.append(
        (
            "total",
            *(
                f"{int(sum(work[f'{n}.{c}'] for n in names))}"
                for c in COUNTERS
            ),
        )
    )
    write_result(
        results_dir / "grouping_work.txt",
        f"Global grouping work at unroll {UNROLL} x "
        f"{DATAPATH}-bit ({MACHINE}, n={N})",
        ascii_table(("kernel", *COUNTERS), rows),
    )
