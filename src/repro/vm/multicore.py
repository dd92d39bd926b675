"""The multicore execution model behind Figure 21.

The paper runs the NAS benchmarks on 1–12 cores and reports the
execution-time reduction of Global / Global+Layout over the scalar code
*at the same core count*, observing that "the results become slightly
better when we increase the number of cores, mostly due to the
less-than-perfect scalability of the original applications."

We model a data-parallel OpenMP-style execution: each of ``P`` cores
runs the kernel over a ``1/P`` slice of the iteration space with its own
private L1, plus two parallel overheads:

* a small fixed synchronization cost per extra core (barriers), hitting
  both versions equally, and
* **shared-bus contention**: every memory operation gets slower as more
  cores compete for the front-side bus (the Dunnington machine of Table
  1 is an FSB design). The scalar code performs more memory operations
  per iteration than the SLP-optimized code, so its slice time degrades
  *faster* with the core count — this is the "less-than-perfect
  scalability of the original applications" that makes the relative SLP
  benefit tick slightly upward at higher core counts in Figure 21.

``parallel_cycles`` combines a simulated slice time with those
overheads; the Figure 21 harness does the slicing by rebuilding each
kernel with ``n / P`` iterations.
"""

from __future__ import annotations

from ..errors import SimulationError
from dataclasses import dataclass

from .machine import MachineModel
from .report import reduction


def parallel_cycles(
    slice_cycles: float,
    cores: int,
    machine: MachineModel,
    memory_ops: int = 0,
) -> float:
    """Wall-clock cycles of a ``P``-core run given one core's slice time
    and the number of memory operations that slice performs."""
    if cores < 1:
        raise SimulationError("need at least one core")
    sync = machine.sync_overhead_cycles * (cores - 1)
    contention = (
        machine.bus_contention_per_op * (cores - 1) * memory_ops
    )
    return slice_cycles + sync + contention


@dataclass(frozen=True)
class MulticorePoint:
    """One (core count, variant) observation for Figure 21."""

    cores: int
    scalar_cycles: float
    variant_cycles: float

    @property
    def reduction(self) -> float:
        return reduction(self.scalar_cycles, self.variant_cycles)
