"""Machine models — the cost side of the virtual SIMD machine.

``intel_dunnington`` and ``amd_phenom_ii`` carry the cache geometry of
Tables 1 and 2 and per-instruction-class cycle costs calibrated so the
*relative* behaviour the paper reports holds: SIMD ops amortize ALU work
across lanes, contiguous aligned superword memory operations are cheap,
per-lane gather/scatter packing is expensive, and the AMD part pays more
for packing/unpacking and shuffles than the Intel part (the paper's
explanation for its lower savings in Figure 20).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..errors import OptionsError
from ..ir.expr import COMPARE_OPS, OP_WEIGHTS
from .cache import CacheConfig

#: Relative ALU cost per operator (same table for scalar and vector —
#: lane parallelism, not per-op latency, is where SIMD wins). Shared
#: with the grouping profitability estimate via the IR's OP_WEIGHTS.
OP_COSTS: Dict[str, float] = dict(OP_WEIGHTS)


@dataclass(frozen=True)
class MachineModel:
    """Cost and capacity parameters of one target platform."""

    name: str
    datapath_bits: int
    vector_registers: int
    cores: int
    l1: CacheConfig

    # memory access costs (cycles, on an L1 hit; misses add l1.miss_penalty)
    scalar_load: float = 1.0
    scalar_store: float = 1.0
    scalar_move: float = 0.5      # register<->stack traffic for scalars
    vector_load: float = 1.0
    vector_store: float = 1.0
    unaligned_extra: float = 1.0  # added to vector_load/store when unaligned

    # packing / unpacking / permutation costs
    lane_insert: float = 1.0
    lane_extract: float = 1.0
    shuffle: float = 1.0
    broadcast: float = 1.0
    imm_vector: float = 1.0

    # parallel-run parameters (Figure 21's model); the barrier cost is
    # amortized over the application's many loop invocations
    sync_overhead_cycles: float = 5.0     # barrier cost per extra core
    bus_contention_per_op: float = 0.04   # extra cycles/mem-op/extra core

    # predication costs (if-converted control flow): the vselect/blend
    # that merges two value streams under a mask, and the vector compare
    # producing the mask. Machine-specific, like the packing costs.
    blend: float = 1.0
    compare: float = 1.0

    def op_cost(self, op: str) -> float:
        if op == "select":
            return self.blend
        if op in COMPARE_OPS:
            return self.compare
        return OP_COSTS[op]

    def lanes_for(self, element_bits: int) -> int:
        return self.datapath_bits // element_bits

    def with_datapath(self, datapath_bits: int) -> "MachineModel":
        """The same platform with a hypothetical SIMD width — Figure 18
        sweeps 128 through 1024 bits. Raises :class:`OptionsError`
        unless the width is a power of two of at least 64 bits: lanes
        are ``datapath_bits // element_bits``, so any other width
        means nothing to the cost model or the code generator."""
        if datapath_bits < 64 or datapath_bits & (datapath_bits - 1):
            raise OptionsError(
                f"datapath of {datapath_bits} bits; expected a power of"
                f" two of at least 64"
            )
        return replace(self, datapath_bits=datapath_bits)


def intel_dunnington() -> MachineModel:
    """Table 1: 12-core Intel Xeon E7450, 32KB/core 8-way L1D, 64B lines."""
    return MachineModel(
        name="intel-dunnington",
        datapath_bits=128,
        vector_registers=16,
        cores=12,
        l1=CacheConfig(
            size_bytes=32 * 1024, line_bytes=64, ways=8, miss_penalty=12.0
        ),
    )


def amd_phenom_ii() -> MachineModel:
    """Table 2: 4-core AMD Phenom II X4 945, 64KB/core 2-way L1D.

    Pack/unpack and shuffle costs are higher than on the Intel part:
    Section 7.2 attributes the AMD machine's smaller savings to "higher
    packing/unpacking costs".
    """
    return MachineModel(
        name="amd-phenom-ii",
        datapath_bits=128,
        vector_registers=16,
        cores=4,
        l1=CacheConfig(
            size_bytes=64 * 1024, line_bytes=64, ways=2, miss_penalty=14.0
        ),
        lane_insert=1.6,
        lane_extract=1.6,
        shuffle=1.5,
        broadcast=1.2,
        unaligned_extra=1.6,
        blend=1.4,
        compare=1.2,
    )


MACHINES = {
    "intel": intel_dunnington,
    "amd": amd_phenom_ii,
}
