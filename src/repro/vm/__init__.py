"""The virtual SIMD machine: vector ISA, machine models (Tables 1/2),
cache, code generation, and the functional + timing simulator.

The NumPy-backed execution engines (:mod:`repro.vm.batched` and
:mod:`repro.vm.compiled`) are not imported here: :class:`Simulator`
imports an engine's module when a run picks it, so compiling never
loads them or NumPy. Import their names from their own modules."""

from .cache import Cache, CacheConfig
from .codegen import (
    CompiledCopy,
    CompiledLoop,
    CompiledStraight,
    ExecutablePlan,
    LoopSpec,
    VectorCodegen,
    affine_stream,
    compile_scalar_block,
    compile_scalar_statement,
    static_instruction_cycles,
    value_ref,
)
from .isa import (
    ImmRef,
    Instruction,
    MemRef,
    PackMode,
    ScalarExec,
    ScalarRef,
    StoreMode,
    ValueRef,
    VOp,
    VPack,
    VShuffle,
    VStore,
)
from .machine import (
    MACHINES,
    MachineModel,
    OP_COSTS,
    amd_phenom_ii,
    intel_dunnington,
)
from .multicore import MulticorePoint, parallel_cycles
from .pretty import (
    disassemble_plan,
    format_instruction,
    format_ref,
    instruction_histogram,
)
from .regalloc import (
    AllocationResult,
    LiveRange,
    PlanAllocation,
    allocate_plan,
    linear_scan,
    live_ranges,
)
from .report import (
    ExecutionReport,
    PACK_UNPACK_CATEGORIES,
    ProvenanceCost,
    reduction,
)
from .simulator import (
    Memory,
    Simulator,
    evaluate_expr,
    resolve_engine,
)

__all__ = [
    "Cache",
    "CacheConfig",
    "CompiledCopy",
    "CompiledLoop",
    "CompiledStraight",
    "ExecutablePlan",
    "ExecutionReport",
    "ImmRef",
    "Instruction",
    "LoopSpec",
    "MACHINES",
    "MachineModel",
    "MemRef",
    "Memory",
    "MulticorePoint",
    "OP_COSTS",
    "PACK_UNPACK_CATEGORIES",
    "PackMode",
    "ProvenanceCost",
    "ScalarExec",
    "ScalarRef",
    "Simulator",
    "StoreMode",
    "VOp",
    "VPack",
    "VShuffle",
    "VStore",
    "ValueRef",
    "VectorCodegen",
    "AllocationResult",
    "LiveRange",
    "PlanAllocation",
    "affine_stream",
    "allocate_plan",
    "amd_phenom_ii",
    "compile_scalar_block",
    "compile_scalar_statement",
    "disassemble_plan",
    "evaluate_expr",
    "format_instruction",
    "format_ref",
    "instruction_histogram",
    "intel_dunnington",
    "linear_scan",
    "live_ranges",
    "parallel_cycles",
    "reduction",
    "resolve_engine",
    "static_instruction_cycles",
    "value_ref",
]
