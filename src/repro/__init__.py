"""Holistic SLP — a reproduction of Liu et al., "A Compiler Framework
for Extracting Superword Level Parallelism" (PLDI 2012).

Quick start::

    from repro import (
        ProgramBuilder, FLOAT32, Variant, compile_program,
        intel_dunnington, simulate,
    )

    b = ProgramBuilder("saxpy")
    X = b.array("X", (1024,), FLOAT32)
    Y = b.array("Y", (1024,), FLOAT32)
    a = b.scalar("a", FLOAT32)
    with b.loop("i", 0, 1024) as i:
        b.assign(Y[i], a * X[i] + Y[i])
    program = b.build()

    machine = intel_dunnington()
    result = compile_program(program, Variant.GLOBAL, machine)
    report, memory = simulate(result)
    print(report.summary())
"""

from .compiler import (
    CompileResult,
    CompileStats,
    CompilerOptions,
    Variant,
    compile_program,
)
from .errors import (
    Diagnostic,
    IRError,
    LayoutError,
    OptionsError,
    ParseError,
    ReproError,
    ScheduleError,
    ServiceError,
    SimulationError,
    SuiteError,
    VerifyError,
    WorkerCrashError,
)
from .store import ArtifactStore, StoreStats
from .ir import (
    Affine,
    ArrayRef,
    BasicBlock,
    BinOp,
    BlockBuilder,
    Const,
    FLOAT32,
    FLOAT64,
    INT16,
    INT32,
    INT64,
    INT8,
    Loop,
    Program,
    ProgramBuilder,
    ScalarType,
    Statement,
    UnOp,
    Var,
    parse_block,
    parse_program,
)
from .vm import (
    ExecutionReport,
    MachineModel,
    Memory,
    Simulator,
    amd_phenom_ii,
    intel_dunnington,
    reduction,
)

__version__ = "1.0.0"


def simulate(result: CompileResult, seed: int = 0):
    """Run a compiled variant on the virtual SIMD machine, on the
    default ``batched`` engine (report- and memory-identical to the
    reference interpreter; pass ``engine="reference"`` to
    :class:`repro.vm.Simulator` to run the interpreter itself).

    Returns ``(report, memory)``: the instruction/cycle report and the
    final machine state.
    """
    return Simulator(result.machine).run(result.plan, seed=seed)


__all__ = [
    "Affine",
    "ArrayRef",
    "ArtifactStore",
    "BasicBlock",
    "BinOp",
    "BlockBuilder",
    "CompileResult",
    "CompileStats",
    "CompilerOptions",
    "Const",
    "Diagnostic",
    "ExecutionReport",
    "IRError",
    "LayoutError",
    "OptionsError",
    "ParseError",
    "ReproError",
    "ScheduleError",
    "ServiceError",
    "SimulationError",
    "StoreStats",
    "SuiteError",
    "VerifyError",
    "WorkerCrashError",
    "FLOAT32",
    "FLOAT64",
    "INT16",
    "INT32",
    "INT64",
    "INT8",
    "Loop",
    "MachineModel",
    "Memory",
    "Program",
    "ProgramBuilder",
    "ScalarType",
    "Simulator",
    "Statement",
    "UnOp",
    "Var",
    "Variant",
    "amd_phenom_ii",
    "compile_program",
    "intel_dunnington",
    "parse_block",
    "parse_program",
    "reduction",
    "simulate",
    "__version__",
]
