"""The virtual SIMD machine: functional + timing simulation.

``Simulator.run`` executes an :class:`ExecutablePlan` instruction by
instruction against a :class:`Memory`, producing both the final machine
state (arrays + scalars, used by the differential correctness tests) and
an :class:`ExecutionReport` (dynamic instruction mix, pack/unpack
counts, cache statistics, cycle total — the quantities every figure of
the paper's evaluation is built from).

NumPy and the fast engines load with the first run, not with this
module: a compile-only process never imports them.

A run's initial :class:`Memory` depends only on the seed and each
declared name. The generator state each ``(seed, name)`` starts from is
computed once per process and kept in a bounded cache
(``_seed_state``); every ``Memory`` copies those states into a bit
generator of its own.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError, choose
from ..ir import ArrayRef, Const, Expr, Var
from ..perf import count, span
from .cache import Cache
from .codegen import (
    CompiledCopy,
    CompiledLoop,
    CompiledStraight,
    CompiledUnit,
    ExecutablePlan,
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
from .machine import MachineModel
from .report import ExecutionReport, ProvenanceCost

if TYPE_CHECKING:
    import numpy as np

    from .batched import BatchedEngine
    from .compiled import CompiledEngine


def _ieee_div(a: float, b: float) -> float:
    """IEEE-754 total division: x/±0 is ±inf, ±0/±0 and nan/±0 are nan.
    The batched engine's NumPy lanes already behave this way; the
    reference interpreter must produce the same well-defined values
    instead of raising ZeroDivisionError, or the two engines diverge on
    programs that compute a zero and later divide by it."""
    if b != 0.0:
        return a / b
    if math.isnan(a) or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


_OP_FUNCS: Dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _ieee_div,
    "min": min,
    "max": max,
    "neg": lambda a: -a,
    "abs": abs,
    "sqrt": math.sqrt,
    # Comparisons produce float masks (1.0 / 0.0) — the scalar mirror of
    # a SIMD compare writing all-ones/all-zero lanes. All memory state
    # is float64 (see Memory), so these are bit-identical across the
    # reference/batched/compiled engines by construction.
    "<": lambda a, b: 1.0 if a < b else 0.0,
    "<=": lambda a, b: 1.0 if a <= b else 0.0,
    ">": lambda a, b: 1.0 if a > b else 0.0,
    ">=": lambda a, b: 1.0 if a >= b else 0.0,
    "==": lambda a, b: 1.0 if a == b else 0.0,
    "!=": lambda a, b: 1.0 if a != b else 0.0,
    # Both arms are eagerly evaluated (the SIMD blend model); every
    # operator is total, so this cannot trap where a branch would not.
    "select": lambda c, a, b: a if c != 0.0 else b,
}


class Memory:
    """Program state: flat numpy arrays plus a scalar environment.

    Array base addresses are assigned sequentially, aligned to the cache
    line, so the cache simulation sees a realistic address space.

    Each declared name starts from draws of
    ``np.random.default_rng([seed, crc32(name)])`` (see ``_name_rng``).
    Seeding that generator costs more than the draws themselves, so the
    starting PCG64 state of every ``(seed, name)`` is kept in a bounded
    process-wide cache (``_seed_state``). Each ``Memory`` copies the
    cached states into one bit generator of its own, so no generator is
    shared between memories or threads and the values are those a fresh
    ``default_rng`` draws.
    """

    def __init__(
        self,
        plan_or_program,
        seed: int = 0,
        line_bytes: int = 64,
    ):
        import numpy as np

        if isinstance(plan_or_program, ExecutablePlan):
            program = plan_or_program.program
            replicated = dict(plan_or_program.replicated_decls)
            rep_types = {
                unit.replication.new_name: program.arrays[
                    unit.replication.source
                ].type
                for unit in plan_or_program.units
                if isinstance(unit, CompiledCopy)
            }
        else:
            program = plan_or_program
            replicated = {}
            rep_types = {}
        self.program = program
        self.arrays: Dict[str, np.ndarray] = {}
        self.scalars: Dict[str, float] = {}
        self._base: Dict[str, int] = {}
        self._elem_bytes: Dict[str, int] = {}
        next_base = line_bytes
        bits = np.random.PCG64(_placeholder_seed())
        rng = np.random.Generator(bits)

        for decl in program.arrays.values():
            bits.state = _seed_state(seed, decl.name)
            if decl.type.is_float:
                data = rng.uniform(1.0, 2.0, decl.size)
            else:
                data = rng.integers(1, 100, decl.size).astype(np.float64)
            self.arrays[decl.name] = data
            self._base[decl.name] = next_base
            self._elem_bytes[decl.name] = decl.type.bytes
            next_base += _aligned(decl.size * decl.type.bytes, line_bytes)

        for name, elements in replicated.items():
            elem = rep_types.get(name)
            bytes_per = elem.bytes if elem else 8
            self.arrays[name] = np.zeros(elements, dtype=np.float64)
            self._base[name] = next_base
            self._elem_bytes[name] = bytes_per
            next_base += _aligned(elements * bytes_per, line_bytes)

        for decl in program.scalars.values():
            bits.state = _seed_state(seed, decl.name)
            if decl.type.is_float:
                self.scalars[decl.name] = float(rng.uniform(1.0, 2.0))
            else:
                self.scalars[decl.name] = float(rng.integers(1, 100))

    def read(self, array: str, flat: int) -> float:
        return float(self.arrays[array][flat])

    def write(self, array: str, flat: int, value: float) -> None:
        self.arrays[array][flat] = value

    def address(self, array: str, flat: int) -> int:
        return self._base[array] + flat * self._elem_bytes[array]

    def elem_bytes(self, array: str) -> int:
        return self._elem_bytes[array]

    # -- test support -----------------------------------------------------------

    def state_equal(self, other: "Memory", rtol: float = 0.0) -> bool:
        """Exact (or tolerant) equality of shared arrays and scalars."""
        import numpy as np

        shared = set(self.arrays) & set(other.arrays)
        for name in shared:
            a, b = self.arrays[name], other.arrays[name]
            if len(a) != len(b):
                return False
            if rtol:
                if not np.allclose(a, b, rtol=rtol):
                    return False
            elif not np.array_equal(a, b, equal_nan=True):
                return False
        for name in set(self.scalars) & set(other.scalars):
            a, b = self.scalars[name], other.scalars[name]
            if rtol:
                if not math.isclose(a, b, rel_tol=rtol):
                    return False
            elif a != b and not (math.isnan(a) and math.isnan(b)):
                return False
        return True


def _aligned(size: int, align: int) -> int:
    return ((size + align - 1) // align) * align


def _name_rng(seed: int, name: str) -> np.random.Generator:
    """Per-name RNG: initial contents depend only on (seed, name), never
    on how many other declarations exist — so a variant that adds
    replicated arrays still starts from bit-identical input state (the
    differential tests rely on this)."""
    import zlib

    import numpy as np

    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


#: Starting PCG64 states of ``_name_rng``, keyed by ``(seed, name)``:
#: hashing the seed sequence costs several times what restoring a
#: state does. At most ``SEED_STATE_ENTRIES`` entries; a fill beyond
#: that drops the oldest. A cached dict only ever reaches a bit
#: generator's ``state`` setter, which copies it, so nothing draws from
#: or changes a cached state.
_SEED_STATES: Dict[Tuple[int, str], dict] = {}
SEED_STATE_ENTRIES = 1024
_SEED_STATES_LOCK = threading.Lock()


def _seed_state(seed: int, name: str) -> dict:
    """The PCG64 state ``_name_rng(seed, name)`` starts from, cached.
    Counts ``simulate.seed_state_hits`` and ``..._misses``."""
    key = (seed, name)
    state = _SEED_STATES.get(key)
    if state is not None:
        count("simulate.seed_state_hits")
        return state
    count("simulate.seed_state_misses")
    state = _name_rng(seed, name).bit_generator.state
    with _SEED_STATES_LOCK:
        if len(_SEED_STATES) >= SEED_STATE_ENTRIES:
            del _SEED_STATES[next(iter(_SEED_STATES))]
        _SEED_STATES[key] = state
    return state


@functools.lru_cache(maxsize=None)
def _placeholder_seed():
    """A seed sequence of all-zero words: a ``PCG64`` built on it skips
    the seed hashing, and every fill overwrites its state anyway."""
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class _Zeros(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return _Zeros()


def evaluate_expr(expr: Expr, env: Dict[str, int], memory: Memory) -> float:
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Var):
        return memory.scalars[expr.name]
    if isinstance(expr, ArrayRef):
        decl = memory.program.arrays[expr.array]
        flat = 0
        for subscript, dim in zip(expr.subscripts, decl.shape):
            flat = flat * dim + subscript.evaluate(env)
        return memory.read(expr.array, flat)
    kids = expr.children()
    values = [evaluate_expr(k, env, memory) for k in kids]
    return _OP_FUNCS[getattr(expr, "op")](*values)


# ---------------------------------------------------------------------------
# Branch-semantics interpreter (the if-conversion oracle)
# ---------------------------------------------------------------------------


def _interpret_statement(stmt, env: Dict[str, int], memory: Memory) -> None:
    value = evaluate_expr(stmt.expr, env, memory)
    target = stmt.target
    if isinstance(target, ArrayRef):
        decl = memory.program.arrays[target.array]
        flat = 0
        for subscript, dim in zip(target.subscripts, decl.shape):
            flat = flat * dim + subscript.evaluate(env)
        memory.write(target.array, flat, value)
    else:
        memory.scalars[target.name] = value


def _interpret_block(block, env: Dict[str, int], memory: Memory) -> None:
    from ..ir.block import IfRegion

    for item in block.statements:
        if isinstance(item, IfRegion):
            taken = (
                item.then_body
                if evaluate_expr(item.cond, env, memory) != 0.0
                else item.else_body
            )
            for stmt in taken:
                _interpret_statement(stmt, env, memory)
        else:
            _interpret_statement(item, env, memory)


def _interpret_loop(loop, env: Dict[str, int], memory: Memory) -> None:
    for value in loop.iter_values():
        env[loop.index] = value
        _interpret_block(loop.body, env, memory)
        if loop.inner is not None:
            _interpret_loop(loop.inner, env, memory)
    env.pop(loop.index, None)


def interpret_program(program, memory: Optional[Memory] = None, seed: int = 0) -> Memory:
    """Execute a program directly with *real branch* semantics.

    Conditional regions run only the taken branch — no if-conversion, no
    selects, no vectorization. This is the ground-truth oracle the
    if-conversion differential tests (and the fuzzer, for region-bearing
    programs) compare every engine's converted execution against.
    """
    from ..ir.block import Loop as _Loop

    memory = memory or Memory(program, seed=seed)
    env: Dict[str, int] = {}
    for item in program.body:
        if isinstance(item, _Loop):
            _interpret_loop(item, env, memory)
        else:
            _interpret_block(item, env, memory)
    return memory


def _batched_engine(simulator: "Simulator", plan, state) -> BatchedEngine:
    from .batched import BatchedEngine

    return BatchedEngine(state)


def _compiled_engine(simulator: "Simulator", plan, state) -> CompiledEngine:
    from .compiled import CompiledEngine, load_plan_kernels

    kernels = load_plan_kernels(
        plan, simulator.machine, simulator.kernel_store
    )
    return CompiledEngine(state, plan, kernels)


#: The execution engines by name. Each takes ``(simulator, plan,
#: state)`` and returns the fast engine ``Simulator.run`` installs on
#: ``state.batched`` for the run, or ``None`` to run every unit on the
#: per-instruction interpreter below. All produce identical reports and
#: memories. A fast engine's module (and NumPy with it) is imported the
#: first time a run picks it.
SIM_ENGINES: Dict[str, Callable] = {
    "reference": lambda simulator, plan, state: None,
    "batched": _batched_engine,
    "compiled": _compiled_engine,
}


def resolve_engine(engine: Optional[str]) -> str:
    """The sim engine a run uses: ``engine`` when named, else
    ``batched``, which keeps pace with ``compiled`` on the plan sweep
    of ``benchmarks/bench_sim_engine.py`` at half its memory and emits
    no code per fresh plan. ``reference`` stays the oracle every fast
    engine is tested against. Unknown names raise
    :class:`~repro.errors.OptionsError`."""
    if engine is None:
        return "batched"
    return choose("sim engine", SIM_ENGINES, engine)


class Simulator:
    """Executes plans with cycle/cache accounting.

    ``engine`` selects the execution strategy, by a key of
    :data:`SIM_ENGINES`. ``batched`` (the default when ``engine`` is
    ``None``) is the vectorized loop engine in :mod:`repro.vm.batched`,
    proven report-identical by differential tests and falling back here
    per-unit whenever a loop is not batchable; ``reference`` is the
    per-instruction interpreter below, the oracle; ``compiled``
    additionally emits one specialized NumPy function per affine loop
    (:mod:`repro.vm.compiled`), cached across runs, and falls back to
    the batched path per-unit. ``kernel_store``, when given, is an
    :class:`repro.store.ArtifactStore` the compiled engine uses to
    persist emitted kernels across processes (warm service workers load
    instead of re-emitting).
    """

    def __init__(
        self,
        machine: MachineModel,
        engine: Optional[str] = None,
        kernel_store=None,
    ):
        self.machine = machine
        self.engine = resolve_engine(engine)
        self.kernel_store = kernel_store

    def run(
        self,
        plan: ExecutablePlan,
        memory: Optional[Memory] = None,
        seed: int = 0,
    ) -> Tuple[ExecutionReport, Memory]:
        with span("simulate"):
            memory = memory or Memory(plan, seed=seed)
            report = ExecutionReport()
            cache = Cache(self.machine.l1)
            state = _RunState(self.machine, memory, report, cache)
            state.batched = SIM_ENGINES[self.engine](self, plan, state)
            env: Dict[str, int] = {}
            try:
                for unit in plan.units:
                    self._run_unit(unit, env, state)
            finally:
                # The engine points back at ``state``; breaking the
                # cycle lets the memory, cache and decoded loops go as
                # soon as the caller drops them, not at the next
                # cyclic collection.
                state.batched = None
            report.cache_hits = cache.hits
            report.cache_misses = cache.misses
            return report, memory

    # -- unit execution -------------------------------------------------------------

    def _run_unit(self, unit: CompiledUnit, env: Dict[str, int], state) -> None:
        if isinstance(unit, CompiledStraight):
            for instr, sink in _prepared_block(unit.instructions, state.report):
                state.execute_decoded(instr, sink, env)
            return
        if isinstance(unit, CompiledCopy):
            if state.batched is None or not state.batched.run_copy(unit):
                state.run_copy(unit)
            return
        assert isinstance(unit, CompiledLoop)
        for instr, sink in _prepared_block(unit.preheader, state.report):
            state.execute_decoded(instr, sink, env)
        if state.batched is not None and state.batched.run_loop(unit, env):
            return
        spec = unit.spec
        trips = range(spec.start, spec.stop, spec.step)
        body = _prepared_block(unit.body, state.report) if trips else ()
        inner = unit.inner
        execute = state.execute_decoded
        for value in trips:
            env[spec.index] = value
            for instr, sink in body:
                execute(instr, sink, env)
            if inner is not None:
                self._run_unit(inner, env, state)
        env.pop(spec.index, None)


def _prepared_block(
    instructions, report: ExecutionReport
) -> List[Tuple[Instruction, Optional[ProvenanceCost]]]:
    """Pair each instruction with its provenance sink (or None).

    Resolving ``getattr(instr, "prov", None)`` plus the provenance-dict
    lookup once per unit entry keeps both out of the per-iteration hot
    dispatch. The getattr default matters: plans unpickled from
    pre-provenance cache entries lack the attribute entirely.
    """
    prepared = []
    provenance = report.provenance
    for instr in instructions:
        prov = getattr(instr, "prov", None)
        sink = None
        if prov is not None:
            sink = provenance.get(prov)
            if sink is None:
                sink = provenance[prov] = ProvenanceCost()
        prepared.append((instr, sink))
    return prepared


class _RunState:
    """Per-run mutable execution state and the instruction semantics."""

    def __init__(
        self,
        machine: MachineModel,
        memory: Memory,
        report: ExecutionReport,
        cache: Cache,
    ):
        self.machine = machine
        self.memory = memory
        self.report = report
        self.cache = cache
        self.vregs: Dict[int, Tuple[float, ...]] = {}
        #: The fast engine, set by ``Simulator.run`` for the run's
        #: duration (None under the reference interpreter).
        self.batched = None

    # -- memory with cache accounting ----------------------------------------------

    def _touch(self, array: str, flat: int, size_bytes: int) -> None:
        address = self.memory.address(array, flat)
        lines, misses = self.cache.access_stats(address, size_bytes)
        report = self.report
        report.array_accesses[array] = (
            report.array_accesses.get(array, 0) + lines
        )
        if misses:
            report.array_misses[array] = (
                report.array_misses.get(array, 0) + misses
            )
            report.charge_miss(misses, self.machine.l1.miss_penalty)

    def read_ref(self, ref: ValueRef, env: Dict[str, int]) -> float:
        if isinstance(ref, ImmRef):
            return float(ref.value)
        if isinstance(ref, ScalarRef):
            return self.memory.scalars[ref.name]
        assert isinstance(ref, MemRef)
        flat = ref.flat.evaluate(env)
        return self.memory.read(ref.array, flat)

    def write_ref(self, ref: ValueRef, value: float, env: Dict[str, int]) -> None:
        if isinstance(ref, ScalarRef):
            self.memory.scalars[ref.name] = value
            return
        assert isinstance(ref, MemRef)
        flat = ref.flat.evaluate(env)
        self.memory.write(ref.array, flat, value)

    # -- dispatch ----------------------------------------------------------------------

    def execute(self, instr: Instruction, env: Dict[str, int]) -> None:
        prov = getattr(instr, "prov", None)
        sink = None
        if prov is not None:
            sink = self.report.provenance.get(prov)
            if sink is None:
                sink = self.report.provenance[prov] = ProvenanceCost()
        self.execute_decoded(instr, sink, env)

    def execute_decoded(
        self,
        instr: Instruction,
        sink: Optional[ProvenanceCost],
        env: Dict[str, int],
    ) -> None:
        """Dispatch one instruction whose provenance sink was resolved
        at unit entry (see ``_prepared_block``). While the sink is
        installed on the report, every charge — including L1 miss
        penalties — is mirrored into its buckets."""
        report = self.report
        if sink is not None:
            sink.instructions += 1
            report.sink = sink
        if isinstance(instr, ScalarExec):
            self._exec_scalar(instr, env)
        elif isinstance(instr, VPack):
            self._exec_pack(instr, env)
        elif isinstance(instr, VOp):
            self._exec_vop(instr)
        elif isinstance(instr, VShuffle):
            self._exec_shuffle(instr)
        elif isinstance(instr, VStore):
            self._exec_store(instr, env)
        else:  # pragma: no cover - defensive
            report.sink = None
            raise SimulationError(f"unknown instruction {instr!r}")
        if sink is not None:
            report.sink = None
            if isinstance(instr, VShuffle):
                sink.shuffles += 1

    def _exec_scalar(self, instr: ScalarExec, env: Dict[str, int]) -> None:
        machine, report = self.machine, self.report
        for load in instr.loads:
            if isinstance(load, MemRef):
                flat = load.flat.evaluate(env)
                self._touch(load.array, flat, self.memory.elem_bytes(load.array))
                report.charge("scalar_load", 1, machine.scalar_load)
            else:
                report.charge("scalar_move", 1, machine.scalar_move)
        for op in instr.ops:
            report.charge("scalar_op", 1, machine.op_cost(op))
        value = evaluate_expr(instr.statement.expr, env, self.memory)
        if isinstance(instr.store, MemRef):
            flat = instr.store.flat.evaluate(env)
            self._touch(
                instr.store.array, flat, self.memory.elem_bytes(instr.store.array)
            )
            report.charge("scalar_store", 1, machine.scalar_store)
        else:
            report.charge("scalar_move", 1, machine.scalar_move)
        self.write_ref(instr.store, value, env)

    def _exec_pack(self, instr: VPack, env: Dict[str, int]) -> None:
        machine, report = self.machine, self.report
        lanes = len(instr.sources)
        mode = instr.mode
        if mode is PackMode.CONTIG_ALIGNED or mode is PackMode.CONTIG_UNALIGNED:
            first = instr.sources[0]
            assert isinstance(first, MemRef)
            flat = first.flat.evaluate(env)
            width = lanes * self.memory.elem_bytes(first.array)
            self._touch(first.array, flat, width)
            cost = machine.vector_load
            if mode is PackMode.CONTIG_UNALIGNED:
                cost += machine.unaligned_extra
            report.charge("vector_load", 1, cost)
        elif mode is PackMode.SCALAR_CONTIG:
            report.charge("vector_load", 1, machine.vector_load)
        elif mode is PackMode.IMMEDIATE:
            report.charge("imm_vector", 1, machine.imm_vector)
        elif mode is PackMode.BROADCAST:
            first = instr.sources[0]
            if isinstance(first, MemRef):
                flat = first.flat.evaluate(env)
                self._touch(
                    first.array, flat, self.memory.elem_bytes(first.array)
                )
                report.charge("pack_mem_load", 1, machine.scalar_load)
            elif isinstance(first, ScalarRef):
                report.charge("pack_scalar_move", 1, machine.scalar_move)
            report.charge("broadcast", 1, machine.broadcast)
        else:  # GATHER / SCALAR_GATHER / MIXED
            for source in instr.sources:
                if isinstance(source, MemRef):
                    flat = source.flat.evaluate(env)
                    self._touch(
                        source.array, flat, self.memory.elem_bytes(source.array)
                    )
                    report.charge("pack_mem_load", 1, machine.scalar_load)
                elif isinstance(source, ScalarRef):
                    report.charge("pack_scalar_move", 1, machine.scalar_move)
                report.charge("lane_insert", 1, machine.lane_insert)
        self.vregs[instr.dst] = tuple(
            self.read_ref(src, env) for src in instr.sources
        )

    def _exec_vop(self, instr: VOp) -> None:
        self.report.charge("vector_op", 1, self.machine.op_cost(instr.op))
        fn = _OP_FUNCS[instr.op]
        operands = [self.vregs[s] for s in instr.srcs]
        self.vregs[instr.dst] = tuple(
            fn(*[reg[lane] for reg in operands]) for lane in range(instr.lanes)
        )

    def _exec_shuffle(self, instr: VShuffle) -> None:
        self.report.charge("shuffle", 1, self.machine.shuffle)
        src = self.vregs[instr.src]
        self.vregs[instr.dst] = tuple(src[i] for i in instr.perm)

    def _exec_store(self, instr: VStore, env: Dict[str, int]) -> None:
        machine, report = self.machine, self.report
        values = self.vregs[instr.src]
        mode = instr.mode
        if mode is StoreMode.CONTIG_ALIGNED or mode is StoreMode.CONTIG_UNALIGNED:
            first = instr.targets[0]
            assert isinstance(first, MemRef)
            flat = first.flat.evaluate(env)
            width = len(instr.targets) * self.memory.elem_bytes(first.array)
            self._touch(first.array, flat, width)
            cost = machine.vector_store
            if mode is StoreMode.CONTIG_UNALIGNED:
                cost += machine.unaligned_extra
            report.charge("vector_store", 1, cost)
        elif mode is StoreMode.SCALAR_CONTIG:
            report.charge("vector_store", 1, machine.vector_store)
        else:  # SCATTER / SCALAR_SCATTER
            for target in instr.targets:
                report.charge("lane_extract", 1, machine.lane_extract)
                if isinstance(target, MemRef):
                    flat = target.flat.evaluate(env)
                    self._touch(
                        target.array, flat, self.memory.elem_bytes(target.array)
                    )
                    report.charge("unpack_mem_store", 1, machine.scalar_store)
                else:
                    report.charge("unpack_scalar_move", 1, machine.scalar_move)
        for target, value in zip(instr.targets, values):
            self.write_ref(target, value, env)

    # -- layout replication copies ---------------------------------------------------

    def run_copy(self, unit: CompiledCopy) -> None:
        """Materialize a replicated array.

        The per-element cost (and its misses) is charged divided by the
        amortization factor — the paper's applications execute the
        optimized loop nest many times per replication. The copy *does*
        warm the cache with the lines it touches (it runs immediately
        before the kernel, and on every invocation after the first the
        replica is as warm as the original array would have been), so
        the kernel is not charged phantom cold misses for the replica.
        """
        rep = unit.replication
        src = self.memory.arrays[rep.source]
        dst = self.memory.arrays[rep.new_name]
        misses = 0
        for dst_index, src_index in rep.copy_pairs():
            dst[dst_index] = src[src_index]
            misses += self.cache.access(
                self.memory.address(rep.source, src_index),
                self.memory.elem_bytes(rep.source),
            )
            misses += self.cache.access(
                self.memory.address(rep.new_name, dst_index),
                self.memory.elem_bytes(rep.new_name),
            )
        per_element = self.machine.scalar_load + self.machine.scalar_store
        amortized = (
            rep.elements * per_element
            + misses * self.machine.l1.miss_penalty
        ) / unit.amortization
        self.report.bump("layout_copy_element", rep.elements)
        self.report.add_extra_cycles(amortized)
