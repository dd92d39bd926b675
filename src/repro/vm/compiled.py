"""Compiled loop execution: trace-once NumPy codegen.

The batched engine (:mod:`repro.vm.batched`) already decouples
functional execution from timing replay, but it still *interprets* the
decoded slot program every run: per-slot dispatch and per-lane column
bookkeeping. This engine goes one step further, in the spirit of
trace-once dynamic binary translators: for each affine
:class:`CompiledLoop` it **emits a specialized Python/NumPy source
function** — closed-form slices from
:func:`repro.vm.codegen.affine_stream`, fused element-wise expressions,
deferred vectorized stores — ``compile()``s the module once, and caches
source + bytecode in the :class:`repro.store.ArtifactStore` keyed by
``(plan content fingerprint, CODEGEN_VERSION, machine)`` so warm
service workers skip emission entirely.

The emitted function is only the *functional* kernel. Cycle and cache
accounting are the batched engine's: the same decode
(:func:`repro.vm.batched._decode_loop`), the same integer charge
buckets and the same LRU replay
(:meth:`repro.vm.cache.Cache.replay_lines`), so every
``ExecutionReport`` is exactly equal to the reference interpreter's,
provenance included.

Any loop the decode analysis rejects (inner nests at their outer
level, carried scalars/registers, potential array collisions, affines
unbound in the loop index) falls back per-unit to the batched engine
and from there, if needed, to the interpreter; fallbacks are counted
in ``simulate.compiled_fallbacks``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..ir import Affine, ArrayRef, Const, Expr, Var
from ..perf import count
from .batched import BatchedEngine, _col_last, _decode_loop, _LoopProgram
from .codegen import (
    CompiledCopy,
    CompiledLoop,
    ExecutablePlan,
    affine_stream,
)
from .isa import (
    ImmRef,
    Instruction,
    MemRef,
    ScalarExec,
    ScalarRef,
    VOp,
    VPack,
    VShuffle,
    VStore,
)

#: Bumped whenever emitted source semantics or the pickled artifact's
#: shape change; part of the kernel artifact key, so a version bump
#: invalidates every cached kernel.
#: v2: comparison + select (predication) templates.
#: v3: bodies are emitted as codegen built them, and
#: ``KernelUnitMeta`` carries no rewrite events.
CODEGEN_VERSION = 3

#: In-process LRU memo of loaded kernel sets, keyed by fingerprint.
_MEMO: "OrderedDict[str, LoadedPlanKernels]" = OrderedDict()
_MEMO_CAP = 32


# -- artifacts ---------------------------------------------------------------------


@dataclass(frozen=True)
class KernelUnitMeta:
    """Per-loop record inside a kernel artifact."""

    #: Position of the loop in the plan: ``u<idx>`` for a top-level
    #: unit, with one ``.i`` appended per nesting level.
    path: str
    #: Name of the generated function, or None when the loop is a
    #: permanent fallback (not decodable / not statically affine).
    fn_name: Optional[str]
    #: Top-level loops see an empty env, so their affine bases are
    #: compile-time constants; inner loops take bases at call time.
    static: bool


@dataclass
class PlanKernelsArtifact:
    """What the store holds: one generated module per plan × machine."""

    codegen_version: int
    #: ``importlib.util.MAGIC_NUMBER`` of the emitting interpreter; the
    #: marshaled bytecode is only reused when it matches, otherwise the
    #: source is recompiled.
    magic: bytes
    source: str
    bytecode: Optional[bytes]
    units: Tuple[KernelUnitMeta, ...]


@dataclass
class _KernelEntry:
    """One loop's runtime-ready kernel."""

    path: str
    fn: Optional[Callable]
    #: Accounting tables decoded from the *original* body — identical
    #: to what the batched engine would use.
    program: Optional[_LoopProgram]
    static: bool
    #: Arrays the accounting replay touches (stream-cache key basis).
    touch_arrays: Tuple[str, ...] = ()
    #: For static loops: (line_bytes, bases...) -> prebuilt replay
    #: stream, as ``_LineColumns.stream`` returns it.
    stream_cache: Dict[tuple, tuple] = field(default_factory=dict)


@dataclass
class LoadedPlanKernels:
    """A kernel artifact bound to an executable namespace."""

    fingerprint: str
    artifact: PlanKernelsArtifact
    entries: Dict[str, _KernelEntry]


# -- plan walking ------------------------------------------------------------------


def _walk_loops(plan: ExecutablePlan) -> Iterator[Tuple[str, CompiledLoop]]:
    """Every ``CompiledLoop`` in the plan with its stable path key."""
    for uidx, unit in enumerate(plan.units):
        if isinstance(unit, CompiledLoop):
            path = f"u{uidx}"
            node: Optional[CompiledLoop] = unit
            while node is not None:
                yield path, node
                node = node.inner
                path += ".i"


class _ElemShim:
    """The slice of ``Memory`` that ``_decode_loop`` consults — element
    widths and declarations — derivable from the plan alone, so decode
    can run at kernel-load time without building program state."""

    def __init__(self, plan: ExecutablePlan):
        program = plan.program
        self.program = program
        elem = {
            decl.name: decl.type.bytes for decl in program.arrays.values()
        }
        rep_types = {
            unit.replication.new_name: program.arrays[
                unit.replication.source
            ].type
            for unit in plan.units
            if isinstance(unit, CompiledCopy)
        }
        for name in plan.replicated_decls:
            rep = rep_types.get(name)
            elem[name] = rep.bytes if rep else 8
        self._elem_bytes = elem


# -- fingerprinting ----------------------------------------------------------------


def kernel_fingerprint(plan: ExecutablePlan, machine) -> str:
    """Content hash of everything kernel emission depends on.

    Covers the program text, replicated declarations, machine
    parameters (accounting tables bake in unit costs), the codegen
    version, and — per loop — the spec plus every preheader/body
    instruction *including its provenance ID*: ``prov`` is excluded
    from dataclass equality/repr, but the accounting tables key
    provenance sinks by it, so two plans differing only in tagging
    must not share kernels. Memoized on the plan object (plans are
    immutable after codegen)."""
    cache_key = (CODEGEN_VERSION, repr(machine))
    cached = getattr(plan, "_kernel_fp", None)
    if cached is not None and cached[0] == cache_key:
        return cached[1]
    from ..ir.printer import format_program

    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")

    feed(str(CODEGEN_VERSION))
    feed(format_program(plan.program))
    feed(repr(sorted(plan.replicated_decls.items())))
    feed(repr(machine))
    for path, unit in _walk_loops(plan):
        feed(path)
        feed(repr(unit.spec))
        for instr in list(unit.preheader) + list(unit.body):
            feed(repr(instr))
            feed(repr(getattr(instr, "prov", None)))
    fingerprint = digest.hexdigest()
    try:
        plan._kernel_fp = (cache_key, fingerprint)  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - plans are plain dataclasses
        pass
    return fingerprint


# -- source emission ---------------------------------------------------------------

#: Source templates mirroring ``batched._VEC_FUNCS`` exactly — same
#: NumPy callables, same operand order, so columns match bit for bit.
#: ``min``/``max`` reference their operands twice; operands are always
#: atomic symbols (three-address emission), so that is re-lookup, not
#: re-computation.
_OP_TEMPLATES = {
    "+": "({a} + {b})",
    "-": "({a} - {b})",
    "*": "({a} * {b})",
    "/": "np.divide({a}, {b})",
    "min": "np.where({b} < {a}, {b}, {a})",
    "max": "np.where({b} > {a}, {b}, {a})",
    "neg": "(-{a})",
    "abs": "np.abs({a})",
    "sqrt": "np.sqrt({a})",
    "<": "np.where(np.less({a}, {b}), 1.0, 0.0)",
    "<=": "np.where(np.less_equal({a}, {b}), 1.0, 0.0)",
    ">": "np.where(np.greater({a}, {b}), 1.0, 0.0)",
    ">=": "np.where(np.greater_equal({a}, {b}), 1.0, 0.0)",
    "==": "np.where(np.equal({a}, {b}), 1.0, 0.0)",
    "!=": "np.where(np.not_equal({a}, {b}), 1.0, 0.0)",
    "select": "np.where(np.not_equal({a}, 0.0), {b}, {c})",
}


def _op_source(op: str, args: List[str]) -> str:
    template = _OP_TEMPLATES[op]
    if len(args) == 1:
        return template.format(a=args[0])
    if len(args) == 3:
        return template.format(a=args[0], b=args[1], c=args[2])
    return template.format(a=args[0], b=args[1])


def _const_source(value) -> str:
    """Exact float literal via hex round-trip (repr would lose
    ``inf``/``nan`` spellings as valid source)."""
    return f"float.fromhex('{float(value).hex()}')"


class _Unsupported(Exception):
    """Emission bail-out: the unit becomes a permanent fallback."""


class _UnitEmitter:
    """Emit one loop body as a straight-line NumPy function.

    Symbolic twin of ``batched._Entry``: values are expression symbols
    instead of live columns, with the same store-forwarding map, the
    same gather memoization, and the same deferred-writes-then-finals
    ordering, so the generated function computes bit-identical state.
    Reads materialize as three-address temps in body order — before any
    write lands — and slice reads of arrays the body writes are
    ``.copy()``-ed, because a deferred write through one view must
    never be observed by another (the interpreter reads entry values).
    """

    def __init__(
        self,
        path: str,
        unit: CompiledLoop,
        program: _LoopProgram,
        plan: ExecutablePlan,
        static: bool,
    ):
        self.uid = path.replace(".", "_")
        self.fn_name = f"_k_{self.uid}"
        self.iv = f"_IV_{self.uid}"
        self.unit = unit
        self.program = program
        self.plan = plan
        self.static = static
        spec = unit.spec
        self.index = spec.index
        self.start = spec.start
        self.step = spec.step
        self.trips = spec.trip_count
        self.flat_index = {flat: k for k, flat in enumerate(program.flats)}
        self.static_base: Dict[Affine, int] = {}
        if static:
            for flat in program.flats:
                stream = affine_stream(flat, self.index, {})
                if stream is None:
                    raise _Unsupported("unbound variable at top level")
                self.static_base[flat] = stream[0]
        self.lines: List[str] = []
        self.temp_n = 0
        self.iv_used = False
        self.alias: Dict[str, str] = {}
        self.base_sym: Dict[Affine, str] = {}
        self.scalar_sym: Dict[str, str] = {}
        self.mem_sym: Dict[Tuple[str, Affine], str] = {}
        self.gather_sym: Dict[Tuple[str, Affine], str] = {}
        self.vreg_syms: Dict[int, List[str]] = {}
        self.ext_lane: Dict[Tuple[int, int], str] = {}
        self.writes: List[Tuple[str, Affine, str]] = []
        self.written_arrays = {
            ref.array
            for instr in unit.body
            for ref in _mem_writes(instr)
        }

    # -- bookkeeping ---------------------------------------------------------------

    def _temp(self, expr: str) -> str:
        sym = f"_t{self.temp_n}"
        self.temp_n += 1
        self.lines.append(f"    {sym} = {expr}")
        return sym

    def _alias(self, array: str) -> str:
        sym = self.alias.get(array)
        if sym is None:
            sym = f"_a{len(self.alias)}"
            self.alias[array] = sym
            self.lines.append(f"    {sym} = A[{array!r}]")
        return sym

    def _base_of(self, flat: Affine) -> Tuple[str, Optional[int]]:
        if self.static:
            base = self.static_base[flat]
            return str(base), base
        sym = self.base_sym.get(flat)
        if sym is None:
            k = self.flat_index.get(flat)
            if k is None:
                raise _Unsupported("flat outside the decoded stream table")
            sym = f"_b{k}"
            self.lines.append(f"    {sym} = B[{k}]")
            self.base_sym[flat] = sym
        return sym, None

    def _array_len(self, array: str) -> Optional[int]:
        decl = self.plan.program.arrays.get(array)
        if decl is not None:
            return decl.size
        return self.plan.replicated_decls.get(array)

    def _index_source(
        self, array: str, flat: Affine, stride: int
    ) -> Tuple[str, bool]:
        """RHS/LHS index expression for a strided range: a plain slice
        (a view — zero copy) when the whole range is provably in
        bounds and forward, otherwise the same fancy-index expression
        the batched engine evaluates (identical wrap/raise semantics
        for out-of-range subscripts). Returns (source, is_view)."""
        base_expr, base_val = self._base_of(flat)
        delta = stride * self.step
        if base_val is not None and delta > 0:
            first = base_val + stride * self.start
            last = first + delta * (self.trips - 1)
            size = self._array_len(array)
            if first >= 0 and size is not None and last < size:
                stop = first + delta * self.trips
                tail = "" if delta == 1 else f":{delta}"
                return f"{first}:{stop}{tail}", True
        self.iv_used = True
        return f"{base_expr} + {stride} * {self.iv}", False

    # -- reads ---------------------------------------------------------------------

    def _read_scalar(self, name: str) -> str:
        return self.scalar_sym.get(name) or f"S[{name!r}]"

    def _read_mem(self, array: str, flat: Affine) -> str:
        key = (array, flat)
        sym = self.mem_sym.get(key)
        if sym is not None:
            return sym
        sym = self.gather_sym.get(key)
        if sym is not None:
            return sym
        stride = flat.coeff(self.index)
        alias = self._alias(array)
        if stride == 0:
            base_expr, _ = self._base_of(flat)
            expr = f"float({alias}[{base_expr}])"
        else:
            index_src, is_view = self._index_source(array, flat, stride)
            expr = f"{alias}[{index_src}]"
            if is_view and array in self.written_arrays:
                expr += ".copy()"
        sym = self._temp(expr)
        self.gather_sym[key] = sym
        return sym

    def _read_source(self, ref) -> str:
        if isinstance(ref, ImmRef):
            return _const_source(ref.value)
        if isinstance(ref, ScalarRef):
            return self._read_scalar(ref.name)
        return self._read_mem(ref.array, ref.flat)

    def _vreg_lane(self, reg: int, lane: int) -> str:
        syms = self.vreg_syms.get(reg)
        if syms is not None:
            return syms[lane]
        key = (reg, lane)
        sym = self.ext_lane.get(key)
        if sym is None:
            sym = self._temp(f"float(V[{reg}][{lane}])")
            self.ext_lane[key] = sym
        return sym

    def _eval_expr(self, expr: Expr) -> str:
        if isinstance(expr, Const):
            return _const_source(expr.value)
        if isinstance(expr, Var):
            return self._read_scalar(expr.name)
        if isinstance(expr, ArrayRef):
            decl = self.plan.program.arrays[expr.array]
            flat = Affine((), 0)
            for subscript, dim in zip(expr.subscripts, decl.shape):
                flat = flat * dim + subscript
            return self._read_mem(expr.array, flat)
        args = [self._eval_expr(kid) for kid in expr.children()]
        return self._temp(_op_source(getattr(expr, "op"), args))

    # -- writes ----------------------------------------------------------------------

    def _write_ref(self, ref, sym: str) -> None:
        if isinstance(ref, ScalarRef):
            self.scalar_sym[ref.name] = sym
            return
        key = (ref.array, ref.flat)
        self.mem_sym[key] = sym
        self.writes.append((ref.array, ref.flat, sym))

    # -- top level -------------------------------------------------------------------

    def emit(self, body: List[Instruction]) -> Tuple[str, str]:
        """Returns (module-level source, function source)."""
        for instr in body:
            if isinstance(instr, ScalarExec):
                self._write_ref(
                    instr.store, self._eval_expr(instr.statement.expr)
                )
            elif isinstance(instr, VPack):
                self.vreg_syms[instr.dst] = [
                    self._read_source(src) for src in instr.sources
                ]
            elif isinstance(instr, VOp):
                args_by_lane = [
                    [self._vreg_lane(src, lane) for src in instr.srcs]
                    for lane in range(instr.lanes)
                ]
                self.vreg_syms[instr.dst] = [
                    self._temp(_op_source(instr.op, args))
                    for args in args_by_lane
                ]
            elif isinstance(instr, VShuffle):
                self.vreg_syms[instr.dst] = [
                    self._vreg_lane(instr.src, p) for p in instr.perm
                ]
            elif isinstance(instr, VStore):
                cols = [
                    self._vreg_lane(instr.src, lane)
                    for lane in range(len(instr.targets))
                ]
                for target, col in zip(instr.targets, cols):
                    self._write_ref(target, col)
            else:
                raise _Unsupported(f"unknown instruction {instr!r}")

        # Deferred writes in body order, then scalar and register
        # finals — the exact commit order of ``_Entry.apply``.
        for array, flat, sym in self.writes:
            alias = self._alias(array)
            stride = flat.coeff(self.index)
            if stride == 0:
                base_expr, _ = self._base_of(flat)
                self.lines.append(
                    f"    {alias}[{base_expr}] = _last({sym})"
                )
            else:
                index_src, _ = self._index_source(array, flat, stride)
                self.lines.append(f"    {alias}[{index_src}] = {sym}")
        for name, sym in self.scalar_sym.items():
            self.lines.append(f"    S[{name!r}] = _last({sym})")
        for reg, syms in self.vreg_syms.items():
            lanes = ", ".join(f"_last({sym})" for sym in syms)
            if len(syms) == 1:
                lanes += ","
            self.lines.append(f"    V[{reg}] = ({lanes})")

        spec = self.unit.spec
        module_src = ""
        if self.iv_used:
            module_src = (
                f"{self.iv} = np.arange({spec.start}, {spec.stop}, "
                f"{spec.step}, dtype=np.int64)"
            )
        body_src = "\n".join(self.lines) if self.lines else "    pass"
        fn_src = f"def {self.fn_name}(A, S, V, B):\n{body_src}"
        return module_src, fn_src


def _mem_writes(instr: Instruction) -> Tuple[MemRef, ...]:
    if isinstance(instr, VStore):
        return tuple(
            t for t in instr.targets if isinstance(t, MemRef)
        )
    if isinstance(instr, ScalarExec) and isinstance(instr.store, MemRef):
        return (instr.store,)
    return ()


def emit_plan_kernels(plan: ExecutablePlan, machine) -> PlanKernelsArtifact:
    """Generate the kernel module for every emittable loop of a plan."""
    shim = _ElemShim(plan)
    metas: List[KernelUnitMeta] = []
    module_lines = [
        f"# generated by repro.vm.compiled (CODEGEN_VERSION {CODEGEN_VERSION})"
    ]
    for path, unit in _walk_loops(plan):
        program = _decode_loop(unit, machine, shim)
        if program is None:
            metas.append(KernelUnitMeta(path, None, False))
            continue
        static = "." not in path
        try:
            emitter = _UnitEmitter(path, unit, program, plan, static)
            module_src, fn_src = emitter.emit(unit.body)
        except _Unsupported:
            count("compiled.emit_unsupported")
            metas.append(KernelUnitMeta(path, None, static))
            continue
        if module_src:
            module_lines.append(module_src)
        module_lines.append(fn_src)
        metas.append(KernelUnitMeta(path, emitter.fn_name, static))
    source = "\n\n".join(module_lines) + "\n"
    code = compile(source, "<repro-plan-kernels>", "exec")
    return PlanKernelsArtifact(
        codegen_version=CODEGEN_VERSION,
        magic=importlib.util.MAGIC_NUMBER,
        source=source,
        bytecode=marshal.dumps(code),
        units=tuple(metas),
    )


# -- loading -----------------------------------------------------------------------


def _bind_artifact(
    plan: ExecutablePlan,
    machine,
    fingerprint: str,
    artifact: PlanKernelsArtifact,
) -> LoadedPlanKernels:
    """Exec the module and pair every kernel with its accounting
    tables, decoded from the (content-identical) current plan."""
    if (
        artifact.bytecode is not None
        and artifact.magic == importlib.util.MAGIC_NUMBER
    ):
        try:
            code = marshal.loads(artifact.bytecode)
        except Exception:
            code = compile(artifact.source, "<repro-plan-kernels>", "exec")
    else:
        code = compile(artifact.source, "<repro-plan-kernels>", "exec")
    namespace: Dict[str, object] = {"np": np, "_last": _col_last}
    exec(code, namespace)
    shim = _ElemShim(plan)
    units_by_path = dict(_walk_loops(plan))
    entries: Dict[str, _KernelEntry] = {}
    for meta in artifact.units:
        fn = None
        program = None
        unit = units_by_path.get(meta.path)
        if meta.fn_name is not None and unit is not None:
            program = _decode_loop(unit, machine, shim)
            if program is not None:
                fn = namespace.get(meta.fn_name)
        if fn is None:
            program = None
        entries[meta.path] = _KernelEntry(
            meta.path,
            fn,
            program,
            meta.static,
            tuple(sorted({t.array for t in program.touches}))
            if program is not None
            else (),
        )
    return LoadedPlanKernels(fingerprint, artifact, entries)


def load_plan_kernels(
    plan: ExecutablePlan,
    machine,
    kernel_store=None,
) -> LoadedPlanKernels:
    """Kernels for a plan: in-process memo, then the artifact store,
    then fresh emission (written back to both)."""
    fingerprint = kernel_fingerprint(plan, machine)
    loaded = _MEMO.get(fingerprint)
    if loaded is not None:
        _MEMO.move_to_end(fingerprint)
        count("compiled.kernel_memo_hits")
        return loaded
    artifact = None
    if kernel_store is not None:
        artifact = kernel_store.get_kernel(fingerprint)
        if (
            artifact is not None
            and artifact.codegen_version != CODEGEN_VERSION
        ):  # unreachable via keying; belt against hand-copied entries
            artifact = None
        if artifact is not None:
            count("compiled.kernel_store_hits")
    if artifact is None:
        artifact = emit_plan_kernels(plan, machine)
        count("compiled.emissions")
        if kernel_store is not None:
            kernel_store.put_kernel(fingerprint, artifact)
    loaded = _bind_artifact(plan, machine, fingerprint, artifact)
    _MEMO[fingerprint] = loaded
    while len(_MEMO) > _MEMO_CAP:
        _MEMO.popitem(last=False)
    return loaded


def clear_kernel_memo() -> None:
    """Test hook: drop every in-process loaded kernel."""
    _MEMO.clear()


# -- the engine --------------------------------------------------------------------


class CompiledEngine(BatchedEngine):
    """Batched engine with pre-compiled functional kernels. Inherits
    the accounting (``_account``), the LRU replay and its attribution,
    the copy-unit path, and the fallback decode — every loop without a
    kernel behaves exactly as under the batched engine."""

    def __init__(self, state, plan: ExecutablePlan, kernels):
        super().__init__(state)
        self.compiled_loops = 0
        self.compiled_fallbacks = 0
        self._entries: Dict[int, _KernelEntry] = {}
        if kernels is not None:
            for path, unit in _walk_loops(plan):
                entry = kernels.entries.get(path)
                if entry is not None:
                    self._entries[id(unit)] = entry

    def run_loop(self, unit: CompiledLoop, env: Dict[str, int]) -> bool:
        entry = self._entries.get(id(unit))
        if entry is None or entry.fn is None:
            return self._fallback(unit, env)
        spec = unit.spec
        trips = spec.trip_count
        if trips == 0:
            env.pop(spec.index, None)
            return True
        program = entry.program
        streams: Dict[Affine, Tuple[int, int]] = {}
        for flat in program.flats:
            stream = affine_stream(flat, spec.index, env)
            if stream is None:
                return self._fallback(unit, env)
            streams[flat] = stream
        memory = self.memory
        bases = (
            ()
            if entry.static
            else tuple(streams[flat][0] for flat in program.flats)
        )
        entry.fn(memory.arrays, memory.scalars, self.state.vregs, bases)
        self._account(program, trips)
        if program.touches:
            key = None
            cached = None
            if entry.static:
                key = (self.cache.config.line_bytes,) + tuple(
                    memory._base[a] for a in entry.touch_arrays
                )
                cached = entry.stream_cache.get(key)
            if cached is None:
                ivals = np.arange(
                    spec.start, spec.stop, spec.step, dtype=np.int64
                )
                cached = self._line_columns(program, streams).stream(ivals)
                if key is not None:
                    entry.stream_cache[key] = cached
            self._attribute_replay(program, *cached)
        env.pop(spec.index, None)
        self.compiled_loops += 1
        count("simulate.compiled_loops")
        return True

    def _fallback(self, unit: CompiledLoop, env: Dict[str, int]) -> bool:
        self.compiled_fallbacks += 1
        count("simulate.compiled_fallbacks")
        return super().run_loop(unit, env)


__all__ = [
    "CODEGEN_VERSION",
    "CompiledEngine",
    "KernelUnitMeta",
    "LoadedPlanKernels",
    "PlanKernelsArtifact",
    "clear_kernel_memo",
    "emit_plan_kernels",
    "kernel_fingerprint",
    "load_plan_kernels",
]
