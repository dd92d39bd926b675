"""Code generation: schedules → virtual vector ISA.

This is the framework's "post-processing" backend (Figure 3). It turns a
:class:`repro.slp.Schedule` into instruction lists, making the concrete
decisions the SLP stages were optimizing for:

* a source pack already live in a vector register in the *same order* is
  a **direct reuse** — zero instructions;
* live in a different order — one :class:`VShuffle` (indirect reuse:
  "only register permutation instructions", Section 2);
* not live — a :class:`VPack` whose mode depends on contiguity and
  alignment (single wide load for contiguous+aligned superwords, per-lane
  gather otherwise; scalar packs consult the scalar arena layout from
  Section 5.1);
* loop-invariant packs are hoisted into the loop preheader.

The generator tracks pack liveness *soundly*: any write that may alias a
lane of a live pack invalidates that pack, so register reuse never
observes stale data — the differential tests check exactly this. Live
packs are id tuples of the block's operand table (the ``deps.operands``
scheduling built), and a write drops the packs a
:class:`~repro.analysis.operands.PackIndex` finds under the table's
``alias`` bitsets, as the scheduler's live set does.

Every array operand becomes a :class:`MemRef` at its row-major flat
index once, here (``value_ref``). A ``ScalarExec`` keeps one load per
non-constant leaf of its statement, in leaf order, and the batched
engine's decode takes each array leaf's flat from those loads instead
of flattening the subscripts again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..errors import CodegenError
from ..analysis import OperandTable, PackIndex
from ..analysis.alignment import (
    alignment_with_induction,
    flat_affine,
    is_aligned,
)
from ..ir import (
    Affine,
    ArrayRef,
    BasicBlock,
    Const,
    Expr,
    Program,
    Statement,
    Var,
)
from ..layout.array import ArrayReplication
from ..layout.scalar import ScalarArena
from ..perf import span
from ..slp.model import Schedule, ScheduledSingle, SuperwordStatement
from ..trace import TRACE, provenance_id
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


# -- executable plan ---------------------------------------------------------------


@dataclass(frozen=True)
class LoopSpec:
    index: str
    start: int
    stop: int
    step: int

    @property
    def trip_count(self) -> int:
        if self.stop <= self.start:
            return 0
        return (self.stop - self.start + self.step - 1) // self.step


@dataclass
class CompiledLoop:
    """One loop level: ``preheader`` runs on entry (in the enclosing
    context), ``body`` runs per iteration, then the nested loop if any."""

    spec: LoopSpec
    preheader: List[Instruction] = field(default_factory=list)
    body: List[Instruction] = field(default_factory=list)
    inner: Optional["CompiledLoop"] = None


@dataclass
class CompiledStraight:
    """A straight-line block executed once."""

    instructions: List[Instruction] = field(default_factory=list)


@dataclass
class CompiledCopy:
    """A data-layout replication copy loop, executed before the kernel.

    Its cost is divided by ``amortization`` — the paper's applications
    run the optimized loops many times per replication, so the copy is
    charged at a configurable fraction (documented in EXPERIMENTS.md).
    """

    replication: ArrayReplication
    amortization: float = 16.0


CompiledUnit = Union[CompiledLoop, CompiledStraight, CompiledCopy]


@dataclass
class ExecutablePlan:
    """Everything the simulator needs to run one program variant."""

    program: Program
    arenas: Dict[str, ScalarArena]
    units: List[CompiledUnit] = field(default_factory=list)
    replicated_decls: Dict[str, int] = field(default_factory=dict)  # name -> elements

# -- scalar reference helpers -------------------------------------------------------


def value_ref(leaf: Expr, program: Program) -> ValueRef:
    """The operand a leaf reads or writes. An array reference becomes a
    :class:`MemRef` at its row-major flat index. A one-dimensional
    reference's subscript already is that index (every ``Affine`` is
    built normalized), so it serves as the flat as it is;
    ``flat_affine`` folds the subscripts of higher ranks."""
    if isinstance(leaf, Const):
        return ImmRef(leaf.value)
    if isinstance(leaf, Var):
        return ScalarRef(leaf.name)
    if isinstance(leaf, ArrayRef):
        decl = program.arrays[leaf.array]
        subscripts = leaf.subscripts
        if len(subscripts) == 1 == len(decl.shape):
            return MemRef(leaf.array, subscripts[0])
        return MemRef(leaf.array, flat_affine(leaf, decl))
    raise TypeError(f"{leaf!r} is not a leaf operand")


def compile_scalar_statement(stmt: Statement, program: Program) -> ScalarExec:
    loads = tuple(
        value_ref(leaf, program)
        for leaf in stmt.expr.leaves()
        if not isinstance(leaf, Const)
    )
    ops = tuple(_collect_ops(stmt.expr))
    return ScalarExec(stmt, loads, ops, value_ref(stmt.target, program))


def _collect_ops(expr: Expr) -> List[str]:
    kids = expr.children()
    if not kids:
        return []
    ops: List[str] = []
    for kid in kids:
        ops.extend(_collect_ops(kid))
    ops.append(getattr(expr, "op"))
    return ops


def compile_scalar_block(
    block: BasicBlock, program: Program
) -> List[Instruction]:
    with span("codegen.scalar"):
        return [compile_scalar_statement(stmt, program) for stmt in block]


# -- vector codegen ------------------------------------------------------------------


#: A lane-ordered pack as operand ids of the block's table.
OrderedKey = Tuple[int, ...]


class VectorCodegen:
    """Generates preheader + body instruction lists for one schedule."""

    def __init__(
        self,
        program: Program,
        machine: MachineModel,
        arenas: Dict[str, ScalarArena],
        innermost_index: Optional[str] = None,
        allow_shuffle_reuse: bool = True,
        loop: Optional[LoopSpec] = None,
        prov_block: Optional[str] = None,
    ):
        """``allow_shuffle_reuse`` models the difference the paper
        highlights in Section 4.3: the original SLP algorithm "neglects"
        indirect superword reuse, i.e. it re-gathers a pack whose data
        sits in a register in a different lane order, where the
        holistic framework emits one register permutation instead. The
        live-pack pool is bounded by the machine's vector register
        count with LRU eviction, so reuse *distance* matters — exactly
        why the scheduling phase brings reuses close together.
        """
        self.program = program
        self.machine = machine
        self.arenas = arenas
        self.innermost_index = innermost_index
        self.allow_shuffle_reuse = allow_shuffle_reuse
        self.loop = loop
        # Provenance tagging is active only when tracing is on at
        # compile time: ``prov_block`` qualifies statement IDs (they
        # restart per block) and ``_prov`` is the ID of the schedule
        # item currently being emitted.
        self.prov_block = prov_block
        self._tagging = TRACE.enabled
        self._prov: Optional[str] = None
        self.preheader: List[Instruction] = []
        self.body: List[Instruction] = []
        self._live: Dict[OrderedKey, int] = {}
        self._orders_by_data: Dict[OrderedKey, List[OrderedKey]] = {}
        # Set by ``compile``: the schedule's block's operand table, and
        # the live orders by the ids they hold.
        self.operands: Optional[OperandTable] = None
        self._index = PackIndex(())
        self._pinned: Set[OrderedKey] = set()  # hoisted packs never evict
        self._clock = 0
        self._last_use: Dict[OrderedKey, int] = {}
        self._next_vreg = 0
        self.max_live = 0
        self.reuse_hits = 0
        self.shuffle_reuses = 0
        self._written_scalars: Set[str] = set()
        self._written_arrays: Set[str] = set()

    # -- public -----------------------------------------------------------------------

    def compile(
        self, schedule: Schedule, operands: Optional[OperandTable] = None
    ) -> Tuple[List[Instruction], List[Instruction]]:
        """``operands`` is the operand table of ``schedule.block`` (the
        compiler passes the one its scheduling built); without it the
        table is built here."""
        with span("codegen.vector"):
            if operands is None:
                operands = OperandTable.of_block(schedule.block)
            self.operands = operands
            self._index = PackIndex(operands.alias)
            for stmt in schedule.block:
                if isinstance(stmt.target, Var):
                    self._written_scalars.add(stmt.target.name)
                else:
                    self._written_arrays.add(stmt.target.array)
            for item in schedule.items:
                if isinstance(item, SuperwordStatement):
                    self._emit_superword(item)
                else:
                    assert isinstance(item, ScheduledSingle)
                    self._emit_single(item.statement)
            return self.preheader, self.body

    def _emit(self, instr: Instruction) -> None:
        """Append to the body, stamping the current provenance ID on
        the instruction (frozen dataclass, hence the object.__setattr__;
        the field is compare=False so tagged plans stay interchangeable
        with untagged ones)."""
        if self._prov is not None:
            object.__setattr__(instr, "prov", self._prov)
        self.body.append(instr)

    # -- singles -----------------------------------------------------------------------

    def _emit_single(self, stmt: Statement) -> None:
        self._prov = (
            provenance_id((stmt.sid,), self.prov_block)
            if self._tagging
            else None
        )
        self._emit(compile_scalar_statement(stmt, self.program))
        self._invalidate((self.operands.rows[stmt.sid][0],))

    # -- superword statements -------------------------------------------------------------

    def _emit_superword(self, sw: SuperwordStatement) -> None:
        self._prov = (
            provenance_id(sw.sids, self.prov_block) if self._tagging else None
        )
        rows = self.operands.rows
        target, *leaves = zip(*(rows[m.sid] for m in sw.members))
        root = self._walk(tuple(m.expr for m in sw.members), iter(leaves))
        targets = tuple(
            value_ref(m.target, self.program) for m in sw.members
        )
        mode = self._store_mode(targets, sw.element_bits)
        self._emit(VStore(targets, root, mode))
        self._invalidate(target)
        self._register(target, root)

    def _walk(
        self, nodes: Tuple[Expr, ...], leaves: Iterator[OrderedKey]
    ) -> int:
        """Emit the lanes' expression trees; ``leaves`` yields each
        leaf position's lane ids in the order the walk meets them."""
        first = nodes[0]
        kids = first.children()
        if not kids:
            refs = tuple(value_ref(n, self.program) for n in nodes)
            return self._materialize(next(leaves), refs, first.type.bits)
        child_regs = []
        for position in range(len(kids)):
            child_regs.append(
                self._walk(
                    tuple(n.children()[position] for n in nodes), leaves
                )
            )
        dst = self._fresh()
        self._emit(
            VOp(getattr(first, "op"), dst, tuple(child_regs), len(nodes))
        )
        return dst

    # -- pack materialization ----------------------------------------------------------------

    def _materialize(
        self,
        keys: OrderedKey,
        refs: Tuple[ValueRef, ...],
        element_bits: int,
    ) -> int:
        existing = self._live.get(keys)
        if existing is not None:
            self.reuse_hits += 1
            if self._prov is not None:
                TRACE.event("codegen.reuse", prov=self._prov, kind="direct")
            self._touch(keys)
            return existing

        if self.allow_shuffle_reuse:
            data = tuple(sorted(keys))
            for order in self._orders_by_data.get(data, ()):
                src = self._live.get(order)
                if src is None:
                    continue
                perm = _permutation(order, keys)
                dst = self._fresh()
                self._emit(VShuffle(dst, src, perm))
                self.shuffle_reuses += 1
                if self._prov is not None:
                    TRACE.event(
                        "codegen.reuse",
                        prov=self._prov,
                        kind="shuffle",
                        perm=perm,
                    )
                self._touch(order)
                self._register(keys, dst)
                return dst

        mode = self._pack_mode(refs, element_bits)
        dst = self._fresh()
        instr = VPack(dst, refs, mode)
        hoisted = self._is_invariant(refs)
        if self._prov is not None:
            object.__setattr__(instr, "prov", self._prov)
            TRACE.event(
                "codegen.pack",
                prov=self._prov,
                mode=mode.value,
                hoisted=hoisted,
            )
        if hoisted:
            self.preheader.append(instr)
            self._register(keys, dst, pinned=True)
        else:
            self.body.append(instr)
            self._register(keys, dst)
        return dst

    def _pack_mode(
        self, refs: Tuple[ValueRef, ...], element_bits: int
    ) -> PackMode:
        if all(isinstance(r, ImmRef) for r in refs):
            return PackMode.IMMEDIATE
        if all(isinstance(r, MemRef) for r in refs):
            arrays = {r.array for r in refs}  # type: ignore[union-attr]
            if len(arrays) == 1:
                base = refs[0].flat  # type: ignore[union-attr]
                contiguous = all(
                    _const_delta(refs[lane].flat, base) == lane  # type: ignore[union-attr]
                    for lane in range(len(refs))
                )
                if contiguous:
                    lanes = len(refs)
                    if self._base_aligned(base, lanes):
                        return PackMode.CONTIG_ALIGNED
                    return PackMode.CONTIG_UNALIGNED
                if len({r.flat for r in refs}) == 1:  # type: ignore[union-attr]
                    return PackMode.BROADCAST
            return PackMode.GATHER
        if all(isinstance(r, ScalarRef) for r in refs):
            names = [r.name for r in refs]  # type: ignore[union-attr]
            if len(set(names)) == 1:
                return PackMode.BROADCAST
            if self._arena_contiguous(names, element_bits):
                return PackMode.SCALAR_CONTIG
            return PackMode.SCALAR_GATHER
        return PackMode.MIXED

    def _store_mode(
        self, targets: Tuple[ValueRef, ...], element_bits: int
    ) -> StoreMode:
        if all(isinstance(t, MemRef) for t in targets):
            arrays = {t.array for t in targets}  # type: ignore[union-attr]
            if len(arrays) == 1:
                base = targets[0].flat  # type: ignore[union-attr]
                contiguous = all(
                    _const_delta(targets[lane].flat, base) == lane  # type: ignore[union-attr]
                    for lane in range(len(targets))
                )
                if contiguous:
                    if self._base_aligned(base, len(targets)):
                        return StoreMode.CONTIG_ALIGNED
                    return StoreMode.CONTIG_UNALIGNED
            return StoreMode.SCATTER
        if all(isinstance(t, ScalarRef) for t in targets):
            names = [t.name for t in targets]  # type: ignore[union-attr]
            if self._arena_contiguous(names, element_bits):
                return StoreMode.SCALAR_CONTIG
            return StoreMode.SCALAR_SCATTER
        return StoreMode.SCATTER

    def _base_aligned(self, base: Affine, lanes: int) -> bool:
        """Alignment with induction-variable knowledge when the loop
        bounds are known (the paper's alignment analysis)."""
        if self.loop is not None:
            return alignment_with_induction(
                base, lanes, self.loop.index, self.loop.start, self.loop.step
            ) == 0
        return is_aligned(base, lanes)

    def _arena_contiguous(self, names: Sequence[str], element_bits: int) -> bool:
        if len(set(names)) != len(names):
            return False
        decl = self.program.scalars.get(names[0])
        if decl is None:
            return False
        arena = self.arenas.get(decl.type.name)
        if arena is None:
            return False
        try:
            offsets = [arena.slot(name) for name in names]
        except KeyError:
            return False
        base = offsets[0]
        if base % len(names):
            return False
        return offsets == list(range(base, base + len(names)))

    # -- liveness ---------------------------------------------------------------------------

    def _register(
        self, keys: OrderedKey, vreg: int, pinned: bool = False
    ) -> None:
        # Bounded register file: evict the least-recently-used live pack
        # when every vector register is occupied (hoisted loop-invariant
        # packs are pinned).
        capacity = self.machine.vector_registers
        while len(self._live) >= capacity:
            evictable = [
                order for order in self._live if order not in self._pinned
            ]
            if not evictable:
                break
            victim = min(
                evictable, key=lambda order: self._last_use.get(order, -1)
            )
            self._drop(victim)
        self._live[keys] = vreg
        self._index.add(keys)
        if pinned:
            self._pinned.add(keys)
        self._touch(keys)
        data = tuple(sorted(keys))
        orders = self._orders_by_data.setdefault(data, [])
        if keys not in orders:
            orders.append(keys)
        self.max_live = max(self.max_live, len(self._live))

    def _touch(self, keys: OrderedKey) -> None:
        self._clock += 1
        self._last_use[keys] = self._clock

    def _drop(self, order: OrderedKey) -> None:
        self._live.pop(order, None)
        self._last_use.pop(order, None)
        self._pinned.discard(order)
        self._index.discard(order)
        data = tuple(sorted(order))
        orders = self._orders_by_data.get(data)
        if orders and order in orders:
            orders.remove(order)

    def _invalidate(self, written: Sequence[int]) -> None:
        """Drop the live orders holding an id a written id may alias."""
        for order in self._index.stale(written):
            self._drop(order)

    def _fresh(self) -> int:
        vreg = self._next_vreg
        self._next_vreg += 1
        return vreg

    # -- hoisting ----------------------------------------------------------------------------

    def _is_invariant(self, refs: Tuple[ValueRef, ...]) -> bool:
        if self.innermost_index is None:
            return False
        for ref in refs:
            if isinstance(ref, ImmRef):
                continue
            if isinstance(ref, ScalarRef):
                if ref.name in self._written_scalars:
                    return False
                continue
            assert isinstance(ref, MemRef)
            if ref.flat.coeff(self.innermost_index) != 0:
                return False
            if ref.array in self._written_arrays:
                return False
        return True


def _const_delta(a: Affine, b: Affine) -> Optional[int]:
    delta = a - b
    if delta.is_constant:
        return delta.const
    return None


def affine_stream(
    flat: Affine, index: str, env: Dict[str, int]
) -> Optional[Tuple[int, int]]:
    """Closed form of a ``MemRef.flat`` over one loop: ``(base, stride)``
    such that the flat element index at iteration value ``i`` is
    ``base + stride * i``.

    ``env`` binds every loop variable other than ``index`` (outer loop
    indices for nested plans). Returns ``None`` when some variable is
    unbound — the batched engine treats that as "not affine in this
    loop" and falls back to the interpreter.
    """
    base = flat.const
    stride = 0
    for name, coeff in flat.coeffs:
        if name == index:
            stride = coeff
        else:
            bound = env.get(name)
            if bound is None:
                return None
            base += coeff * bound
    return base, stride


def _permutation(source: OrderedKey, wanted: OrderedKey) -> Tuple[int, ...]:
    """perm with wanted[l] == source[perm[l]], handling duplicate keys."""
    used: Set[int] = set()
    perm: List[int] = []
    for key in wanted:
        for index, candidate in enumerate(source):
            if candidate == key and index not in used:
                used.add(index)
                perm.append(index)
                break
        else:
            # A duplicate key may be reused from an already-taken lane.
            for index, candidate in enumerate(source):
                if candidate == key:
                    perm.append(index)
                    break
            else:  # pragma: no cover - data multisets always match here
                raise CodegenError("shuffle source does not cover wanted pack")
    return tuple(perm)


# -- static cost estimation ------------------------------------------------------------------


def static_instruction_cycles(
    instr: Instruction, machine: MachineModel
) -> float:
    """Cache-oblivious cost of one instruction (all accesses hit)."""
    if isinstance(instr, ScalarExec):
        cycles = 0.0
        for load in instr.loads:
            cycles += (
                machine.scalar_load
                if isinstance(load, MemRef)
                else machine.scalar_move
            )
        for op in instr.ops:
            cycles += machine.op_cost(op)
        cycles += (
            machine.scalar_store
            if isinstance(instr.store, MemRef)
            else machine.scalar_move
        )
        return cycles
    if isinstance(instr, VPack):
        lanes = len(instr.sources)
        mode = instr.mode
        if mode is PackMode.CONTIG_ALIGNED:
            return machine.vector_load
        if mode is PackMode.CONTIG_UNALIGNED:
            return machine.vector_load + machine.unaligned_extra
        if mode is PackMode.SCALAR_CONTIG:
            return machine.vector_load
        if mode is PackMode.IMMEDIATE:
            return machine.imm_vector
        if mode is PackMode.BROADCAST:
            first = instr.sources[0]
            read = (
                machine.scalar_load
                if isinstance(first, MemRef)
                else machine.scalar_move
            )
            return read + machine.broadcast
        if mode is PackMode.GATHER:
            return lanes * (machine.scalar_load + machine.lane_insert)
        if mode is PackMode.SCALAR_GATHER:
            return lanes * (machine.scalar_move + machine.lane_insert)
        # MIXED
        cycles = 0.0
        for src in instr.sources:
            if isinstance(src, MemRef):
                cycles += machine.scalar_load
            elif isinstance(src, ScalarRef):
                cycles += machine.scalar_move
            cycles += machine.lane_insert
        return cycles
    if isinstance(instr, VOp):
        return machine.op_cost(instr.op)
    if isinstance(instr, VShuffle):
        return machine.shuffle
    if isinstance(instr, VStore):
        lanes = len(instr.targets)
        mode = instr.mode
        if mode is StoreMode.CONTIG_ALIGNED:
            return machine.vector_store
        if mode is StoreMode.CONTIG_UNALIGNED:
            return machine.vector_store + machine.unaligned_extra
        if mode is StoreMode.SCALAR_CONTIG:
            return machine.vector_store
        if mode is StoreMode.SCATTER:
            return lanes * (machine.lane_extract + machine.scalar_store)
        return lanes * (machine.lane_extract + machine.scalar_move)
    raise TypeError(f"unknown instruction {instr!r}")


def _static_unit_cycles(unit: CompiledUnit, machine: MachineModel) -> float:
    if isinstance(unit, CompiledStraight):
        return sum(
            static_instruction_cycles(i, machine) for i in unit.instructions
        )
    if isinstance(unit, CompiledCopy):
        rep = unit.replication
        per_element = machine.scalar_load + machine.scalar_store
        return rep.elements * per_element / unit.amortization
    assert isinstance(unit, CompiledLoop)
    trips = unit.spec.trip_count
    own = sum(
        static_instruction_cycles(i, machine) for i in unit.preheader
    )
    body = sum(static_instruction_cycles(i, machine) for i in unit.body)
    inner = (
        _static_unit_cycles(unit.inner, machine) if unit.inner else 0.0
    )
    return own + trips * (body + inner)
