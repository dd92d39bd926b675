"""Batched loop execution: vectorized simulation with report-identical
accounting.

The reference interpreter in :mod:`repro.vm.simulator` walks every loop
iteration instruction by instruction — isinstance dispatch, affine
evaluation against a dict env, and an LRU touch per array access. For
the paper's figures that interpreter *is* the wall clock: a fig16 point
simulates tens of thousands of dynamic instructions per kernel variant.

This engine decouples functional execution from timing replay, in the
spirit of trace-driven simulators: each ``CompiledLoop`` body is
pre-decoded **once** into a slot program —

* per-slot cycle charges as ``(category, unit_cost) -> count-per-trip``
  buckets, aggregated per slot × trip count instead of per instruction;
* closed-form affine address streams (``base + stride · i`` over the
  whole iteration range, via :func:`repro.vm.codegen.affine_stream`);
* scalar expressions lowered to trees whose array leaves carry the
  flats codegen already put in the instruction's ``MemRef`` loads, so
  neither decode nor evaluation flattens a subscript again;
* lane values evaluated as NumPy columns with deferred writes and
  exact-affine store-to-load forwarding, one block of at most
  ``BLOCK_TRIPS`` iterations at a time;
* each block's chronologically interleaved line-ID stream built in one
  array expression over per-touch address columns (a stream where no
  access can span two lines needs no range expansion) and replayed
  through the set-compacted LRU loop
  (:meth:`repro.vm.cache.Cache.replay_lines`).

The result — ``ExecutionReport``, final ``Memory``, cache state — is
**exactly equal** to the reference interpreter's; the bucketed cycle
accounting in :mod:`repro.vm.report` is what makes the totals
bit-identical even for non-dyadic unit costs (AMD's 1.6-cycle lane
inserts), because both engines derive cycles from identical integer
buckets rather than differently-ordered float accumulation.

A loop is batched only when it is provably safe to evaluate columnwise:
no inner loop, no cross-iteration scalar or vector-register carries, no
cross-iteration array aliasing, and every reference affine in the loop
index (unbound symbols force the interpreter). Everything else falls
back per-unit to the reference path — correctness never depends on the
fast path applying.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir import ArrayRef, Const, Expr, Var
from ..perf import count
from .codegen import CompiledLoop, affine_stream
from .isa import (
    Affine,
    ImmRef,
    Instruction,
    MemRef,
    PackMode,
    ScalarExec,
    ScalarRef,
    StoreMode,
    VOp,
    VPack,
    VShuffle,
    VStore,
)
from .report import MISS_CATEGORY, ProvenanceCost

_CONTIG_PACKS = (PackMode.CONTIG_ALIGNED, PackMode.CONTIG_UNALIGNED)
_CONTIG_STORES = (StoreMode.CONTIG_ALIGNED, StoreMode.CONTIG_UNALIGNED)

#: Iterations of one loop entry evaluated, replayed and written back
#: together. Columns, deferred writes and line streams are
#: O(BLOCK_TRIPS x body) instead of O(trips x body). Exact: the safety
#: analysis admits no iteration reading a cell another one writes, and
#: the blocks replay the cache in chronological order.
BLOCK_TRIPS = 256

#: Vectorized twins of the interpreter's ``_OP_FUNCS``. ``+ - * /``,
#: ``neg``/``abs``/``sqrt`` are IEEE-correctly-rounded elementwise in
#: both NumPy and scalar Python, so columns match the interpreter bit
#: for bit. ``min``/``max`` are spelled with ``np.where`` to reproduce
#: Python's tie behavior (``min(a, b)`` returns ``a`` unless ``b < a``)
#: exactly, signed zeros included. ``/`` goes through ``np.divide`` so
#: scalar (Python float) columns get the same IEEE total semantics as
#: array columns and the interpreter's ``_ieee_div`` — x/0 is ±inf,
#: 0/0 is nan, never ZeroDivisionError.
_VEC_FUNCS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": np.divide,
    "min": lambda a, b: np.where(b < a, b, a),
    "max": lambda a, b: np.where(b > a, b, a),
    "neg": operator.neg,
    "abs": np.abs,
    "sqrt": np.sqrt,
    # Comparisons produce 1.0/0.0 float masks, matching the
    # interpreter's scalar ``1.0 if a < b else 0.0`` exactly (all state
    # is float64; the relations themselves are IEEE-exact).
    "<": lambda a, b: np.where(np.less(a, b), 1.0, 0.0),
    "<=": lambda a, b: np.where(np.less_equal(a, b), 1.0, 0.0),
    ">": lambda a, b: np.where(np.greater(a, b), 1.0, 0.0),
    ">=": lambda a, b: np.where(np.greater_equal(a, b), 1.0, 0.0),
    "==": lambda a, b: np.where(np.equal(a, b), 1.0, 0.0),
    "!=": lambda a, b: np.where(np.not_equal(a, b), 1.0, 0.0),
    # The blend: lanes with a non-zero mask take ``a``, others ``b`` —
    # identical to the interpreter's eager two-arm select.
    "select": lambda c, a, b: np.where(np.not_equal(c, 0.0), a, b),
}


#: Lowered expression nodes, built once per decode by ``_lower_expr``:
#: ``(_CONST, value)``, ``(_SCALAR, name)``, ``(_MEM, (array, flat))``
#: and ``(_OP, fn, kids)`` with ``fn`` from ``_VEC_FUNCS``.
_CONST, _SCALAR, _MEM, _OP = range(4)


def _col_last(col) -> float:
    """Final-iteration value of a column (scalar columns are loop
    invariant, so the last value is the value)."""
    if isinstance(col, np.ndarray) and col.ndim:
        return float(col[-1])
    return float(col)


@dataclass
class _Touch:
    """One cache access per iteration: a byte range at an affine flat."""

    slot: int
    array: str
    flat: Affine
    size_bytes: int


@dataclass
class _Slot:
    """One decoded body instruction."""

    instr: Instruction
    prov: Optional[str]
    #: Per-iteration cycle charges, (category, unit_cost) -> count.
    charges: Dict[Tuple[str, float], int] = field(default_factory=dict)
    #: A ``ScalarExec``'s expression, lowered by ``_lower_expr``.
    value: Optional[tuple] = None
    #: Provenance sink for the current entry (set by ``_account``).
    sink: Optional[ProvenanceCost] = None

    def charge(self, category: str, unit_cycles: float, n: int = 1) -> None:
        key = (category, unit_cycles)
        self.charges[key] = self.charges.get(key, 0) + n


@dataclass
class _LoopProgram:
    """A ``CompiledLoop`` body decoded for batched execution."""

    slots: List[_Slot]
    touches: List[_Touch]
    #: Every distinct flat affine referenced (touches + value reads +
    #: store targets); all must resolve to (base, stride) at entry.
    flats: List[Affine]


class _LineColumns:
    """Per-touch address columns of one loop entry: touch ``j`` of the
    iteration with index value ``i`` accesses ``widths[j]`` bytes at
    byte address ``offsets[j] + strides[j] * i``."""

    def __init__(
        self,
        offsets: Sequence[int],
        strides: Sequence[int],
        widths: Sequence[int],
        line_bytes: int,
    ):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.strides = np.asarray(strides, dtype=np.int64)
        self.line_bytes = line_bytes
        # A width that divides the line size, at addresses that are all
        # multiples of it, never spans two lines. ``None`` marks a
        # stream where every access is exactly one line.
        self.widths: Optional[np.ndarray] = None
        if any(
            line_bytes % width or offset % width or stride % width
            for offset, stride, width in zip(offsets, strides, widths)
        ):
            self.widths = np.asarray(widths, dtype=np.int64)

    def stream(
        self, ivals: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray], List[int]]:
        """The chronological line-ID stream of the iterations ``ivals``
        — iteration-major, then touch order, then line order within one
        access — with each line's touch and the lines per touch. The
        touches are ``None`` when every access is one line: a line's
        touch is then its position modulo the touch count."""
        addresses = self.offsets + ivals[:, None] * self.strides
        firsts = addresses // self.line_bytes
        trips, m = firsts.shape
        if self.widths is None:
            return firsts.ravel(), None, [trips] * m
        counts = (
            (addresses + (self.widths - 1)) // self.line_bytes - firsts + 1
        )
        flat_counts = counts.ravel()
        total = int(flat_counts.sum())
        # Expand each (first, count) range into consecutive line IDs.
        ends = np.cumsum(flat_counts)
        nth = np.arange(total, dtype=np.int64) - np.repeat(
            ends - flat_counts, flat_counts
        )
        lines = np.repeat(firsts.ravel(), flat_counts) + nth
        touch_ids = np.repeat(
            np.tile(np.arange(m, dtype=np.int64), trips), flat_counts
        )
        return lines, touch_ids, counts.sum(axis=0).tolist()


class BatchedEngine:
    """Per-run batched executor; owned by one ``_RunState``."""

    def __init__(self, state):
        self.state = state
        self.machine = state.machine
        self.memory = state.memory
        self.report = state.report
        self.cache = state.cache
        #: Decode memo, keyed by unit identity (units are alive for the
        #: whole run, so ids are stable). ``None`` records "not
        #: batchable" so inner loops of a reference-driven nest do not
        #: re-run the safety analysis on every outer iteration.
        self._decoded: Dict[int, Optional[_LoopProgram]] = {}
        self.batched_loops = 0
        self.fallback_loops = 0

    # -- entry point -----------------------------------------------------------------

    def run_loop(self, unit: CompiledLoop, env: Dict[str, int]) -> bool:
        """Execute one loop entry in batch mode. Returns False (having
        changed nothing) when the unit must fall back to the
        interpreter."""
        key = id(unit)
        program = self._decoded.get(key, False)
        if program is False:
            program = _decode_loop(unit, self.machine, self.memory)
            self._decoded[key] = program
        if program is None:
            self.fallback_loops += 1
            count("simulate.batched_fallbacks")
            return False
        spec = unit.spec
        trips = spec.trip_count
        if trips == 0:
            env.pop(spec.index, None)
            return True
        # Entry-dependent check: every affine must be closed-form in
        # the loop index given the enclosing bindings.
        streams: Dict[Affine, Tuple[int, int]] = {}
        for flat in program.flats:
            stream = affine_stream(flat, spec.index, env)
            if stream is None:
                self.fallback_loops += 1
                count("simulate.batched_fallbacks")
                return False
            streams[flat] = stream
        # _account resolves each slot's provenance sink for this entry,
        # which the per-touch miss attribution relies on.
        self._account(program, trips)
        columns = (
            self._line_columns(program, streams) if program.touches else None
        )
        step = spec.step
        for done in range(0, trips, BLOCK_TRIPS):
            block = min(BLOCK_TRIPS, trips - done)
            start = spec.start + done * step
            ivals = np.arange(
                start, start + block * step, step, dtype=np.int64
            )
            entry = _Entry(self, program, ivals, streams)
            entry.evaluate()
            if columns is not None:
                self._attribute_replay(program, *columns.stream(ivals))
            entry.apply()
        env.pop(spec.index, None)
        self.batched_loops += 1
        count("simulate.batched_loops")
        return True

    def run_copy(self, unit) -> bool:
        """Batched layout-replication copy: per-lane affine source
        streams, one vectorized copy per lane, and one bulk replay of
        the interleaved src/dst access stream — the same chronological
        order (element-major, source before destination) the
        interpreter's ``run_copy`` issues, so cache state, miss count,
        and the amortized cycle charge are identical."""
        rep = unit.replication
        loop = rep.loop
        trips = loop.trip_count
        lanes = rep.lanes
        streams = [
            affine_stream(flat, loop.index, {}) for flat in rep.lane_flats
        ]
        if any(stream is None for stream in streams):
            return False
        memory = self.memory
        src = memory.arrays[rep.source]
        dst = memory.arrays[rep.new_name]
        src_addr_base = memory._base[rep.source]
        dst_addr_base = memory._base[rep.new_name]
        src_bytes = memory._elem_bytes[rep.source]
        dst_bytes = memory._elem_bytes[rep.new_name]
        ivals = np.arange(loop.start, loop.stop, loop.step, dtype=np.int64)
        jvals = np.arange(trips, dtype=np.int64)
        # Element by element, the interpreter reads each lane's source
        # and writes its copy: two touch columns per lane over the
        # element number j (source index value start + step * j).
        offsets: List[int] = []
        strides: List[int] = []
        widths: List[int] = []
        for k, (base, stride) in enumerate(streams):
            dst[lanes * jvals + k] = src[base + stride * ivals]
            offsets += [
                src_addr_base + (base + stride * loop.start) * src_bytes,
                dst_addr_base + k * dst_bytes,
            ]
            strides += [stride * loop.step * src_bytes, lanes * dst_bytes]
            widths += [src_bytes, dst_bytes]
        columns = _LineColumns(
            offsets, strides, widths, self.cache.config.line_bytes
        )
        lines = columns.stream(jvals)[0]
        hits = np.count_nonzero(self.cache.replay_lines(lines))
        misses = lines.shape[0] - int(hits)
        machine = self.machine
        per_element = machine.scalar_load + machine.scalar_store
        amortized = (
            rep.elements * per_element
            + misses * machine.l1.miss_penalty
        ) / unit.amortization
        self.report.bump("layout_copy_element", rep.elements)
        self.report.add_extra_cycles(amortized)
        return True

    # -- timing replay ---------------------------------------------------------------

    def _line_columns(
        self, program: _LoopProgram, streams: Dict[Affine, Tuple[int, int]]
    ) -> _LineColumns:
        """The address columns of every touch for one loop entry."""
        memory = self.memory
        offsets: List[int] = []
        strides: List[int] = []
        for touch in program.touches:
            base, stride = streams[touch.flat]
            elem = memory._elem_bytes[touch.array]
            offsets.append(memory._base[touch.array] + base * elem)
            strides.append(stride * elem)
        return _LineColumns(
            offsets,
            strides,
            [touch.size_bytes for touch in program.touches],
            self.cache.config.line_bytes,
        )

    def _attribute_replay(
        self,
        program: _LoopProgram,
        lines: np.ndarray,
        touch_ids: Optional[np.ndarray],
        lines_per_touch: List[int],
    ) -> None:
        """Replay one chronological line stream (``_LineColumns.stream``)
        and charge each touch's lines and misses to its array and
        provenance sink, counting misses per touch from the miss
        positions."""
        touches = program.touches
        m = len(touches)
        missed = np.flatnonzero(~self.cache.replay_lines(lines))
        if touch_ids is not None:
            missed = touch_ids[missed]
        else:
            missed %= m
        misses_per_touch = np.bincount(missed, minlength=m).tolist()

        report = self.report
        penalty = self.machine.l1.miss_penalty
        miss_key = (MISS_CATEGORY, penalty)
        slots = program.slots
        for touch, accesses, misses in zip(
            touches, lines_per_touch, misses_per_touch
        ):
            report.array_accesses[touch.array] = (
                report.array_accesses.get(touch.array, 0) + accesses
            )
            if not misses:
                continue
            report.array_misses[touch.array] = (
                report.array_misses.get(touch.array, 0) + misses
            )
            report.charges[miss_key] = (
                report.charges.get(miss_key, 0) + misses
            )
            sink = slots[touch.slot].sink
            if sink is not None:
                sink.charges[miss_key] = (
                    sink.charges.get(miss_key, 0) + misses
                )
                sink.cache_misses += misses

    # -- cycle / instruction accounting ----------------------------------------------

    def _account(self, program: _LoopProgram, trips: int) -> None:
        """Aggregate per-slot charges × trip count. ``_Slot.sink`` is
        (re)resolved here per entry so zero-trip loops never materialize
        provenance entries, matching the interpreter."""
        report = self.report
        provenance = report.provenance
        for slot in program.slots:
            sink = None
            if slot.prov is not None:
                sink = provenance.get(slot.prov)
                if sink is None:
                    sink = provenance[slot.prov] = ProvenanceCost()
                sink.instructions += trips
                if isinstance(slot.instr, VShuffle):
                    sink.shuffles += trips
            slot.sink = sink
            for key, per_trip in slot.charges.items():
                total = per_trip * trips
                report.counts[key[0]] = report.counts.get(key[0], 0) + total
                report.charges[key] = report.charges.get(key, 0) + total
                if sink is not None:
                    sink.charges[key] = sink.charges.get(key, 0) + total


class _Entry:
    """Functional (value) execution of one block of a batched loop
    entry (at most ``BLOCK_TRIPS`` iterations, the values of ``ivals``).

    Values flow as block-range columns. Array writes are deferred:
    reads come either from the store-forwarding map (exact affine match
    — the only aliasing the safety analysis admits) or from block-entry
    memory, then all writes land in body order at the end. Nothing
    outside this object mutates until :meth:`apply`.
    """

    def __init__(
        self,
        engine: BatchedEngine,
        program: _LoopProgram,
        ivals: np.ndarray,
        streams: Dict[Affine, Tuple[int, int]],
    ):
        self.engine = engine
        self.program = program
        self.ivals = ivals
        self.streams = streams
        self.scalar_cols: Dict[str, object] = {}
        self.mem_cols: Dict[Tuple[str, Affine], object] = {}
        self.gathers: Dict[Tuple[str, Affine], object] = {}
        self.vreg_cols: Dict[int, List[object]] = {}
        self.writes: List[Tuple[str, Affine, object]] = []

    # -- column sources --------------------------------------------------------------

    def read_scalar(self, name: str):
        col = self.scalar_cols.get(name)
        if col is None:
            return self.engine.memory.scalars[name]
        return col

    def read_mem(self, key: Tuple[str, Affine]):
        """Column of the ``(array, flat)`` cell stream ``key``."""
        col = self.mem_cols.get(key)
        if col is not None:
            return col
        col = self.gathers.get(key)
        if col is None:
            base, stride = self.streams[key[1]]
            data = self.engine.memory.arrays[key[0]]
            if stride == 0:
                col = float(data[base])
            else:
                col = data[base + stride * self.ivals]
            self.gathers[key] = col
        return col

    def read_source(self, ref):
        if isinstance(ref, ImmRef):
            return float(ref.value)
        if isinstance(ref, ScalarRef):
            return self.read_scalar(ref.name)
        return self.read_mem((ref.array, ref.flat))

    def read_vreg(self, vreg: int) -> List[object]:
        cols = self.vreg_cols.get(vreg)
        if cols is None:
            cols = [float(v) for v in self.engine.state.vregs[vreg]]
            self.vreg_cols[vreg] = cols
        return cols

    def eval_expr(self, node: tuple):
        """Column of an expression lowered by ``_lower_expr``."""
        kind = node[0]
        if kind == _MEM:
            return self.read_mem(node[1])
        if kind == _OP:
            return node[1](*[self.eval_expr(kid) for kid in node[2]])
        if kind == _SCALAR:
            return self.read_scalar(node[1])
        return node[1]

    # -- body walk -------------------------------------------------------------------

    def evaluate(self) -> None:
        for slot in self.program.slots:
            instr = slot.instr
            if isinstance(instr, ScalarExec):
                self.write_ref(instr.store, self.eval_expr(slot.value))
            elif isinstance(instr, VPack):
                self.vreg_cols[instr.dst] = [
                    self.read_source(src) for src in instr.sources
                ]
            elif isinstance(instr, VOp):
                fn = _VEC_FUNCS[instr.op]
                operands = [self.read_vreg(s) for s in instr.srcs]
                self.vreg_cols[instr.dst] = [
                    fn(*[cols[lane] for cols in operands])
                    for lane in range(instr.lanes)
                ]
            elif isinstance(instr, VShuffle):
                src = self.read_vreg(instr.src)
                self.vreg_cols[instr.dst] = [src[i] for i in instr.perm]
            else:
                assert isinstance(instr, VStore)
                cols = self.read_vreg(instr.src)
                for target, col in zip(instr.targets, cols):
                    self.write_ref(target, col)

    def write_ref(self, ref, col) -> None:
        if isinstance(ref, ScalarRef):
            self.scalar_cols[ref.name] = col
            return
        self.mem_cols[(ref.array, ref.flat)] = col
        self.writes.append((ref.array, ref.flat, col))

    # -- state commit ----------------------------------------------------------------

    def apply(self) -> None:
        """Land deferred writes in body order, then scalar and vector
        register finals — exactly the state the interpreter leaves."""
        memory = self.engine.memory
        for array, flat, col in self.writes:
            base, stride = self.streams[flat]
            data = memory.arrays[array]
            if stride == 0:
                data[base] = _col_last(col)
            else:
                data[base + stride * self.ivals] = col
        for name, col in self.scalar_cols.items():
            memory.scalars[name] = _col_last(col)
        vregs = self.engine.state.vregs
        for vreg, cols in self.vreg_cols.items():
            vregs[vreg] = tuple(_col_last(col) for col in cols)


# -- decode: body -> slot program, or None on any unsafe shape -------------------------

#: A flat as ``(loop-index coefficient, outer coefficients, constant)``.
_FlatSplit = Tuple[int, Tuple[Tuple[str, int], ...], int]


def _decode_loop(
    unit: CompiledLoop, machine, memory
) -> Optional[_LoopProgram]:
    if unit.inner is not None or unit.spec.step <= 0:
        return None
    slots: List[_Slot] = []
    touches: List[_Touch] = []
    index = unit.spec.index
    # Every distinct flat, split once for the carry analysis.
    flats: Dict[Affine, _FlatSplit] = {}
    scalar_reads: List[Tuple[int, str]] = []
    scalar_writes: List[Tuple[int, str]] = []
    array_refs: Dict[str, List[Tuple[int, _FlatSplit, bool]]] = {}
    vreg_reads: List[Tuple[int, int]] = []
    vreg_defs: List[Tuple[int, int]] = []

    def note_array(pos: int, array: str, flat: Affine, is_write: bool) -> None:
        split = flats.get(flat)
        if split is None:
            split = flats[flat] = _split_flat(flat, index)
        array_refs.setdefault(array, []).append((pos, split, is_write))

    def elem(array: str) -> int:
        return memory._elem_bytes[array]

    ctx = _DecodeCtx(
        machine, elem, touches, note_array, scalar_reads, scalar_writes
    )
    for pos, instr in enumerate(unit.body):
        slot = _Slot(instr, getattr(instr, "prov", None))
        if isinstance(instr, ScalarExec):
            ok = _decode_scalar(instr, pos, slot, ctx)
        elif isinstance(instr, VPack):
            ok = _decode_pack(instr, pos, slot, ctx)
            vreg_defs.append((pos, instr.dst))
        elif isinstance(instr, VOp):
            slot.charge("vector_op", machine.op_cost(instr.op))
            for src in instr.srcs:
                vreg_reads.append((pos, src))
            vreg_defs.append((pos, instr.dst))
            ok = True
        elif isinstance(instr, VShuffle):
            slot.charge("shuffle", machine.shuffle)
            vreg_reads.append((pos, instr.src))
            vreg_defs.append((pos, instr.dst))
            ok = True
        elif isinstance(instr, VStore):
            ok = _decode_store(instr, pos, slot, ctx)
            vreg_reads.append((pos, instr.src))
        else:
            ok = False
        if not ok:
            return None
        slots.append(slot)

    if not _carries_safe(
        unit.spec, scalar_reads, scalar_writes, vreg_reads, vreg_defs,
        array_refs,
    ):
        return None
    return _LoopProgram(slots, touches, list(flats))


class _DecodeCtx:
    """Shared decode-time plumbing for the per-kind decoders."""

    def __init__(
        self, machine, elem, touches, note_array, scalar_reads,
        scalar_writes,
    ):
        self.machine = machine
        self.elem = elem
        self.touches = touches
        self.note_array = note_array
        self.scalar_reads = scalar_reads
        self.scalar_writes = scalar_writes


def _lower_expr(expr: Expr, pos: int, ctx: _DecodeCtx, loads) -> tuple:
    """Lower a scalar expression for ``_Entry.eval_expr`` and record its
    *value* reads — the loads the functional evaluation will perform
    (``instr.loads`` covers the accounting side). ``loads`` iterates
    the ``ScalarExec``'s loads, which codegen built one per non-constant
    leaf in left-to-right order — the order this walk meets them — so
    each array leaf takes its row-major flat from its ``MemRef``; those
    flats must reach the stream table too."""
    if isinstance(expr, Const):
        return (_CONST, float(expr.value))
    if isinstance(expr, Var):
        next(loads)
        ctx.scalar_reads.append((pos, expr.name))
        return (_SCALAR, expr.name)
    if isinstance(expr, ArrayRef):
        flat = next(loads).flat
        ctx.note_array(pos, expr.array, flat, False)
        return (_MEM, (expr.array, flat))
    kids = tuple(
        _lower_expr(kid, pos, ctx, loads) for kid in expr.children()
    )
    return (_OP, _VEC_FUNCS[getattr(expr, "op")], kids)


def _decode_scalar(
    instr: ScalarExec, pos: int, slot: _Slot, ctx: _DecodeCtx
) -> bool:
    machine = ctx.machine
    for load in instr.loads:
        if isinstance(load, MemRef):
            ctx.touches.append(
                _Touch(pos, load.array, load.flat, ctx.elem(load.array))
            )
            ctx.note_array(pos, load.array, load.flat, False)
            slot.charge("scalar_load", machine.scalar_load)
        else:
            slot.charge("scalar_move", machine.scalar_move)
    for op in instr.ops:
        slot.charge("scalar_op", machine.op_cost(op))
    slot.value = _lower_expr(
        instr.statement.expr, pos, ctx, iter(instr.loads)
    )
    store = instr.store
    if isinstance(store, MemRef):
        ctx.touches.append(
            _Touch(pos, store.array, store.flat, ctx.elem(store.array))
        )
        ctx.note_array(pos, store.array, store.flat, True)
        slot.charge("scalar_store", machine.scalar_store)
    else:
        slot.charge("scalar_move", machine.scalar_move)
        ctx.scalar_writes.append((pos, store.name))
    return True


def _decode_pack(
    instr: VPack, pos: int, slot: _Slot, ctx: _DecodeCtx
) -> bool:
    machine = ctx.machine
    mode = instr.mode
    if mode in _CONTIG_PACKS:
        first = instr.sources[0]
        if not isinstance(first, MemRef):
            return False
        width = len(instr.sources) * ctx.elem(first.array)
        ctx.touches.append(_Touch(pos, first.array, first.flat, width))
        cost = machine.vector_load
        if mode is PackMode.CONTIG_UNALIGNED:
            cost += machine.unaligned_extra
        slot.charge("vector_load", cost)
    elif mode is PackMode.SCALAR_CONTIG:
        slot.charge("vector_load", machine.vector_load)
    elif mode is PackMode.IMMEDIATE:
        slot.charge("imm_vector", machine.imm_vector)
    elif mode is PackMode.BROADCAST:
        first = instr.sources[0]
        if isinstance(first, MemRef):
            ctx.touches.append(
                _Touch(pos, first.array, first.flat, ctx.elem(first.array))
            )
            slot.charge("pack_mem_load", machine.scalar_load)
        elif isinstance(first, ScalarRef):
            slot.charge("pack_scalar_move", machine.scalar_move)
        slot.charge("broadcast", machine.broadcast)
    else:  # GATHER / SCALAR_GATHER / MIXED
        for source in instr.sources:
            if isinstance(source, MemRef):
                ctx.touches.append(
                    _Touch(
                        pos, source.array, source.flat, ctx.elem(source.array)
                    )
                )
                slot.charge("pack_mem_load", machine.scalar_load)
            elif isinstance(source, ScalarRef):
                slot.charge("pack_scalar_move", machine.scalar_move)
            slot.charge("lane_insert", machine.lane_insert)
    # Every lane is *read* for its value regardless of mode.
    for source in instr.sources:
        if isinstance(source, MemRef):
            ctx.note_array(pos, source.array, source.flat, False)
        elif isinstance(source, ScalarRef):
            ctx.scalar_reads.append((pos, source.name))
    return True


def _decode_store(
    instr: VStore, pos: int, slot: _Slot, ctx: _DecodeCtx
) -> bool:
    machine = ctx.machine
    mode = instr.mode
    if mode in _CONTIG_STORES:
        first = instr.targets[0]
        if not isinstance(first, MemRef):
            return False
        width = len(instr.targets) * ctx.elem(first.array)
        ctx.touches.append(_Touch(pos, first.array, first.flat, width))
        cost = machine.vector_store
        if mode is StoreMode.CONTIG_UNALIGNED:
            cost += machine.unaligned_extra
        slot.charge("vector_store", cost)
    elif mode is StoreMode.SCALAR_CONTIG:
        slot.charge("vector_store", machine.vector_store)
    else:  # SCATTER / SCALAR_SCATTER
        for target in instr.targets:
            slot.charge("lane_extract", machine.lane_extract)
            if isinstance(target, MemRef):
                ctx.touches.append(
                    _Touch(
                        pos, target.array, target.flat, ctx.elem(target.array)
                    )
                )
                slot.charge("unpack_mem_store", machine.scalar_store)
            else:
                slot.charge("unpack_scalar_move", machine.scalar_move)
    # Every lane is *written* regardless of mode.
    for target in instr.targets:
        if isinstance(target, MemRef):
            ctx.note_array(pos, target.array, target.flat, True)
        elif isinstance(target, ScalarRef):
            ctx.scalar_writes.append((pos, target.name))
        else:
            return False
    return True


def _split_flat(flat: Affine, index: str) -> _FlatSplit:
    """``flat`` as its coefficient of ``index``, the outer-variable
    coefficients of the remainder and its constant. Coefficients are
    normalized (sorted, non-zero), and stay so with one term removed."""
    coeff = 0
    rest = []
    for name, c in flat.coeffs:
        if name == index:
            coeff = c
        else:
            rest.append((name, c))
    return coeff, tuple(rest), flat.const


def _carries_safe(
    spec,
    scalar_reads: List[Tuple[int, str]],
    scalar_writes: List[Tuple[int, str]],
    vreg_reads: List[Tuple[int, int]],
    vreg_defs: List[Tuple[int, int]],
    array_refs: Dict[str, List[Tuple[int, _FlatSplit, bool]]],
) -> bool:
    """Prove the body free of cross-iteration carries.

    Scalars: a scalar that is written in the body and read at a
    position not strictly after its first write carries the previous
    iteration's value (reductions like ``s = s + A[i]``) — unsafe.

    Vector registers: a register read before the body defines it, but
    defined somewhere in the body, likewise carries — unsafe.

    Arrays: every (write, other-ref) pair to one array must either be
    the *same* affine stream (handled in body order by store
    forwarding; stride 0 additionally requires the read to come after
    the first write) or provably never collide across the iteration
    space: equal loop-index coefficient ``a`` and equal outer-variable
    coefficients make the address gap a compile-time constant δ, and a
    collision exists iff ``a != 0`` and ``δ / a`` is a nonzero multiple
    of ``step`` within ``(trips - 1) · step``. Any pair this analysis
    cannot prove disjoint is unsafe.
    """
    trips = spec.trip_count
    step = spec.step

    written_scalars = {name for _, name in scalar_writes}
    if written_scalars:
        first_write: Dict[str, int] = {}
        for pos, name in scalar_writes:
            if name not in first_write or pos < first_write[name]:
                first_write[name] = pos
        for pos, name in scalar_reads:
            if name in written_scalars and pos <= first_write[name]:
                return False

    defined_vregs = {vreg for _, vreg in vreg_defs}
    first_def: Dict[int, int] = {}
    for pos, vreg in vreg_defs:
        if vreg not in first_def or pos < first_def[vreg]:
            first_def[vreg] = pos
    for pos, vreg in vreg_reads:
        # Reading a register the body defines, at or before its first
        # definition (source operands are read before the destination
        # is written), means iteration t observes iteration t-1's
        # value: a carry.
        if vreg in defined_vregs and pos <= first_def[vreg]:
            return False

    span = (trips - 1) * step
    for refs in array_refs.values():
        writes = [(pos, split) for pos, split, is_write in refs if is_write]
        if not writes:
            continue
        for wpos, (a, rest_w, const_w) in writes:
            for xpos, (ax, rest_x, const_x), x_is_write in refs:
                if ax != a or rest_x != rest_w:
                    return False
                delta = const_x - const_w
                if delta == 0:
                    if a == 0 and not x_is_write and xpos <= wpos:
                        # Constant-address read at-or-before a write to
                        # the same cell: iteration carry.
                        return False
                    continue
                if a == 0:
                    continue  # distinct constant addresses never meet
                if delta % a:
                    continue
                q = delta // a
                if q % step == 0 and q != 0 and abs(q) <= span:
                    return False
    return True
