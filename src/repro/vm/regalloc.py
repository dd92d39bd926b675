"""Vector register allocation — the "post-processing" of Figure 3.

The code generator produces an unbounded stream of virtual vector
registers; this pass maps them onto the machine's physical vector
register file (16 XMM registers on both evaluation machines) with a
linear-scan allocator over live ranges, recording which virtual
registers would spill when pressure exceeds the file. On the paper's
workloads pressure stays comfortably below 16, so spills are rare.

Nothing in the compile pipeline runs the allocator and the simulator
charges no spill traffic: the module is the checker behind the "at
most 16 live superwords" property (``tests/test_regalloc.py``), which
makes that a *checked* property instead of an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .codegen import (
    CompiledCopy,
    CompiledLoop,
    CompiledStraight,
    CompiledUnit,
    ExecutablePlan,
)
from .isa import Instruction, ScalarExec, VOp, VPack, VShuffle, VStore


@dataclass(frozen=True)
class LiveRange:
    """One virtual register's definition and last use, as instruction
    indices within a single instruction list."""

    vreg: int
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class AllocationResult:
    """Outcome of allocating one instruction list."""

    assignment: Dict[int, int]          # vreg -> physical register
    spilled: Set[int] = field(default_factory=set)
    max_pressure: int = 0

    @property
    def spill_count(self) -> int:
        return len(self.spilled)


def _defs_and_uses(instr: Instruction) -> Tuple[Optional[int], Tuple[int, ...]]:
    if isinstance(instr, VPack):
        return instr.dst, ()
    if isinstance(instr, VOp):
        return instr.dst, instr.srcs
    if isinstance(instr, VShuffle):
        return instr.dst, (instr.src,)
    if isinstance(instr, VStore):
        return None, (instr.src,)
    assert isinstance(instr, ScalarExec)
    return None, ()


def live_ranges(
    instructions: Sequence[Instruction],
    live_out: Sequence[int] = (),
) -> List[LiveRange]:
    """Live ranges of every virtual register in one instruction list.

    ``live_out`` registers (e.g. preheader definitions consumed by the
    loop body) are treated as live to the end of the list.
    """
    first_def: Dict[int, int] = {}
    last_use: Dict[int, int] = {}
    for index, instr in enumerate(instructions):
        dst, srcs = _defs_and_uses(instr)
        if dst is not None and dst not in first_def:
            first_def[dst] = index
            last_use.setdefault(dst, index)
        for src in srcs:
            first_def.setdefault(src, 0)  # defined upstream (live-in)
            last_use[src] = index
    horizon = len(instructions)
    for vreg in live_out:
        if vreg in first_def:
            last_use[vreg] = horizon
    return sorted(
        (
            LiveRange(vreg, first_def[vreg], last_use.get(vreg, start))
            for vreg, start in first_def.items()
        ),
        key=lambda r: (r.start, r.vreg),
    )


def linear_scan(
    ranges: Sequence[LiveRange], physical_registers: int
) -> AllocationResult:
    """Classic linear-scan register allocation (Poletto & Sarkar).

    When no register is free at a range's start, the active range with
    the furthest end is spilled (its users reload around the spill).
    """
    result = AllocationResult({})
    free = list(range(physical_registers - 1, -1, -1))
    active: List[LiveRange] = []

    for current in ranges:
        # Expire ranges that ended before this one starts.
        still_active = []
        for rng in active:
            if rng.end < current.start:
                reg = result.assignment.get(rng.vreg)
                if reg is not None:
                    free.append(reg)
            else:
                still_active.append(rng)
        active = still_active

        if free:
            result.assignment[current.vreg] = free.pop()
            active.append(current)
        else:
            # Spill the active range ending furthest away (or the
            # current one, if it ends last).
            victim = max(active + [current], key=lambda r: (r.end, r.vreg))
            if victim is current:
                result.spilled.add(current.vreg)
            else:
                result.spilled.add(victim.vreg)
                reg = result.assignment.pop(victim.vreg)
                result.assignment[current.vreg] = reg
                active.remove(victim)
                active.append(current)
        result.max_pressure = max(result.max_pressure, len(active))
    return result


@dataclass
class PlanAllocation:
    """Register allocation over a whole executable plan."""

    per_unit: List[AllocationResult] = field(default_factory=list)

    @property
    def max_pressure(self) -> int:
        return max((r.max_pressure for r in self.per_unit), default=0)

    @property
    def total_spills(self) -> int:
        return sum(r.spill_count for r in self.per_unit)


def allocate_plan(
    plan: ExecutablePlan, physical_registers: Optional[int] = None
) -> PlanAllocation:
    """Allocate every vectorized instruction list of a plan.

    The preheader and body of a loop are allocated as one list (the
    preheader's definitions are live across all iterations, so they are
    marked live-out and effectively pinned).
    """
    allocation = PlanAllocation()

    def walk(unit: CompiledUnit, registers: int) -> None:
        if isinstance(unit, CompiledStraight):
            ranges = live_ranges(unit.instructions)
            allocation.per_unit.append(linear_scan(ranges, registers))
            return
        if isinstance(unit, CompiledCopy):
            return
        assert isinstance(unit, CompiledLoop)
        combined = list(unit.preheader) + list(unit.body)
        live_out = [
            dst
            for instr in unit.preheader
            for dst in [_defs_and_uses(instr)[0]]
            if dst is not None
        ]
        ranges = live_ranges(combined, live_out=live_out)
        allocation.per_unit.append(linear_scan(ranges, registers))
        if unit.inner is not None:
            walk(unit.inner, registers)

    for unit in plan.units:
        walk(unit, physical_registers or 16)
    return allocation
