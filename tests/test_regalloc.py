"""Linear-scan vector register allocation."""

import pytest

from repro import Variant, compile_program, intel_dunnington
from repro.bench import ALL_KERNELS
from repro.ir import parse_program
from repro.vm.isa import VOp, VPack, ImmRef, PackMode
from repro.vm.regalloc import (
    AllocationResult,
    LiveRange,
    allocate_plan,
    linear_scan,
    live_ranges,
)


def vpack(dst):
    return VPack(dst, (ImmRef(1.0), ImmRef(2.0)), PackMode.IMMEDIATE)


def vop(dst, *srcs):
    return VOp("+", dst, tuple(srcs), 2)


class TestLiveRanges:
    def test_def_to_last_use(self):
        instrs = [vpack(0), vpack(1), vop(2, 0, 1), vop(3, 2, 0)]
        ranges = {r.vreg: r for r in live_ranges(instrs)}
        assert ranges[0].start == 0 and ranges[0].end == 3
        assert ranges[1].end == 2
        assert ranges[2].end == 3
        assert ranges[3].start == 3

    def test_live_out_extends_to_horizon(self):
        instrs = [vpack(0), vop(1, 0, 0)]
        ranges = {r.vreg: r for r in live_ranges(instrs, live_out=[0])}
        assert ranges[0].end == len(instrs)

    def test_upstream_use_becomes_live_in(self):
        instrs = [vop(1, 0, 0)]  # vreg 0 defined elsewhere
        ranges = {r.vreg: r for r in live_ranges(instrs)}
        assert ranges[0].start == 0


class TestLinearScan:
    def test_no_spills_under_capacity(self):
        ranges = [LiveRange(i, i, i + 1) for i in range(8)]
        result = linear_scan(ranges, 4)
        assert result.spill_count == 0
        assert result.max_pressure <= 2

    def test_disjoint_ranges_share_registers(self):
        ranges = [LiveRange(0, 0, 1), LiveRange(1, 2, 3)]
        result = linear_scan(ranges, 1)
        assert result.spill_count == 0

    def test_spills_when_over_capacity(self):
        ranges = [LiveRange(i, 0, 10) for i in range(5)]
        result = linear_scan(ranges, 4)
        assert result.spill_count == 1
        assert result.max_pressure == 4

    def test_furthest_end_spilled_first(self):
        ranges = [
            LiveRange(0, 0, 100),
            LiveRange(1, 0, 2),
            LiveRange(2, 1, 3),
        ]
        result = linear_scan(ranges, 2)
        assert result.spilled == {0}

    def test_assignments_do_not_overlap(self):
        ranges = [LiveRange(i, i % 3, i % 3 + 4) for i in range(9)]
        result = linear_scan(ranges, 6)
        # No two simultaneously-live vregs share a physical register.
        for a in ranges:
            for b in ranges:
                if a.vreg >= b.vreg:
                    continue
                overlap = not (a.end < b.start or b.end < a.start)
                ra = result.assignment.get(a.vreg)
                rb = result.assignment.get(b.vreg)
                if overlap and ra is not None and rb is not None:
                    assert ra != rb, (a, b)


class TestPlanAllocation:
    @pytest.mark.parametrize(
        "kernel", ALL_KERNELS[:6], ids=lambda k: k.name
    )
    def test_kernel_pressure_fits_the_register_file(self, kernel):
        """The property the paper's backend relies on: these loop bodies
        never exceed 16 live superwords."""
        result = compile_program(
            kernel.build(16), Variant.GLOBAL, intel_dunnington()
        )
        allocation = allocate_plan(result.plan)
        assert allocation.max_pressure <= 16
        assert allocation.total_spills == 0

    def test_tight_register_file_spills(self):
        src = "double A[64]; double B[64];" + "".join(
            f"B[{i}] = A[{i}] / A[{i + 8}];" for i in range(8)
        )
        result = compile_program(
            parse_program(src), Variant.GLOBAL, intel_dunnington()
        )
        generous = allocate_plan(result.plan, physical_registers=16)
        tight = allocate_plan(result.plan, physical_registers=2)
        assert generous.total_spills <= tight.total_spills
        assert tight.max_pressure <= generous.max_pressure
        assert tight.max_pressure <= 2
