"""Model types: group nodes, superword statements, schedule validation."""

import pytest

from repro.analysis import DependenceGraph
from repro.ir import parse_block
from repro.slp import (
    GroupNode,
    InvalidScheduleError,
    Schedule,
    ScheduledSingle,
    SuperwordStatement,
)
from repro.slp.model import pack_data

DECLS = "float A[64]; float a, b, c, d, p;"


def block_of(src):
    return parse_block(src, DECLS)


class TestGroupNode:
    def test_of_statement_positions(self):
        block = block_of("a = b * p;")
        node = GroupNode.of_statement(block[0])
        assert node.size == 1
        assert len(node.positions) == 3  # target, b, p
        assert node.element_bits == 32

    def test_merge_builds_multiset_positions(self):
        block = block_of("a = b * p; c = d * p;")
        merged = GroupNode.merge(
            GroupNode.of_statement(block[0]),
            GroupNode.of_statement(block[1]),
        )
        assert merged.size == 2
        assert merged.sids == (0, 1)
        assert merged.positions[2] == pack_data(
            [("var", "p"), ("var", "p")]
        )

    def test_merge_rejects_non_isomorphic(self):
        block = block_of("a = b * p; c = d + p;")
        with pytest.raises(ValueError):
            GroupNode.merge(
                GroupNode.of_statement(block[0]),
                GroupNode.of_statement(block[1]),
            )

    def test_can_merge_requires_same_size(self):
        block = block_of("a = b * p; c = d * p; b = a * p;")
        deps = DependenceGraph(block)
        pair = GroupNode.merge(
            GroupNode.of_statement(block[0]),
            GroupNode.of_statement(block[1]),
        )
        single = GroupNode.of_statement(block[2])
        assert not pair.can_merge_with(single, deps, 1024)

    def test_can_merge_respects_datapath(self):
        block = block_of("a = b * p; c = d * p;")
        deps = DependenceGraph(block)
        one = GroupNode.of_statement(block[0])
        two = GroupNode.of_statement(block[1])
        assert one.can_merge_with(two, deps, 64)
        assert not one.can_merge_with(two, deps, 32)


class TestSuperwordStatement:
    def test_requires_two_lanes(self):
        block = block_of("a = b * p;")
        with pytest.raises(ValueError):
            SuperwordStatement((block[0],))

    def test_requires_isomorphism(self):
        block = block_of("a = b * p; c = d + p;")
        with pytest.raises(ValueError):
            SuperwordStatement((block[0], block[1]))

    def test_ordered_packs_follow_lane_order(self):
        block = block_of("a = b * p; c = d * p;")
        sw = SuperwordStatement((block[0], block[1]))
        assert sw.target_pack() == (("var", "a"), ("var", "c"))
        flipped = SuperwordStatement((block[1], block[0]))
        assert flipped.target_pack() == (("var", "c"), ("var", "a"))

    def test_width_bits(self):
        block = block_of("a = b * p; c = d * p;")
        sw = SuperwordStatement((block[0], block[1]))
        assert sw.width_bits == 64


class TestScheduleValidation:
    def test_valid_schedule_passes(self):
        block = block_of("a = A[0]; b = A[1]; c = a + b;")
        deps = DependenceGraph(block)
        schedule = Schedule(block)
        schedule.items = [
            SuperwordStatement((block[0], block[1])),
            ScheduledSingle(block[2]),
        ]
        schedule.validate(deps, datapath_bits=64)

    def test_rejects_dependent_lanes(self):
        block = block_of("a = b * p; b = a * p;")
        # Constructor allows it (isomorphic) but validation must fail.
        schedule = Schedule(block)
        schedule.items = [SuperwordStatement((block[0], block[1]))]
        with pytest.raises(InvalidScheduleError):
            schedule.validate()

    def test_rejects_dependence_violation(self):
        block = block_of("a = A[0]; c = a + b;")
        schedule = Schedule(block)
        schedule.items = [
            ScheduledSingle(block[1]),
            ScheduledSingle(block[0]),
        ]
        with pytest.raises(InvalidScheduleError):
            schedule.validate()

    def test_rejects_missing_statement(self):
        block = block_of("a = A[0]; b = A[1];")
        schedule = Schedule(block)
        schedule.items = [ScheduledSingle(block[0])]
        with pytest.raises(InvalidScheduleError):
            schedule.validate()

    def test_rejects_duplicate_statement(self):
        block = block_of("a = A[0]; b = A[1];")
        schedule = Schedule(block)
        schedule.items = [
            ScheduledSingle(block[0]),
            ScheduledSingle(block[0]),
            ScheduledSingle(block[1]),
        ]
        with pytest.raises(InvalidScheduleError):
            schedule.validate()

    def test_rejects_overwide_superword(self):
        block = block_of("a = A[0]; b = A[1];")
        schedule = Schedule(block)
        schedule.items = [SuperwordStatement((block[0], block[1]))]
        with pytest.raises(InvalidScheduleError):
            schedule.validate(datapath_bits=32)

    def test_grouped_fraction(self):
        block = block_of("a = A[0]; b = A[1]; c = a + b;")
        schedule = Schedule(block)
        schedule.items = [
            SuperwordStatement((block[0], block[1])),
            ScheduledSingle(block[2]),
        ]
        assert schedule.grouped_fraction() == pytest.approx(2 / 3)
