"""The scheduling phase: live superword set, reuse-driven selection,
intra-group ordering, permutation minimization, cycle demotion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import DependenceGraph, operand_key
from repro.ir import Affine, parse_block
from repro.slp import (
    GroupNode,
    LiveSuperwordSet,
    Scheduler,
    SuperwordStatement,
    iterative_grouping,
    keys_may_alias,
)
from repro.slp.model import pack_data
from repro.slp.scheduling import _match_orderings

DECLS = "float A[512]; float B[512]; float a, b, c, d, p, q, r, s;"

#: Lanes for random live sets: scalars, constants, and references to
#: two arrays whose subscripts differ by constants or by coefficients.
LANE_KEYS = (
    [("var", name) for name in "abc"]
    + [("const", "float", 1.0), ("const", "float", 2.0)]
    + [
        ("ref", array, (Affine.of(const, i=coeff),))
        for array in ("A", "B")
        for coeff in (1, 2)
        for const in (0, 1)
    ]
)


def schedule_of(src, datapath=64):
    block = parse_block(src, DECLS)
    deps = DependenceGraph(block)
    units, _ = iterative_grouping(block, deps, datapath)
    return Scheduler(block, deps, units).run(), block, deps


class TestLiveSuperwordSet:
    def test_insert_and_exact_lookup(self):
        live = LiveSuperwordSet()
        pack = (("var", "a"), ("var", "b"))
        live.insert(pack)
        assert live.lookup(pack_data(pack)) == pack

    def test_same_data_new_order_replaces(self):
        live = LiveSuperwordSet()
        live.insert((("var", "a"), ("var", "b")))
        live.insert((("var", "b"), ("var", "a")))
        assert live.lookup(pack_data((("var", "a"), ("var", "b")))) == (
            ("var", "b"),
            ("var", "a"),
        )
        assert len(live) == 1

    def test_invalidation_on_write(self):
        live = LiveSuperwordSet()
        live.insert((("var", "a"), ("var", "b")))
        live.insert((("var", "c"), ("var", "d")))
        live.invalidate_written([("var", "a")])
        assert live.lookup(pack_data((("var", "a"), ("var", "b")))) is None
        assert len(live) == 1

    def test_invalidation_of_may_aliasing_ref(self):
        from repro.ir import Affine

        live = LiveSuperwordSet()
        k1 = ("ref", "A", (Affine.of(0, i=4),))
        k2 = ("ref", "A", (Affine.of(1, i=4),))
        live.insert((k1, k2))
        # A write to A[2i] may alias A[4i]: the pack must die.
        live.invalidate_written([("ref", "A", (Affine.of(0, i=2),))])
        assert len(live) == 0

    @given(
        steps=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.sampled_from(LANE_KEYS), min_size=1, max_size=4),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_indexed_invalidation_matches_full_scan(self, steps):
        """Invalidation tests only the packs sharing a written key's
        name, yet leaves exactly the packs, in the same order, that
        alias-testing every lane of every live pack leaves."""
        live = LiveSuperwordSet()
        scan = {}
        for is_write, keys in steps:
            if is_write:
                live.invalidate_written(keys)
                for data in [
                    data
                    for data, ordered in scan.items()
                    if any(keys_may_alias(a, w) for a in ordered for w in keys)
                ]:
                    del scan[data]
            else:
                live.insert(tuple(keys))
                scan[pack_data(keys)] = tuple(keys)
            assert live.packs() == tuple(scan.values())


class TestKeysMayAlias:
    def test_vars_alias_by_name(self):
        assert keys_may_alias(("var", "x"), ("var", "x"))
        assert not keys_may_alias(("var", "x"), ("var", "y"))

    def test_var_never_aliases_ref(self):
        from repro.ir import Affine

        assert not keys_may_alias(
            ("var", "x"), ("ref", "A", (Affine.of(0),))
        )

    def test_refs_with_const_delta_do_not_alias(self):
        from repro.ir import Affine

        a = ("ref", "A", (Affine.of(0, i=1),))
        b = ("ref", "A", (Affine.of(5, i=1),))
        assert not keys_may_alias(a, b)


class TestMatchOrderings:
    def test_unique_keys_single_match(self):
        keys = [("var", "a"), ("var", "b")]
        live = (("var", "b"), ("var", "a"))
        orders = list(_match_orderings(keys, live, 10))
        assert orders == [(1, 0)]

    def test_duplicate_keys_multiple_matches(self):
        keys = [("var", "a"), ("var", "a")]
        live = (("var", "a"), ("var", "a"))
        orders = list(_match_orderings(keys, live, 10))
        assert set(orders) == {(0, 1), (1, 0)}

    def test_no_match_when_multiset_differs(self):
        keys = [("var", "a"), ("var", "b")]
        live = (("var", "c"), ("var", "a"))
        assert list(_match_orderings(keys, live, 10)) == []


class TestScheduling:
    def test_schedule_is_valid(self):
        schedule, block, deps = schedule_of(
            """
            a = A[0]; b = A[1];
            c = a * p; d = b * p;
            B[0] = c + a; B[1] = d + b;
            """
        )
        schedule.validate(deps, datapath_bits=64)

    def test_direct_reuse_preserves_lane_order(self):
        """A group whose source pack is the previous group's target must
        come out in the same lane order (direct reuse, no permutation)."""
        schedule, block, deps = schedule_of(
            """
            a = A[0]; b = A[1];
            B[0] = a * p; B[1] = b * p;
            """
        )
        supers = list(schedule.superwords())
        assert len(supers) == 2
        producer, consumer = supers
        produced = producer.target_pack()
        consumed = [
            pack
            for pack in consumer.source_packs()
            if pack_data(pack) == pack_data(produced)
        ]
        assert consumed and consumed[0] == produced

    def test_singles_scheduled_between_groups(self):
        schedule, block, deps = schedule_of(
            """
            a = A[0]; b = A[1];
            p = a / b;
            B[0] = a * p; B[1] = b * p;
            """
        )
        kinds = [type(item).__name__ for item in schedule.items]
        assert "ScheduledSingle" in kinds
        schedule.validate(deps, datapath_bits=64)

    def test_cycle_demotion_keeps_correctness(self):
        # Grouping {S0,S3} and {S1,S2} would create a unit-level cycle;
        # the scheduler must demote one group rather than deadlock.
        src = """
        a = p + q;
        b = a * r;
        c = s * r;
        d = c + q;
        """
        block = parse_block(src, DECLS)
        deps = DependenceGraph(block)
        units = [
            GroupNode.merge(
                GroupNode.of_statement(block[0]),
                GroupNode.of_statement(block[3]),
            ),
            GroupNode.merge(
                GroupNode.of_statement(block[1]),
                GroupNode.of_statement(block[2]),
            ),
        ]
        schedule = Scheduler(block, deps, units).run()
        schedule.validate(deps, datapath_bits=64)

    def test_every_statement_scheduled_exactly_once(self):
        schedule, block, deps = schedule_of(
            """
            a = A[0]; b = A[1]; c = A[2]; d = A[3];
            B[0] = a + b; B[1] = c + d;
            """
        )
        seen = []
        for item in schedule.items:
            seen.extend(sorted(item.sid_set))
        assert sorted(seen) == [s.sid for s in block]
