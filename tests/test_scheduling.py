"""The scheduling phase: live superword set, reuse-driven selection,
intra-group ordering, permutation minimization, cycle demotion — and
the may-alias invalidation of the scheduler's live set and the code
generator's live packs, both checked against the pairwise key rule."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import DependenceGraph, OperandTable, operand_key
from repro.ir import (
    Affine,
    ArrayRef,
    BasicBlock,
    BinOp,
    Const,
    FLOAT32,
    Statement,
    Var,
    parse_block,
    parse_program,
)
from repro.slp import (
    GroupNode,
    LiveSuperwordSet,
    Scheduler,
    SuperwordStatement,
    iterative_grouping,
)
from repro.slp.model import ScheduledSingle, pack_data
from repro.slp.scheduling import _match_orderings

DECLS = "float A[512]; float B[512]; float a, b, c, d, p, q, r, s;"


def keys_may_alias(a, b):
    """The pairwise may-alias rule on operand keys, the oracle for the
    operand table's ``alias`` bitsets: a variable aliases itself; two
    references to one array alias unless some dimension's subscripts
    differ by a nonzero constant, and references of unequal ranks always
    may; nothing else aliases."""
    if a[0] == "var" and b[0] == "var":
        return a[1] == b[1]
    if a[0] == "ref" and b[0] == "ref":
        if a[1] != b[1]:
            return False
        subs_a, subs_b = a[2], b[2]
        if len(subs_a) != len(subs_b):
            return True
        for sa, sb in zip(subs_a, subs_b):
            delta = sa - sb
            if delta.is_constant and delta.const != 0:
                return False
        return True
    return False


#: Lanes for random live sets: scalars, constants, and references to
#: two arrays whose subscripts differ by constants or by coefficients,
#: plus two-dimensional references, one of them to a one-dimensional
#: array's name (unequal ranks).
LANE_KEYS = (
    [("var", name) for name in "abc"]
    + [("const", "float", 1.0), ("const", "float", 2.0)]
    + [
        ("ref", array, (Affine.of(const, i=coeff),))
        for array in ("A", "B")
        for coeff in (1, 2)
        for const in (0, 1)
    ]
    + [
        ("ref", "M", (Affine.of(0, i=1), Affine.of(const)))
        for const in (0, 1)
    ]
    + [("ref", "A", (Affine.of(0, i=1), Affine.of(1)))]
)


def ids_of(table, keys):
    return tuple(table.ids[key] for key in keys)


def schedule_of(src, datapath=64):
    block = parse_block(src, DECLS)
    deps = DependenceGraph(block)
    units, _ = iterative_grouping(block, deps, datapath)
    return Scheduler(block, deps, units).run(), block, deps


class TestLiveSuperwordSet:
    def test_insert_and_exact_lookup(self):
        table = OperandTable([("var", "a"), ("var", "b")])
        live = LiveSuperwordSet(table)
        pack = ids_of(table, (("var", "a"), ("var", "b")))
        live.insert(pack)
        assert live.lookup(tuple(sorted(pack))) == pack

    def test_same_data_new_order_replaces(self):
        table = OperandTable([("var", "a"), ("var", "b")])
        live = LiveSuperwordSet(table)
        live.insert(ids_of(table, (("var", "a"), ("var", "b"))))
        live.insert(ids_of(table, (("var", "b"), ("var", "a"))))
        data = tuple(sorted(ids_of(table, (("var", "a"), ("var", "b")))))
        assert live.lookup(data) == ids_of(table, (("var", "b"), ("var", "a")))
        assert len(live) == 1

    def test_invalidation_on_write(self):
        keys = [("var", name) for name in "abcd"]
        table = OperandTable(keys)
        live = LiveSuperwordSet(table)
        live.insert(ids_of(table, (("var", "a"), ("var", "b"))))
        live.insert(ids_of(table, (("var", "c"), ("var", "d"))))
        live.invalidate_written(ids_of(table, [("var", "a")]))
        data = tuple(sorted(ids_of(table, (("var", "a"), ("var", "b")))))
        assert live.lookup(data) is None
        assert len(live) == 1

    def test_invalidation_of_may_aliasing_ref(self):
        k1 = ("ref", "A", (Affine.of(0, i=4),))
        k2 = ("ref", "A", (Affine.of(1, i=4),))
        w = ("ref", "A", (Affine.of(0, i=2),))
        table = OperandTable([k1, k2, w])
        live = LiveSuperwordSet(table)
        live.insert(ids_of(table, (k1, k2)))
        # A write to A[2i] may alias A[4i]: the pack must die.
        live.invalidate_written(ids_of(table, [w]))
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
        """Invalidation reads the table's alias bitsets and touches only
        the packs holding a set bit, yet leaves exactly the packs, in
        the same order, that testing every lane of every live pack with
        the key rule leaves."""
        table = OperandTable(LANE_KEYS)
        live = LiveSuperwordSet(table)
        scan = {}
        for is_write, keys in steps:
            if is_write:
                live.invalidate_written(ids_of(table, keys))
                for data in [
                    data
                    for data, ordered in scan.items()
                    if any(keys_may_alias(a, w) for a in ordered for w in keys)
                ]:
                    del scan[data]
            else:
                live.insert(ids_of(table, keys))
                scan[pack_data(keys)] = tuple(keys)
            assert live.packs() == tuple(
                ids_of(table, ordered) for ordered in scan.values()
            )


class TestKeysMayAlias:
    """The oracle rule, and the table's bitsets agreeing with it."""

    def agrees(self, a, b):
        table = OperandTable([a, b])
        expected = keys_may_alias(a, b)
        assert bool((table.alias[table.ids[a]] >> table.ids[b]) & 1) == expected
        return expected

    def test_vars_alias_by_name(self):
        assert self.agrees(("var", "x"), ("var", "x"))
        assert not self.agrees(("var", "x"), ("var", "y"))

    def test_var_never_aliases_ref(self):
        assert not self.agrees(("var", "x"), ("ref", "A", (Affine.of(0),)))

    def test_refs_with_const_delta_do_not_alias(self):
        a = ("ref", "A", (Affine.of(0, i=1),))
        b = ("ref", "A", (Affine.of(5, i=1),))
        assert not self.agrees(a, b)
        # Unequal coefficients may meet (A[2i] and A[3i + 4] at i = 4),
        # and so may unequal ranks.
        assert self.agrees(
            ("ref", "A", (Affine.of(0, i=2),)),
            ("ref", "A", (Affine.of(4, i=3),)),
        )
        assert self.agrees(a, ("ref", "A", (Affine.of(5, i=1), Affine.of(0))))


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

    def test_unit_graph_matches_pairwise_group_depends(self):
        """On every kernel block at unroll 4 x 512 bits (37 unit edges
        in all), the unit graph built from OR-ed successor bitsets has
        exactly the edges of the pairwise ``group_depends`` test."""
        from repro.bench.kernels import ALL_KERNELS
        from repro.transform import if_convert_program, unroll_program

        edges = 0
        for kernel in ALL_KERNELS:
            program = unroll_program(
                if_convert_program(kernel.build(16)), 512, 4
            )
            for block in program.blocks():
                deps = DependenceGraph(block)
                units, _ = iterative_grouping(block, deps, 512)
                edges += unit_graph_edges(Scheduler(block, deps, units), deps)
        assert edges == 37


def unit_graph_edges(scheduler, deps):
    """Check the scheduler's unit graph against the pairwise
    ``group_depends`` test; returns its edge count."""
    graph = scheduler.graph
    edges = 0
    for i, a in enumerate(graph.units):
        for j, b in enumerate(graph.units):
            expected = i != j and deps.group_depends(a.sid_set, b.sid_set)
            assert (j in graph.succ[i]) == expected
            assert (i in graph.pred[j]) == expected
            edges += expected
    return edges


# ---------------------------------------------------------------------------
# The key rule as the oracle of both live sets' invalidation
# ---------------------------------------------------------------------------


def expected_drops(table, live, written):
    """The live packs (ids of ``table``) the key rule kills on a write
    of ``written`` (ids)."""
    keys = table.keys
    written_keys = [keys[w] for w in written]
    return {
        pack
        for pack in live
        if any(keys_may_alias(keys[i], w) for i in pack for w in written_keys)
    }


def item_targets(schedule):
    """Each item's written keys, in lane order."""
    out = []
    for item in schedule.items:
        if isinstance(item, SuperwordStatement):
            out.append(tuple(operand_key(m.target) for m in item.members))
        else:
            out.append((operand_key(item.statement.target),))
    return out


def check_writes(table, calls, schedule):
    """``calls`` holds one ``(live before, written, live after)`` per
    invalidation: one per schedule item, writing the item's targets,
    each dropping exactly what the key rule drops."""
    assert [
        tuple(table.keys[w] for w in written) for _, written, _ in calls
    ] == item_targets(schedule)
    dropped = 0
    for before, written, after in calls:
        assert set(after) <= set(before)
        assert set(before) - set(after) == expected_drops(
            table, before, written
        )
        dropped += len(before) - len(after)
    return dropped


def scheduler_writes(block, deps, units):
    """Run the scheduler, recording every live-set invalidation."""
    scheduler = Scheduler(block, deps, units)
    live = scheduler.live
    invalidate = live.invalidate_written
    calls = []

    def watched(written):
        written = tuple(written)
        before = dict(live._live)
        invalidate(written)
        calls.append((before, written, dict(live._live)))

    live.invalidate_written = watched
    schedule = scheduler.run()
    return scheduler.table, calls, schedule


def codegen_writes(program, schedule, operands=None):
    """Emit ``schedule``, recording every live-pack invalidation."""
    from repro.layout import default_scalar_layout
    from repro.vm import VectorCodegen, intel_dunnington

    codegen = VectorCodegen(
        program, intel_dunnington(), default_scalar_layout(program), None
    )
    invalidate = codegen._invalidate
    calls = []

    def watched(written):
        written = tuple(written)
        before = dict(codegen._live)
        invalidate(written)
        calls.append((before, written, dict(codegen._live)))

    codegen._invalidate = watched
    codegen.compile(schedule, operands)
    return codegen.operands, calls


#: Declarations for the random blocks: ``A`` also gets two-subscript
#: references (unequal ranks), which only the alias rule sees.
ORACLE_DECLS = "float A[64]; float M[8][8]; float a, b, c, d;"


@st.composite
def isomorphic_blocks(draw):
    """Blocks of ``x = y + z`` (scalar targets) and ``X = Y * Z`` (array
    targets) statements, so grouping finds superwords, over 1-D
    references whose subscripts differ by constants or coefficients
    (``A[2*i]`` against ``A[3*i + 4]``), 2-D references, two-subscript
    references to the 1-D ``A``, scalars and constants."""

    def leaf():
        kind = draw(st.sampled_from("aaamrssc"))
        if kind == "a":
            coeff = draw(st.sampled_from([1, 1, 2, 3]))
            const = draw(st.integers(min_value=0, max_value=4))
            return ArrayRef("A", (Affine.of(const, i=coeff),), FLOAT32)
        if kind == "m":
            return ArrayRef(
                "M",
                (
                    Affine.of(draw(st.integers(0, 1)), i=1),
                    Affine.of(draw(st.integers(0, 2))),
                ),
                FLOAT32,
            )
        if kind == "r":
            return ArrayRef(
                "A",
                (Affine.of(draw(st.integers(0, 2)), i=1), Affine.of(0)),
                FLOAT32,
            )
        if kind == "s":
            return Var(draw(st.sampled_from("abcd")), FLOAT32)
        return Const(float(draw(st.integers(1, 2))), FLOAT32)

    statements = []
    for sid in range(draw(st.integers(min_value=2, max_value=12))):
        if draw(st.booleans()):
            target = Var(draw(st.sampled_from("abcd")), FLOAT32)
            op = "+"
        else:
            target = leaf()
            while not isinstance(target, ArrayRef):
                target = leaf()
            op = "*"
        statements.append(Statement(sid, target, BinOp(op, leaf(), leaf())))
    return BasicBlock(statements)


def tolerant(value_ref):
    """``value_ref``, except that a reference whose rank differs from
    its declaration's flattens to the sum of its subscripts instead of
    raising: only the live-pack bookkeeping is under test."""
    from repro.vm.isa import MemRef

    def ref(leaf, program):
        if isinstance(leaf, ArrayRef) and len(leaf.subscripts) != len(
            program.arrays[leaf.array].shape
        ):
            return MemRef(leaf.array, sum(leaf.subscripts, Affine()))
        return value_ref(leaf, program)

    return ref


class TestInvalidationOracle:
    @given(block=isomorphic_blocks())
    @settings(max_examples=200, deadline=None)
    def test_scheduler_and_codegen_drop_what_the_key_rule_drops(
        self, block
    ):
        from unittest import mock

        from repro.vm import codegen

        deps = DependenceGraph(block)
        units, _ = iterative_grouping(block, deps, 128)
        unit_graph_edges(Scheduler(block, deps, units), deps)
        table, calls, schedule = scheduler_writes(block, deps, units)
        check_writes(table, calls, schedule)
        program = parse_program(ORACLE_DECLS)
        with mock.patch.object(
            codegen, "value_ref", tolerant(codegen.value_ref)
        ):
            for operands in (deps.operands, None):
                table, calls = codegen_writes(program, schedule, operands)
                check_writes(table, calls, schedule)

    def test_layout_rewritten_kernel_blocks(self, monkeypatch):
        """Every block the layout stage rewrites in the 20 kernels
        (Global+Layout at 128-512 bits): code generation's drops during
        the compile, and the scheduler's on the rewritten block, each
        equal the key rule's."""
        from repro import CompilerOptions, Variant, compile_program
        from repro import compiler
        from repro.bench.kernels import ALL_KERNELS
        from repro.vm import MACHINES, VectorCodegen

        rewritten = []
        apply = compiler.apply_array_layout

        def recording(block, schedule, plan):
            new_block, new_schedule = apply(block, schedule, plan)
            rewritten.append(new_schedule)
            return new_block, new_schedule

        emitted = []
        compile_schedule = VectorCodegen.compile
        invalidate = VectorCodegen._invalidate

        def compile_watched(self, schedule, operands=None):
            self._calls = []
            result = compile_schedule(self, schedule, operands)
            emitted.append((self.operands, self._calls, schedule))
            return result

        def invalidate_watched(self, written):
            written = tuple(written)
            before = dict(self._live)
            invalidate(self, written)
            self._calls.append((before, written, dict(self._live)))

        monkeypatch.setattr(compiler, "apply_array_layout", recording)
        monkeypatch.setattr(VectorCodegen, "compile", compile_watched)
        monkeypatch.setattr(VectorCodegen, "_invalidate", invalidate_watched)
        machine = MACHINES["intel"]()
        for kernel in ALL_KERNELS:
            program = kernel.build(16)
            for bits in (128, 256, 512):
                compile_program(
                    program,
                    Variant.GLOBAL_LAYOUT,
                    machine,
                    CompilerOptions(datapath_bits=bits),
                )
        codegen_drops = sum(
            check_writes(table, calls, schedule)
            for table, calls, schedule in emitted
        )
        for schedule in rewritten:
            block = schedule.block
            units = []
            for item in schedule.items:
                if isinstance(item, SuperwordStatement):
                    node = GroupNode.of_statement(item.members[0])
                    for member in item.members[1:]:
                        node = GroupNode.merge(
                            node, GroupNode.of_statement(member)
                        )
                else:
                    assert isinstance(item, ScheduledSingle)
                    node = GroupNode.of_statement(item.statement)
                units.append(node)
            table, calls, again = scheduler_writes(
                block, DependenceGraph(block), units
            )
            check_writes(table, calls, again)
        # 8 kernels get replicas at these widths (sp only at 1024 bits,
        # which this test leaves out for time). No write of a rewritten
        # block hits a pack the scheduler holds live: there the checks
        # see the rule and the scheduler both drop nothing.
        assert len(rewritten) == 21
        assert codegen_drops > 0

