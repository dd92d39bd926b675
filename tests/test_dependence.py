"""Intra-block dependence analysis: flow/anti/output, alias tests,
group-level relations, and the operand table behind them, checked
against the pairwise rule."""

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    DepKind,
    Dependence,
    DependenceGraph,
    OperandTable,
    operand_key,
    refs_may_alias,
    refs_must_alias,
)
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
)
from repro.slp.model import pack_data

from .test_grouping import SCALAR_DECLS, scalar_blocks

DECLS = "float A[256]; float B[256]; float a, b, c;"


def graph(src):
    return DependenceGraph(parse_block(src, DECLS))


def ref(array, **coeffs):
    const = coeffs.pop("const", 0)
    return ArrayRef(array, (Affine.of(const, **coeffs),), FLOAT32)


class TestAliasTests:
    def test_same_affine_must_alias(self):
        assert refs_must_alias(ref("A", i=4), ref("A", i=4))

    def test_different_array_never_aliases(self):
        assert not refs_may_alias(ref("A", i=4), ref("B", i=4))

    def test_constant_offset_difference_proves_independence(self):
        assert not refs_may_alias(ref("A", i=4), ref("A", i=4, const=3))

    def test_different_coefficients_may_alias(self):
        # A[4i] and A[2i] coincide at i = 0.
        assert refs_may_alias(ref("A", i=4), ref("A", i=2))
        assert not refs_must_alias(ref("A", i=4), ref("A", i=2))


class TestScalarDependences:
    def test_flow_dependence(self):
        g = graph("a = b + 1.0; c = a * 2.0;")
        kinds = {(d.src, d.dst, d.kind) for d in g.edges}
        assert (0, 1, DepKind.FLOW) in kinds

    def test_anti_dependence(self):
        g = graph("c = a * 2.0; a = b + 1.0;")
        kinds = {(d.src, d.dst, d.kind) for d in g.edges}
        assert (0, 1, DepKind.ANTI) in kinds

    def test_output_dependence(self):
        g = graph("a = b + 1.0; a = c + 2.0;")
        kinds = {(d.src, d.dst, d.kind) for d in g.edges}
        assert (0, 1, DepKind.OUTPUT) in kinds

    def test_independent_statements(self):
        g = graph("a = b + 1.0; c = b + 2.0;")
        assert g.independent(0, 1)


class TestArrayDependences:
    def test_provably_distinct_elements_independent(self):
        g = graph("A[0] = a; A[1] = b;")
        assert g.independent(0, 1)

    def test_may_alias_is_conservative(self):
        # A[0] vs A[0]: same element.
        g = graph("A[0] = a; b = A[0];")
        assert g.dependent(0, 1)

    def test_read_read_no_dependence(self):
        g = graph("a = A[0]; b = A[0];")
        assert g.independent(0, 1)


class TestGroupLevel:
    def test_group_depends_direction(self):
        g = graph("a = b + 1.0; c = a * 2.0; A[0] = c;")
        assert g.group_depends(frozenset({0}), frozenset({1}))
        assert not g.group_depends(frozenset({1}), frozenset({0}))

    def test_groups_conflict_on_shared_statement(self):
        g = graph("a = b + 1.0; c = b + 2.0; A[0] = b;")
        assert g.groups_conflict(frozenset({0, 1}), frozenset({1, 2}))

    def test_groups_conflict_on_dependence_cycle(self):
        # S0 -> S1 (flow on a), S2 -> S3 (flow on b): grouping {S0,S3}
        # with {S1,S2} creates a cycle.
        g = graph(
            "a = b + 1.0;"   # S0
            "c = a * 2.0;"   # S1 depends on S0
            "b = c + 3.0;"   # S2 depends on S1 (and anti on S0)
            "A[0] = b;"      # S3 depends on S2
        )
        assert g.groups_conflict(frozenset({0, 3}), frozenset({1, 2}))

    def test_predecessors_and_successors(self):
        g = graph("a = b + 1.0; c = a * 2.0;")
        assert g.successors(0) == frozenset({1})
        assert g.predecessors(1) == frozenset({0})


# -- the pairwise oracle -------------------------------------------------------
#
# ``DependenceGraph`` decides every statement pair with bitset ANDs over
# the block's operand table. The rule it must reproduce is the literal
# pairwise test below: walk one statement's expression leaves against
# the other's target.


def _writes_conflict(a, b):
    ta, tb = a.target, b.target
    if isinstance(ta, Var) and isinstance(tb, Var):
        return ta.name == tb.name
    if isinstance(ta, ArrayRef) and isinstance(tb, ArrayRef):
        return refs_may_alias(ta, tb)
    return False


def _read_write_conflict(reader, writer):
    target = writer.target
    for leaf in reader.expr.leaves():
        if isinstance(target, Var) and isinstance(leaf, Var):
            if leaf.name == target.name:
                return True
        elif isinstance(target, ArrayRef) and isinstance(leaf, ArrayRef):
            if refs_may_alias(leaf, target):
                return True
    return False


def oracle_edges(block):
    """Every dependence of ``block`` by the pairwise rule, earlier
    statement first, then later statement, then FLOW, ANTI, OUTPUT."""
    statements = list(block)
    edges = []
    for i, earlier in enumerate(statements):
        for later in statements[i + 1:]:
            if _read_write_conflict(later, earlier):
                edges.append(Dependence(earlier.sid, later.sid, DepKind.FLOW))
            if _read_write_conflict(earlier, later):
                edges.append(Dependence(earlier.sid, later.sid, DepKind.ANTI))
            if _writes_conflict(earlier, later):
                edges.append(
                    Dependence(earlier.sid, later.sid, DepKind.OUTPUT)
                )
    return edges


def assert_matches_oracle(block):
    deps = DependenceGraph(block)
    edges = oracle_edges(block)
    assert deps.edges == edges
    sids = [stmt.sid for stmt in block]
    for sid in sids:
        assert deps.successors(sid) == {e.dst for e in edges if e.src == sid}
        assert deps.predecessors(sid) == {
            e.src for e in edges if e.dst == sid
        }
    linked = {frozenset((e.src, e.dst)) for e in edges}
    for a in sids:
        for b in sids:
            assert deps.dependent(a, b) == (frozenset((a, b)) in linked)
    return edges


SUBSCRIPTS_2D = st.builds(
    lambda ci, ki, cj, kj: (Affine.of(ki, i=ci), Affine.of(kj, j=cj)),
    st.sampled_from([1, 1, 2]),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([0, 1, 1, 3]),
    st.integers(min_value=0, max_value=2),
)


@st.composite
def array_blocks(draw):
    """Blocks over 1-D and 2-D array references whose subscripts differ
    by constants, by coefficients, or not at all, plus scalars and
    constants; some statements reuse one sid order out of sequence."""
    def leaf():
        kind = draw(st.sampled_from(["a", "a", "b", "s", "c"]))
        if kind == "a":
            ci = draw(st.sampled_from([1, 1, 2, 4]))
            k = draw(st.integers(min_value=0, max_value=3))
            return ArrayRef("A", (Affine.of(k, i=ci),), FLOAT32)
        if kind == "b":
            return ArrayRef("B", draw(SUBSCRIPTS_2D), FLOAT32)
        if kind == "s":
            return Var(draw(st.sampled_from(["a", "b", "c"])), FLOAT32)
        return Const(float(draw(st.integers(0, 2))), FLOAT32)

    count = draw(st.integers(min_value=2, max_value=10))
    order = draw(st.permutations(range(count)))
    stmts = []
    for sid in order:
        target = leaf()
        while isinstance(target, Const):
            target = leaf()
        expr = leaf()
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            expr = BinOp(draw(st.sampled_from("+*")), expr, leaf())
        stmts.append(Statement(sid, target, expr))
    return BasicBlock(stmts)


class TestPairwiseOracle:
    @given(source=scalar_blocks())
    @settings(max_examples=150, deadline=None)
    def test_edges_match_oracle_on_scalar_blocks(self, source):
        assert_matches_oracle(parse_block(source, SCALAR_DECLS))

    @given(block=array_blocks())
    @settings(max_examples=150, deadline=None)
    def test_edges_match_oracle_on_array_blocks(self, block):
        assert_matches_oracle(block)

    def test_edges_match_oracle_on_compile_wide_cells(self):
        """Every block of the 20 kernels at the compile-wide grid's
        unroll x datapath cells (n=16)."""
        from repro.bench import ALL_KERNELS
        from repro.transform import if_convert_program, unroll_program

        cells = pairs = edges = 0
        for kernel in ALL_KERNELS:
            program = if_convert_program(kernel.build(16))
            for unroll in (4, 8):
                for datapath in (256, 512, 1024):
                    unrolled = unroll_program(program, datapath, unroll)
                    for block in unrolled.blocks():
                        edges += len(assert_matches_oracle(block))
                        pairs += len(block) * (len(block) - 1) // 2
                    cells += 1
        # The grid's blocks hold 35,670 statement pairs, 1,620 of them
        # dependent.
        assert cells == 120 and pairs > 30_000 and edges > 1_000


class TestOperandTable:
    @given(block=array_blocks(), picks=st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_id_tuples_sort_and_decode_like_packs(self, block, picks):
        """Sorting id tuples orders them exactly like their key tuples,
        and decoding a sorted id tuple returns the pack."""
        table = DependenceGraph(block).operands
        keys = [
            operand_key(leaf) for s in block for leaf in s.operand_positions()
        ]
        assert table.keys == sorted(set(keys))
        packs = [
            pack_data(picks.choices(keys, k=picks.randint(1, 4)))
            for _ in range(12)
        ]
        encoded = [table.encode(pack) for pack in packs]
        assert [table.decode(ids) for ids in encoded] == packs
        assert [table.decode(ids) for ids in sorted(encoded)] == sorted(packs)
        for sid, row in table.rows.items():
            positions = block[sid].operand_positions()
            assert table.decode(row) == tuple(map(operand_key, positions))

    @given(block=array_blocks())
    @settings(max_examples=100, deadline=None)
    def test_alias_bits_match_refs_may_alias(self, block):
        table = DependenceGraph(block).operands
        for i, a in enumerate(table.keys):
            for j, b in enumerate(table.keys):
                if a[0] == b[0] == "ref":
                    expected = refs_may_alias(
                        ArrayRef(a[1], a[2], FLOAT32),
                        ArrayRef(b[1], b[2], FLOAT32),
                    )
                else:
                    expected = a[0] == b[0] == "var" and a == b
                assert bool((table.alias[i] >> j) & 1) == expected

    def test_mixed_rank_references_may_alias(self):
        one = ("ref", "A", (Affine.of(0, i=1),))
        two = ("ref", "A", (Affine.of(1, i=1), Affine.of(0)))
        table = OperandTable([one, two])
        assert table.alias == [0b11, 0b11]
