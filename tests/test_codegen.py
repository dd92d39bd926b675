"""Vector code generation: reuse, shuffles, pack/store mode
classification, hoisting, and sound invalidation."""

import pytest

from repro.analysis import DependenceGraph
from repro.ir import parse_block, parse_program
from repro.layout import default_scalar_layout
from repro.slp import holistic_slp_schedule
from repro.vm import (
    PackMode,
    ScalarExec,
    StoreMode,
    VOp,
    VPack,
    VShuffle,
    VStore,
    VectorCodegen,
    intel_dunnington,
)

DECLS = """
float A[512]; float B[512]; float C[512];
float a, b, c, d, p, q;
"""


def compile_src(src, datapath=64, innermost=None):
    program = parse_program(DECLS + src)
    block = next(iter(program.blocks()))
    deps = DependenceGraph(block)
    schedule = holistic_slp_schedule(
        block, deps, datapath, lambda n: program.arrays[n]
    )
    codegen = VectorCodegen(
        program, intel_dunnington(), default_scalar_layout(program), innermost
    )
    preheader, body = codegen.compile(schedule)
    return codegen, preheader, body


def of_type(instrs, kind):
    return [i for i in instrs if isinstance(i, kind)]


class TestPackModes:
    def test_contiguous_aligned_load(self):
        _, _, body = compile_src("B[0] = A[0] + p; B[1] = A[1] + p;")
        packs = of_type(body, VPack)
        assert any(p.mode is PackMode.CONTIG_ALIGNED for p in packs)

    def test_contiguous_unaligned_load(self):
        _, _, body = compile_src("B[0] = A[1] + p; B[1] = A[2] + p;")
        packs = of_type(body, VPack)
        assert any(p.mode is PackMode.CONTIG_UNALIGNED for p in packs)

    def test_strided_gather(self):
        _, _, body = compile_src("B[0] = A[0] + p; B[1] = A[9] + p;")
        packs = of_type(body, VPack)
        assert any(p.mode is PackMode.GATHER for p in packs)

    def test_scalar_broadcast(self):
        _, _, body = compile_src("B[0] = A[0] * p; B[1] = A[1] * p;")
        packs = of_type(body, VPack)
        assert any(p.mode is PackMode.BROADCAST for p in packs)

    def test_immediate_vector(self):
        _, _, body = compile_src("B[0] = A[0] * 2.0; B[1] = A[1] * 3.0;")
        packs = of_type(body, VPack)
        assert any(p.mode is PackMode.IMMEDIATE for p in packs)

    def test_scalar_contig_uses_arena_layout(self):
        # a and b are declared adjacently: slots 0 and 1.
        _, _, body = compile_src("B[0] = a + A[0]; B[1] = b + A[1];")
        packs = of_type(body, VPack)
        assert any(p.mode is PackMode.SCALAR_CONTIG for p in packs)

    def test_scalar_gather_when_not_adjacent(self):
        _, _, body = compile_src("B[0] = a + A[0]; B[1] = q + A[1];")
        packs = of_type(body, VPack)
        assert any(p.mode is PackMode.SCALAR_GATHER for p in packs)


class TestStoreModes:
    def test_contiguous_store(self):
        _, _, body = compile_src("B[0] = A[0] + p; B[1] = A[1] + p;")
        stores = of_type(body, VStore)
        assert stores[0].mode is StoreMode.CONTIG_ALIGNED

    def test_scatter_store(self):
        _, _, body = compile_src("B[0] = A[0] + p; B[9] = A[1] + p;")
        stores = of_type(body, VStore)
        assert any(s.mode is StoreMode.SCATTER for s in stores)

    def test_scalar_contig_store(self):
        _, _, body = compile_src("a = A[0] + p; b = A[1] + p;")
        stores = of_type(body, VStore)
        assert any(s.mode is StoreMode.SCALAR_CONTIG for s in stores)


class TestReuse:
    def test_direct_reuse_emits_nothing(self):
        codegen, _, body = compile_src(
            """
            a = A[0]; b = A[1];
            B[0] = a * p; B[1] = b * p;
            """
        )
        assert codegen.reuse_hits >= 1
        # <a, b> must not be packed twice.
        scalar_packs = [
            i
            for i in of_type(body, VPack)
            if i.mode in (PackMode.SCALAR_CONTIG, PackMode.SCALAR_GATHER)
        ]
        assert len(scalar_packs) == 0  # reused from the vload result

    def test_write_invalidates_live_pack(self):
        """After <a,b> is redefined, a later use must re-materialize."""
        codegen, _, body = compile_src(
            """
            a = A[0]; b = A[1];
            B[0] = a * p; B[1] = b * p;
            a = A[8]; b = A[9];
            C[0] = a * p; C[1] = b * p;
            """
        )
        # The second <a,b> use must come from the second load's result,
        # not the first: count the VOp consuming each.
        stores = of_type(body, VStore)
        assert len(stores) >= 4

    def test_scheduler_prefers_direct_reuse_over_shuffle(self):
        codegen, _, body = compile_src(
            """
            a = A[0]; b = A[1];
            B[0] = a * p; B[1] = b * p;
            B[2] = b * q; B[3] = a * q;
            """
        )
        # The scheduler reorders the last group's lanes so <a,b> is a
        # direct reuse: no shuffle is needed at all.
        assert not of_type(body, VShuffle)
        assert codegen.reuse_hits >= 2

    def test_shuffle_for_reordered_reuse(self):
        """With lane orders pinned, a reversed source pack must come
        from the live register via one VShuffle, not from memory."""
        from repro.slp import Schedule, SuperwordStatement

        program = parse_program(
            DECLS
            + "B[0] = a * p; B[1] = b * p;"
            + "C[0] = b * q; C[1] = a * q;"
        )
        block = next(iter(program.blocks()))
        schedule = Schedule(block)
        schedule.items = [
            SuperwordStatement((block[0], block[1])),  # sources (a, b)
            SuperwordStatement((block[2], block[3])),  # sources (b, a)
        ]
        codegen = VectorCodegen(
            program,
            intel_dunnington(),
            default_scalar_layout(program),
            None,
        )
        _, body = codegen.compile(schedule)
        shuffles = of_type(body, VShuffle)
        assert len(shuffles) == 1
        assert shuffles[0].perm == (1, 0)
        assert codegen.shuffle_reuses == 1


class TestHoisting:
    def test_invariant_pack_goes_to_preheader(self):
        _, preheader, body = compile_src(
            "B[0] = A[0] * p; B[1] = A[1] * q;",
            innermost="i",
        )
        assert any(isinstance(i, VPack) for i in preheader)

    def test_varying_pack_stays_in_body(self):
        program = parse_program(
            DECLS
            + "for (i = 0; i < 8; i += 1) {"
            "  B[2*i] = A[2*i] + p; B[2*i + 1] = A[2*i + 1] + p; }"
        )
        loop = next(iter(program.loops()))
        deps = DependenceGraph(loop.body)
        schedule = holistic_slp_schedule(
            loop.body, deps, 64, lambda n: program.arrays[n]
        )
        codegen = VectorCodegen(
            program,
            intel_dunnington(),
            default_scalar_layout(program),
            "i",
        )
        preheader, body = codegen.compile(schedule)
        mem_packs = [
            i
            for i in body
            if isinstance(i, VPack)
            and i.mode
            in (PackMode.CONTIG_ALIGNED, PackMode.CONTIG_UNALIGNED)
        ]
        assert mem_packs, "loop-varying loads must stay in the body"

    def test_no_hoisting_for_straight_blocks(self):
        _, preheader, body = compile_src(
            "B[0] = A[0] * p; B[1] = A[1] * q;", innermost=None
        )
        assert preheader == []


class TestScalarStatements:
    def test_single_compiles_to_scalar_exec(self):
        _, _, body = compile_src("a = A[0] / p;")
        assert isinstance(body[0], ScalarExec)
        assert body[0].ops == ("/",)

    def test_vop_tree_matches_expression(self):
        _, _, body = compile_src(
            "B[0] = A[0] * p + a; B[1] = A[1] * p + a;"
        )
        ops = [i.op for i in of_type(body, VOp)]
        assert ops == ["*", "+"]


def one_dimensional_refs(program):
    """Every one-dimensional array reference a statement of the program
    reads or writes."""
    from repro.ir import ArrayRef

    for block in program.blocks():
        for stmt in block:
            for leaf in (stmt.target, *stmt.expr.leaves()):
                if isinstance(leaf, ArrayRef) and len(leaf.subscripts) == 1:
                    yield leaf


class TestValueRefFlat:
    """``value_ref`` takes a one-dimensional reference's subscript as
    its flat instead of folding it through ``flat_affine``; both must be
    the same ``Affine`` on every program codegen sees — if-converted
    and unrolled kernels and fuzz cases."""

    def programs(self):
        from repro.bench.kernels import ALL_KERNELS
        from repro.fuzz import generate_case

        for kernel in ALL_KERNELS:
            yield kernel.build(16)
        for seed in range(40):
            yield generate_case(seed, conditional=seed % 2 == 1).program

    def test_flat_equals_flat_affine(self):
        from repro.analysis.alignment import flat_affine
        from repro.errors import IRError
        from repro.transform.if_convert import if_convert_program
        from repro.transform.unroll import unroll_program
        from repro.vm import value_ref

        checked = 0
        for source in self.programs():
            converted = if_convert_program(source)
            for factor in (1, 2, 3, 4, 8):
                try:
                    program = unroll_program(converted, 128, factor)
                except IRError:
                    continue  # a nest whose inner trips the factor splits
                for ref in one_dimensional_refs(program):
                    decl = program.arrays[ref.array]
                    assert value_ref(ref, program).flat == flat_affine(
                        ref, decl
                    ), (source.name, factor, ref)
                    checked += 1
        assert checked > 10_000
