"""Basic blocks, loops, programs, operand keys."""

import pickle

import pytest

from repro.analysis import (
    is_const_key,
    is_memory_key,
    is_scalar_key,
    operand_key,
)
from repro.errors import IRError
from repro.ir import (
    Affine,
    ArrayRef,
    BasicBlock,
    BinOp,
    Const,
    FLOAT32,
    IfRegion,
    Loop,
    Program,
    Statement,
    Var,
)


def stmt(sid, name="a"):
    return Statement(
        sid, Var(name, FLOAT32), Const(float(sid), FLOAT32)
    )


class TestBasicBlock:
    def test_append_and_lookup(self):
        block = BasicBlock([stmt(0), stmt(1, "b")])
        assert len(block) == 2
        assert block[1].target.name == "b"
        assert block.position(1) == 1

    def test_duplicate_sid_rejected(self):
        with pytest.raises(ValueError):
            BasicBlock([stmt(0), stmt(0)])

    def test_duplicate_sid_rejected_by_append(self):
        block = BasicBlock([stmt(0)])
        with pytest.raises(IRError):
            block.append(stmt(0, "b"))
        assert len(block) == 1
        block.append(stmt(1, "b"))

    def test_duplicate_sid_within_a_region_rejected(self):
        cond = BinOp("<", Var("c", FLOAT32), Const(0.0, FLOAT32))
        region = IfRegion(cond, (stmt(1, "x"),), (stmt(1, "y"),))
        with pytest.raises(IRError):
            BasicBlock([stmt(0), region])
        block = BasicBlock([stmt(0)])
        with pytest.raises(IRError):
            block.append(region)
        # A refused item claims none of its sids.
        block.append(stmt(1, "x"))

    def test_sids_survive_a_pickle_round_trip(self):
        """The sid set is derived state: a block pickles as its
        statement list alone, and the loaded block still refuses a
        duplicate sid."""
        block = BasicBlock([stmt(0), stmt(1, "b")])
        assert block.__getstate__() == {"statements": block.statements}
        loaded = pickle.loads(pickle.dumps(block))
        assert loaded == block
        with pytest.raises(IRError):
            loaded.append(stmt(1, "c"))
        loaded.append(stmt(2, "c"))
        assert [s.sid for s in loaded] == [0, 1, 2]

    def test_pop_releases_the_sids(self):
        block = BasicBlock([stmt(0), stmt(1, "b")])
        assert block.pop().sid == 1
        block.append(stmt(1, "c"))
        assert block[1].target.name == "c"

    def test_missing_sid_raises(self):
        block = BasicBlock([stmt(0)])
        with pytest.raises(KeyError):
            block[7]
        with pytest.raises(KeyError):
            block.position(7)

    def test_replace_statement(self):
        block = BasicBlock([stmt(0), stmt(1)])
        replacement = Statement(
            1, Var("z", FLOAT32), Const(9.0, FLOAT32)
        )
        updated = block.replace_statement(replacement)
        assert updated[1].target.name == "z"
        assert block[1].target.name == "a"  # original untouched

    def test_renumbered(self):
        block = BasicBlock([stmt(3), stmt(7)])
        fresh = block.renumbered()
        assert [s.sid for s in fresh] == [0, 1]


class TestLoop:
    def test_trip_count(self):
        body = BasicBlock([stmt(0)])
        assert Loop("i", 0, 10, 1, body).trip_count == 10
        assert Loop("i", 0, 10, 3, body).trip_count == 4
        assert Loop("i", 10, 10, 1, body).trip_count == 0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            Loop("i", 0, 10, -1, BasicBlock())

    def test_indices_and_innermost(self):
        inner = Loop("j", 0, 4, 1, BasicBlock([stmt(0)]))
        outer = Loop("i", 0, 4, 1, BasicBlock(), inner=inner)
        assert outer.indices() == ("i", "j")
        assert outer.innermost() is inner


class TestProgram:
    def test_declarations_unique(self):
        program = Program()
        program.declare_array("A", (8,), FLOAT32)
        with pytest.raises(ValueError):
            program.declare_scalar("A", FLOAT32)

    def test_blocks_iterates_loop_bodies(self):
        program = Program()
        inner = Loop("j", 0, 4, 1, BasicBlock([stmt(0)]))
        outer = Loop("i", 0, 4, 1, BasicBlock([stmt(0)]), inner=inner)
        program.add(outer)
        program.add(BasicBlock([stmt(0)]))
        assert len(list(program.blocks())) == 3

    def test_clone_shell_shares_decls_not_body(self):
        program = Program("p")
        program.declare_array("A", (8,), FLOAT32)
        program.add(BasicBlock([stmt(0)]))
        twin = program.clone_shell()
        assert "A" in twin.arrays
        assert twin.body == []

    def test_array_flatten_index(self):
        program = Program()
        decl = program.declare_array("M", (4, 8), FLOAT32)
        assert decl.flatten_index((2, 3)) == 19
        with pytest.raises(ValueError):
            decl.flatten_index((1,))


class TestOperandKeys:
    def test_var_key(self):
        key = operand_key(Var("x", FLOAT32))
        assert is_scalar_key(key)
        assert not is_memory_key(key)

    def test_ref_key_includes_subscripts(self):
        a = operand_key(ArrayRef("A", (Affine.of(0, i=4),), FLOAT32))
        b = operand_key(ArrayRef("A", (Affine.of(1, i=4),), FLOAT32))
        assert is_memory_key(a)
        assert a != b

    def test_const_key_by_value(self):
        a = operand_key(Const(2.0, FLOAT32))
        b = operand_key(Const(2.0, FLOAT32))
        assert a == b
        assert is_const_key(a)

    def test_interior_node_rejected(self):
        expr = BinOp("+", Var("x", FLOAT32), Var("y", FLOAT32))
        with pytest.raises(TypeError):
            operand_key(expr)
