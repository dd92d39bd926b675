"""The variable pack conflicting graph in isolation."""

import pytest

from repro.analysis import DependenceGraph
from repro.ir import parse_block
from repro.slp import GroupNode, VariablePackGraph, find_candidates

DECLS = "float A[256]; float w, x, y, z, u, v;"


def build_vp(src, datapath=64):
    block = parse_block(src, DECLS)
    deps = DependenceGraph(block)
    units = [GroupNode.of_statement(s) for s in block]
    candidates = find_candidates(units, deps, datapath)
    return VariablePackGraph(candidates, deps), candidates, deps


class TestConstruction:
    def test_one_node_per_position(self):
        vp, candidates, _ = build_vp("x = w + u; y = z + v;")
        assert len(candidates) == 1
        # positions: target, leaf0, leaf1.
        assert len(vp.nodes_of_candidate(0)) == 3
        assert len(vp.nodes) == 3
        assert vp.edge_count == 0

    def test_edges_between_conflicting_candidates(self):
        # {S0,S1} and {S0,S2} share S0.
        vp, candidates, _ = build_vp("x = w + u; y = z + v; z = w + v;")
        conflicts = [
            (i, j)
            for i in range(len(candidates))
            for j in range(i + 1, len(candidates))
            if vp.candidates_conflict(i, j)
        ]
        assert conflicts
        assert vp.edge_count > 0

    def test_dependence_cycle_conflicts(self):
        # {S0,S3} with {S1,S2} forms a cycle at group level.
        vp, candidates, deps = build_vp(
            "x = w + u;"
            "y = x + u;"
            "z = v + u;"
            "v = z + x;"
        )
        pairs = {tuple(sorted(c.sid_set)): i for i, c in enumerate(candidates)}
        if (0, 3) in pairs and (1, 2) in pairs:
            assert vp.candidates_conflict(pairs[(0, 3)], pairs[(1, 2)])


class TestQueries:
    def test_nodes_with_data_counts_multiplicity(self):
        # Two non-conflicting candidates both produce pack {u, v} at a
        # source position -> two nodes with the same data.
        vp, candidates, _ = build_vp(
            "x = u * 2.0; y = v * 2.0;"
            "w = u * 3.0; z = v * 3.0;"
        )
        from repro.slp.model import pack_data

        uv = vp.operands.encode(pack_data([("var", "u"), ("var", "v")]))
        matching = vp.nodes_with_data(uv)
        assert len(matching) >= 2

    def test_remove_candidate_clears_buckets(self):
        vp, candidates, _ = build_vp("x = w + u; y = z + v;")
        data = vp.nodes_of_candidate(0)[0].data
        assert vp.nodes_with_data(data)
        vp.remove_candidate(0)
        assert not vp.nodes_with_data(data)
        assert vp.edge_count == 0

    def test_coexistence_count(self):
        vp, candidates, _ = build_vp(
            "x = u * 2.0; y = v * 2.0;"
            "w = u * 3.0; z = v * 3.0;"
        )
        from repro.slp.model import pack_data

        uv = vp.operands.encode(pack_data([("var", "u"), ("var", "v")]))
        assert vp.coexistence_count(uv) >= 2


class TestPackNodeSemantics:
    def test_identity_hash(self):
        from repro.slp.conflict import PackNode
        from repro.slp.model import pack_data

        data = pack_data([("var", "u"), ("var", "v")])
        a = PackNode(data, 0, 0)
        b = PackNode(data, 0, 0)
        assert a != b  # identity, not structure
        assert len({a, b}) == 2

    def test_sort_key_is_stable(self):
        from repro.slp.conflict import PackNode
        from repro.slp.model import pack_data

        data = pack_data([("var", "u"), ("var", "v")])
        a = PackNode(data, 0, 1)
        b = PackNode(data, 0, 2)
        assert sorted([b, a], key=lambda n: n.sort_key()) == [a, b]
