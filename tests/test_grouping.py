"""The grouping machinery: candidates, the VP graph, auxiliary-graph
weights (including the paper's 2/3 example), and decision updates."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CompilerOptions, Variant, compile_program
from repro.analysis import DependenceGraph
from repro.bench import ALL_KERNELS, KERNELS, intel_dunnington
from repro.ir import parse_block
from repro.slp import (
    BasicGrouping,
    GroupNode,
    VariablePackGraph,
    find_candidates,
)
from repro.slp.conflict import PackNode
from repro.slp.grouping import (
    COST_SCALE,
    GroupingTrace,
    cost_units,
    eliminate_conflicts,
    pack_adjacency_score,
    pack_is_contiguous_memory,
    pack_materialization_penalty,
    pack_reuse_saving,
)
from repro.slp.model import pack_data

DECLS = "float A[512]; float B[512]; float v1, v2, v3, v5, v7;"

# Figure 2's example block (the paper's figure is partially garbled in
# the source; this is the reconstruction consistent with Figures 4-6:
# candidate groups {S0,S1}, {S0,S2}, {S3,S4}, and weight 2/3 for
# {S3,S4}).
FIG2 = """
v1 = v3;
v2 = v5;
v5 = v7;
v3 = v1 + v1;
v5 = v2 + v5;
"""


def make(src, decls=DECLS):
    block = parse_block(src, decls)
    deps = DependenceGraph(block)
    units = [GroupNode.of_statement(s) for s in block]
    return block, deps, units


class TestCandidates:
    def test_isomorphic_independent_pairs_only(self):
        block, deps, units = make(
            "v1 = v3 + 0.0; v2 = v5 + 0.0; v3 = v1 * v1;"
        )
        candidates = find_candidates(units, deps, 128)
        sets = {tuple(sorted(c.sid_set)) for c in candidates}
        assert (0, 1) in sets         # isomorphic, independent
        assert (0, 2) not in sets     # not isomorphic (+ vs *), dependent
        assert (1, 2) not in sets

    def test_copies_not_isomorphic_to_adds(self):
        block, deps, units = make("v1 = v3; v2 = v5 + v7;")
        assert find_candidates(units, deps, 128) == []

    def test_dependent_pair_excluded(self):
        block, deps, units = make("v1 = v3 + 0.0; v2 = v1 + 0.0;")
        assert find_candidates(units, deps, 128) == []

    def test_datapath_width_respected(self):
        block, deps, units = make("v1 = v3 + 0.0; v2 = v5 + 0.0;")
        assert find_candidates(units, deps, 32) == []
        assert len(find_candidates(units, deps, 64)) == 1


class TestVariablePackGraph:
    def test_figure4_structure(self):
        block, deps, units = make(FIG2)
        candidates = find_candidates(units, deps, 64)
        vp = VariablePackGraph(candidates, deps)
        sets = {tuple(sorted(c.sid_set)) for c in candidates}
        assert sets == {(0, 1), (0, 2), (3, 4)}
        # Conflicting candidates: {S0,S1} and {S0,S2} share S0.
        i01 = next(
            i for i, c in enumerate(candidates)
            if sorted(c.sid_set) == [0, 1]
        )
        i02 = next(
            i for i, c in enumerate(candidates)
            if sorted(c.sid_set) == [0, 2]
        )
        i34 = next(
            i for i, c in enumerate(candidates)
            if sorted(c.sid_set) == [3, 4]
        )
        assert vp.candidates_conflict(i01, i02)
        assert not vp.candidates_conflict(i01, i34)
        # Each candidate contributes one node per operand position.
        assert all(len(vp.nodes_of_candidate(i)) >= 2 for i in (i01, i34))

    def test_remove_candidate_drops_nodes_and_edges(self):
        block, deps, units = make(FIG2)
        candidates = find_candidates(units, deps, 64)
        vp = VariablePackGraph(candidates, deps)
        before_nodes = len(vp.nodes)
        vp.remove_candidate(0)
        assert len(vp.nodes) < before_nodes
        assert vp.nodes_of_candidate(0) == []


class TestWeights:
    def test_paper_example_two_thirds(self):
        """Figure 6: the candidate {S3,S4} gets weight 2/3."""
        block, deps, units = make(FIG2)
        grouping = BasicGrouping(units, deps, 64)
        i34 = next(
            i
            for i, c in enumerate(grouping.candidates)
            if sorted(c.sid_set) == [3, 4]
        )
        assert grouping.weight(i34) == Fraction(2, 3)

    def test_weight_counts_decided_groups(self):
        block, deps, units = make(FIG2)
        grouping = BasicGrouping(units, deps, 64)
        i01 = next(
            i
            for i, c in enumerate(grouping.candidates)
            if sorted(c.sid_set) == [0, 1]
        )
        before = grouping.weight(
            next(
                i
                for i, c in enumerate(grouping.candidates)
                if sorted(c.sid_set) == [3, 4]
            )
        )
        grouping.decided.append(i01)
        grouping.decided_packs.extend(grouping.candidates[i01].packs)
        after = grouping.weight(
            next(
                i
                for i, c in enumerate(grouping.candidates)
                if sorted(c.sid_set) == [3, 4]
            )
        )
        # The decided group's packs still support {S3,S4}'s reuses.
        assert after >= before - Fraction(1, 100)


@st.composite
def aux_graphs(draw):
    """A random auxiliary graph at candidate granularity: bucket sizes
    1-3, a random, empty, complete, or cycle-shaped conflict relation
    (equal bucket sizes force degree ties), and node ranks drawn as a
    random canonical order."""
    m = draw(st.integers(min_value=0, max_value=9))
    shape = draw(st.sampled_from(["random", "empty", "complete", "cycle"]))
    if draw(st.booleans()):
        size = draw(st.integers(min_value=1, max_value=3))
        sizes = [size] * m
    else:
        sizes = [draw(st.integers(min_value=1, max_value=3)) for _ in range(m)]
    edges = set()
    for a in range(m):
        for b in range(a + 1, m):
            if (
                shape == "complete"
                or (shape == "cycle" and (b == a + 1 or (a, b) == (0, m - 1)))
                or (shape == "random" and draw(st.booleans()))
            ):
                edges.add((a, b))
    ranks = draw(st.permutations(range(sum(sizes))))
    buckets, start = [], 0
    for size in sizes:
        buckets.append(sorted(ranks[start:start + size]))
        start += size
    neighbors = [
        [b for b in range(m) if (min(a, b), max(a, b)) in edges]
        for a in range(m)
    ]
    return buckets, neighbors


class TestConflictElimination:
    @given(graph=aux_graphs())
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_candidate_elimination_matches_node_oracle(self, graph):
        """The candidate-granularity elimination the grouping loop runs
        removes exactly the nodes the node-level oracle removes, and in
        the order of Figure 7's rule: each victim has the largest
        (degree, canonical rank) among the nodes still in conflict."""
        buckets, neighbors = graph
        snapshot = ([list(b) for b in buckets], [list(r) for r in neighbors])
        victims = BasicGrouping._eliminate_aux_conflicts(buckets, neighbors)
        assert (buckets, neighbors) == snapshot  # inputs untouched

        # The same graph at node level; pack data sorts like the rank.
        node_of = {}
        for k, bucket in enumerate(buckets):
            for position, rank in enumerate(bucket):
                node_of[rank] = PackNode(
                    pack_data([("var", f"n{rank:03d}")]), k, position
                )
        adjacency = {
            node: {
                node_of[rank]
                for other in neighbors[node.candidate_index]
                for rank in buckets[other]
            }
            for node in node_of.values()
        }
        survivors = eliminate_conflicts(list(node_of.values()), adjacency)
        assert {node_of[r] for r in victims} == set(node_of.values()) - set(
            survivors
        )

        alive = set(node_of)
        for victim in victims:
            degree = {
                r: len(adjacency[node_of[r]] & {node_of[a] for a in alive})
                for r in alive
            }
            expected = max(
                (r for r in alive if degree[r] > 0),
                key=lambda r: (degree[r], r),
            )
            assert victim == expected
            alive.discard(victim)
        assert not any(
            adjacency[node_of[r]] & {node_of[a] for a in alive}
            for r in alive
        )

    @pytest.mark.parametrize("name", ["sp", "namd"])
    def test_cached_aux_graphs_match_node_oracle_across_commits(
        self, name, monkeypatch
    ):
        """Each round caches every candidate's auxiliary graph and only
        filters it as commits remove candidates. On the real rounds of a
        compile-wide cell (n=16, unroll 8 x 256-bit), driven commit by
        commit to the end, every active candidate's counts — before and
        after elimination — equal a from-scratch rebuild over the VP
        graph's live nodes with the node-level oracle."""
        from repro.slp import iterative

        rounds = []

        class Recording(BasicGrouping):
            def __init__(self, *args, **kwargs):
                rounds.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(iterative, "BasicGrouping", Recording)
        compile_program(
            KERNELS[name].build(16),
            Variant.GLOBAL,
            intel_dunnington().with_datapath(256),
            CompilerOptions(unroll_factor=8),
        )

        def from_scratch(grouping, index, eliminate):
            vp = grouping.vp
            packs = grouping.candidates[index].packs
            slots = sorted(set(packs))  # tid order is pack order
            nodes = [
                node
                for data in slots
                for node in vp.nodes_with_data(data)
                if node.candidate_index != index
                and not vp.candidates_conflict(index, node.candidate_index)
            ]
            if eliminate:
                adjacency = {
                    a: {
                        b
                        for b in nodes
                        if vp.candidates_conflict(
                            a.candidate_index, b.candidate_index
                        )
                    }
                    for a in nodes
                }
                nodes = eliminate_conflicts(nodes, adjacency)
            return [
                sum(node.data == data for node in nodes)
                + packs.count(data)
                + grouping.decided_packs.count(data)
                for data in slots
            ]

        commits = eliminated = 0
        for args, kwargs in rounds:
            grouping = BasicGrouping(*args, **kwargs)
            trace = GroupingTrace([])
            while grouping.active:
                scores = {}
                for index in range(len(grouping.candidates)):
                    if not (grouping.active >> index) & 1:
                        continue
                    decided = grouping._decided_counts
                    bound = grouping._counts_list(index, decided, False)
                    assert bound == from_scratch(grouping, index, False)
                    counts = grouping._counts_list(index, decided)
                    assert counts == from_scratch(grouping, index, True)
                    eliminated += counts != bound
                    scores[index] = grouping._score_from_list(index, counts)
                best = max(scores, key=lambda i: (scores[i], -i))
                grouping._commit(best, trace, grouping.weight(best))
                commits += 1
        # Both rounds ran, and elimination changed many counts.
        assert len(rounds) >= 2 and commits > len(rounds)
        assert eliminated > 100

    def test_removes_highest_degree_first(self):
        a = PackNode(pack_data([("var", "x"), ("var", "y")]), 0, 0)
        b = PackNode(pack_data([("var", "x"), ("var", "y")]), 1, 0)
        c = PackNode(pack_data([("var", "x"), ("var", "y")]), 2, 0)
        adjacency = {a: {b, c}, b: {a}, c: {a}}
        survivors = eliminate_conflicts([a, b, c], adjacency)
        assert a not in survivors
        assert set(survivors) == {b, c}

    def test_no_edges_keeps_everything(self):
        nodes = [
            PackNode(pack_data([("var", "x"), ("var", "y")]), i, 0)
            for i in range(3)
        ]
        survivors = eliminate_conflicts(nodes, {n: set() for n in nodes})
        assert set(survivors) == set(nodes)


class TestDecisions:
    def test_run_groups_everything_groupable(self):
        block, deps, units = make(FIG2)
        decided, leftovers, trace = BasicGrouping(units, deps, 64).run()
        grouped_sids = set()
        for group in decided:
            grouped_sids |= group.sid_set
        # {S0,S1} and {S0,S2} conflict: only one survives, plus {S3,S4}.
        assert len(decided) == 2
        assert frozenset({3, 4}) in {g.sid_set for g in decided}

    def test_trace_records_weights(self):
        block, deps, units = make(FIG2)
        _, _, trace = BasicGrouping(units, deps, 64).run()
        assert all(isinstance(w, Fraction) for _, w in trace.decisions)


class TestPackScores:
    def test_contiguous_memory_pack_scores_high(self):
        block = parse_block("v1 = A[0]; v2 = A[1];", DECLS)
        keys = [
            GroupNode.of_statement(s).positions[1][0] for s in block
        ]
        data = pack_data(keys)
        assert pack_adjacency_score(data, None) == 2
        assert pack_materialization_penalty(data, None) == 0.0

    def test_strided_memory_pack_penalized(self):
        block = parse_block("v1 = A[0]; v2 = A[7];", DECLS)
        keys = [
            GroupNode.of_statement(s).positions[1][0] for s in block
        ]
        data = pack_data(keys)
        assert pack_adjacency_score(data, None) == 0
        assert pack_materialization_penalty(data, None) > 0

    def test_splat_pack_is_free(self):
        data = pack_data([("var", "x"), ("var", "x")])
        assert pack_adjacency_score(data, None) == 1
        assert pack_materialization_penalty(data, None) == 0.0

    def test_scalar_pack_penalties(self):
        from repro.slp.grouping import (
            SCALAR_GATHER_PENALTY,
            SCALAR_SCATTER_PENALTY,
            PenaltyContext,
        )

        data = pack_data([("var", "x"), ("var", "y")])
        assert (
            pack_materialization_penalty(data, None)
            == SCALAR_GATHER_PENALTY
        )
        assert (
            pack_materialization_penalty(data, None, is_store=True)
            == SCALAR_SCATTER_PENALTY
        )
        # Known-contiguous arena slots make the pack free.
        context = PenaltyContext(
            scalar_slots=(
                ("x", ("float", 0)),
                ("y", ("float", 1)),
            )
        )
        assert pack_materialization_penalty(data, None, context) == 0.0

    def test_reuse_saving_scales_with_pack_cost(self):
        from repro.slp.grouping import pack_reuse_saving

        const_pack = pack_data(
            [("const", "float", 1.0), ("const", "float", 2.0)]
        )
        scalar_pack = pack_data([("var", "x"), ("var", "y")])
        assert pack_reuse_saving(const_pack, None) == 0.0
        assert pack_reuse_saving(scalar_pack, None) > 0.0


class TestPackCostModel:
    def test_cost_units_are_exact_quarters(self):
        assert cost_units(0.25) == 1
        assert cost_units(3.0) == 3 * COST_SCALE
        with pytest.raises(ValueError, match="multiple of 1/4"):
            cost_units(0.1)

    @given(
        lanes=st.lists(
            st.tuples(
                st.sampled_from(["A", "A", "B"]),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=2,
            max_size=4,
        ),
        two_d=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_contiguity_matches_oracle(self, lanes, two_d):
        """Flattened-offset contiguity agrees with
        ``pack_is_contiguous_memory`` on packs of mixed arrays, strides,
        index coefficients and shapes."""
        from types import SimpleNamespace

        from repro.ir import Affine
        from repro.slp.grouping import PackCostModel

        shape = (4, 8) if two_d else (64,)
        decl = SimpleNamespace(shape=shape)
        keys = []
        for array, ci, cj, const in lanes:
            if two_d:
                subscripts = (
                    Affine.of(const % 4, i=ci),
                    Affine.of(const, j=cj),
                )
            else:
                subscripts = (Affine.of(const, i=ci, j=cj),)
            keys.append(("ref", array, subscripts))
        data = pack_data(keys)
        model = PackCostModel(lambda name: decl)
        assert model.contiguous(data) == pack_is_contiguous_memory(
            data, lambda name: decl
        )

    @pytest.mark.parametrize("unroll", [None, 8])
    def test_costs_match_exact_fractions_on_kernel_packs(
        self, unroll, monkeypatch
    ):
        """Every pack type the kernels produce, at the paper
        configuration and at unroll 8, under both the Global and the
        Global+Layout penalty contexts: the integer costs are the exact
        float costs in units of 1/COST_SCALE, and the cached contiguity
        agrees with ``pack_is_contiguous_memory``."""
        from repro.slp import iterative

        seen = {}

        class Recording(BasicGrouping):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                packs = seen.setdefault(id(self.cost), (self.cost, set()))[1]
                packs.update(self.vp.pack_types)

        monkeypatch.setattr(iterative, "BasicGrouping", Recording)
        machine = intel_dunnington()
        options = CompilerOptions(unroll_factor=unroll)
        for kernel in ALL_KERNELS:
            program = kernel.build(16)
            for variant in (Variant.GLOBAL, Variant.GLOBAL_LAYOUT):
                compile_program(program, variant, machine, options)

        checked = 0
        for model, packs in seen.values():
            decl_of, context = model.decl_of, model.context
            for data in packs:
                def units(value):
                    exact = Fraction(value).limit_denominator(8) * COST_SCALE
                    assert exact.denominator == 1
                    return int(exact)

                assert model.contiguous(data) == pack_is_contiguous_memory(
                    data, decl_of
                )
                assert model.saving(data) == units(
                    pack_reuse_saving(data, decl_of, context)
                )
                for is_store in (False, True):
                    assert model.build(data, is_store) == units(
                        pack_materialization_penalty(
                            data, decl_of, context, is_store=is_store
                        )
                    )
                assert model.adjacency(data) == pack_adjacency_score(
                    data, decl_of
                )
                checked += 1
        assert checked > 1000
