"""The grouping machinery: candidates, the VP graph, auxiliary-graph
weights (including the paper's 2/3 example), and decision updates."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CompilerOptions, Variant, compile_program
from repro.analysis import DependenceGraph, OperandTable
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
    _BITSET,
    _BOUND,
    COST_SCALE,
    GroupingTrace,
    candidate_op_saving,
    cost_units,
    eliminate_conflicts,
    pack_adjacency_score,
    pack_is_contiguous_memory,
    pack_materialization_penalty,
    pack_reuse_saving,
)
from repro.slp.model import CandidateGroup, pack_data

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


def brute_force_candidates(units, deps, datapath_bits):
    """Every ``can_merge_with`` pair, the unit listed first as ``left``,
    sorted by ``CandidateGroup.key``: what ``find_candidates`` must
    return."""
    found = [
        CandidateGroup(a, b)
        for i, a in enumerate(units)
        for b in units[i + 1:]
        if a.can_merge_with(b, deps, datapath_bits)
    ]
    return sorted(found, key=CandidateGroup.key)


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

    @given(
        source=st.deferred(lambda: scalar_blocks()),
        picks=st.randoms(use_true_random=False),
        datapath=st.sampled_from([64, 128, 256]),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_brute_force_on_random_units(
        self, source, picks, datapath
    ):
        """On random blocks, and again after merging random disjoint
        isomorphic pairs of statements into two-statement units and
        shuffling the units (so they are neither in statement order nor
        all one size), the search returns exactly the brute-force list,
        each pair's left and right included."""
        block, deps, units = make(source, SCALAR_DECLS)
        assert find_candidates(units, deps, datapath) == (
            brute_force_candidates(units, deps, datapath)
        )
        pool = list(units)
        picks.shuffle(pool)
        mixed = []
        while len(pool) >= 2 and picks.random() < 0.7:
            a, b = pool.pop(), pool.pop()
            if a.signature == b.signature:
                mixed.append(GroupNode.merge(a, b))
            else:
                mixed += [a, b]
        mixed += pool
        picks.shuffle(mixed)
        assert find_candidates(mixed, deps, datapath) == (
            brute_force_candidates(mixed, deps, datapath)
        )

    def test_matches_brute_force_on_kernel_rounds(self, monkeypatch):
        """Every round of the 20 kernels at unroll 8 x 1024 bits (n=16,
        Global): the search equals the brute-force list. Later rounds
        pair merged groups and leftover statements, so their units are
        neither in statement order nor all one size."""
        from repro.slp import grouping as grouping_module

        checked = mixed = 0

        def checking(units, deps, datapath_bits):
            nonlocal checked, mixed
            found = find_candidates(units, deps, datapath_bits)
            assert found == brute_force_candidates(units, deps, datapath_bits)
            checked += 1
            mixed += len({unit.size for unit in units}) > 1
            return found

        monkeypatch.setattr(grouping_module, "find_candidates", checking)
        options = CompilerOptions(unroll_factor=8, datapath_bits=1024)
        for kernel in ALL_KERNELS:
            compile_program(
                kernel.build(16), Variant.GLOBAL, intel_dunnington(), options
            )
        assert checked > 40 and mixed > 10


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
    """A random auxiliary graph at candidate granularity: each candidate
    is a distinct pair of 2-6 units (candidates sharing a unit
    conflict), plus a few extra conflicts between candidates sharing no
    unit. Bucket sizes are 0-3 (0: a candidate that left the round;
    equal sizes force degree ties), and node ranks are drawn as a
    random canonical order."""
    n_units = draw(st.integers(min_value=2, max_value=6))
    pairs = draw(
        st.lists(
            st.sampled_from(
                [(a, b) for a in range(n_units) for b in range(a + 1, n_units)]
            ),
            unique=True,
            max_size=9,
        )
    )
    # Either order within a pair: the units are unordered.
    units = [pair[::-1] if draw(st.booleans()) else pair for pair in pairs]
    m = len(units)
    if draw(st.booleans()):
        size = draw(st.integers(min_value=1, max_value=3))
        sizes = [size] * m
    else:
        sizes = [draw(st.integers(min_value=0, max_value=3)) for _ in range(m)]
    apart = [
        (a, b)
        for a in range(m)
        for b in range(a + 1, m)
        if not set(units[a]) & set(units[b])
    ]
    extras = (
        draw(st.sets(st.sampled_from(apart), max_size=3)) if apart else set()
    )
    ranks = draw(st.permutations(range(sum(sizes))))
    buckets, start = [], 0
    for size in sizes:
        buckets.append(sorted(ranks[start:start + size]))
        start += size
    extra = [
        [b for b in range(m) if (min(a, b), max(a, b)) in extras]
        for a in range(m)
    ]
    return buckets, units, extra


def oracle_aux_counts(grouping, index, eliminate):
    """Per-slot node counts of candidate ``index``'s auxiliary graph,
    rebuilt from scratch over the VP graph's live nodes, after the
    node-level :func:`eliminate_conflicts` when ``eliminate``. The VP
    graph keys nodes by operand ids: the candidate's packs are encoded
    through the block's operand table, and each node's data is decoded
    back before it is counted."""
    vp = grouping.vp
    table = vp.operands
    slots = sorted(set(grouping.candidates[index].packs))  # tid order
    nodes = [
        node
        for data in slots
        for node in vp.nodes_with_data(table.encode(data))
        if node.candidate_index != index
        and not vp.candidates_conflict(index, node.candidate_index)
    ]
    if eliminate:
        adjacency = {
            a: {
                b
                for b in nodes
                if vp.candidates_conflict(a.candidate_index, b.candidate_index)
            }
            for a in nodes
        }
        nodes = eliminate_conflicts(nodes, adjacency)
    return [
        sum(table.decode(node.data) == data for node in nodes)
        for data in slots
    ]


@st.composite
def scalar_blocks(draw):
    """Straight-line blocks of ``t = a op b`` over float scalars. A
    statement reads one operand twice half the time, so candidates hold
    one pack type at two positions; reading ``t0``/``t1`` adds
    dependences, hence cycle conflicts."""
    sources = ["s0", "s1", "s2", "s3", "t0", "t1"]
    lines = []
    for k in range(draw(st.integers(min_value=2, max_value=9))):
        a = draw(st.sampled_from(sources))
        b = a if draw(st.booleans()) else draw(st.sampled_from(sources))
        op = draw(st.sampled_from("+*"))
        lines.append(f"t{k} = {a} {op} {b};")
    return "\n".join(lines)


SCALAR_DECLS = "float s0, s1, s2, s3, " + ", ".join(
    f"t{k}" for k in range(9)
) + ";"


class TestConflictElimination:
    @given(graph=aux_graphs())
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_candidate_elimination_matches_node_oracle(self, graph):
        """The candidate-granularity elimination the grouping loop runs,
        with degrees from unit incidence lists and explicit lists only
        for the conflicts no shared unit explains, removes exactly the
        nodes the node-level oracle removes, and in the order of Figure
        7's rule: each victim has the largest (degree, canonical rank)
        among the nodes still in conflict."""
        buckets, units, extra = graph
        snapshot = (
            [list(b) for b in buckets], list(units), [list(r) for r in extra]
        )
        victims = BasicGrouping._eliminate_over_units(buckets, units, extra)
        assert (buckets, units, extra) == snapshot  # inputs untouched

        # The same graph at node level; pack data sorts like the rank.
        node_of = {}
        for k, bucket in enumerate(buckets):
            for position, rank in enumerate(bucket):
                node_of[rank] = PackNode(
                    pack_data([("var", f"n{rank:03d}")]), k, position
                )

        def conflict(a, b):
            shared = set(units[a]) & set(units[b])
            return a != b and bool(shared or b in extra[a])

        adjacency = {
            node: {
                node_of[rank]
                for other in range(len(buckets))
                if conflict(node.candidate_index, other)
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
        commit to the end, every active candidate's counts — as
        collected and after elimination — equal a from-scratch rebuild
        over the VP graph's live nodes with the node-level oracle; each
        slot's graph bound lies between the two, and the bitset bound
        at or above the graph bound."""
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
            packs = grouping.candidates[index].packs
            slots = sorted(set(packs))  # tid order is pack order
            return [
                count
                + packs.count(data)
                + grouping.decided_packs.count(data)
                for count, data in zip(
                    oracle_aux_counts(grouping, index, eliminate), slots
                )
            ]

        commits = eliminated = tightened = refined = 0
        for args, kwargs in rounds:
            grouping = BasicGrouping(*args, **kwargs)
            trace = GroupingTrace([])
            while grouping.active:
                scores = {}
                for index in range(len(grouping.candidates)):
                    if not (grouping.active >> index) & 1:
                        continue
                    decided = grouping._decided_counts
                    bitset = grouping._counts_list(index, decided, _BITSET)
                    bound = grouping._counts_list(index, decided, _BOUND)
                    raw = [
                        count + own + decided[tid]
                        for count, own, tid in zip(
                            grouping._aux_graph(index).counts,
                            grouping._own_list[index],
                            grouping._types[index],
                        )
                    ]
                    assert raw == from_scratch(grouping, index, False)
                    counts = grouping._counts_list(index, decided)
                    assert counts == from_scratch(grouping, index, True)
                    assert all(
                        exact <= cap <= min(collected, loose)
                        for exact, cap, collected, loose in zip(
                            counts, bound, raw, bitset
                        )
                    )
                    eliminated += counts != raw
                    tightened += bound != raw
                    refined += bound != bitset
                    scores[index] = grouping._score_from_list(index, counts)
                best = max(scores, key=lambda i: (scores[i], -i))
                grouping._commit(best, trace, grouping.weight(best))
                commits += 1
        # Both rounds ran, elimination changed many counts, the graph
        # bound cut many of the collected ones and undercut many bitset
        # bounds.
        assert len(rounds) >= 2 and commits > len(rounds)
        assert eliminated > 100 and tightened > 100 and refined > 100

    @given(source=scalar_blocks(), picks=st.randoms(use_true_random=False))
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bound_caps_every_slots_survivors(self, source, picks):
        """Through random rounds of random commits, each active
        candidate's per-slot graph bound is at least the node-level
        oracle's survivors of elimination and at most the collected
        node count and the bitset bound."""
        block, deps, units = make(source, SCALAR_DECLS)
        while True:
            grouping = BasicGrouping(units, deps, 256)
            trace = GroupingTrace([])
            while grouping.active:
                active = [
                    index
                    for index in range(len(grouping.candidates))
                    if (grouping.active >> index) & 1
                ]
                for index in active:
                    bitset = grouping._bitset_bound(index)
                    aux = grouping._aux_graph(index)
                    survivors = oracle_aux_counts(grouping, index, True)
                    assert all(
                        exact <= bound <= min(collected, loose)
                        for exact, bound, collected, loose in zip(
                            survivors, aux.bound, aux.counts, bitset
                        )
                    ), (index, survivors, aux.bound, aux.counts, bitset)
                best = picks.choice(active)
                grouping._commit(best, trace, grouping.weight(best))
            if not grouping.decided:
                break
            merged = [grouping.candidates[i].merged() for i in grouping.decided]
            taken = frozenset().union(*(g.sid_set for g in merged))
            units = merged + [u for u in units if not u.sid_set & taken]

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
        """The batched classification's flattened-offset contiguity
        agrees with ``pack_is_contiguous_memory`` on packs of mixed
        arrays, strides, index coefficients and shapes."""
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
        table = OperandTable(data)
        ids = table.encode(data)
        model = PackCostModel(lambda name: decl)
        contiguous = pack_is_contiguous_memory(data, lambda name: decl)
        [row] = model.classify_types([ids], table)
        saving, build, store, adjacency, memory = row
        assert memory == all(key[0] == "ref" for key in data)
        if data[0] != data[-1]:  # a splat scores by its lanes alone
            assert adjacency == (2 if contiguous else 0)
            assert build == store == (0 if contiguous else 3 * COST_SCALE)
            assert saving == (1 if contiguous else 3) * COST_SCALE

    @pytest.mark.parametrize(
        "unroll, datapath",
        [
            pytest.param(None, None, id="None"),
            pytest.param(8, None, id="8"),
            pytest.param(8, 256, id="8-256"),
            pytest.param(8, 1024, id="8-1024"),
        ],
    )
    def test_costs_match_exact_fractions_on_kernel_packs(
        self, unroll, datapath, monkeypatch
    ):
        """Every pack type the kernels produce, at the paper
        configuration and at unroll 8 on the paper's, a 256-bit and a
        1024-bit datapath (2- to 16-lane types), under both the Global
        and the Global+Layout penalty contexts: the round's batched
        classification gives the exact float costs in units of
        1/COST_SCALE, ``pack_adjacency_score`` (whose 2 is
        ``pack_is_contiguous_memory``), and whether every lane is an
        array reference; each round indexes it by type id (an id tuple,
        decoded through the block's operand table), and classifying
        the pack alone, over a table of its own keys, agrees."""
        from repro.slp import iterative

        seen = {}

        class Recording(BasicGrouping):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                packs = seen.setdefault(id(self.cost), (self.cost, {}))[1]
                decode = self.operands.decode
                packs.update(
                    (decode(data), row)
                    for data, row in zip(self.vp.pack_types, self._type_costs)
                )

        monkeypatch.setattr(iterative, "BasicGrouping", Recording)
        machine = intel_dunnington()
        options = CompilerOptions(
            unroll_factor=unroll, datapath_bits=datapath
        )
        for kernel in ALL_KERNELS:
            program = kernel.build(16)
            for variant in (Variant.GLOBAL, Variant.GLOBAL_LAYOUT):
                compile_program(program, variant, machine, options)

        checked = 0
        lanes = set()
        for model, packs in seen.values():
            decl_of, context = model.decl_of, model.context
            for data, row in packs.items():
                def units(value):
                    exact = Fraction(value).limit_denominator(8) * COST_SCALE
                    assert exact.denominator == 1
                    return int(exact)

                # The pack again, numbered by a table of its own keys.
                table = OperandTable(data)
                ids = table.encode(data)
                assert [row] == model.classify_types([ids], table)
                assert row == (
                    units(pack_reuse_saving(data, decl_of, context)),
                    *(
                        units(
                            pack_materialization_penalty(
                                data, decl_of, context, is_store=is_store
                            )
                        )
                        for is_store in (False, True)
                    ),
                    pack_adjacency_score(data, decl_of),
                    all(key[0] == "ref" for key in data),
                )
                lanes.add(len(data))
                checked += 1
        assert checked > 1000
        if datapath == 1024:
            assert {2, 4, 8, 16} <= lanes

    def test_static_bonus_matches_pack_walk(self, monkeypatch):
        """Each round derives a candidate's reuse-independent score
        terms per pack type and per isomorphism signature; on every
        kernel's rounds at unroll 8 they equal the merge's ALU saving
        plus one wide access per all-memory pack position, walked over
        the candidate's packs."""
        from repro.slp import iterative

        checked = 0

        class Checking(BasicGrouping):
            def __init__(self, *args, **kwargs):
                nonlocal checked
                super().__init__(*args, **kwargs)
                for index, candidate in enumerate(self.candidates):
                    memory = sum(
                        all(key[0] == "ref" for key in data)
                        for data in candidate.packs
                    )
                    assert self._static_bonus[index] == cost_units(
                        candidate_op_saving(candidate)
                    ) + memory * COST_SCALE
                    checked += 1

        monkeypatch.setattr(iterative, "BasicGrouping", Checking)
        options = CompilerOptions(unroll_factor=8)
        for kernel in ALL_KERNELS:
            compile_program(
                kernel.build(16), Variant.GLOBAL, intel_dunnington(), options
            )
        assert checked > 1000
