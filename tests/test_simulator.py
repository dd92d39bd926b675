"""The virtual SIMD machine: functional semantics and cost accounting."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CompilerOptions,
    Variant,
    compile_program,
    intel_dunnington,
    simulate,
)
from repro.ir import parse_program
from repro.ir.block import Program
from repro.ir.types import FLOAT32, FLOAT64, INT16, INT32, INT64
from repro.vm import Memory, Simulator

SRC = """
float A[64]; float B[64];
float s;
for (i = 0; i < 16; i += 1) {
    s = A[i] * 2.0;
    B[i] = s + A[i];
}
"""


def run(variant, src=SRC, seed=0, **options):
    program = parse_program(src)
    result = compile_program(
        program, variant, intel_dunnington(), CompilerOptions(**options)
    )
    return simulate(result, seed=seed)


class TestFunctionalSemantics:
    def test_scalar_execution_matches_numpy(self):
        report, memory = run(Variant.SCALAR)
        reference = Memory(parse_program(SRC))
        expected = reference.arrays["A"][:16] * 2.0 + reference.arrays["A"][:16]
        assert list(memory.arrays["B"][:16]) == list(expected)

    def test_all_variants_agree_exactly(self):
        _, base = run(Variant.SCALAR)
        for variant in (
            Variant.NATIVE,
            Variant.SLP,
            Variant.GLOBAL,
            Variant.GLOBAL_LAYOUT,
        ):
            _, memory = run(variant)
            assert memory.state_equal(base), variant

    def test_division_and_sqrt(self):
        src = """
        double X[16]; double Y[16];
        for (i = 0; i < 8; i += 1) {
            Y[i] = sqrt(X[i]) / (X[i] + 1.0);
        }
        """
        _, base = run(Variant.SCALAR, src)
        _, vec = run(Variant.GLOBAL, src)
        assert vec.state_equal(base)

    def test_seed_controls_initial_state(self):
        _, m1 = run(Variant.SCALAR, seed=1)
        _, m2 = run(Variant.SCALAR, seed=2)
        assert not m1.state_equal(m2)

    def test_initial_state_independent_of_extra_declarations(self):
        small = parse_program("float A[16]; float x;")
        big = parse_program("float A[16]; float Z[99]; float x;")
        m_small = Memory(small)
        m_big = Memory(big)
        assert list(m_small.arrays["A"]) == list(m_big.arrays["A"])
        assert m_small.scalars["x"] == m_big.scalars["x"]


def fresh_draws(seed, decl, size=None):
    """What ``Memory`` must hold for one declaration: draws of a
    ``default_rng`` seeded here, independently of the simulator."""
    rng = np.random.default_rng([seed, zlib.crc32(decl.name.encode("utf-8"))])
    if decl.type.is_float:
        return rng.uniform(1.0, 2.0, size)
    return rng.integers(1, 100, size).astype(np.float64)


_NAMES = st.from_regex(r"[A-Z][a-z0-9]{0,5}", fullmatch=True)
_TYPES = st.sampled_from([FLOAT32, FLOAT64, INT16, INT32, INT64])


@st.composite
def declarations(draw):
    """A program of drawn array and scalar declarations (no body)."""
    program = Program("decls")
    names = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    for name in names:
        if draw(st.booleans()):
            shape = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
            program.declare_array(name, shape, draw(_TYPES))
        else:
            program.declare_scalar(name, draw(_TYPES))
    return program


def assert_fresh(memory, program, seed):
    for decl in program.arrays.values():
        expected = fresh_draws(seed, decl, decl.size)
        assert memory.arrays[decl.name].tobytes() == expected.tobytes()
    for decl in program.scalars.values():
        assert memory.scalars[decl.name] == float(fresh_draws(seed, decl))


class TestSeededMemory:
    """``Memory`` keeps the starting generator states of ``(seed, name)``
    in a process-wide cache; its contents must still be exactly what a
    fresh generator draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        programs=st.lists(declarations(), min_size=1, max_size=3),
        seeds=st.lists(
            st.integers(0, 2**32 - 1), min_size=1, max_size=3
        ),
    )
    def test_contents_equal_fresh_draws(self, programs, seeds):
        # Repeats hit the cache; each case starts some names cold.
        for seed in seeds + seeds:
            for program in programs:
                assert_fresh(Memory(program, seed=seed), program, seed)

    def test_interleaved_memories_own_their_generators(self):
        """Two memories built alternately over the same ``(seed, name)``
        requests, with other names drawn in between: a cached generator
        or state that advanced with a draw would shift the later
        values."""
        first = Program("first")
        first.declare_array("A", (64,), FLOAT64)
        first.declare_array("K", (3, 5), INT32)
        first.declare_scalar("s", FLOAT64)
        second = Program("second")
        second.declare_array("A", (64,), FLOAT64)
        second.declare_scalar("s", INT16)
        second.declare_array("Z", (7,), FLOAT32)
        memories = []
        for _ in range(3):
            for program in (first, second, first):
                memories.append((Memory(program, seed=11), program))
        for memory, program in memories:
            assert_fresh(memory, program, 11)
        a_values = {memory.arrays["A"].tobytes() for memory, _ in memories}
        assert len(a_values) == 1

    def test_threads_building_memories_share_no_generator(self, monkeypatch):
        """More threads than cores build memories over overlapping
        ``(seed, name)`` keys through a cache small enough to evict on
        most fills, switching as often as the interpreter allows: a
        generator shared across threads, or a fill that lost a race,
        would shift some thread's values."""
        import sys
        import threading

        from repro.vm import simulator

        monkeypatch.setattr(simulator, "_SEED_STATES", {})
        monkeypatch.setattr(simulator, "SEED_STATE_ENTRIES", 3)
        program = Program("threads")
        for k in range(4):
            program.declare_array(f"A{k}", (33,), FLOAT64)
        program.declare_scalar("s", INT32)
        failures = []

        def build(worker):
            try:
                for round_ in range(40):
                    seed = (worker + round_) % 3
                    assert_fresh(Memory(program, seed=seed), program, seed)
            except AssertionError as exc:  # pragma: no cover - reported
                failures.append(exc)

        threads = [
            threading.Thread(target=build, args=(w,)) for w in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(simulator._SEED_STATES) <= 3

    def test_cache_is_bounded_and_counted(self, monkeypatch):
        from repro.perf import PERF
        from repro.vm import simulator

        monkeypatch.setattr(simulator, "_SEED_STATES", {})
        monkeypatch.setattr(simulator, "SEED_STATE_ENTRIES", 4)
        program = Program("wide")
        for k in range(6):
            program.declare_array(f"A{k}", (4,), FLOAT64)
        saved, was_enabled = PERF.snapshot(), PERF.enabled
        PERF.reset()
        PERF.enable()
        recent = Program("recent")
        recent.declare_array("A4", (4,), FLOAT64)
        recent.declare_scalar("A5", INT64)
        try:
            for seed in (3, 3):
                assert_fresh(Memory(program, seed=seed), program, seed)
            cold = dict(PERF.counters)
            assert_fresh(Memory(recent, seed=3), recent, 3)
            warm = dict(PERF.counters)
        finally:
            PERF.reset()
            PERF.merge(saved)
            PERF.enabled = was_enabled
        assert len(simulator._SEED_STATES) == 4
        # Six names through a four-entry cache, twice in order: every
        # fill evicts a name the next pass needs.
        assert cold["simulate.seed_state_misses"] == 12
        assert cold.get("simulate.seed_state_hits", 0) == 0
        # The last four fills stay; the type of a declaration is not
        # part of the key.
        assert warm["simulate.seed_state_hits"] == 2
        assert warm["simulate.seed_state_misses"] == 12


class TestCostAccounting:
    def test_scalar_counts(self):
        report, _ = run(Variant.SCALAR)
        # 16 iterations x (1 mem load + 1 scalar move + 1 op + 1 move)
        # for S0 and (1 move + 1 mem load + 1 op + 1 mem store) for S1.
        assert report.counts["scalar_op"] == 32
        assert report.counts["scalar_load"] == 32
        assert report.counts["scalar_store"] == 16

    def test_vector_variant_reduces_ops(self):
        scalar, _ = run(Variant.SCALAR)
        vector, _ = run(Variant.GLOBAL)
        assert vector.counts.get("vector_op", 0) > 0
        assert vector.counts.get("scalar_op", 0) < scalar.counts["scalar_op"]
        assert vector.cycles < scalar.cycles

    def test_cache_stats_populated(self):
        report, _ = run(Variant.SCALAR)
        assert report.cache_hits + report.cache_misses > 0
        assert report.cache_misses >= 2  # cold misses on A and B

    def test_cycles_include_miss_penalty(self):
        src = """
        double X[32768]; double Y[32768];
        for (i = 0; i < 32768; i += 1) {
            Y[i] = X[i] + 1.0;
        }
        """
        report, _ = run(Variant.SCALAR, src)
        machine = intel_dunnington()
        base = report.total_instructions  # lower bound without misses
        assert report.cycles > base  # misses add real cycles

    def test_pack_unpack_metric(self):
        src = """
        double F[4096]; double R[512];
        for (i = 0; i < 128; i += 1) {
            R[i] = F[9*i] / F[9*i + 1];
        }
        """
        report, _ = run(Variant.GLOBAL, src, cost_gate=False)
        assert report.pack_unpack_ops > 0
        assert report.dynamic_instructions == (
            report.total_instructions - report.pack_unpack_ops
        )


class TestReportMerge:
    def test_merge_accumulates(self):
        r1, _ = run(Variant.SCALAR)
        r2, _ = run(Variant.SCALAR)
        total = r1.total_instructions + r2.total_instructions
        r1.merge(r2)
        assert r1.total_instructions == total

    def test_summary_renders(self):
        report, _ = run(Variant.GLOBAL)
        text = report.summary()
        assert "cycles" in text and "cache" in text
