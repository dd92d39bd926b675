"""Differential and unit guarantees of the compiled kernel engine.

The compiled engine (``src/repro/vm/compiled.py``) emits one
specialized NumPy function per affine loop and caches emitted kernels
in-process and in the ``ArtifactStore``; its accounting and cache
replay are the batched engine's. Like the batched engine it is purely
a simulation-speed optimization: reports and memories must be *exactly
equal* to the reference interpreter's on every plan, with per-unit
fallback to the batched path where codegen does not apply. These tests
pin that contract on the full kernel × variant × machine matrix and on
wide-datapath plans whose packs re-load stored lanes, the kernel-cache
keying and invalidation rules, the fallback counters, a deliberately
broken kernel the differential oracle must catch, and the
whole-stream cache replay the engine relies on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import CompilerOptions, Variant, compile_program, parse_program
from repro.bench import ALL_KERNELS, KERNELS
from repro.bench.suite import DEFAULT_VARIANTS
from repro.fuzz import differential_check
from repro.perf import PERF
from repro.store import ArtifactStore
from repro.vm import (
    Cache,
    Simulator,
    VPack,
    VShuffle,
    amd_phenom_ii,
    intel_dunnington,
)
from repro.vm import compiled as compiled_mod
from repro.vm.compiled import (
    clear_kernel_memo,
    emit_plan_kernels,
    kernel_fingerprint,
)

MATRIX_MACHINES = [("intel", intel_dunnington), ("amd", amd_phenom_ii)]


@pytest.fixture(autouse=True)
def _fresh_kernel_memo():
    clear_kernel_memo()
    yield
    clear_kernel_memo()


def _run_engines(plan, machine, seed=0, kernel_store=None):
    out = {}
    for engine in ("reference", "batched", "compiled"):
        sim = Simulator(machine, engine=engine, kernel_store=kernel_store)
        out[engine] = sim.run(plan, seed=seed)
    return out


def _assert_identical(plan, machine, seed=0):
    runs = _run_engines(plan, machine, seed=seed)
    ref_report, ref_mem = runs["reference"]
    for engine in ("batched", "compiled"):
        report, mem = runs[engine]
        # Dataclass equality covers counts, cycle charge buckets,
        # extra_cycles, cache hit/miss totals, per-array access/miss
        # stats, and the per-provenance cost breakdown.
        assert report == ref_report, engine
        assert report.cycles == ref_report.cycles
        assert mem.state_equal(ref_mem), engine


# -- the full paper matrix ---------------------------------------------------------


@pytest.mark.parametrize(
    "kernel", ALL_KERNELS, ids=[k.name for k in ALL_KERNELS]
)
def test_kernel_matrix_identical(kernel):
    """Every kernel × variant × machine combination produces reports and
    memories indistinguishable from the reference interpreter and the
    batched engine."""
    program = kernel.build(8)
    for _, factory in MATRIX_MACHINES:
        machine = factory()
        for variant in DEFAULT_VARIANTS:
            compiled = compile_program(program, variant, machine)
            _assert_identical(compiled.plan, compiled.machine)


def test_amd_non_dyadic_costs_identical():
    """AMD's fractional per-op costs exercise the exact-integer charge
    buckets the compiled engine replays in bulk."""
    machine = amd_phenom_ii()
    for name in ("namd", "lbm", "milc"):
        program = KERNELS[name].build(32)
        for variant in (Variant.GLOBAL, Variant.GLOBAL_LAYOUT):
            compiled = compile_program(program, variant, machine)
            _assert_identical(compiled.plan, compiled.machine)


@pytest.mark.parametrize(
    "name, variant, bits",
    [
        ("povray", Variant.SLP, 256),
        ("povray", Variant.SLP, 512),
        ("povray", Variant.SLP, 1024),
        ("namd", Variant.GLOBAL, 1024),
    ],
    ids=["povray-slp-256", "povray-slp-512", "povray-slp-1024",
         "namd-global-1024"],
)
def test_wide_packs_of_stored_lanes_identical(name, variant, bits):
    """At these widths the plans re-pack lanes an earlier superword
    stored in the same body, so the emitter's wide ``VPack`` path reads
    back through memory what the body just wrote."""
    compiled = compile_program(
        KERNELS[name].build(32), variant, intel_dunnington(),
        CompilerOptions(datapath_bits=bits),
    )
    _assert_identical(compiled.plan, compiled.machine)


# -- fallback coverage -------------------------------------------------------------

REDUCTION_SRC = """
double A[64];
double s;
for (i = 0; i < 64; i += 1) {
    s = s + A[i];
}
"""

RECURRENCE_SRC = """
double A[66];
for (i = 0; i < 64; i += 1) {
    A[i + 1] = A[i] * 0.5;
}
"""

NESTED_SRC = """
double A[64];
double B[64];
for (i = 0; i < 8; i += 1) {
    for (j = 0; j < 8; j += 1) {
        A[i + j] = A[i + j] + B[j];
    }
}
"""

AFFINE_SRC = """
double A[64];
double B[64];
double C[64];
for (i = 0; i < 64; i += 1) {
    C[i] = A[i] * B[i] + 2.0;
}
"""


def _counters_for(src, variant=Variant.SCALAR, kernel_store=None):
    program = parse_program(src)
    machine = intel_dunnington()
    compiled = compile_program(program, variant, machine)
    PERF.reset()
    PERF.enable()
    try:
        Simulator(
            machine, engine="compiled", kernel_store=kernel_store
        ).run(compiled.plan)
    finally:
        PERF.disable()
    return dict(PERF.counters), compiled


@pytest.mark.parametrize(
    "src",
    [REDUCTION_SRC, RECURRENCE_SRC],
    ids=["scalar-reduction", "array-recurrence"],
)
def test_fallback_kernels_identical(src):
    """Loops with cross-iteration carries take the batched engine's
    fallback decision path — and still match the reference exactly."""
    counters, compiled = _counters_for(src)
    assert counters.get("simulate.compiled_fallbacks", 0) >= 1
    assert counters.get("simulate.compiled_loops", 0) == 0
    _assert_identical(compiled.plan, compiled.machine)


def test_nested_loop_outer_falls_back_inner_compiles():
    """Loop nests decompose: the outer loop falls back, but each inner
    instance runs the emitted kernel with its dynamic base offsets."""
    counters, compiled = _counters_for(NESTED_SRC)
    assert counters.get("simulate.compiled_fallbacks", 0) >= 1
    assert counters.get("simulate.compiled_loops", 0) == 8
    _assert_identical(compiled.plan, compiled.machine)


def test_affine_kernel_takes_compiled_path():
    counters, compiled = _counters_for(AFFINE_SRC)
    assert counters.get("simulate.compiled_loops", 0) >= 1
    assert counters.get("simulate.compiled_fallbacks", 0) == 0
    assert counters.get("compiled.emissions", 0) == 1
    _assert_identical(compiled.plan, compiled.machine)


def test_full_kernel_set_has_no_fallbacks():
    """The affine benchmark kernels must all take the compiled path —
    this is the population the ≥50x speedup gate is measured on."""
    machine = intel_dunnington()
    for name in ("cactusADM", "soplex", "lbm", "milc"):
        program = KERNELS[name].build(16)
        compiled = compile_program(program, Variant.GLOBAL, machine)
        PERF.reset()
        PERF.enable()
        try:
            Simulator(machine, engine="compiled").run(compiled.plan)
        finally:
            PERF.disable()
        assert PERF.counters.get("simulate.compiled_fallbacks", 0) == 0
        assert PERF.counters.get("simulate.compiled_loops", 0) >= 1


# -- kernel caching ----------------------------------------------------------------


def _affine_plan(machine=None):
    machine = machine or intel_dunnington()
    program = parse_program(AFFINE_SRC)
    return compile_program(program, Variant.GLOBAL, machine), machine


class TestKernelCache:
    def test_fingerprint_is_deterministic_across_compiles(self):
        compiled_a, machine = _affine_plan()
        compiled_b, _ = _affine_plan()
        assert compiled_a.plan is not compiled_b.plan
        assert kernel_fingerprint(
            compiled_a.plan, machine
        ) == kernel_fingerprint(compiled_b.plan, machine)

    def test_fingerprint_differs_across_machines(self):
        compiled, _ = _affine_plan()
        assert kernel_fingerprint(
            compiled.plan, intel_dunnington()
        ) != kernel_fingerprint(compiled.plan, amd_phenom_ii())

    def test_codegen_version_bump_invalidates(self, monkeypatch):
        """Bumping CODEGEN_VERSION must change every fingerprint — a
        store shared between old and new workers can never serve a
        stale kernel."""
        compiled, machine = _affine_plan()
        before = kernel_fingerprint(compiled.plan, machine)
        monkeypatch.setattr(
            compiled_mod, "CODEGEN_VERSION", compiled_mod.CODEGEN_VERSION + 1
        )
        after = kernel_fingerprint(compiled.plan, machine)
        assert before != after

    def test_memo_hit_skips_emission(self):
        compiled, machine = _affine_plan()
        sim = Simulator(machine, engine="compiled")
        PERF.reset()
        PERF.enable()
        try:
            sim.run(compiled.plan)
            sim.run(compiled.plan)
        finally:
            PERF.disable()
        assert PERF.counters.get("compiled.emissions", 0) == 1
        assert PERF.counters.get("compiled.kernel_memo_hits", 0) == 1

    def test_store_round_trip_zero_second_emissions(self, tmp_path):
        """A warm worker sharing the store loads the pickled kernel
        artifact instead of re-emitting — the acceptance criterion for
        warm service workers."""
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        counters, _ = _counters_for(AFFINE_SRC, Variant.GLOBAL, store)
        assert counters.get("compiled.emissions", 0) == 1
        assert counters.get("kernel_store.puts", 0) == 1
        # Simulate a fresh process: drop the in-process memo.
        clear_kernel_memo()
        counters, _ = _counters_for(AFFINE_SRC, Variant.GLOBAL, store)
        assert counters.get("compiled.emissions", 0) == 0
        assert counters.get("compiled.kernel_store_hits", 0) == 1
        assert counters.get("kernel_store.hits", 0) == 1

    def test_store_artifact_runs_identically(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        Simulator(machine, engine="compiled", kernel_store=store).run(
            compiled.plan
        )
        clear_kernel_memo()
        ref_report, ref_mem = Simulator(machine, engine="reference").run(
            compiled.plan
        )
        report, mem = Simulator(
            machine, engine="compiled", kernel_store=store
        ).run(compiled.plan)
        assert report == ref_report
        assert mem.state_equal(ref_mem)

    def test_corrupt_kernel_entry_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        fingerprint = kernel_fingerprint(compiled.plan, machine)
        artifact = emit_plan_kernels(compiled.plan, machine)
        store.put_kernel(fingerprint, artifact)
        path = store._kernel_path(fingerprint)
        path.write_bytes(b"not a pickle")
        assert store.get_kernel(fingerprint) is None
        assert store.corrupt_evictions == 1
        assert not path.exists()
        # And the engine recovers by re-emitting.
        report, mem = Simulator(
            machine, engine="compiled", kernel_store=store
        ).run(compiled.plan)
        ref_report, ref_mem = Simulator(machine, engine="reference").run(
            compiled.plan
        )
        assert report == ref_report
        assert mem.state_equal(ref_mem)

    def test_kernel_entries_counted_and_pruned(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        fingerprint = kernel_fingerprint(compiled.plan, machine)
        store.put_kernel(fingerprint, emit_plan_kernels(compiled.plan, machine))
        assert store.stats().entries == 1
        assert store.prune(0) == 1
        assert store.get_kernel(fingerprint) is None


# -- the oracle catches a broken kernel ---------------------------------------------


def _broken_body(body):
    """Reverse the sources of the first ``VPack`` that packs at least
    two distinct locations (so the kernel computes with permuted lanes),
    or failing that rotate the first ``VShuffle``'s permutation."""
    broken = list(body)
    for i, instr in enumerate(broken):
        if isinstance(instr, VPack) and len(set(instr.sources)) >= 2:
            broken[i] = replace(instr, sources=tuple(reversed(instr.sources)))
            return broken
    for i, instr in enumerate(broken):
        if isinstance(instr, VShuffle) and len(set(instr.perm)) >= 2:
            broken[i] = replace(instr, perm=instr.perm[1:] + instr.perm[:1])
            return broken
    return broken


class TestMutation:
    def test_buggy_peephole_caught_by_differential_oracle(self, monkeypatch):
        """A kernel emitted from a broken body must surface as a
        divergence on the compiled engine — proof the 3-engine matrix
        guards what the emitter produces."""
        program = parse_program(AFFINE_SRC)
        assert differential_check(program).status == "ok"
        emit = compiled_mod._UnitEmitter.emit
        clear_kernel_memo()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    compiled_mod._UnitEmitter,
                    "emit",
                    lambda self, body: emit(self, _broken_body(body)),
                )
                result = differential_check(program)
        finally:
            clear_kernel_memo()
        assert result.status == "diverged"
        assert result.divergence.sim_engine == "compiled"
        # With the emitter restored and the memo cleared, kernels are
        # emitted afresh and the run is clean again.
        assert differential_check(program).status == "ok"


# -- bulk cache replay -------------------------------------------------------------


class TestBulkReplay:
    def _random_stream(self, rng, lines):
        # Mix hot loops, strides, and random touches: the access shapes
        # kernel replay actually produces.
        parts = [
            rng.integers(0, 32, size=200),
            np.arange(lines) % lines,
            rng.integers(0, lines, size=400),
            np.repeat(rng.integers(0, lines, size=50), 4),
        ]
        return np.concatenate(parts)

    @pytest.mark.parametrize("machine", [intel_dunnington, amd_phenom_ii])
    def test_bulk_matches_sequential(self, machine):
        """``replay_lines`` at each machine's real L1 geometry agrees
        with one ``touch_line`` per access."""
        rng = np.random.default_rng(7)
        config = machine().l1
        lines = (config.size_bytes // config.line_bytes) * 2
        for trial in range(5):
            stream = self._random_stream(rng, lines)
            bulk, seq = Cache(config), Cache(config)
            mask = bulk.replay_lines(stream)
            assert mask.tolist() == [seq.touch_line(int(l)) for l in stream]
            assert (bulk.hits, bulk.misses) == (seq.hits, seq.misses)
            assert bulk.lines() == seq.lines()

    @pytest.mark.parametrize(
        "bad",
        [np.array([[0, 1], [2, 3]]), np.array([0.5, 1.0]), [0, -3]],
        ids=["2d", "float", "negative"],
    )
    def test_malformed_stream_raises_structured_error(self, bad):
        """The replay validates its input: a malformed line stream (the
        kind a codegen bug would produce) raises a structured
        SimulationError instead of silently corrupting the set state."""
        from repro.errors import SimulationError

        cache = Cache(intel_dunnington().l1)
        with pytest.raises(SimulationError) as exc:
            cache.replay_lines(bad)
        assert exc.value.rule == "cache.replay-stream"

    def test_bulk_matches_after_interleaving(self):
        """Chained replays against one cache instance must agree with a
        ``touch_line`` per access of the concatenated stream."""
        rng = np.random.default_rng(11)
        config = intel_dunnington().l1
        chunks = [self._random_stream(rng, 1024) for _ in range(3)]
        bulk, seq = Cache(config), Cache(config)
        mask = np.concatenate([bulk.replay_lines(chunk) for chunk in chunks])
        expected = [
            seq.touch_line(int(line)) for line in np.concatenate(chunks)
        ]
        assert mask.tolist() == expected
        assert (bulk.hits, bulk.misses) == (seq.hits, seq.misses)
        assert bulk.lines() == seq.lines()


# -- engine selection plumbing -----------------------------------------------------


class TestPlumbing:
    def test_artifact_kinds_do_not_collide(self, tmp_path):
        """A compile entry and a kernel entry with the same hash string
        live at different paths."""
        store = ArtifactStore(tmp_path)
        assert store._path("deadbeef") != store._kernel_path("deadbeef")
