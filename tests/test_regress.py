"""Tests for the perf-regression gate (``repro.bench.regress``) and the
shared benchmark recording helper (``repro.bench.record``)."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro import Variant
from repro.bench.record import (
    BENCH_SCHEMA,
    fingerprints_match,
    machine_fingerprint,
    read_bench_json,
    write_bench_json,
)
from repro.bench.regress import (
    check_suite,
    render_verdict,
    suite_metrics,
    write_suite_baseline,
)


def _fake_results(cycle_scale: float = 1.0, compile_seconds: float = 0.01):
    """A minimal stand-in for a ``run_suite`` result map: two kernels,
    two variants, deterministic numbers scaled by ``cycle_scale``."""

    def run(cycles):
        return SimpleNamespace(
            report=SimpleNamespace(
                cycles=cycles * cycle_scale,
                dynamic_instructions=int(cycles * 2),
                pack_unpack_ops=4,
            ),
            stats=SimpleNamespace(compile_seconds=compile_seconds),
        )

    return {
        "alpha": SimpleNamespace(
            runs={Variant.SCALAR: run(1000.0), Variant.GLOBAL: run(600.0)}
        ),
        "beta": SimpleNamespace(
            runs={Variant.SCALAR: run(800.0), Variant.GLOBAL: run(500.0)}
        ),
    }


# -- record helper -------------------------------------------------------------


def test_write_bench_json_stamps_meta(tmp_path):
    path = tmp_path / "BENCH_x.json"
    stamped = write_bench_json(path, {"value": 1})
    on_disk = json.loads(path.read_text())
    assert on_disk == stamped
    meta = on_disk["bench_meta"]
    assert meta["schema"] == BENCH_SCHEMA
    assert meta["fingerprint"]["id"]
    assert on_disk["value"] == 1


def test_read_bench_json_rejects_unversioned_artifacts(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"value": 1}))
    with pytest.raises(ValueError, match="bench_meta"):
        read_bench_json(path)


def test_machine_fingerprint_is_stable_here():
    assert machine_fingerprint() == machine_fingerprint()
    assert fingerprints_match(machine_fingerprint(), machine_fingerprint())
    assert not fingerprints_match(machine_fingerprint(), {"id": "other"})
    assert not fingerprints_match(machine_fingerprint(), {})


# -- metric extraction ---------------------------------------------------------


def test_suite_metrics_planes():
    metrics = suite_metrics(_fake_results())
    deterministic = metrics["deterministic"]
    assert deterministic["alpha.scalar.cycles"] == 1000.0
    assert deterministic["alpha.global.cycles"] == 600.0
    assert deterministic["beta.global.dynamic_instructions"] == 1000.0
    assert deterministic["alpha.scalar.pack_unpack_ops"] == 4.0
    assert metrics["wallclock"]["compile_seconds_total"] == pytest.approx(
        0.04
    )


# -- the gate ------------------------------------------------------------------


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_suite.json"
    write_suite_baseline(path, _fake_results(), machine="intel", n=64)
    return path


def test_identical_run_passes(baseline):
    verdict = check_suite(baseline, _fake_results())
    assert verdict["status"] == "ok"
    assert verdict["counts"]["fail"] == 0
    assert verdict["fingerprint_match"] is True
    assert verdict["counts"]["skipped"] == 0


def test_injected_2x_slowdown_fails(baseline):
    verdict = check_suite(baseline, _fake_results(), inject_slowdown=2.0)
    assert verdict["status"] == "fail"
    failed = [c for c in verdict["checks"] if c["status"] == "fail"]
    assert failed
    assert all(c["metric"].endswith(".cycles") for c in failed)
    assert all(c["ratio"] == 2.0 for c in failed)
    # The rendering names every failure.
    rendered = render_verdict(verdict)
    assert "fail" in rendered
    assert "alpha.scalar.cycles" in rendered


def test_real_cycle_drift_beyond_band_fails(baseline):
    verdict = check_suite(baseline, _fake_results(cycle_scale=1.05))
    assert verdict["status"] == "fail"


def test_drift_inside_band_passes(baseline):
    verdict = check_suite(baseline, _fake_results(cycle_scale=1.005))
    assert verdict["status"] == "ok"


def test_cross_machine_skips_wallclock_not_deterministic(baseline):
    """A baseline recorded elsewhere still gates cycles; wall-clock
    comparisons become ``skipped`` — never spurious failures."""
    data = json.loads(baseline.read_text())
    data["bench_meta"]["fingerprint"]["id"] = "fee1dead0000"
    baseline.write_text(json.dumps(data))

    # Wall-clock wildly different from baseline: must not matter.
    verdict = check_suite(baseline, _fake_results(compile_seconds=50.0))
    assert verdict["status"] == "ok"
    assert verdict["fingerprint_match"] is False
    by_name = {c["metric"]: c for c in verdict["checks"]}
    assert by_name["compile_seconds_total"]["status"] == "skipped"
    assert "fingerprint mismatch" in by_name["compile_seconds_total"]["reason"]
    assert by_name["alpha.scalar.cycles"]["status"] == "ok"

    # ... and deterministic regressions still fail cross-machine.
    verdict = check_suite(
        baseline,
        _fake_results(compile_seconds=50.0),
        inject_slowdown=2.0,
    )
    assert verdict["status"] == "fail"


def test_same_machine_wallclock_band(baseline):
    inside = check_suite(baseline, _fake_results(compile_seconds=0.012))
    assert inside["status"] == "ok"
    outside = check_suite(baseline, _fake_results(compile_seconds=0.5))
    by_name = {c["metric"]: c for c in outside["checks"]}
    assert by_name["compile_seconds_total"]["status"] == "fail"


def test_missing_current_metric_fails(baseline):
    results = _fake_results()
    del results["beta"]
    verdict = check_suite(baseline, results)
    assert verdict["status"] == "fail"
    missing = [
        c
        for c in verdict["checks"]
        if c["status"] == "fail" and c["reason"].startswith("metric missing")
    ]
    assert missing


def test_new_metric_is_informational(baseline):
    """Added coverage must not fail against an older baseline."""
    results = _fake_results()
    results["gamma"] = results["alpha"]
    verdict = check_suite(baseline, results)
    assert verdict["status"] == "ok"
    by_name = {c["metric"]: c for c in verdict["checks"]}
    assert by_name["gamma.scalar.cycles"]["status"] == "skipped"
    assert "not in baseline" in by_name["gamma.scalar.cycles"]["reason"]


def test_config_mismatch_is_an_error_not_a_pass(baseline):
    with pytest.raises(ValueError, match="recorded with"):
        check_suite(
            baseline, _fake_results(), config={"machine": "amd", "n": 64}
        )
    # Matching config is fine.
    verdict = check_suite(
        baseline, _fake_results(), config={"machine": "intel", "n": 64}
    )
    assert verdict["status"] == "ok"


def test_committed_suite_baseline_is_versioned_and_consistent():
    """The repo's own committed baseline must load under the schema and
    carry both metric planes with the full kernel sweep."""
    import pathlib

    path = (
        pathlib.Path(__file__).parent.parent
        / "benchmarks" / "results" / "BENCH_suite.json"
    )
    data = read_bench_json(path)
    assert data["config"]["machine"] == "intel"
    deterministic = data["metrics"]["deterministic"]
    assert len(deterministic) >= 16 * 5  # 16 kernels x 5 variants minimum
    assert data["metrics"]["wallclock"]["compile_seconds_total"] > 0


# -- side planes ---------------------------------------------------------------


def test_every_plane_has_a_committed_artifact(monkeypatch):
    """``repro bench --check`` gates five side planes next to the suite
    baseline; each artifact must be committed and load cleanly. The
    checkers are stubbed: this pins the wiring, not the planes."""
    import pathlib

    from repro.bench import grouping_work, identity, optimality, predication
    from repro.bench.regress import check_planes

    def loads(path):
        data = read_bench_json(path)
        # The top-width row keeps its counters per kernel.
        metrics = data["metrics"] if "metrics" in data else data["kernels"]
        return {"status": "ok", "metrics": metrics}

    monkeypatch.setattr(optimality, "check_optimality", loads)
    monkeypatch.setattr(predication, "check_predication", loads)
    monkeypatch.setattr(grouping_work, "check_grouping_work", loads)
    monkeypatch.setattr(grouping_work, "check_topwidth", loads)
    monkeypatch.setattr(identity, "check_identity", loads)
    results = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
    planes = list(check_planes(results))
    assert [label for label, _ in planes] == [
        "optimality-gap", "predication", "grouping-work", "identity",
        "topwidth-work",
    ]
    assert all(verdict["metrics"] for _, verdict in planes)


def test_grouping_work_plane_gates_exactly(tmp_path, monkeypatch):
    from repro.bench import KERNELS, grouping_work
    from repro.bench.grouping_work import (
        COUNTERS,
        check_grouping_work,
        grouping_work_metrics,
        write_grouping_work_baseline,
    )
    from repro.bench.regress import check_planes
    from repro.perf import PERF

    monkeypatch.setattr(grouping_work, "ALL_KERNELS", [KERNELS["soplex"]])
    PERF.disable()
    metrics = grouping_work_metrics()
    assert set(metrics["work"]) == {f"soplex.{c}" for c in COUNTERS}
    assert metrics["work"]["soplex.decisions"] > 0
    assert not PERF.enabled  # the caller's registry state is restored
    path = tmp_path / "BENCH_grouping_work.json"
    write_grouping_work_baseline(path, metrics)
    assert [label for label, _ in check_planes(tmp_path)] == [
        "grouping-work"
    ]
    assert check_grouping_work(path)["status"] == "ok"

    # One extra exact score is a failure: the tolerance is zero.
    data = json.loads(path.read_text())
    data["metrics"]["work"]["soplex.scores_recomputed"] += 1
    path.write_text(json.dumps(data))
    verdict = check_grouping_work(path)
    assert verdict["status"] == "fail"
    assert verdict["counts"]["fail"] == 1


def test_topwidth_plane_gates_counters_exactly(tmp_path, monkeypatch):
    """The top-width plane recompiles each kernel's Global cell and
    compares the row's five counters exactly; the seconds are the
    harness's and are not read."""
    from repro.bench import KERNELS, grouping_work
    from repro.bench.grouping_work import (
        TOP_WIDTH_COUNTERS,
        check_topwidth,
        topwidth_work,
    )
    from repro.bench.record import write_bench_json
    from repro.bench.regress import check_planes, render_verdict

    monkeypatch.setattr(grouping_work, "ALL_KERNELS", [KERNELS["mg"]])
    row = topwidth_work(KERNELS["mg"])
    assert set(row) == set(TOP_WIDTH_COUNTERS) and row["decisions"] > 0
    path = tmp_path / "BENCH_compile_topwidth.json"
    write_bench_json(
        path, {"kernels": {"mg": {**row, "global_seconds": 99.0}}}
    )
    assert [label for label, _ in check_planes(tmp_path)] == [
        "topwidth-work"
    ]
    verdict = check_topwidth(path)
    assert verdict["status"] == "ok"
    assert verdict["counts"]["ok"] == len(TOP_WIDTH_COUNTERS)

    # One more victim than the row holds fails, and names the counter.
    data = json.loads(path.read_text())
    data["kernels"]["mg"]["elimination_victims"] += 1
    path.write_text(json.dumps(data))
    verdict = check_topwidth(path)
    assert verdict["counts"]["fail"] == 1
    assert "[fail] mg.elimination_victims" in render_verdict(verdict)


def test_identity_plane_gates_exactly(tmp_path, monkeypatch):
    from repro.bench import KERNELS, identity
    from repro.bench.identity import (
        PARTS,
        WIDE_PARTS,
        check_identity,
        identity_metrics,
        write_identity_baseline,
    )
    from repro.bench.regress import check_planes, render_verdict

    monkeypatch.setattr(identity, "ALL_KERNELS", [KERNELS["soplex"]])
    monkeypatch.setattr(identity, "MACHINES", ("amd",))
    monkeypatch.setattr(identity, "FUZZ_SEEDS", (7,))
    metrics = identity_metrics()
    assert set(metrics["digests"]) == {
        f"soplex.{variant}.amd.{part}"
        for variant in identity.VARIANTS
        for part in PARTS
    } | {
        f"soplex.{variant}.intel.u{unroll}w{bits}.{part}"
        for variant in identity.WIDE_VARIANTS
        for unroll in identity.WIDE_UNROLLS
        for bits in identity.WIDE_DATAPATHS
        for part in WIDE_PARTS
    } | {
        f"fuzz7.{variant}.intel.w{bits}.{part}"
        for variant in identity.WIDE_VARIANTS
        for bits in identity.FUZZ_DATAPATHS
        for part in WIDE_PARTS
    }
    path = tmp_path / "BENCH_identity.json"
    write_identity_baseline(path, metrics)
    assert [label for label, _ in check_planes(tmp_path)] == ["identity"]
    assert check_identity(path)["status"] == "ok"

    # A memory that starts from one different draw moves exactly the
    # memory digests of the cells that read it, and the verdict names
    # each cell and part.
    from repro.vm import simulator

    seeded = simulator._seed_state

    def reseeded(seed, name):
        return seeded(seed + 1 if name == "Y" else seed, name)

    monkeypatch.setattr(simulator, "_seed_state", reseeded)
    verdict = check_identity(path)
    assert verdict["status"] == "fail"
    failed = [c for c in verdict["checks"] if c["status"] == "fail"]
    assert failed and all(
        c["metric"].endswith(".memory") and c["reason"] == "memory moved"
        for c in failed
    )
    assert "[fail] soplex.global.amd.memory" in render_verdict(verdict)

    # A stale or missing digest fails too; an unknown one is skipped.
    monkeypatch.setattr(simulator, "_seed_state", seeded)
    data = json.loads(path.read_text())
    digests = data["metrics"]["digests"]
    digests["soplex.slp.amd.plan"] = "0" * 64
    digests["soplex.scalar.amd.gone"] = "0" * 64
    del digests["soplex.native.amd.report"]
    path.write_text(json.dumps(data))
    checks = {c["metric"]: c for c in check_identity(path)["checks"]}
    assert checks["soplex.slp.amd.plan"]["reason"] == "plan moved"
    assert checks["soplex.scalar.amd.gone"]["status"] == "fail"
    assert checks["soplex.native.amd.report"]["status"] == "skipped"


def test_identity_wide_slice_sees_a_flipped_tie_break(tmp_path, monkeypatch):
    """Reversing each round's candidate list flips every tie the
    grouping breaks by candidate key. On mg that moves no suite cell
    (n=64 at the paper's width), only compile-wide cells (Global at
    unroll 8 x 256 bits): the new slice is what fails, and it names the
    cell and the part."""
    from repro.bench import KERNELS, identity
    from repro.bench.identity import (
        check_identity,
        identity_metrics,
        write_identity_baseline,
    )
    from repro.slp import grouping

    monkeypatch.setattr(identity, "ALL_KERNELS", [KERNELS["mg"]])
    monkeypatch.setattr(identity, "MACHINES", ("amd",))
    monkeypatch.setattr(identity, "FUZZ_SEEDS", ())
    path = tmp_path / "BENCH_identity.json"
    write_identity_baseline(path, identity_metrics())

    search = grouping.find_candidates
    monkeypatch.setattr(
        grouping, "find_candidates", lambda *args: search(*args)[::-1]
    )
    verdict = check_identity(path)
    failed = {c["metric"]: c["reason"] for c in verdict["checks"]
              if c["status"] == "fail"}
    assert failed and all(".intel.u" in metric for metric in failed)
    assert failed["mg.global.intel.u8w256.schedules"] == "schedules moved"
