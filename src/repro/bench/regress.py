"""The perf-regression gate behind ``repro bench --check``.

The repo's benchmark artifacts (``benchmarks/results/BENCH_*.json``)
are committed; this module turns one of them — the deterministic suite
baseline ``BENCH_suite.json`` — into a *gate*: run the suite fresh,
compare metric by metric against the committed numbers, and emit a
machine-readable verdict.

Two metric kinds, two rules:

* **deterministic** — simulated cycle counts, dynamic instruction
  counts, pack/unpack op counts. The simulator is a deterministic cost
  model, so these are identical on every machine; any drift beyond a
  tight band (default 1%, which exists only to absorb intentional
  rounding in derived metrics) is a regression *or* an unacknowledged
  compiler change — either way, the gate should trip and force the
  author to look (and re-record the baseline if the change is
  intended).
* **wallclock** — compile seconds. Only comparable on the machine
  class that recorded the baseline (:func:`repro.bench.record.
  machine_fingerprint`); on any other machine these checks are
  reported ``skipped``, never failed, so CI can run the gate against a
  baseline recorded elsewhere. When fingerprints do match, a wide band
  (default 75%) absorbs load noise while still catching order-of-
  magnitude rot.

The verdict (``repro.bench.check/1``) lists every metric with its
baseline/current values, ratio, band, and status; the overall status
is ``fail`` iff any metric failed. ``--inject-slowdown`` multiplies
current deterministic cycle metrics before comparison — the CI
mutation step uses it to prove the gate actually catches a 2x
regression, the benchmark-suite analogue of mutation-testing your
tests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .record import (
    fingerprints_match,
    machine_fingerprint,
    read_bench_json,
    write_bench_json,
)

#: Versioned schema of the verdict document.
CHECK_SCHEMA = "repro.bench.check/1"

#: Relative band for deterministic metrics (simulated cycles et al.).
DETERMINISTIC_TOLERANCE = 0.01

#: Relative band for wall-clock metrics on a matching machine.
WALLCLOCK_TOLERANCE = 0.75


def suite_metrics(results: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Flatten a ``run_suite`` result map into the two metric planes.

    Deterministic: per kernel+variant ``cycles``,
    ``dynamic_instructions``, and ``pack_unpack_ops``. Wallclock: total
    compile seconds across the sweep.
    """
    deterministic: Dict[str, float] = {}
    compile_seconds = 0.0
    for name in sorted(results):
        result = results[name]
        for variant in sorted(result.runs, key=lambda v: v.value):
            run = result.runs[variant]
            prefix = f"{name}.{variant.value}"
            deterministic[f"{prefix}.cycles"] = float(run.report.cycles)
            deterministic[f"{prefix}.dynamic_instructions"] = float(
                run.report.dynamic_instructions
            )
            deterministic[f"{prefix}.pack_unpack_ops"] = float(
                run.report.pack_unpack_ops
            )
            compile_seconds += float(run.stats.compile_seconds)
    return {
        "deterministic": deterministic,
        "wallclock": {"compile_seconds_total": compile_seconds},
    }


def write_suite_baseline(
    path: Path,
    results: Dict[str, Any],
    *,
    machine: str,
    n: int,
) -> Dict[str, Any]:
    """Record ``BENCH_suite.json`` — the committed gate baseline."""
    return write_bench_json(
        path,
        {
            "config": {"machine": machine, "n": n},
            "metrics": suite_metrics(results),
        },
    )


def _check_plane(
    kind: str,
    baseline: Dict[str, float],
    current: Dict[str, float],
    tolerance: float,
    comparable: bool,
    skip_reason: Optional[str],
) -> List[Dict[str, Any]]:
    checks: List[Dict[str, Any]] = []
    for name in sorted(set(baseline) | set(current)):
        entry: Dict[str, Any] = {
            "metric": name,
            "kind": kind,
            "baseline": baseline.get(name),
            "current": current.get(name),
            "tolerance": tolerance,
        }
        if not comparable:
            entry["status"] = "skipped"
            entry["reason"] = skip_reason
        elif name not in baseline:
            # New metrics are informational until the baseline is
            # re-recorded; a gate must not punish added coverage.
            entry["status"] = "skipped"
            entry["reason"] = "metric not in baseline"
        elif name not in current:
            entry["status"] = "fail"
            entry["reason"] = "metric missing from current run"
        else:
            base, cur = baseline[name], current[name]
            if base == 0:
                ratio = 1.0 if cur == 0 else float("inf")
            else:
                ratio = cur / base
            entry["ratio"] = round(ratio, 6) if ratio != float(
                "inf"
            ) else "inf"
            if abs(ratio - 1.0) <= tolerance:
                entry["status"] = "ok"
            else:
                entry["status"] = "fail"
                entry["reason"] = (
                    f"outside ±{tolerance:.0%} band"
                    f" ({'slower' if ratio > 1 else 'changed'})"
                )
        checks.append(entry)
    return checks


def plane_verdict(
    baseline_path: Path,
    checks: List[Dict[str, Any]],
    *,
    fingerprint_match: bool = True,
    inject_slowdown: float = 1.0,
    out_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """The verdict document over a list of :func:`_check_plane` checks;
    ``fail`` iff any check failed. Optionally written to ``out_path``."""
    failed = [c for c in checks if c["status"] == "fail"]
    skipped = [c for c in checks if c["status"] == "skipped"]
    verdict = {
        "schema": CHECK_SCHEMA,
        "baseline": str(baseline_path),
        "fingerprint_match": fingerprint_match,
        "inject_slowdown": inject_slowdown,
        "counts": {
            "ok": len(checks) - len(failed) - len(skipped),
            "fail": len(failed),
            "skipped": len(skipped),
        },
        "status": "fail" if failed else "ok",
        "checks": checks,
    }
    if out_path is not None:
        Path(out_path).write_text(
            json.dumps(verdict, indent=2, sort_keys=True) + "\n"
        )
    return verdict


def check_planes(
    baseline_dir: Path,
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Gate the deterministic planes committed next to the suite
    baseline — optimality gap, predication, grouping work, identity and
    the top-width row's counters — whose artifacts sit in
    ``baseline_dir``; yields ``(label, verdict)`` in that order. A plane
    whose artifact is absent is not run. Checker errors (unreadable
    artifact, config mismatch) propagate."""
    # Imported here: the plane modules build on this one.
    from .grouping_work import check_grouping_work, check_topwidth
    from .identity import check_identity
    from .optimality import check_optimality
    from .predication import check_predication

    for label, filename, check in (
        ("optimality-gap", "BENCH_optimality.json", check_optimality),
        ("predication", "BENCH_predication.json", check_predication),
        ("grouping-work", "BENCH_grouping_work.json", check_grouping_work),
        ("identity", "BENCH_identity.json", check_identity),
        ("topwidth-work", "BENCH_compile_topwidth.json", check_topwidth),
    ):
        path = Path(baseline_dir) / filename
        if path.exists():
            yield label, check(path)


def check_suite(
    baseline_path: Path,
    results: Dict[str, Any],
    *,
    inject_slowdown: float = 1.0,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Compare a fresh ``run_suite`` result map against a committed
    baseline; returns the verdict document. ``config`` (machine name,
    n) is cross-checked against the baseline's recorded config — a
    mismatch is an operator error, not a perf regression, and fails
    loudly before any metric comparison."""
    baseline = read_bench_json(baseline_path)
    recorded = baseline.get("config") or {}
    if config:
        mismatched = {
            key: (recorded.get(key), config[key])
            for key in config
            if recorded.get(key) != config[key]
        }
        if mismatched:
            raise ValueError(
                f"{baseline_path}: baseline recorded with"
                f" {recorded}, but this run used {config}"
                f" — rerun with matching flags or re-record"
            )
    base_fp = baseline["bench_meta"].get("fingerprint") or {}
    here_fp = machine_fingerprint()
    same_machine = fingerprints_match(base_fp, here_fp)

    current = suite_metrics(results)
    if inject_slowdown != 1.0:
        current["deterministic"] = {
            name: value * inject_slowdown
            if name.endswith(".cycles")
            else value
            for name, value in current["deterministic"].items()
        }

    base_metrics = baseline.get("metrics") or {}
    checks = _check_plane(
        "deterministic",
        base_metrics.get("deterministic") or {},
        current["deterministic"],
        DETERMINISTIC_TOLERANCE,
        comparable=True,
        skip_reason=None,
    )
    checks += _check_plane(
        "wallclock",
        base_metrics.get("wallclock") or {},
        current["wallclock"],
        WALLCLOCK_TOLERANCE,
        comparable=same_machine,
        skip_reason=(
            None
            if same_machine
            else f"machine fingerprint mismatch (baseline"
            f" {base_fp.get('id', '?')}, here {here_fp['id']})"
        ),
    )

    return plane_verdict(
        baseline_path,
        checks,
        fingerprint_match=same_machine,
        inject_slowdown=inject_slowdown,
    )


def render_verdict(verdict: Dict[str, Any], verbose: bool = False) -> str:
    """A terse human rendering: the failures (always), plus every check
    when ``verbose``."""
    lines = []
    counts = verdict["counts"]
    lines.append(
        f"bench check vs {verdict['baseline']}: {verdict['status']} "
        f"({counts['ok']} ok, {counts['fail']} fail, "
        f"{counts['skipped']} skipped"
        + (
            ""
            if verdict["fingerprint_match"]
            else "; wall-clock skipped: different machine"
        )
        + ")"
    )
    for check in verdict["checks"]:
        if check["status"] == "fail" or (
            verbose and check["status"] != "skipped"
        ):
            lines.append(
                f"  [{check['status']}] {check['metric']}: "
                f"baseline={check['baseline']} current={check['current']}"
                f" ratio={check.get('ratio', '-')}"
                + (
                    f" ({check['reason']})"
                    if check.get("reason")
                    else ""
                )
            )
    return "\n".join(lines)


__all__ = [
    "CHECK_SCHEMA",
    "DETERMINISTIC_TOLERANCE",
    "WALLCLOCK_TOLERANCE",
    "check_planes",
    "check_suite",
    "plane_verdict",
    "render_verdict",
    "suite_metrics",
    "write_suite_baseline",
]
