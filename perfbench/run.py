"""The repository benchmark: one command per workload, from a seed.

    python3 perfbench/run.py --workload compile-wide --seed 1 --seconds 10 --trace 0

Run it from the repository root. Every workload runs in its own fresh
interpreter (``perfbench/workload.py``) with ``PYTHONPATH=src`` and with
``REPRO_CHECKS`` and ``REPRO_SIM_ENGINE`` removed from its environment.

``--trace 0`` prints every end-to-end metric. Set-up time is sampled
``SETUP_SAMPLES`` times (fresh processes that stop right before their
first op, plus the measured process itself) and reported as the median.

``--trace 1`` runs the workload twice, untraced and traced, and prints
every per-layer metric, the import-time probe, and the tracing overhead
(traced over untraced median op latency).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report. Full results, the machine fingerprint
and the traced run's spans are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD = os.path.join(HERE, "workload.py")
RUN_ROOT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("compile-wide", "suite-paper", "serve-mixed")
#: Environment variables that change what a compile or a simulation does.
PINNED_ENV = ("REPRO_CHECKS", "REPRO_SIM_ENGINE")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_share": "fraction",
    "peak_rss_mb": "MB",
    "cycles_ratio_global": "ratio",
    "cycles_ratio_layout": "ratio",
    "compile_ratio_global_slp": "ratio",
}

PER_LAYER_UNITS = {
    "import.repro_ms": "ms",
    "import.numpy_ms": "ms",
    "import.modules": "count",
    "ir.parse_ms": "ms",
    "ir.format_ms": "ms",
    "transform.ms": "ms",
    "transform.statements_out": "count",
    "analysis.deps_ms": "ms",
    "slp.grouping_ms": "ms",
    "slp.vp_graph_ms": "ms",
    "slp.candidates": "count",
    "slp.exact_scores": "count",
    "slp.schedule_ms": "ms",
    "slp.baseline_ms": "ms",
    "slp.superwords": "count",
    "slp.grouped_share": "fraction",
    "layout.ms": "ms",
    "layout.replications": "count",
    "codegen.vector_ms": "ms",
    "codegen.scalar_ms": "ms",
    "codegen.vectorized_share": "fraction",
    "codegen.static_instructions": "count",
    "codegen.pack_unpack_ops": "count",
    "compiler.self_ms": "ms",
    "vm.simulate_ms": "ms",
    "vm.instr_per_s": "instr/s",
    "vm.kernel_emissions": "1/op",
    "vm.kernel_reuse_share": "fraction",
    "store.hit_share": "fraction",
    "store.entry_kb": "KB",
    "service.parse_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.execute_ms": "ms",
    "service.client_ms": "ms",
    "service.coalesced_share": "fraction",
    "trace.op_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead": "ratio",
}

#: Layer self times that, with ``trace.unattributed_ms``, make up
#: ``trace.op_ms`` on the in-process workloads.
SELF_TIMES = (
    "compiler.self_ms", "transform.ms", "analysis.deps_ms",
    "slp.grouping_ms", "slp.vp_graph_ms", "slp.schedule_ms",
    "slp.baseline_ms", "layout.ms", "codegen.vector_ms",
    "codegen.scalar_ms", "vm.simulate_ms", "trace.unattributed_ms",
)


class BenchError(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: List[str], timeout: float = CHILD_TIMEOUT) -> Tuple[float, dict]:
    """Run one workload process; returns (monotonic start, its result).

    The child gets its own session so that a timeout also takes down a
    server it started (and that server's workers)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKLOAD, *argv],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"workload timed out after {timeout:.0f}s: {argv}")
    if proc.returncode != 0:
        raise BenchError(f"workload exited {proc.returncode}: {argv}")
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise BenchError(f"workload printed nothing: {argv}")
    return started, json.loads(lines[-1])


def import_probe() -> Dict[str, float]:
    """``python -X importtime -c "import repro"``, median of a few runs."""
    samples: Dict[str, List[float]] = {
        "import.repro_ms": [], "import.numpy_ms": [], "import.modules": [],
    }
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            capture_output=True,
            env=child_env(),
            cwd=ROOT,
            timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError("import repro failed")
        repro_us = numpy_us = 0
        modules = 0
        for line in proc.stderr.decode("utf-8", "replace").splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _self, cumulative, name = line.split("|", 2)
            name = name.strip()
            if not cumulative.strip().isdigit():
                continue  # the header line
            if name == "repro":
                repro_us = int(cumulative)
            elif name == "numpy":
                numpy_us = int(cumulative)
            if name == "repro" or name.startswith("repro."):
                modules += 1
        samples["import.repro_ms"].append(repro_us / 1e3)
        samples["import.numpy_ms"].append(numpy_us / 1e3)
        samples["import.modules"].append(modules)
    return {name: statistics.median(values) for name, values in samples.items()}


def finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def run_end_to_end(common: List[str]) -> Tuple[dict, Dict[str, float]]:
    """Set-up is timed in every process: ``SETUP_SAMPLES - 1`` that stop
    at their first op, then the measured one."""
    setups = []
    for setup_only in [True] * (SETUP_SAMPLES - 1) + [False]:
        started, result = spawn(common + (["--setup-only"] if setup_only else []))
        setups.append(result["first_op_at"] - started)
    main = result
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(main["metrics"])
    main["setup_samples_s"] = setups
    return main, metrics


def run_traced(args, common: List[str]) -> Tuple[dict, dict, Dict[str, float]]:
    imports = import_probe()
    spans_dir = os.path.join(RUN_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_out = os.path.join(
        spans_dir, f"{args.workload}-seed{args.seed}.jsonl"
    )
    # One pass over the op list on both sides: the traced counts are then
    # exactly the seed's, and both medians cover the same ops.
    _, plain = spawn(common + ["--max-passes", "1"])
    _, traced = spawn(
        common + ["--max-passes", "1", "--trace", "1", "--spans-out", spans_out]
    )
    layers = dict(traced["layers"])
    layers.update(imports)
    layers["trace.overhead"] = (
        traced["metrics"]["op_ms_p50"] / plain["metrics"]["op_ms_p50"]
    )
    return plain, traced, layers


def report(args, runs: List[dict], metrics: Dict[str, float], units) -> None:
    """The human-readable part of the output (every line but the last)."""
    main = runs[0]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"fingerprint {json.dumps(main.get('fingerprint', {}), sort_keys=True)}")
    latency = main["latency"]
    print(
        f"ops={latency['count']} phase_s={main['phase_s']:.3f} "
        f"passes={main.get('passes', '-')} attempted={main['attempted']} "
        f"failed={main['failed']}"
    )
    for reason in main["failures"]:
        print(f"  failure: {reason}")
    if not args.trace:
        m, raw = main["metrics"], main["raw"]
        p99 = (
            f"{latency['p99']:.3f} ms"
            if latency["count"] >= 1000
            else f"not valid ({latency['count']} ops < 1000)"
        )
        p90_note = "" if latency["count"] >= 100 else " (not valid: < 100 ops)"
        failed_share = main["failed"] / max(1, main["attempted"])
        print(
            f"host slowdown {main['host_slowdown']:.4f} (each op's latency "
            f"is divided by the slowdown sampled next to it; raw in brackets)"
        )
        print(f"  setup_s                  {metrics['setup_s']:.4f} s "
              f"(median of {main['setup_samples_s']})")
        print(f"  ops_per_s                {m['ops_per_s']:.3f} op/s "
              f"[{raw['ops_per_s']:.3f}]")
        print(f"  op_ms_p50                {m['op_ms_p50']:.3f} ms "
              f"[{raw['op_ms_p50']:.3f}]")
        print(f"  op_ms_p90                {m['op_ms_p90']:.3f} ms "
              f"[{raw['op_ms_p90']:.3f}]{p90_note}")
        print(f"  op_ms_p99                [{p99}] (not gated)")
        print(f"  failed_share             {failed_share:.6f} fraction")
        print(f"  cycles_ratio_global      {m['cycles_ratio_global']:.6f} ratio")
        print(f"  cycles_ratio_layout      {m['cycles_ratio_layout']:.6f} ratio")
        print(f"  compile_ratio_global_slp {m['compile_ratio_global_slp']:.4f} ratio")
        print(f"  peak_rss_mb              {m['peak_rss_mb']:.1f} MB")
        for kind, stats in main.get("by_kind", {}).items():
            print(
                f"  {kind:<15} n={stats['count']} p50={stats['p50']:.3f} ms "
                f"p90={stats['p90']:.3f} ms p99={stats['p99']:.3f} ms"
            )
        return
    for name in sorted(metrics):
        print(f"  {name:<28} {metrics[name]:.6g} {units[name]}")
    if args.workload != "serve-mixed":
        attributed = sum(metrics[name] for name in SELF_TIMES)
        print(
            f"  attribution: layer self times + remainders = "
            f"{attributed:.6f} ms vs traced op {metrics['trace.op_ms']:.6f} ms"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from a full checkout of "
            "the repository root",
            file=sys.stderr,
        )
        return 2
    os.makedirs(RUN_ROOT, exist_ok=True)
    # Bytecode is compiled here, once, so no measured set-up pays for it.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--run-root", RUN_ROOT,
    ]
    try:
        if args.trace:
            plain, traced, metrics = run_traced(args, common)
            runs, units = [traced, plain], PER_LAYER_UNITS
        else:
            main_run, metrics = run_end_to_end(common)
            runs, units = [main_run], END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics missing: {sorted(missing)}", file=sys.stderr)
        return 1
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    report(args, runs, metrics, units)
    results_dir = os.path.join(RUN_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(
        os.path.join(
            results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        ),
        "w",
    ) as handle:
        json.dump({"metrics": metrics, "runs": runs}, handle, indent=1)
    # A metric that is not a finite number (every op of a kind failed)
    # is printed as 0 and makes the run incorrect.
    numbers = all(math.isfinite(metrics[name]) for name in units)
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0 and numbers,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": finite(metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
