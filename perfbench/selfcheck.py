"""Checks that the benchmark itself can be trusted.

    python3 perfbench/selfcheck.py

Run from the repository root; exits 1 if any check fails.

* **oracle** — a short compile-wide run compiled with
  ``repro.fuzz.buggy_swap_mutator`` must report failed ops: the plan
  oracle can actually fail.
* **determinism** — two traced runs of compile-wide and of suite-paper
  with one seed give bit-identical deterministic metrics (the cycle
  ratios and every count); a second seed draws a different cell list.
  serve-mixed's request lists repeat for one seed and differ across
  seeds.
* **attribution** — in those traced runs the layer self times plus the
  remainders add up to the traced op time.
* **environment** — the variables that change compiles and simulations
  never reach a workload process.
"""

from __future__ import annotations

import math
import os
import sys

import run

DETERMINISTIC_METRICS = ("cycles_ratio_global", "cycles_ratio_layout")
DETERMINISTIC_LAYERS = (
    "transform.statements_out",
    "slp.candidates",
    "slp.exact_scores",
    "slp.superwords",
    "slp.grouped_share",
    "layout.replications",
    "codegen.vectorized_share",
    "codegen.static_instructions",
    "codegen.pack_unpack_ops",
)
SEED = 101
OTHER_SEED = 202


def traced(workload: str, seed: int) -> dict:
    _started, result = run.spawn(
        [
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--max-passes", "1", "--trace", "1", "--run-root", run.RUN_ROOT,
        ]
    )
    return result


def check_oracle() -> bool:
    _started, result = run.spawn(
        [
            "--workload", "compile-wide", "--seed", str(SEED),
            "--seconds", "1", "--max-passes", "1", "--mutate",
            "--run-root", run.RUN_ROOT,
        ]
    )
    share = result["failed"] / result["attempted"]
    print(
        f"oracle: {result['failed']}/{result['attempted']} ops fail under "
        f"buggy_swap_mutator (failed_share {share:.3f})"
    )
    for reason in result["failures"]:
        print(f"  e.g. {reason}")
    return result["failed"] > 0


def check_determinism_and_attribution() -> bool:
    ok = True
    for workload in ("compile-wide", "suite-paper"):
        first, second = traced(workload, SEED), traced(workload, SEED)
        other = traced(workload, OTHER_SEED)
        same = all(
            first["metrics"][name] == second["metrics"][name]
            for name in DETERMINISTIC_METRICS
        ) and all(
            first["layers"][name] == second["layers"][name]
            for name in DETERMINISTIC_LAYERS
        ) and first["cells"] == second["cells"]
        differs = first["cells"] != other["cells"]
        print(
            f"determinism {workload}: same seed identical={same}, "
            f"other seed draws different cells={differs}"
        )
        ok &= same and differs and first["failed"] == 0
        for result in (first, second, other):
            layers = result["layers"]
            attributed = sum(layers[name] for name in run.SELF_TIMES)
            close = math.isclose(
                attributed, layers["trace.op_ms"], rel_tol=1e-9
            )
            ok &= close
        print(
            f"attribution {workload}: layer self times + remainders "
            f"{attributed:.6f} ms vs traced op {layers['trace.op_ms']:.6f} ms"
        )

    import workload as wl

    hot = [("cg", "global", "intel"), ("lbm", "slp", "amd")]
    lists = [wl.serve_requests(seed, hot, 300) for seed in (SEED, SEED, OTHER_SEED)]

    def key(requests):
        return [
            (r.kind, r.hot, r.fuzz_seed, r.variant, r.machine, r.sim_seed)
            for client in requests
            for r in client
        ]

    same = key(lists[0]) == key(lists[1])
    differs = key(lists[0]) != key(lists[2])
    print(
        f"determinism serve-mixed: same seed identical={same}, "
        f"other seed differs={differs}"
    )
    return ok and same and differs


def check_environment() -> bool:
    saved = {name: os.environ.get(name) for name in run.PINNED_ENV}
    try:
        for name in run.PINNED_ENV:
            os.environ[name] = "all" if name == "REPRO_CHECKS" else "compiled"
        env = run.child_env()
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    pinned = not any(name in env for name in run.PINNED_ENV)
    print(f"environment: {', '.join(run.PINNED_ENV)} removed={pinned}")
    return pinned


def main() -> int:
    results = [
        check_environment(),
        check_oracle(),
        check_determinism_and_attribution(),
    ]
    print("selfcheck:", "ok" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
