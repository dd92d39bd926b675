"""The optimality-gap plane: greedy vs provably optimal packing.

goSLP (PAPERS.md) turns SLP pairing into an exactly solvable problem;
with the ``optimal`` grouping engine (:mod:`repro.slp.optimal`) the
greedy heuristic's quality becomes a *measured quantity*: for every
kernel x unroll factor this module reports

* **score** — the round-0 (pairing) whole-selection packing objective
  (:meth:`repro.slp.grouping.BasicGrouping.selection_objective`) of the
  incremental engine vs the optimal engine, summed over the program's
  blocks, plus the gap ``optimal - greedy``. The optimal engine seeds
  its search with the greedy result, so the score gap is ``>= 0`` by
  construction; when the exact search completes within budget the gap
  is exact, otherwise the engine fell back and the gap reads 0 with
  ``proven`` false.
* **cycles** — end-to-end simulated cycles of the GLOBAL variant
  compiled with each grouping engine. The cycle gap is
  ``greedy - optimal`` (positive: the optimal packing also runs
  faster); unlike the score it is *not* sign-guaranteed — a better
  packing score can lose cycles downstream (scheduling, layout), which
  is precisely what the benchmark exists to expose.
* **proven** — 1.0 when every grouping round of every block finished
  its exact search within budget.

``check_optimality`` gates the committed ``BENCH_optimality.json``
(the PR-7 regression-gate pattern): it recomputes the deterministic
score plane with the baseline's recorded config and fails on any drift
beyond the deterministic tolerance — so a heuristic tweak that widens
the greedy-vs-optimal gap cannot land silently.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis import DependenceGraph
from ..ir import BasicBlock
from .kernels import ALL_KERNELS, KERNELS
from .record import read_bench_json, write_bench_json
from .regress import DETERMINISTIC_TOLERANCE, _check_plane, plane_verdict

#: The unroll factors of the committed baseline grid.
DEFAULT_UNROLL_FACTORS = (2, 4, 8)
#: Baseline problem size (grouping cost is independent of the loop trip
#: count; this only sizes the simulated-cycles plane).
DEFAULT_N = 64


def _program_blocks(pre) -> List[BasicBlock]:
    """The blocks phase 1 of the compiler optimizes: one per program
    body item, the innermost body for loop nests (outer-level blocks
    are compiled scalar — see ``repro.compiler``)."""
    blocks = []
    for item in pre.body:
        if isinstance(item, BasicBlock):
            blocks.append(item)
        else:
            loop = item
            while loop.inner is not None:
                loop = loop.inner
            blocks.append(loop.body)
    return blocks


def pairing_objectives(
    program,
    datapath_bits: int,
    engine: str,
    node_budget: Optional[int] = None,
) -> Tuple[Fraction, bool, int]:
    """Sum of the round-0 pairing objectives over a (preprocessed)
    program's blocks for one grouping engine; returns
    ``(objective, all_proven, nodes_explored)``."""
    from ..layout import default_scalar_layout
    from ..slp.grouping import BasicGrouping, PenaltyContext
    from ..slp.model import GroupNode

    context = PenaltyContext(
        scalar_slots=PenaltyContext.from_arenas(
            default_scalar_layout(program)
        )
    )
    options = {"node_budget": node_budget} if node_budget else None
    total = Fraction(0)
    proven = True
    nodes = 0
    for block in _program_blocks(program):
        deps = DependenceGraph(block)
        grouping = BasicGrouping(
            [GroupNode.of_statement(s) for s in block],
            deps,
            datapath_bits,
            lambda name: program.arrays[name],
            context,
            "cost-aware",
            engine,
            engine_options=options,
        )
        _, _, trace = grouping.run()
        total += trace.objective or Fraction(0)
        proven = proven and (
            trace.proven_optimal or engine != "optimal"
        )
        nodes += trace.nodes_explored
    return total, proven, nodes


def optimality_metrics(
    *,
    machine_name: str = "intel",
    n: int = DEFAULT_N,
    unroll_factors: Sequence[int] = DEFAULT_UNROLL_FACTORS,
    kernels: Optional[Sequence[str]] = None,
    node_budget: Optional[int] = None,
    include_cycles: bool = True,
) -> Dict[str, Dict[str, float]]:
    """The metric planes (see module docstring) for a kernel grid."""
    from ..compiler import CompilerOptions, Variant, compile_program
    from ..transform import if_convert_program, unroll_program
    from ..vm import MACHINES, Simulator

    machine = MACHINES[machine_name]()
    datapath = machine.datapath_bits
    selected = (
        [KERNELS[name] for name in kernels]
        if kernels is not None
        else ALL_KERNELS
    )
    score: Dict[str, float] = {}
    cycles: Dict[str, float] = {}
    proven_plane: Dict[str, float] = {}
    for kernel in selected:
        program = kernel.build(n)
        # Branchy kernels carry if/else regions; grouping (like the
        # compiler pipeline) only ever sees the if-converted form.
        flattened = if_convert_program(program)
        for factor in unroll_factors:
            key = f"{kernel.name}.u{factor}"
            pre = unroll_program(flattened, datapath, factor)
            greedy_score, _, _ = pairing_objectives(
                pre, datapath, "incremental"
            )
            optimal_score, proven, _ = pairing_objectives(
                pre, datapath, "optimal", node_budget
            )
            score[f"{key}.greedy"] = float(greedy_score)
            score[f"{key}.optimal"] = float(optimal_score)
            score[f"{key}.gap"] = float(optimal_score - greedy_score)
            proven_plane[key] = 1.0 if proven else 0.0
            if not include_cycles:
                continue
            run_cycles = {}
            for engine in ("incremental", "optimal"):
                options = CompilerOptions(
                    grouping_engine=engine,
                    unroll_factor=factor,
                    optimal_node_budget=node_budget,
                    on_error="raise",
                )
                result = compile_program(
                    program, Variant.GLOBAL, machine, options
                )
                report, _ = Simulator(machine).run(result.plan)
                run_cycles[engine] = float(report.cycles)
            cycles[f"{key}.greedy"] = run_cycles["incremental"]
            cycles[f"{key}.optimal"] = run_cycles["optimal"]
            cycles[f"{key}.gap"] = (
                run_cycles["incremental"] - run_cycles["optimal"]
            )
    metrics: Dict[str, Dict[str, float]] = {
        "score": score,
        "proven": proven_plane,
    }
    if include_cycles:
        metrics["cycles"] = cycles
    return metrics


def write_optimality_baseline(
    path: Path,
    metrics: Dict[str, Dict[str, float]],
    *,
    machine: str,
    n: int,
    unroll_factors: Sequence[int],
    node_budget: Optional[int] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Record ``BENCH_optimality.json`` — the committed gate baseline.
    ``extra`` keys (e.g. a human-readable summary) ride along in the
    artifact; the checker only reads ``config`` and ``metrics``."""
    return write_bench_json(
        path,
        {
            "config": {
                "machine": machine,
                "n": n,
                "unroll_factors": list(unroll_factors),
                "node_budget": node_budget,
            },
            "metrics": metrics,
            **extra,
        },
    )


def check_optimality(
    baseline_path: Path,
    *,
    out_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Gate the committed optimality baseline: recompute the
    deterministic score plane with the baseline's recorded config and
    compare metric by metric.  The simulated-cycles plane is covered by
    the main suite gate; recomputing scores alone keeps the check fast
    and exactly reproducible on any machine."""
    baseline = read_bench_json(baseline_path)
    config = baseline.get("config") or {}
    base_metrics = baseline.get("metrics") or {}
    current = optimality_metrics(
        machine_name=config.get("machine", "intel"),
        n=int(config.get("n", DEFAULT_N)),
        unroll_factors=tuple(
            config.get("unroll_factors", DEFAULT_UNROLL_FACTORS)
        ),
        node_budget=config.get("node_budget"),
        include_cycles=False,
    )
    checks = _check_plane(
        "optimality-score",
        base_metrics.get("score") or {},
        current["score"],
        DETERMINISTIC_TOLERANCE,
        comparable=True,
        skip_reason=None,
    )
    checks += _check_plane(
        "optimality-proven",
        base_metrics.get("proven") or {},
        current["proven"],
        DETERMINISTIC_TOLERANCE,
        comparable=True,
        skip_reason=None,
    )
    return plane_verdict(baseline_path, checks, out_path=out_path)


__all__ = [
    "DEFAULT_N",
    "DEFAULT_UNROLL_FACTORS",
    "check_optimality",
    "optimality_metrics",
    "pairing_objectives",
    "write_optimality_baseline",
]
