#!/usr/bin/env python
"""CI entry point for the perf-regression gate.

Thin wrapper over :mod:`repro.bench.regress` (the benchmarks directory
is not importable from the package, so the logic lives in ``src`` and
this script only parses flags)::

    PYTHONPATH=src python benchmarks/check_regressions.py
    PYTHONPATH=src python benchmarks/check_regressions.py \\
        --inject-slowdown 2.0 --json verdict.json

Exit status: 0 when every comparable metric is inside its band, 1 on
any failure. ``--inject-slowdown 2.0`` is the mutation step: CI runs
it and *requires* exit 1, proving the gate would catch a real 2x
cycle regression. Equivalent to ``repro bench --check``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.regress import check_planes, render_verdict, run_check

DEFAULT_BASELINE = (
    pathlib.Path(__file__).parent / "results" / "BENCH_suite.json"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
        help=f"baseline artifact (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument("--machine", default="intel")
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument(
        "--inject-slowdown", type=float, default=1.0,
        dest="inject_slowdown",
        help="multiply measured cycle metrics before comparison"
        " (mutation step: 2.0 must make the gate fail)",
    )
    parser.add_argument(
        "--json", type=pathlib.Path, default=None, dest="json_out",
        help="also write the verdict document to this path",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every check, not just failures",
    )
    args = parser.parse_args(argv)

    verdict = run_check(
        args.baseline,
        machine_name=args.machine,
        n=args.n,
        inject_slowdown=args.inject_slowdown,
        out_path=args.json_out,
    )
    print(render_verdict(verdict, verbose=args.verbose))
    status = 0 if verdict["status"] == "ok" else 1

    # The deterministic side planes (optimality gap, predication,
    # grouping work) ride along when their committed artifacts sit next
    # to the suite baseline — the same list ``repro bench --check`` runs.
    for label, side in check_planes(args.baseline.parent):
        print(f"{label} plane:")
        print(render_verdict(side, verbose=args.verbose))
        if side["status"] != "ok":
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
