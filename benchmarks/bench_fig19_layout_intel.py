"""Figure 19: Global+Layout execution-time reductions over scalar on the
Intel machine, next to plain Global.

Paper shape: the data layout optimization brings *additional* benefit on
a proper subset of the benchmarks (7 of 16 — its applicability is
restricted by the read-only / intra-array / affine constraints of
Section 5 and by its own cost gate) and never makes a benchmark worse
(when it would, the phase is skipped).
"""

from __future__ import annotations

from conftest import SUITE_N, write_result

from repro import Variant
from repro.bench import ascii_table, intel_dunnington, percent, run_kernel
from repro.bench.kernels import KERNELS

EPS = 1e-9


def test_fig19_layout_additional_benefit(benchmark, intel_suite, results_dir):
    machine = intel_dunnington()
    benchmark(
        run_kernel,
        KERNELS["mg"],
        machine,
        (Variant.SCALAR, Variant.GLOBAL, Variant.GLOBAL_LAYOUT),
        n=SUITE_N,
    )

    rows = []
    helped = []
    for result in sorted(
        intel_suite.values(),
        key=lambda r: r.time_reduction(Variant.GLOBAL_LAYOUT),
    ):
        glob = result.time_reduction(Variant.GLOBAL)
        layout = result.time_reduction(Variant.GLOBAL_LAYOUT)
        gained = layout > glob + 1e-6
        if gained:
            helped.append(result.kernel.name)
        rows.append(
            (
                result.kernel.name,
                percent(glob),
                percent(layout),
                "[layout helps]" if gained else "",
            )
        )
    body = ascii_table(
        ("benchmark", "Global", "Global+Layout", ""), rows
    )
    avg_g = sum(
        r.time_reduction(Variant.GLOBAL) for r in intel_suite.values()
    ) / len(intel_suite)
    avg_gl = sum(
        r.time_reduction(Variant.GLOBAL_LAYOUT) for r in intel_suite.values()
    ) / len(intel_suite)
    body += (
        f"\n\nlayout adds benefit on {len(helped)}/{len(intel_suite)} "
        "benchmarks: "
        f"{', '.join(helped)}"
        f"\naverages: Global {percent(avg_g)}, "
        f"Global+Layout {percent(avg_gl)}"
        "\n(paper, Intel: layout helps 7/16; averages 12% and 14.9%)"
    )
    write_result(
        results_dir / "fig19_layout_intel.txt",
        "Figure 19: Global+Layout execution time reduction (Intel)",
        body,
    )

    for result in intel_suite.values():
        assert (
            result.time_reduction(Variant.GLOBAL_LAYOUT)
            >= result.time_reduction(Variant.GLOBAL) - 1e-6
        ), f"{result.kernel.name}: layout made things worse"
    # A proper subset benefits: some benchmarks gain, some do not.
    assert 0 < len(helped) < len(intel_suite)
    assert avg_gl > avg_g
