"""Tests for the collapsed-stack profile and ``repro compile --perf``."""

from __future__ import annotations

from repro.bench import KERNELS
from repro.cli import main
from repro.ir.printer import format_program
from repro.perf import PerfRegistry

# A synthetic perf snapshot shaped exactly like PerfRegistry.snapshot():
# every span records under its ``;``-joined path only.
SNAPSHOT = {
    "sections": {
        "compile": (1.0, 2),
        "compile;slp.grouping": (0.4, 2),
        "compile;slp.grouping;slp.vp_graph": (0.1, 6),
        "compile;codegen.vector": (0.2, 2),
        "simulate": (0.5, 1),
    },
    "counters": {},
}


def collapsed(snapshot) -> str:
    registry = PerfRegistry()
    registry.merge(snapshot)
    return registry.collapsed()


# -- deterministic stage profile -----------------------------------------------


def test_stage_collapsed_emits_self_times_in_microseconds():
    lines = dict(
        line.rsplit(" ", 1) for line in collapsed(SNAPSHOT).splitlines()
    )
    # compile self = 1.0 - (0.4 grouping + 0.2 codegen) = 0.4s
    assert int(lines["compile"]) == 400_000
    # grouping self = 0.4 - 0.1 = 0.3s
    assert int(lines["compile;slp.grouping"]) == 300_000
    assert int(lines["compile;slp.grouping;slp.vp_graph"]) == 100_000
    assert int(lines["compile;codegen.vector"]) == 200_000
    # A second root keeps its own stack.
    assert int(lines["simulate"]) == 500_000


def test_stage_collapsed_totals_reconstruct_by_summation():
    lines = collapsed(SNAPSHOT).splitlines()
    total_us = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
    # Every self-time sums back to the root totals — the flame-graph
    # invariant a viewer relies on.
    assert total_us == 1_500_000


def test_stage_collapsed_is_deterministic():
    assert collapsed(SNAPSHOT) == collapsed(SNAPSHOT)


def test_stage_collapsed_empty_snapshot():
    assert collapsed({"sections": {}, "counters": {}}) == ""


# -- the CLI -------------------------------------------------------------------


def _cg_source(tmp_path):
    """The cg kernel at n=8, printed to a DSL source file."""
    source = tmp_path / "cg.slp"
    source.write_text(format_program(KERNELS["cg"].build(8)))
    return str(source)


def test_profile_cli_stages_mode(tmp_path, capsys):
    source = _cg_source(tmp_path)
    stacks = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.collapsed"
        status = main(
            ["compile", source, "--emit-plan", "--perf",
             f"collapsed={out}"]
        )
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines, "stage profile must not be empty"
        assert any(line.startswith("compile") for line in lines)
        assert any(";slp.grouping" in line for line in lines)
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
        stacks.append([line.rsplit(" ", 1)[0] for line in lines])
    # Two profiles of one compile list the same stacks in the same
    # order; only the wall-clock counts differ.
    assert stacks[0] == stacks[1]


def test_profile_cli_run_includes_simulation(tmp_path):
    out = tmp_path / "cg_run.collapsed"
    assert (
        main(["compile", _cg_source(tmp_path), "--perf", f"collapsed={out}"])
        == 0
    )
    assert any(
        line.startswith("simulate")
        for line in out.read_text().splitlines()
    )


def test_compile_perf_prints_self_times_adding_up(tmp_path, capsys):
    source = tmp_path / "stencil.slp"
    source.write_text(
        "double A[200]; double B[200];\n"
        "double tl; double tr;\n"
        "for (i = 1; i < 65; i += 1) {\n"
        "    tl = A[i-1] + A[i];\n"
        "    tr = A[i] + A[i+1];\n"
        "    B[i] = B[i] + (tr - tl) * 0.5;\n"
        "}\n"
    )
    assert main(
        ["compile", str(source), "--datapath", "512", "--perf", "--quiet",
         "--emit-plan"]
    ) == 0
    err = capsys.readouterr().err.split("-- self time --")[1]
    self_part, rest = err.split("-- total --")
    self_rows = [line.split() for line in self_part.splitlines()[1:]]
    total_rows = [line.split() for line in rest.splitlines()[1:]]
    names = {row[0] for row in self_rows}
    assert {"compile", "slp.grouping", "codegen.vector"} <= names
    assert "block" not in names and "round" not in names
    assert total_rows[0][0] == "compile"
    # Rows print at 0.01 ms: the self times add up to the compile total
    # within one rounding step per row.
    assert abs(
        sum(float(row[1]) for row in self_rows) - float(total_rows[0][1])
    ) <= 0.005 * (len(self_rows) + 1)
