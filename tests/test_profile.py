"""Tests for the collapsed-stack stage profile and ``repro profile``."""

from __future__ import annotations

from repro.cli import main
from repro.telemetry.profile import stage_collapsed, stage_tree

# A synthetic perf snapshot shaped exactly like PerfRegistry.snapshot():
# flat totals include every nested occurrence; nested paths carry the
# ``;``-joined dynamic nesting.
SNAPSHOT = {
    "sections": {
        "compile": (1.0, 2),
        "grouping": (0.4, 2),
        "codegen": (0.2, 2),
        "compile;grouping": (0.4, 2),
        "compile;grouping;decide": (0.1, 6),
        "compile;codegen": (0.2, 2),
    },
    "counters": {},
}


# -- deterministic stage profile -----------------------------------------------


def test_stage_tree_attributes_root_share():
    tree = stage_tree(SNAPSHOT)
    # grouping/codegen totals are fully explained by their nested
    # occurrences under compile, so they get no root-level node.
    assert ("grouping",) not in tree
    assert ("codegen",) not in tree
    assert tree[("compile",)] == 1.0
    assert tree[("compile", "grouping")] == 0.4
    assert tree[("compile", "grouping", "decide")] == 0.1
    assert tree[("compile", "codegen")] == 0.2


def test_stage_tree_keeps_genuine_top_level_sections():
    snapshot = {
        "sections": {"simulate": (0.5, 1), "compile": (1.0, 1)},
        "counters": {},
    }
    tree = stage_tree(snapshot)
    assert tree[("simulate",)] == 0.5
    assert tree[("compile",)] == 1.0


def test_stage_collapsed_emits_self_times_in_microseconds():
    lines = dict(
        line.rsplit(" ", 1)
        for line in stage_collapsed(SNAPSHOT).splitlines()
    )
    # compile self = 1.0 - (0.4 grouping + 0.2 codegen) = 0.4s
    assert int(lines["compile"]) == 400_000
    # grouping self = 0.4 - 0.1 = 0.3s
    assert int(lines["compile;grouping"]) == 300_000
    assert int(lines["compile;grouping;decide"]) == 100_000
    assert int(lines["compile;codegen"]) == 200_000


def test_stage_collapsed_totals_reconstruct_by_summation():
    lines = stage_collapsed(SNAPSHOT).splitlines()
    total_us = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
    # Every self-time sums back to the root total — the flame-graph
    # invariant a viewer relies on.
    assert total_us == 1_000_000


def test_stage_collapsed_is_deterministic():
    assert stage_collapsed(SNAPSHOT) == stage_collapsed(SNAPSHOT)


def test_stage_collapsed_empty_snapshot():
    assert stage_collapsed({"sections": {}, "counters": {}}) == ""


# -- the CLI -------------------------------------------------------------------


def test_profile_cli_stages_mode(tmp_path, capsys):
    stacks = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.collapsed"
        status = main(
            ["profile", "--kernel", "cg", "--n", "8", "--out", str(out)]
        )
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines, "stage profile must not be empty"
        assert any(line.startswith("compile") for line in lines)
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
        main(
            [
                "profile", "--kernel", "cg", "--n", "8", "--run",
                "--out", str(out),
            ]
        )
        == 0
    )
    assert any(
        line.startswith("simulate")
        for line in out.read_text().splitlines()
    )
