"""One traced run behind every decision view: ``repro.trace.traced_run``
records the compile that ``repro trace``, ``repro trace --explain`` and
``repro bench --trace-dir`` show, so the explain view prints exactly the
decisions the compile committed and a result line its cost gate
agrees with."""

from __future__ import annotations

import re

import pytest

from repro.bench import ALL_KERNELS, KERNELS
from repro.bench import suite as suite_module
from repro.cli import main
from repro.compiler import CompilerOptions, Variant
from repro.ir import parse_program
from repro.ir.printer import format_program
from repro.trace import (
    TRACE,
    canonical_jsonl,
    load_jsonl,
    traced_run,
    validate_records,
)
from repro.vm import MACHINES

N = 16

#: (variant, extra flags) cells of the parity matrix: both holistic
#: variants under every grouping engine, plus a wider datapath.
CELLS = [
    (variant, ["--grouping-engine", engine])
    for variant in ("global", "global+layout")
    for engine in ("incremental", "reference", "optimal")
] + [
    (variant, ["--datapath", "512"])
    for variant in ("global", "global+layout")
]

DECISION = re.compile(r"^  round \d+: (b\d+):(\S+)  ")
RESULT = re.compile(r"^result: (\d+) superword statements")


@pytest.fixture(scope="module")
def kernel_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("kernels")
    paths = {}
    for kernel in ALL_KERNELS:
        path = root / f"{kernel.name}.slp"
        path.write_text(format_program(kernel.build(N)))
        paths[kernel.name] = str(path)
    return paths


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def _explained(text):
    """``(block, sids)`` per printed decision, and per block the
    superword count of its result line."""
    decisions, results, block = [], {}, None
    for line in text.splitlines():
        if line.startswith("=== "):
            block = line.split()[1].rstrip(":")
        match = DECISION.match(line)
        if match:
            sids = [int(s) for s in match.group(2).lstrip("S").split("+S")]
            decisions.append((match.group(1), sids))
        match = RESULT.match(line)
        if match:
            results[block] = int(match.group(1))
    return decisions, results


@pytest.mark.parametrize(
    "variant, flags", CELLS, ids=[f"{v}{''.join(f)}" for v, f in CELLS]
)
def test_explain_prints_the_compiles_own_decisions(
    kernel_files, capsys, tmp_path, variant, flags
):
    saved = tmp_path / "run.jsonl"
    for name, path in kernel_files.items():
        # One traced run yields both views: the printed explain view and
        # the saved record it renders.
        argv = [
            "trace", path, "--variant", variant, *flags, "--explain",
            "--out", str(saved),
        ]
        decisions, results = _explained(_stdout(capsys, argv))
        records = load_jsonl(saved.read_text())[1:]
        commits = [
            (r["prov"].split(":")[0], r["sids"])
            for r in records
            if r["ev"] == "grouping.commit"
        ]
        assert decisions == commits, name
        # Each block's result line agrees with the cost gate: a block
        # the gate left scalar keeps no superword, a vectorized one
        # keeps every group the scheduler picked.
        for gate in (r for r in records if r["ev"] == "codegen.gate"):
            picked = sum(
                1
                for r in records
                if r["ev"] == "schedule.pick"
                and r["prov"].startswith(gate["block"] + ":")
            )
            expected = picked if gate["vectorized"] else 0
            assert results[gate["block"]] == expected, (name, gate)


def test_explain_result_line_follows_the_cost_gate(kernel_files, capsys):
    # ua's grouping commits three pairs, but the cost gate keeps the
    # block scalar, as `repro compile` reports.
    text = _stdout(capsys, ["trace", kernel_files["ua"], "--explain"])
    assert "cycles: kept scalar" in text
    assert "result: 0 superword statements, 6 scalar statements" in text


def test_traced_run_leaves_the_tracer_off_and_empty():
    program = KERNELS["milc"].build(2)
    run = traced_run(
        program, Variant.GLOBAL, MACHINES["intel"](), simulate=False,
        meta={"kernel": "milc"},
    )
    assert run.report is None and run.memory is None
    assert run.records[0]["meta"] == {"kernel": "milc"}
    assert not validate_records(run.records)
    assert not TRACE.enabled and TRACE.records()[1:] == []

    with pytest.raises(Exception):
        traced_run(
            program, Variant.GLOBAL, MACHINES["intel"](),
            CompilerOptions(debug_schedule_mutator=_boom),
        )
    assert not TRACE.enabled and TRACE.records()[1:] == []


def _boom(schedule, label):
    raise RuntimeError("injected")


def test_bench_trace_dir_writes_the_traced_runs(
    tmp_path, capsys, monkeypatch
):
    kernels = [KERNELS["milc"], KERNELS["cg"]]
    monkeypatch.setattr(suite_module, "ALL_KERNELS", kernels)
    trace_dir = tmp_path / "traces"
    out = _stdout(
        capsys, ["bench", "--n", str(N), "--trace-dir", str(trace_dir)]
    )
    machine = MACHINES["intel"]()
    files = sorted(trace_dir.glob("*.jsonl"))
    assert len(files) == len(kernels) * len(suite_module.DEFAULT_VARIANTS)
    for kernel in kernels:
        for variant in suite_module.DEFAULT_VARIANTS:
            stem = f"{kernel.name}__{variant.value.replace('+', '_')}"
            records = load_jsonl((trace_dir / f"{stem}.jsonl").read_text())
            assert not validate_records(records), stem
            expected = traced_run(
                kernel.build(N), variant, machine,
                meta={"kernel": kernel.name, "variant": variant.value},
            ).records
            assert canonical_jsonl(records) == canonical_jsonl(expected)
            assert re.search(
                rf"^  {kernel.name} \[{re.escape(variant.value)}\]: "
                r"\d+ events, \d+ decisions, ",
                out,
                re.MULTILINE,
            ), stem


def test_explain_lists_the_compiled_programs_statements(
    kernel_files, capsys
):
    # Under --datapath 512 the loop unrolls wider: the explain view's
    # statements (and so its S-numbers) are the compiled plan's own
    # program.
    path = kernel_files["milc"]
    text = _stdout(
        capsys, ["trace", path, "--explain", "--datapath", "512"]
    )
    with open(path) as handle:
        program = parse_program(handle.read())
    plan_program = traced_run(
        program, Variant.GLOBAL, MACHINES["intel"]().with_datapath(512),
        simulate=False,
    ).result.plan.program
    for item in plan_program.body:
        while getattr(item, "inner", None) is not None:
            item = item.inner
        assert str(getattr(item, "body", item)) in text
