"""Plan disassembly and the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import Variant, compile_program, intel_dunnington
from repro.cli import build_parser, main
from repro.ir import parse_program
from repro.vm.pretty import (
    disassemble_plan,
    format_instruction,
    format_ref,
    instruction_histogram,
)
from repro.vm.isa import ImmRef, MemRef, PackMode, ScalarRef, VPack
from repro.ir import Affine

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
COMPLEX_MULTIPLY = EXAMPLES / "complex_multiply.slp"
CLAMP_STENCIL = EXAMPLES / "clamp_stencil.slp"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"

#: Two loops the ``ir`` verifier rejects (``ir.bounds``): one reads
#: ``A[-1]``, the other writes past the end of a 4-element ``A``.
OUT_OF_BOUNDS = {
    "reads-below": """
double A[16]; double B[16];
for (i = 0; i < 8; i += 1) {
    B[i] = A[i-1] + A[i];
}
""",
    "writes-past": """
double A[4]; double B[16];
for (i = 0; i < 8; i += 1) {
    A[i] = B[i] * 2.0;
}
""",
}

SRC = """
double X[64]; double Y[64];
double a;
for (i = 0; i < 32; i += 1) {
    Y[i] = a * X[i] + Y[i];
}
"""


@pytest.fixture()
def plan():
    return compile_program(
        parse_program(SRC), Variant.GLOBAL, intel_dunnington()
    ).plan


class TestFormatting:
    def test_format_refs(self):
        assert format_ref(ScalarRef("a")) == "$a"
        assert format_ref(ImmRef(2.0)) == "#2.0"
        assert format_ref(MemRef("X", Affine.of(3, i=1))) == "X[i + 3]"

    def test_format_vpack(self):
        instr = VPack(
            3, (ScalarRef("a"), ScalarRef("a")), PackMode.BROADCAST
        )
        text = format_instruction(instr)
        assert "v3" in text and "broadcast" in text

    def test_disassemble_plan_structure(self, plan):
        text = disassemble_plan(plan)
        assert "arena double" in text
        assert "loop i = 0..32 step 2" in text
        assert "preheader:" in text
        assert "vop.*" in text and "vstore" in text

    def test_histogram_counts_static_instructions(self, plan):
        histogram = instruction_histogram(plan)
        assert histogram.get("VOp", 0) >= 2
        assert histogram.get("VStore", 0) >= 1


class TestCli:
    def _write(self, tmp_path: pathlib.Path) -> str:
        path = tmp_path / "kernel.slp"
        path.write_text(SRC)
        return str(path)

    def test_compile_runs_and_reports(self, tmp_path, capsys):
        assert main(["compile", self._write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_compile_emit_plan(self, tmp_path, capsys):
        assert (
            main(
                [
                    "compile",
                    self._write(tmp_path),
                    "--emit-plan",
                    "--variant",
                    "global",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "vpack" in out

    def test_compile_emit_schedule(self, tmp_path, capsys):
        assert (
            main(
                ["compile", self._write(tmp_path), "--emit-schedule"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "<S0, S1>" in out

    def test_compare_all_variants(self, tmp_path, capsys):
        argv = ["compile", self._write(tmp_path), "--variant", "all"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for name in ("scalar", "native", "slp", "global"):
            assert name in out
        assert "MISMATCH" not in out

    def test_kernels_listing(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "cactusADM" in out and "NAS" in out

    def test_explain_shows_weights_and_decisions(self, tmp_path, capsys):
        assert main(["trace", self._write(tmp_path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "weight" in out and "score" in out
        assert "decisions:" in out
        assert "superword statements" in out

    def test_explain_if_converts_regions_first(self, tmp_path, capsys):
        # Regression: the explain view used to feed raw IfRegions to
        # the unroller and crash; it must flatten them like compile does.
        src = tmp_path / "branchy.slp"
        src.write_text(
            """
            double A[72]; double B[72]; double c;
            for (i = 0; i < 64; i += 1) {
                if (A[i] > c) {
                    B[i] = c;
                } else {
                    B[i] = A[i];
                }
            }
            """
        )
        assert main(["trace", str(src), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "select" in out
        assert "superword statements" in out

    def test_machine_and_datapath_flags(self, tmp_path, capsys):
        assert (
            main(
                [
                    "compile",
                    self._write(tmp_path),
                    "--machine",
                    "amd",
                    "--datapath",
                    "256",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cycles" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--optimal-node-budget", "0"], "'optimal_node_budget' is 0"),
            (["--datapath", "100"], "datapath of 100 bits"),
        ],
    )
    def test_meaningless_flag_is_a_usage_error(self, flags, message, capsys):
        assert main(["compile", str(COMPLEX_MULTIPLY), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1
        assert message in err

    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.slp"
        assert main(["compile", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err == f"repro: error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize(
        "command, flags",
        [("compile", []), ("trace", []), ("trace", ["--explain"])],
        ids=["compile", "trace", "explain"],
    )
    def test_unparsable_source_is_a_usage_error(
        self, command, flags, tmp_path, capsys
    ):
        source = tmp_path / "bad.slp"
        source.write_text("this is not a program\n")
        assert main([command, str(source), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: line 1:1: ")
        assert err.count("\n") == 1

    def test_directory_as_input_is_a_usage_error(self, tmp_path, capsys):
        assert main(["compile", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"repro: error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"ev": "span.begin"}\n', "unsupported trace schema None"),
            ("not json\n", "line 1: not JSON"),
        ],
    )
    def test_rejected_saved_trace_is_a_usage_error(
        self, text, message, tmp_path, capsys
    ):
        saved = tmp_path / "saved.jsonl"
        saved.write_text(text)
        assert main(["trace", str(saved), "--validate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "command",
        [["trace", str(COMPLEX_MULTIPLY)], ["kernels"]],
        ids=["trace", "kernels"],
    )
    def test_closed_output_pipe_ends_quietly(self, command):
        """With stdout a pipe whose reader is gone before the command
        writes, the command stops without a traceback — neither from
        its own writes nor from the flush at interpreter exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *command],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr
        assert done.returncode == 1

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compile", "x.slp", "--variant", "bogus"]
            )

    @pytest.mark.parametrize(
        "command", ["compare", "explain", "profile", "verify"]
    )
    def test_folded_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, str(COMPLEX_MULTIPLY)])
        assert err.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source", [COMPLEX_MULTIPLY, CLAMP_STENCIL],
        ids=["complex_multiply", "clamp_stencil"],
    )
    def test_every_variant_passes_on_the_examples(self, source, capsys):
        assert main(["compile", str(source), "--variant", "all"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == [v.value for v in Variant]
        assert all(row.split()[-1] == "ok" for row in rows)

    def test_every_variant_fails_on_a_diagnostic(self, capsys):
        argv = [
            "compile", str(COMPLEX_MULTIPLY), "--variant", "all",
            "--grouping-engine", "optimal", "--optimal-node-budget", "1",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        notes = captured.err.splitlines()
        assert notes and all(line.startswith("note: [") for line in notes)
        assert "OptimalBudgetExceeded" in captured.err
        # Memory still agrees: only the diagnostics fail the run.
        assert "MISMATCH" not in captured.out

    @pytest.mark.parametrize(
        "checks, verdict", [("all", "FAIL"), ("none", "MISMATCH")]
    )
    def test_every_variant_fails_on_a_miscompile(
        self, checks, verdict, capsys, monkeypatch
    ):
        # A schedule reversed against its dependences: the verifier
        # rejects it (a FAIL row), or unchecked it computes the wrong
        # memory (a MISMATCH row). Either way the status is 1.
        from dataclasses import replace

        from repro import cli
        from repro.fuzz import buggy_swap_mutator

        options = cli._options
        monkeypatch.setattr(
            cli, "_options",
            lambda args: replace(
                options(args), debug_schedule_mutator=buggy_swap_mutator
            ),
        )
        argv = [
            "compile", str(COMPLEX_MULTIPLY), "--variant", "all",
            "--checks", checks,
        ]
        assert main(argv) == 1
        rows = capsys.readouterr().out.splitlines()[2:]
        verdicts = {row.split()[0]: row.split()[-1] for row in rows}
        assert verdicts["scalar"] == "ok"
        assert verdicts["global"] == verdict

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compile", str(COMPLEX_MULTIPLY), "--variant", "all",
              "--emit-plan"], "--variant all"),
            (["trace", str(COMPLEX_MULTIPLY), "--explain", "--json"],
             "--explain"),
            (["trace", str(COMPLEX_MULTIPLY), "--explain", "--diff",
              "global:slp"], "--explain"),
            (["trace", "saved.jsonl", "--explain"], ".jsonl"),
        ],
        ids=["emit-plan-all", "explain-json", "explain-diff",
             "explain-saved-trace"],
    )
    def test_meaningless_combination_is_a_usage_error(
        self, argv, message, capsys
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1
        assert message in err

    def test_perf_takes_only_a_collapsed_path(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compile", str(COMPLEX_MULTIPLY), "--perf", "flame=x"])
        assert err.value.code == 2
        assert "expected collapsed=PATH" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(OUT_OF_BOUNDS))
    @pytest.mark.parametrize(
        "argv",
        [["compile"], ["compile", "--variant", "all"], ["trace"],
         ["trace", "--explain"], ["submit"]],
        ids=["compile", "compile-all", "trace", "trace-explain", "submit"],
    )
    def test_out_of_bounds_source_is_a_usage_error(
        self, name, argv, tmp_path, capsys, monkeypatch
    ):
        from repro.vm.simulator import Simulator

        def no_run(*_args, **_kwargs):
            raise AssertionError("an unverified program was simulated")

        monkeypatch.setattr(Simulator, "run", no_run)
        source = tmp_path / f"{name}.slp"
        source.write_text(OUT_OF_BOUNDS[name])
        command, *flags = argv
        assert main([command, str(source), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: subscript ")
        assert captured.err.count("\n") == 1
        assert "rule=ir.bounds" in captured.err
