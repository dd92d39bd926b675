"""Smoke tests: every example script runs to completion and prints what
its docstring promises, and every example file README.md names exists."""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
README = EXAMPLES.parent / "README.md"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "faster" in out
    assert "semantics preserved: True" in out
    assert "instruction mix" in out


def test_figure15_walkthrough():
    out = run_example("figure15_walkthrough.py")
    assert "1 superword reuse(s)" in out
    assert "3 superword reuse(s)" in out
    assert "weight" in out


def test_complex_multiply():
    out = run_example("complex_multiply.py")
    assert "global+layout" in out
    assert "__slp_rep" in out


def test_stencil_sweep():
    out = run_example("stencil_sweep.py")
    assert "1024-bit" in out
    assert "superword statements" in out


def test_clamp_stencil():
    out = run_example("clamp_stencil.py")
    assert "select((s > U[i]), U[i], s)" in out
    assert "branch-semantics oracle matched: True" in out
    # The global variant must actually emit a blend, not fall back.
    global_row = next(
        line for line in out.splitlines() if line.strip().startswith("global")
    )
    assert global_row.split()[-1] == "1"


def test_inspect_pipeline():
    out = run_example("inspect_pipeline.py")
    assert "weight" in out
    assert "vpack" in out
    assert "max live superwords" in out
    assert "spills: 0" in out


def test_readme_names_only_existing_examples():
    named = set(re.findall(r"examples/([\w.-]+\.\w+)", README.read_text()))
    assert named, "README names no example file"
    missing = sorted(name for name in named if not (EXAMPLES / name).is_file())
    assert not missing, missing
