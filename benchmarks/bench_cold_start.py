"""Cold start: the compiler's own start-up, one fresh interpreter per run.

Four commands, each run in a new interpreter over byte-compiled sources
(the way an installed package starts):

* ``import repro``
* ``repro compile FILE --emit-plan`` (compile only)
* ``repro compile FILE --run`` (compile and simulate)
* ``repro bench --n 64`` (the 20-kernel suite, compiled and simulated)

Per command the row records the median and the best (minimum) wall
seconds of ``RUNS`` runs, measured from the parent around the whole
process, and two host-independent facts read from one ``-X importtime``
run: whether NumPy loaded, and how many ``repro`` modules loaded.
Results land in ``results/BENCH_cold_start.json`` and
``results/cold_start.txt``. With ``REPRO_BENCH_SMOKE=1`` each command
runs three times, and the facts must equal the committed row's; on a
host whose fingerprint matches the committed row's, each best must
also stay within ``WALLCLOCK_TOLERANCE`` of the committed best. The
best is the gated figure because a shared host's noise only ever adds
time: the minimum of three runs moves only when all three are slow, the
median already when two are.
"""

from __future__ import annotations

import compileall
import os
import pathlib
import statistics
import subprocess
import sys
import time

from conftest import RESULTS_DIR, SMOKE, write_result

from repro.bench import ascii_table
from repro.bench.record import (
    fingerprints_match,
    machine_fingerprint,
    read_bench_json,
    write_bench_json,
)
from repro.bench.regress import WALLCLOCK_TOLERANCE

RUNS = 3 if SMOKE else 7

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
SOURCE = "examples/complex_multiply.slp"

COMMANDS = {
    "import repro": ["-c", "import repro"],
    "repro compile FILE --emit-plan": [
        "-m", "repro", "compile", SOURCE, "--emit-plan",
    ],
    "repro compile FILE --run": ["-m", "repro", "compile", SOURCE, "--run"],
    "repro bench --n 64": ["-m", "repro", "bench", "--n", "64"],
}


def _env():
    """The child's environment: this checkout's sources, and none of the
    settings that change what a compile does (``REPRO_CHECKS``)."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CHECKS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(argv, *flags) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *flags, *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_env(),
        timeout=300,
    )
    assert done.returncode == 0, f"{argv}: {done.stderr[-2000:]}"
    return done


def _timings(argv) -> dict:
    """The median and the best wall seconds of ``RUNS`` runs."""
    samples = []
    for _ in range(RUNS):
        started = time.perf_counter()
        _run(argv)
        samples.append(time.perf_counter() - started)
    return {
        "median_s": round(statistics.median(samples), 4),
        "best_s": round(min(samples), 4),
    }


def _import_facts(argv) -> dict:
    """Whether NumPy loaded and how many ``repro`` modules did, from the
    ``-X importtime`` lines (``import time: self | cumulative | name``)."""
    names = set()
    for line in _run(argv, "-X", "importtime").stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            names.add(line.split("|")[2].strip())
    return {
        "numpy_loaded": "numpy" in names,
        "repro_modules": sum(
            name == "repro" or name.startswith("repro.") for name in names
        ),
    }


def test_cold_start_row(results_dir):
    committed = (
        read_bench_json(RESULTS_DIR / "BENCH_cold_start.json")
        if SMOKE
        else None
    )
    # Bytecode is written once, here, so no measured run compiles it.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    interpreter = _timings(["-c", "pass"])["median_s"]
    rows = {
        name: {**_timings(argv), **_import_facts(argv)}
        for name, argv in COMMANDS.items()
    }
    assert not rows["import repro"]["numpy_loaded"]
    assert not rows["repro compile FILE --emit-plan"]["numpy_loaded"]
    assert rows["repro compile FILE --run"]["numpy_loaded"]

    if committed is not None:
        for name, row in rows.items():
            for fact in ("numpy_loaded", "repro_modules"):
                assert row[fact] == committed["commands"][name][fact], (
                    f"{name}: {fact} {row[fact]} != committed "
                    f"{committed['commands'][name][fact]}"
                )
        here = machine_fingerprint()
        if fingerprints_match(committed["bench_meta"]["fingerprint"], here):
            for name, row in rows.items():
                limit = committed["commands"][name]["best_s"] * (
                    1 + WALLCLOCK_TOLERANCE
                )
                assert row["best_s"] <= limit, (
                    f"{name}: best {row['best_s']:.3f} s > {limit:.3f} s"
                )

    write_bench_json(
        results_dir / "BENCH_cold_start.json",
        {
            "config": {"runs": RUNS, "source": SOURCE, "byte_compiled": True},
            "interpreter_s": round(interpreter, 4),
            "commands": rows,
        },
    )
    fingerprint = machine_fingerprint()
    body = ascii_table(
        ("command", "median s", "best s", "numpy", "repro modules"),
        [
            (
                name,
                f"{row['median_s']:.3f}",
                f"{row['best_s']:.3f}",
                "loaded" if row["numpy_loaded"] else "-",
                str(row["repro_modules"]),
            )
            for name, row in rows.items()
        ],
    )
    body += (
        f"\n\n`python -c pass` takes {interpreter:.3f} s; each median and "
        f"best is of {RUNS} fresh interpreters, timed around the whole "
        "process."
        f"\nmachine: {fingerprint['system']} {fingerprint['machine']}, "
        f"{fingerprint['cpu_count']} CPU, Python {fingerprint['python']} "
        f"(fingerprint {fingerprint['id']})"
    )
    write_result(
        results_dir / "cold_start.txt",
        "Cold start: fresh interpreters over byte-compiled sources",
        body,
    )
