"""The cold path: compiling never loads NumPy or the fast sim engines.

``import repro``, ``compile_program`` and every compile-only command run
without NumPy and without :mod:`repro.vm.batched` and
:mod:`repro.vm.compiled`; the first simulation imports the engine it
picks. The service pool loads the engines before it forks its workers.
Each test runs in a fresh interpreter, since this process has long since
imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).parent.parent
SRC_DIR = ROOT / "src"


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter from the repository root; it
    prints one JSON object as its last line, which is returned."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_compiling_loads_no_numpy_and_simulating_loads_the_engine():
    facts = run_fresh(
        """
        import json, sys

        import repro
        from repro import CompilerOptions, Variant, compile_program
        from repro.bench.kernels import ALL_KERNELS
        from repro.vm import MACHINES, Simulator

        ENGINES = ("repro.vm.batched", "repro.vm.compiled")
        intel = MACHINES["intel"]()
        for kernel in ALL_KERNELS:
            program = kernel.build(16)
            for variant in Variant:
                compile_program(program, variant, intel)
        wide = compile_program(
            ALL_KERNELS[0].build(16), Variant.GLOBAL_LAYOUT, intel,
            CompilerOptions(unroll_factor=8, datapath_bits=1024),
        )
        after_compile = [m for m in ("numpy",) + ENGINES if m in sys.modules]
        report, memory = repro.simulate(wide)
        after_simulate = [m for m in ("numpy",) + ENGINES if m in sys.modules]
        oracle, oracle_memory = Simulator(wide.machine, engine="reference").run(
            wide.plan
        )
        print(json.dumps({
            "kernels": len(ALL_KERNELS),
            "after_compile": after_compile,
            "after_simulate": after_simulate,
            "report_equal": report == oracle,
            "memory_equal": memory.state_equal(oracle_memory),
        }))
        """
    )
    assert facts["kernels"] == 20
    assert facts["after_compile"] == []
    assert facts["after_simulate"] == ["numpy", "repro.vm.batched"]
    assert facts["report_equal"] and facts["memory_equal"]


def test_compile_only_command_loads_no_numpy_service_or_fuzz():
    facts = run_fresh(
        """
        import contextlib, io, json, sys

        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(
                ["compile", "examples/complex_multiply.slp", "--emit-plan"]
            )
        loaded = sorted(
            name for name in sys.modules
            if name == "numpy"
            or name.split(".")[:2] in (["repro", "service"], ["repro", "fuzz"])
        )
        print(json.dumps({
            "status": status, "plan": "vstore" in out.getvalue(),
            "loaded": loaded,
        }))
        """
    )
    assert facts["status"] == 0 and facts["plan"]
    assert facts["loaded"] == []


def test_worker_pool_loads_the_engines_before_it_forks():
    facts = run_fresh(
        """
        import json, sys

        from repro.service import pool

        ENGINES = ("repro.vm.batched", "repro.vm.compiled")
        before = [m for m in ("numpy",) + ENGINES if m in sys.modules]
        at_spawn = []
        spawn = pool._Worker.spawn

        def recording_spawn(worker):
            at_spawn.append(all(m in sys.modules for m in ENGINES))
            spawn(worker)

        pool._Worker.spawn = recording_spawn
        workers = pool.WorkerPool(shards=2)
        try:
            workers.workers[0].respawn()
        finally:
            workers.close()
        print(json.dumps({"before": before, "at_spawn": at_spawn}))
        """
    )
    assert facts["before"] == []
    assert facts["at_spawn"] == [True, True, True]
