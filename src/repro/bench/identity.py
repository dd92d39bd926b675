"""The identity plane: every suite cell's plan, report and memory, and
every compile-wide cell's plan and schedules, digested.

The suite plane gates cycles, dynamic instructions and pack/unpack ops
within ±1%, so a change that moves a decision or a value without moving
a cycle passes it. This plane commits two slices of sha256 digests.

The suite slice covers the 20 kernels x 5 variants x intel and amd, at
the suite plane's n=64, simulated on the default engine at seed 0, in
three parts:

* ``plan`` — the plan's ``disassemble_plan`` text;
* ``report`` — the ``ExecutionReport``, every compared field in a
  canonical text form (dict items sorted, floats by ``repr``);
* ``memory`` — the final memory: every array's bytes and every
  scalar's ``repr``, names sorted.

The compile-wide slice covers the repository benchmark's compile-wide
grid on intel: the 20 kernels at n=16 x unroll 4 and 8 x 256, 512 and
1024 bits x slp, global and global+layout (360 compiles, no
simulation), in two parts:

* ``plan`` — as above;
* ``schedules`` — every block's ``CompileResult.schedules`` entry in
  order, one line per item (``<S3, S7>`` for a superword statement in
  lane order, ``S5`` for a single).

Its big unrolled blocks are where Global's grouping rounds do most of
their work, so a change that only makes those rounds cheaper must leave
this slice alone.

The fuzz slice covers the ``repro.fuzz.generate_case`` programs of
seeds 0-49, compiled like the compile-wide slice but at 128 and 256
bits and the default unroll (600 compiles). Fuzz programs write
``A[2*i]`` next to reads of ``A[3*i + 4]``, which no kernel does. A
change to the fuzz grammar changes these programs and re-records the
slice.

``check_identity`` — one of the side planes ``repro bench --check``
runs through ``regress.check_planes`` — requires each digest to equal
the committed one, and names the cell and the part that moved
(``cg.global+layout.amd.memory``, ``sp.global.intel.u8w1024.schedules``).
It is the one gate that sees a wrong initial ``Memory`` draw: the
batched-versus-reference differential tests build both engines'
memories the same way. A change that moves outputs on purpose
re-records ``BENCH_identity.json`` with ``benchmarks/bench_identity.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Any, Dict, List, Optional

from .kernels import ALL_KERNELS
from .record import read_bench_json, write_bench_json
from .regress import plane_verdict

#: The cells: the suite plane's size on both paper machines.
N = 64
MACHINES = ("intel", "amd")
VARIANTS = ("scalar", "native", "slp", "global", "global+layout")
SEED = 0
PARTS = ("plan", "report", "memory")

#: The compile-wide slice's cells, compiled only.
WIDE_N = 16
WIDE_MACHINE = "intel"
WIDE_UNROLLS = (4, 8)
WIDE_DATAPATHS = (256, 512, 1024)
WIDE_VARIANTS = ("slp", "global", "global+layout")
WIDE_PARTS = ("plan", "schedules")

#: The fuzz slice's programs and widths (machine, variants and parts
#: as in the compile-wide slice).
FUZZ_SEEDS = tuple(range(50))
FUZZ_DATAPATHS = (128, 256)


def canonical(value: Any) -> str:
    """Text that is equal for two values iff they compare ``==``:
    dataclasses by their compared fields, dicts with items sorted,
    floats by ``repr``."""
    if dataclasses.is_dataclass(value):
        fields = ", ".join(
            f"{field.name}={canonical(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
            if field.compare
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, dict):
        items = ", ".join(
            f"{canonical(key)}: {canonical(item)}"
            for key, item in sorted(value.items())
        )
        return "{" + items + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(canonical(item) for item in value) + ")"
    return repr(value)


def memory_sha256(memory) -> str:
    """Digest of every array and scalar of a final ``Memory``."""
    digest = hashlib.sha256()
    for name in sorted(memory.arrays):
        data = memory.arrays[name]
        digest.update(f"array {name} {data.dtype} {data.size}\n".encode())
        digest.update(data.tobytes())
    for name in sorted(memory.scalars):
        digest.update(f"scalar {name} {memory.scalars[name]!r}\n".encode())
    return digest.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_digests(plan, report, memory) -> Dict[str, str]:
    """The three part digests of one simulated plan."""
    from ..vm.pretty import disassemble_plan

    return {
        "plan": _sha(disassemble_plan(plan)),
        "report": _sha(canonical(report)),
        "memory": memory_sha256(memory),
    }


def compile_digests(result) -> Dict[str, str]:
    """The two part digests of one ``CompileResult``."""
    from ..vm.pretty import disassemble_plan

    return {
        "plan": _sha(disassemble_plan(result.plan)),
        "schedules": _sha(
            "\n\n".join(str(schedule) for schedule in result.schedules)
        ),
    }


def identity_metrics() -> Dict[str, Dict[str, str]]:
    """``{"digests": {cell.part: sha256}}`` over every cell of the
    three slices: ``<kernel>.<variant>.<machine>.<part>`` for the suite
    slice, ``<kernel>.<variant>.intel.u<unroll>w<bits>.<part>`` for the
    compile-wide slice and ``fuzz<seed>.<variant>.intel.w<bits>.<part>``
    for the fuzz slice."""
    from ..compiler import CompilerOptions, Variant, compile_program
    from ..fuzz import generate_case
    from ..vm import MACHINES as MACHINE_MODELS, Simulator

    digests: Dict[str, str] = {}
    for machine_name in MACHINES:
        machine = MACHINE_MODELS[machine_name]()
        for kernel in ALL_KERNELS:
            program = kernel.build(N)
            for variant in VARIANTS:
                result = compile_program(program, Variant(variant), machine)
                report, memory = Simulator(result.machine).run(
                    result.plan, seed=SEED
                )
                cell = f"{kernel.name}.{variant}.{machine_name}"
                for part, value in cell_digests(
                    result.plan, report, memory
                ).items():
                    digests[f"{cell}.{part}"] = value
    machine = MACHINE_MODELS[WIDE_MACHINE]()
    for kernel in ALL_KERNELS:
        program = kernel.build(WIDE_N)
        for unroll in WIDE_UNROLLS:
            for bits in WIDE_DATAPATHS:
                options = CompilerOptions(
                    datapath_bits=bits, unroll_factor=unroll
                )
                for variant in WIDE_VARIANTS:
                    result = compile_program(
                        program, Variant(variant), machine, options
                    )
                    cell = (
                        f"{kernel.name}.{variant}.{WIDE_MACHINE}"
                        f".u{unroll}w{bits}"
                    )
                    for part, value in compile_digests(result).items():
                        digests[f"{cell}.{part}"] = value
    for seed in FUZZ_SEEDS:
        program = generate_case(seed).program
        for bits in FUZZ_DATAPATHS:
            options = CompilerOptions(datapath_bits=bits)
            for variant in WIDE_VARIANTS:
                result = compile_program(
                    program, Variant(variant), machine, options
                )
                cell = f"fuzz{seed}.{variant}.{WIDE_MACHINE}.w{bits}"
                for part, value in compile_digests(result).items():
                    digests[f"{cell}.{part}"] = value
    return {"digests": digests}


def write_identity_baseline(
    path: Path, metrics: Dict[str, Dict[str, str]]
) -> Dict[str, Any]:
    """Record ``BENCH_identity.json`` — the committed gate baseline."""
    return write_bench_json(
        path,
        {
            "config": {
                "n": N,
                "machines": list(MACHINES),
                "variants": list(VARIANTS),
                "seed": SEED,
                "wide": {
                    "n": WIDE_N,
                    "machine": WIDE_MACHINE,
                    "unrolls": list(WIDE_UNROLLS),
                    "datapaths": list(WIDE_DATAPATHS),
                    "variants": list(WIDE_VARIANTS),
                },
                "fuzz": {
                    "seeds": list(FUZZ_SEEDS),
                    "datapaths": list(FUZZ_DATAPATHS),
                },
            },
            "metrics": metrics,
        },
    )


def digest_checks(
    baseline: Dict[str, str], current: Dict[str, str]
) -> List[Dict[str, Any]]:
    """One exact check per ``cell.part`` key, in the verdict's format."""
    checks: List[Dict[str, Any]] = []
    for name in sorted(set(baseline) | set(current)):
        entry: Dict[str, Any] = {
            "metric": name,
            "kind": "identity",
            "baseline": baseline.get(name),
            "current": current.get(name),
            "tolerance": 0.0,
        }
        if name not in baseline:
            entry["status"] = "skipped"
            entry["reason"] = "metric not in baseline"
        elif name not in current:
            entry["status"] = "fail"
            entry["reason"] = "cell missing from current run"
        elif baseline[name] == current[name]:
            entry["status"] = "ok"
        else:
            part = name.rsplit(".", 1)[1]
            entry["status"] = "fail"
            entry["reason"] = f"{part} moved"
        checks.append(entry)
    return checks


def check_identity(
    baseline_path: Path,
    *,
    out_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Gate the committed identity baseline: recompute every digest and
    require each to match exactly."""
    baseline = read_bench_json(baseline_path)
    current = identity_metrics()
    checks = digest_checks(
        (baseline.get("metrics") or {}).get("digests") or {},
        current["digests"],
    )
    return plane_verdict(baseline_path, checks, out_path=out_path)


__all__ = [
    "PARTS",
    "WIDE_PARTS",
    "canonical",
    "cell_digests",
    "check_identity",
    "compile_digests",
    "digest_checks",
    "identity_metrics",
    "memory_sha256",
    "write_identity_baseline",
]
