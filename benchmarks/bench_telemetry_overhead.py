"""Disabled-logging overhead: ``repro.service.log`` must be free when off.

The structured logger follows the tracer's contract — off by default,
one attribute check when disabled, hot sites guarded by
``if LOG.enabled:`` before any kwargs are built. As with the tracer,
the disabled cost is too small to time directly against a real request
(it drowns in service noise), so this harness bounds it analytically
and conservatively, the same three steps as ``bench_trace_overhead``:

1. serve a warm request stream with JSON logging ON and count the log
   records per request (every record = one hook that executed its full
   body);
2. microbenchmark the *most expensive* disabled hook form — a full
   ``LOG.event(...)`` call with kwargs, costlier than the bare
   ``LOG.enabled`` check the guarded sites actually pay;
3. charge every hook that price and divide by the measured warm
   request latency with logging OFF.

The estimate overstates the true disabled overhead and must still land
under 2%.
"""

from __future__ import annotations

import io
import os
import statistics
import time

from conftest import write_result

from repro.bench.record import write_bench_json
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.service.log import LOG, parse_jsonl

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
KERNEL = "cg"
N = 32
WARM_REQUESTS = 10 if SMOKE else 30
THRESHOLD = 0.02


def _warm_latencies(client: ServiceClient, count: int) -> list:
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        client.compile(kernel=KERNEL, n=N)
        samples.append(time.perf_counter() - started)
    return samples


def test_disabled_telemetry_overhead(results_dir):
    with ServiceThread(shards=1) as thread:
        client = ServiceClient(thread.url)
        client.compile(kernel=KERNEL, n=N)  # prime the server's memo

        LOG.disable()
        disabled_median = statistics.median(
            _warm_latencies(client, WARM_REQUESTS)
        )

        # Hook census on a logged request stream.
        sink = io.StringIO()
        LOG.configure(stream=sink, service="bench-telemetry")
        try:
            enabled_median = statistics.median(
                _warm_latencies(client, WARM_REQUESTS)
            )
        finally:
            LOG.disable()
        records = parse_jsonl(sink.getvalue())
        hooks_per_request = len(records) / WARM_REQUESTS
        assert hooks_per_request >= 2, (
            "logged request stream produced almost no records — are the"
            " server-side hooks wired?"
        )
        # Every record carries the correlation ID the client minted.
        assert all(r.get("request_id") for r in records)

    # Price of one *disabled* hook, taking the expensive form (a real
    # event call with kwargs; guarded sites pay only `LOG.enabled`).
    loops = 20_000 if SMOKE else 200_000
    started = time.perf_counter()
    for _ in range(loops):
        LOG.event("request.done", kind="compile", key="x", coalesced=False,
                  ms=0.0)
    per_hook_seconds = (time.perf_counter() - started) / loops

    estimated = hooks_per_request * per_hook_seconds / disabled_median
    payload = {
        "kernel": KERNEL,
        "n": N,
        "warm_requests": WARM_REQUESTS,
        "disabled_warm_median_s": round(disabled_median, 6),
        "enabled_warm_median_s": round(enabled_median, 6),
        "log_records_per_request": round(hooks_per_request, 2),
        "per_hook_disabled_seconds": per_hook_seconds,
        "estimated_disabled_overhead_fraction": round(estimated, 6),
        "threshold_fraction": THRESHOLD,
        "smoke": SMOKE,
    }
    write_bench_json(
        results_dir / "BENCH_telemetry_overhead.json", payload
    )
    write_result(
        results_dir / "telemetry_overhead.txt",
        "Disabled-telemetry request overhead (conservative bound)",
        "\n".join(f"{key}: {value}" for key, value in payload.items()),
    )

    assert estimated < THRESHOLD, (
        f"disabled telemetry costs an estimated {estimated:.2%} of a warm"
        f" request (bound {THRESHOLD:.0%});"
        f" hooks={hooks_per_request:.1f},"
        f" per-hook {per_hook_seconds * 1e9:.0f} ns"
    )
