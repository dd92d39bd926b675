"""``repro.telemetry`` — request correlation.

The compile-time half of observability lives in ``repro.perf`` (the one
span primitive, its timings and counters, and the collapsed-stack
profile) and ``repro.trace`` (the decision tracer). This package holds
the operational piece that builds on them:
:mod:`repro.telemetry.log` — structured JSON-lines logging plus the
request/correlation-ID machinery: IDs are minted client-side, travel in
the wire envelope, bind to a context variable on the server, and come
back stamped on responses, errors, and traces.

The service's counters and latency histograms are plain attributes of
the objects that own them (``repro.service``), read back through the
JSON ``/metrics`` body.

Logging follows the house observability contract established by
``perf`` and ``trace``: **off by default, one attribute check when
disabled** — ``benchmarks/bench_telemetry_overhead.py`` holds the
disabled hooks under 2% of request latency.
"""

from __future__ import annotations

from .log import (
    LOG,
    JsonLogger,
    bind_request_id,
    current_request_id,
    new_request_id,
)

__all__ = [
    "LOG",
    "JsonLogger",
    "bind_request_id",
    "current_request_id",
    "new_request_id",
]
