"""``repro.service`` — the compile-and-simulate server and its client.

Every entry point used to be a one-shot CLI process paying full
interpreter startup, compile, and cache-miss cost per invocation.
Holistic SLP grouping is deliberately expensive global optimization —
exactly the workload to amortize behind a long-lived service. This
package provides:

* :class:`repro.service.server.ReproService` — a stdlib-only asyncio
  HTTP/JSON server (``repro serve``) with a sharded warm worker pool,
  a result memo that answers repeated compiles without a worker,
  in-flight request coalescing, a shared content-addressed artifact
  store, bounded admission with backpressure, and graceful drain.
* :class:`repro.service.client.ServiceClient` — a blocking client
  (``repro submit`` uses it, falling back to local compilation when no
  server is reachable).
* :mod:`repro.service.log` — structured JSON-lines request logs and the
  correlation IDs that join client, server and worker lines.

This module holds the wire schema (``repro.service/1``) helpers shared
by both sides: payloads are JSON envelopes; compiled artifacts travel
as base64-pickles inside them (a ``CompileResult`` is a graph of
dataclasses — JSON cannot carry it losslessly, and bit-identical
results are the service's contract), next to a small plain-JSON
summary for non-Python consumers. Each artifact is pickled once, by
the worker that built or loaded it; the server base64-encodes those
bytes into the envelope without unpickling them, and the client
unpickles them. The server keeps recent compile pickles as bytes, so
a warm compile is answered from them and a warm simulate ships them
back to a worker, which is the only side that unpickles.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any, Dict, Optional

from ..compiler import OPTION_RULES, CompilerOptions
from ..errors import ReproError, ServiceError

#: The versioned wire schema stamped on every request and response.
SCHEMA = "repro.service/1"

#: Default port of ``repro serve`` (nothing registered uses it).
DEFAULT_PORT = 8642


def bytes_b64(blob: bytes) -> str:
    """Encode an already-pickled artifact for a JSON envelope."""
    return base64.b64encode(blob).decode("ascii")


def pickle_b64(obj: Any) -> str:
    """Encode an artifact for a JSON envelope."""
    return bytes_b64(pickle.dumps(obj))


def unpickle_b64(blob: str) -> Any:
    """Decode an artifact from a JSON envelope."""
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def options_to_dict(options: Optional[CompilerOptions]) -> Dict[str, Any]:
    """The JSON form of a :class:`CompilerOptions` — only fields that
    differ from the defaults, so the wire stays readable and the
    server-side reconstruction is exact."""
    if options is None:
        return {}
    defaults = CompilerOptions()
    out = {}
    for name in OPTION_RULES:
        value = getattr(options, name)
        if value != getattr(defaults, name):
            out[name] = value
    return out


def options_from_dict(payload: Optional[Dict[str, Any]]) -> CompilerOptions:
    """Reconstruct request options. A non-object payload or an unknown
    field is a client error here; ``CompilerOptions`` itself rejects a
    value of the wrong type or out of range. The settable fields are
    the rows of :data:`repro.compiler.OPTION_RULES`
    (``debug_schedule_mutator`` is not one: callables do not travel
    over a wire)."""
    payload = payload or {}
    if not isinstance(payload, dict):
        raise ServiceError(
            f"'options' must be a JSON object, got {payload!r}",
            rule="service.options",
        )
    unknown = set(payload) - OPTION_RULES.keys()
    if unknown:
        raise ServiceError(
            f"unknown compiler option(s): {', '.join(sorted(unknown))}",
            rule="service.options",
        )
    return CompilerOptions(**payload)


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The structured JSON form of a failure, plus a pickle so a Python
    client can re-raise the exact exception type with context intact
    (every :class:`ReproError` pickles by contract)."""
    payload: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": getattr(exc, "message", None) or str(exc),
    }
    for attr in ("stage", "block", "provenance", "rule", "request_id"):
        value = getattr(exc, attr, None)
        if value is not None:
            payload[attr] = value
    try:
        payload["pickle"] = pickle_b64(exc)
    except Exception:  # pragma: no cover - unpicklable foreign exception
        pass
    return payload


def raise_from_payload(payload: Dict[str, Any]) -> None:
    """Client side: re-raise the server's structured failure. The
    correlation ID travels next to the pickle (``ReproError.__reduce__``
    only keeps the standard context), so it is re-stamped here."""
    blob = payload.get("pickle")
    if blob:
        try:
            exc = unpickle_b64(blob)
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            if payload.get("request_id"):
                exc.request_id = payload["request_id"]
            raise exc
    error = ServiceError(
        f"{payload.get('type', 'Error')}: {payload.get('message', '')}",
        stage=payload.get("stage"),
        block=payload.get("block"),
        rule=payload.get("rule"),
    )
    if payload.get("request_id"):
        error.request_id = payload["request_id"]
    raise error


__all__ = [
    "DEFAULT_PORT",
    "SCHEMA",
    "ReproError",
    "ServiceError",
    "bytes_b64",
    "error_payload",
    "options_from_dict",
    "options_to_dict",
    "pickle_b64",
    "raise_from_payload",
    "unpickle_b64",
]
