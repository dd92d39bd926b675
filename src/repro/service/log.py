"""Structured JSON-lines logging and request correlation IDs.

One request to the compile service crosses at least four execution
contexts: the client process, the server's event loop, a worker
thread, and a worker *process* (plus every follower coalesced onto the
same leader). A plain log line from any one of them is uncorrelatable.
This module gives each request a **correlation ID**:

* :func:`new_request_id` mints one (``ServiceClient`` does this per
  job and sends it in the wire envelope; the server mints one for
  clients that didn't);
* :func:`bind_request_id` binds it to a ``contextvars`` context so
  every log line emitted while handling that request carries it
  automatically, across threads and ``await`` points;
* responses, error payloads (including ``WorkerCrashError``), and
  per-request trace metadata all echo it back, so a client log line, a
  server log line, a worker perf snapshot, and a saved trace can be
  joined on one key. Coalesced followers additionally record the
  *leader's* ID (``leader_request_id``), linking the N requests that
  shared one compile.

:data:`LOG` follows the house rule: off by default, one attribute
check when disabled. Hot paths must guard with ``if LOG.enabled:``
before building kwargs — same discipline as ``TRACE``;
``benchmarks/bench_telemetry_overhead.py`` holds the disabled hooks
under 2% of request latency.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, TextIO

#: The context-local correlation ID (None outside a request).
_REQUEST_ID: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_request_id", default=None
)


def new_request_id() -> str:
    """A fresh correlation ID: 16 hex chars, collision-safe for any
    realistic request volume, cheap to mint, grep-friendly."""
    return os.urandom(8).hex()


def current_request_id() -> Optional[str]:
    """The correlation ID bound to this context, if any."""
    return _REQUEST_ID.get()


@contextmanager
def bind_request_id(request_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``request_id`` for the dynamic extent of the block."""
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)


class JsonLogger:
    """A JSON-lines event logger.

    Each call to :meth:`event` writes exactly one line::

        {"ts": 1754650000.123456, "event": "request.done",
         "request_id": "9f2c1a7e55aa40d1", "path": "/v1/compile", ...}

    ``request_id`` is filled from the bound context automatically (an
    explicit ``request_id=`` kwarg wins). Writes are serialized by a
    lock — the service logs from the event loop and worker threads.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._stream: Optional[TextIO] = None
        self._owns_stream = False
        self._base: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def configure(
        self,
        stream: Optional[TextIO] = None,
        path: Optional[str] = None,
        **base_fields: Any,
    ) -> "JsonLogger":
        """Enable logging to ``stream``, or append-mode ``path``, or
        stderr. ``base_fields`` are merged into every record (e.g.
        ``service="repro-serve"``)."""
        if self._owns_stream and self._stream is not None:
            self._stream.close()
        if path is not None:
            self._stream = open(path, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = stream if stream is not None else sys.stderr
            self._owns_stream = False
        self._base = dict(base_fields)
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False
        if self._owns_stream and self._stream is not None:
            self._stream.close()
        self._stream = None
        self._owns_stream = False
        self._base = {}

    def event(self, event: str, /, **fields: Any) -> None:
        """Write one record; no-op when disabled. ``event`` is
        positional-only so a record may carry an ``event=`` field of
        its own payload."""
        if not self.enabled:
            return
        record: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "event": event,
        }
        request_id = fields.pop("request_id", None) or _REQUEST_ID.get()
        if request_id is not None:
            record["request_id"] = request_id
        record.update(self._base)
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        line = json.dumps(record, sort_keys=True, default=str)
        stream = self._stream
        if stream is None:  # pragma: no cover - defensive
            return
        with self._lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError):  # pragma: no cover - closed sink
                pass


def parse_jsonl(text: str) -> list:
    """Parse a log capture back into records (tests, tooling)."""
    records = []
    for line in text.splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


#: The process-global logger (off by default; ``repro serve
#: --log-json`` turns it on server-side).
LOG = JsonLogger()

__all__ = [
    "LOG",
    "JsonLogger",
    "bind_request_id",
    "current_request_id",
    "new_request_id",
    "parse_jsonl",
]
