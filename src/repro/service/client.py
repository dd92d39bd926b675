"""The blocking Python client for a running ``repro serve``.

``ServiceClient`` speaks the ``repro.service/1`` wire schema over
plain ``http.client`` with **keep-alive connection reuse**: each
thread holds one persistent ``HTTPConnection``, reconnecting
transparently (exactly once per request) when the server closed it
between uses — TCP connect + slow-start used to dominate the warm
path, where a cache hit costs well under a millisecond of server
time. ``keep_alive=False`` restores the old one-connection-per-request
behavior. Job methods return a :class:`SubmitOutcome` whose
``result``/``report``/``memory`` are the *exact* objects a local
in-process :func:`repro.compiler.compile_program` + simulation run
would produce — dataclass ``==`` equal, which the end-to-end tests
assert per kernel and variant.

Failures re-raise server-side: a structured :class:`repro.errors.
ReproError` arrives pickled in the error envelope and is raised as its
original type with stage/block/rule context intact; backpressure (429)
raises :class:`repro.errors.ServiceBusyError` carrying the server's
``Retry-After`` — or, with ``retries=N``, the client sleeps the
advertised backoff (plus decorrelating jitter) and resubmits before
giving up.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..compiler import CompileResult, CompilerOptions
from ..errors import ServiceBusyError, ServiceError
from ..telemetry.log import current_request_id, new_request_id
from ..vm import ExecutionReport

from . import (
    DEFAULT_PORT,
    SCHEMA,
    options_to_dict,
    raise_from_payload,
    unpickle_b64,
)


@dataclass
class SubmitOutcome:
    """One job's results plus the service-side accounting flags."""

    result: CompileResult
    report: Optional[ExecutionReport] = None
    memory: Optional[Any] = None
    cached: bool = False
    coalesced: bool = False
    key: str = ""
    summary: Dict[str, Any] = field(default_factory=dict)
    trace_summary: Optional[Dict[str, Any]] = None
    #: The correlation ID this request carried end to end (client mints
    #: it, server echoes it and stamps it on every log line and trace).
    request_id: Optional[str] = None
    #: When coalesced, the leader request whose compile this one shared.
    leader_request_id: Optional[str] = None


class ServiceClient:
    """Blocking client; safe to share across threads (each thread
    keeps its own persistent connection)."""

    def __init__(
        self,
        url: str = f"http://127.0.0.1:{DEFAULT_PORT}",
        timeout: float = 600.0,
        keep_alive: bool = True,
    ):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ServiceError(f"unsupported URL scheme {parsed.scheme!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or DEFAULT_PORT
        self.timeout = timeout
        self.keep_alive = keep_alive
        #: TCP connects performed — the benchmark's reuse evidence.
        self.connections_opened = 0
        self._local = threading.local()
        #: Patchable in tests so retry loops don't really sleep.
        self._sleep = time.sleep

    # -- transport -------------------------------------------------------------

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        self.connections_opened += 1
        return conn

    def _round_trip(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
        timeout: float,
    ):
        """One HTTP exchange, reusing this thread's keep-alive
        connection. A send/recv failure on a *reused* connection means
        the server closed it between requests (idle timeout, restart,
        drain) — retry exactly once on a fresh socket; a failure on a
        fresh connection propagates."""
        if not self.keep_alive:
            conn = self._connect(timeout)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.read(), response.headers
            finally:
                conn.close()
        conn = getattr(self._local, "conn", None)
        reused = conn is not None
        if conn is None:
            conn = self._connect(timeout)
            self._local.conn = conn
        try:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            status = response.status
            raw = response.read()
            resp_headers = response.headers
        except (http.client.HTTPException, ConnectionError, OSError):
            conn.close()
            self._local.conn = None
            if not reused:
                raise
            conn = self._connect(timeout)
            self._local.conn = conn
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            status = response.status
            raw = response.read()
            resp_headers = response.headers
        if (resp_headers.get("Connection") or "").lower() == "close":
            conn.close()
            self._local.conn = None
        return status, raw, resp_headers

    def close(self) -> None:
        """Drop this thread's persistent connection (other threads'
        connections die with their thread)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else None
        )
        headers = (
            {"Content-Type": "application/json"} if body else {}
        )
        status, raw, resp_headers = self._round_trip(
            method, path, body, headers, timeout or self.timeout
        )
        retry_after = resp_headers.get("Retry-After")
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServiceError(
                f"non-JSON response (HTTP {status}) from "
                f"{self.host}:{self.port}"
            )
        if status == 429:
            raise ServiceBusyError(
                envelope.get("error", {}).get("message", "server busy"),
                retry_after=float(retry_after or 1.0),
            )
        if not envelope.get("ok", False):
            raise_from_payload(envelope.get("error", {}))
        return envelope

    # -- introspection ---------------------------------------------------------

    def healthz(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._request("GET", "/healthz", timeout=timeout)

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def is_up(self, timeout: float = 2.0) -> bool:
        """Is a compatible server answering? Used by ``repro submit``
        to decide between the service and local compilation."""
        try:
            return bool(self.healthz(timeout=timeout).get("ok"))
        except (OSError, ServiceError):
            return False

    # -- jobs ------------------------------------------------------------------

    def _submit(
        self, kind: str, request: Dict[str, Any], retries: int = 0
    ) -> SubmitOutcome:
        # Mint the correlation ID client-side (unless an ambient one is
        # already bound) so a caller can log it even when the request
        # never reaches the server.
        request.setdefault(
            "request_id", current_request_id() or new_request_id()
        )
        attempt = 0
        while True:
            try:
                envelope = self._request("POST", f"/v1/{kind}", request)
                break
            except ServiceBusyError as busy:
                if attempt >= retries:
                    raise
                attempt += 1
                # Honor the server's Retry-After, decorrelated with
                # jitter so a herd of shed clients doesn't resubmit in
                # lockstep and get shed again together.
                backoff = busy.retry_after * (0.5 + random.random())
                self._sleep(backoff)
        result = unpickle_b64(envelope["result"]["pickle"])
        outcome = SubmitOutcome(
            result=result,
            cached=envelope.get("cached", False),
            coalesced=envelope.get("coalesced", False),
            key=envelope.get("key", ""),
            summary=envelope["result"].get("summary", {}),
            trace_summary=envelope.get("trace_summary"),
            request_id=envelope.get("request_id"),
            leader_request_id=envelope.get("leader_request_id"),
        )
        if "report" in envelope:
            outcome.report = unpickle_b64(envelope["report"]["pickle"])
            outcome.memory = unpickle_b64(envelope["memory"]["pickle"])
        return outcome

    @staticmethod
    def _job_request(
        source: Optional[str],
        kernel: Optional[str],
        n: int,
        variant: str,
        machine: str,
        datapath: Optional[int],
        options: Optional[CompilerOptions],
        seed: int,
        trace: bool,
    ) -> Dict[str, Any]:
        if (source is None) == (kernel is None):
            raise ServiceError(
                "exactly one of source= or kernel= is required"
            )
        request: Dict[str, Any] = {
            "schema": SCHEMA,
            "variant": variant,
            "machine": machine,
            "seed": seed,
        }
        if source is not None:
            request["program"] = source
        else:
            request["kernel"] = kernel
            if n:
                request["n"] = n
        if datapath:
            request["datapath"] = datapath
        opts = options_to_dict(options)
        if opts:
            request["options"] = opts
        if trace:
            request["trace"] = True
        return request

    def compile(
        self,
        source: Optional[str] = None,
        kernel: Optional[str] = None,
        n: int = 0,
        variant: str = "global",
        machine: str = "intel",
        datapath: Optional[int] = None,
        options: Optional[CompilerOptions] = None,
        trace: bool = False,
        retries: int = 0,
    ) -> SubmitOutcome:
        """Compile on the server; ``outcome.result`` is dataclass-equal
        to a local ``compile_program`` of the same inputs."""
        return self._submit(
            "compile",
            self._job_request(
                source, kernel, n, variant, machine, datapath, options,
                seed=0, trace=trace,
            ),
            retries=retries,
        )

    def simulate(
        self,
        source: Optional[str] = None,
        kernel: Optional[str] = None,
        n: int = 0,
        variant: str = "global",
        machine: str = "intel",
        datapath: Optional[int] = None,
        options: Optional[CompilerOptions] = None,
        seed: int = 0,
        trace: bool = False,
        retries: int = 0,
    ) -> SubmitOutcome:
        """Compile + simulate on the server; additionally fills
        ``outcome.report`` and ``outcome.memory``."""
        return self._submit(
            "simulate",
            self._job_request(
                source, kernel, n, variant, machine, datapath, options,
                seed=seed, trace=trace,
            ),
            retries=retries,
        )


__all__ = ["ServiceClient", "SubmitOutcome"]
