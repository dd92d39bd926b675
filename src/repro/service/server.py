"""The compile-and-simulate server: ``repro serve``.

A stdlib-only asyncio HTTP/1.1 + JSON server that amortizes the
framework's deliberately expensive global optimization behind a
long-lived process. Request lifecycle::

    parse/validate ──► coalesce ──► admit ──► shard ──► worker pool
         │                │           │                  (warm memo +
         400              │           429 + Retry-After   artifact store)
                          └─ followers share the leader's result

Endpoints (wire schema ``repro.service/1``, see
:mod:`repro.service`):

* ``POST /v1/compile``  — compile a program, return ``CompileResult``.
* ``POST /v1/simulate`` — compile + simulate, additionally returning
  the ``ExecutionReport`` and final ``Memory``.
* ``GET /healthz``      — liveness + drain state.
* ``GET /metrics``      — service counters, per-stage latency
  histograms, pool stats, the store directory's size, and the merged
  ``repro.perf`` registry from every worker (which carries the store
  traffic), as JSON.

The server routes bytes: it parses a request's program only to key
it (once per distinct source text, through a FIFO memo of
``SOURCE_MEMO_ENTRIES`` printed programs), and base64-encodes the
pickled artifacts the worker returns into the envelope without
unpickling them.

Failure and backpressure model:

* malformed requests (bad JSON, a field of the wrong type, an unknown
  kernel, variant, machine or option, an option value
  ``CompilerOptions`` rejects) → 400 with a structured error payload;
* job failures (``ReproError`` from parse/verify/compile) → 422 with
  the pickled exception so Python clients re-raise the exact type;
* more than ``queue_limit`` admitted jobs → 429 + ``Retry-After``
  (followers of an in-flight compile bypass admission — they consume
  no worker);
* a worker death mid-job → transparent restart + single retry, then a
  structured 500 (``WorkerCrashError``) — never a hung client;
* SIGTERM/SIGINT → graceful drain: stop accepting, finish in-flight
  requests, stop the pool, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from ..compiler import Variant
from ..errors import ReproError, ServiceError, WorkerCrashError
from ..ir import parse_program
from ..ir.printer import format_program
from ..perf import PERF
from ..store import ArtifactStore
from ..vm import MACHINES

from . import (
    DEFAULT_PORT,
    SCHEMA,
    bytes_b64,
    error_payload,
    options_from_dict,
)
from .coalesce import Coalescer
from .log import LOG, bind_request_id, new_request_id
from .pool import SOURCE_MEMO_ENTRIES, WorkerPool

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on request bodies (a printed program is a few KB; this
#: is pure abuse protection).
MAX_BODY_BYTES = 64 << 20

_VARIANTS = {v.value: v for v in Variant}

#: The routed paths. ``/metrics`` counts requests under these names and
#: every other path under ``"other"``, so its table stays bounded.
_ENDPOINTS = ("/healthz", "/metrics", "/v1/compile", "/v1/simulate")


class Histogram:
    """A fixed-bucket latency histogram in milliseconds.

    ``observe`` takes *seconds* (what ``time.perf_counter`` math hands
    you); an observation equal to a bound counts in that bound's bucket.
    """

    #: Bucket upper bounds (ms). The JSON ``/metrics`` bucket keys
    #: (``le_1`` ... ``le_5000``, ``inf``) are derived from them.
    BOUNDS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

    __slots__ = ("counts", "total", "sum_ms")

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS_MS) + 1)
        self.total = 0
        self.sum_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1e3
        self.total += 1
        self.sum_ms += ms
        for index, bound in enumerate(self.BOUNDS_MS):
            if ms <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> Dict[str, Any]:
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(self.BOUNDS_MS, self.counts)
        }
        buckets["inf"] = self.counts[-1]
        return {
            "count": self.total,
            "sum_ms": round(self.sum_ms, 3),
            "buckets": buckets,
        }


def _field(request: Dict[str, Any], name: str, kind: type, default: Any):
    """``request[name]`` checked against its JSON type (``null`` and a
    missing field mean ``default``); a mismatch is a client error."""
    value = request.get(name)
    if value is None:
        return default
    # bool is an int subclass; true/false is not an integer field.
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ServiceError(
            f"field {name!r} must be a JSON "
            f"{'string' if kind is str else 'integer'}, got {value!r}",
            rule="service.request",
        )
    return value


class _CloseRequested(Exception):
    """Carries a response that must be the connection's last (the
    client sent ``Connection: close``)."""

    def __init__(self, response):
        super().__init__("connection close requested")
        self.response = response


class ReproService:
    """The server object; create, ``await start()``, then either
    ``await serve_forever()`` (CLI) or drive requests and finally
    ``await drain()`` (tests)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        shards: int = 2,
        queue_limit: int = 32,
        cache_dir: Optional[str] = None,
        job_timeout: float = 300.0,
        test_hooks: bool = False,
    ):
        self.host = host
        self.port = port
        self.shards = shards
        self.queue_limit = queue_limit
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.job_timeout = job_timeout
        self.test_hooks = test_hooks

        #: Requests by path (``_ENDPOINTS`` or ``"other"``).
        self.requests: Dict[str, int] = {}
        #: Job requests answered successfully, and shed with a 429.
        self.served = 0
        self.rejected = 0
        self.latency = {
            name: Histogram()
            for name in ("parse", "queue_wait", "execute", "total")
        }

        self.pool: Optional[WorkerPool] = None
        self.coalescer = Coalescer()
        # The server's own store handle, read for the /metrics stats.
        self.store = (
            ArtifactStore(self.cache_dir) if self.cache_dir else None
        )
        #: Request source text -> printed program (FIFO-bounded).
        self._sources: Dict[str, str] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._shutdown = asyncio.Event()
        self._draining = False
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: Open keep-alive connections; drain force-closes stragglers.
        self._conns: set = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        PERF.enable()
        self.pool = WorkerPool(
            shards=self.shards,
            store_dir=self.cache_dir,
            job_timeout=self.job_timeout,
            test_hooks=self.test_hooks,
        )
        # Threads block on worker pipes; a couple of spares keep
        # followers and metrics from queueing behind busy shards.
        self._executor = ThreadPoolExecutor(
            max_workers=self.shards + 4,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        print(
            f"repro.service listening on http://{self.host}:{self.port} "
            f"({self.shards} worker shard(s), queue limit "
            f"{self.queue_limit}"
            + (f", store {self.cache_dir}" if self.cache_dir else "")
            + ")",
            file=sys.stderr,
            flush=True,
        )
        await self._shutdown.wait()
        await self.drain()
        print(
            f"repro.service drained cleanly ({self.served} request(s) "
            f"served, {self.coalescer.coalesced} coalesced, "
            f"{self.rejected} shed)",
            file=sys.stderr,
            flush=True,
        )

    def request_shutdown(self) -> None:
        """Signal-handler entry: begin the graceful drain."""
        self._draining = True
        self._shutdown.set()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, stop the
        pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # In-flight requests hold self._active > 0; wait them out.
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.job_timeout
            )
        except asyncio.TimeoutError:  # pragma: no cover - stuck worker
            pass
        # Idle keep-alive connections are parked in readline(); closing
        # the transport unblocks them so their tasks can finish.
        for writer in list(self._conns):
            try:
                writer.close()
            except Exception:  # pragma: no cover - already dead
                pass
        if self._conns:
            await asyncio.sleep(0.05)
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self.pool.close
            )
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """One client connection: HTTP/1.1 keep-alive, so a
        :class:`ServiceClient` reuses the socket across submits. The
        loop ends on ``Connection: close``, a parse-level error (our
        framing may be out of sync with the client's), EOF, or drain."""
        self._conns.add(writer)
        try:
            while True:
                close_after = False
                try:
                    status, headers, payload = await self._handle_request(
                        reader
                    )
                except asyncio.IncompleteReadError:
                    break
                except _CloseRequested as req:
                    status, headers, payload = req.response
                    close_after = True
                except Exception as exc:  # pragma: no cover - defensive
                    status, headers = 500, ()
                    payload = {"schema": SCHEMA, "ok": False,
                               "error": error_payload(exc)}
                    close_after = True
                if status >= 400 or self._draining:
                    # Error framing may be desynchronized (e.g. an
                    # oversized body we never read); never risk parsing
                    # the next request against a stale stream.
                    close_after = True
                body = json.dumps(payload).encode("utf-8")
                connection = "close" if close_after else "keep-alive"
                head = (
                    f"HTTP/1.1 {status} "
                    f"{_REASONS.get(status, 'Unknown')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    + "".join(
                        f"{name}: {value}\r\n" for name, value in headers
                    )
                    + f"Connection: {connection}\r\n\r\n"
                ).encode("ascii")
                try:
                    writer.write(head + body)
                    await writer.drain()
                except ConnectionError:  # pragma: no cover - client gone
                    break
                if close_after:
                    break
        finally:
            self._conns.discard(writer)
            writer.close()

    async def _handle_request(
        self, reader
    ) -> Tuple[int, Tuple, Dict[str, Any]]:
        request_line = await reader.readline()
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        try:
            method, path, _version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except ValueError:
            return 400, (), self._error_body(
                ServiceError("malformed request line")
            )
        content_length = 0
        client_close = False
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, (), self._error_body(
                        ServiceError("bad Content-Length")
                    )
            elif name == "connection":
                client_close = value.strip().lower() == "close"
        if content_length > MAX_BODY_BYTES:
            return 413, (), self._error_body(
                ServiceError("request body too large")
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )

        path = path.partition("?")[0]
        response = await self._dispatch(method, path, body)
        if client_close:
            raise _CloseRequested(response)
        return response

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Tuple, Dict[str, Any]]:
        counted = path if path in _ENDPOINTS else "other"
        self.requests[counted] = self.requests.get(counted, 0) + 1
        if method == "GET" and path == "/healthz":
            return 200, (), self._healthz_body()
        if method == "GET" and path == "/metrics":
            return 200, (), self._metrics_body()
        if method == "POST" and path in ("/v1/compile", "/v1/simulate"):
            kind = "compile" if path == "/v1/compile" else "simulate"
            return await self._handle_job(kind, body)
        if path in _ENDPOINTS:
            return 405, (), self._error_body(
                ServiceError(f"{method} not allowed on {path}")
            )
        return 404, (), self._error_body(
            ServiceError(f"no such endpoint: {path}")
        )

    # -- the job path ----------------------------------------------------------

    async def _handle_job(
        self, kind: str, body: bytes
    ) -> Tuple[int, Tuple, Dict[str, Any]]:
        started = time.perf_counter()
        try:
            job, key = self._build_job(kind, body)
        except ReproError as exc:
            return 400, (), self._error_body(exc)
        self.latency["parse"].observe(time.perf_counter() - started)
        rid = job["request_id"]

        coalesce_key = "{}:{}:seed={}:trace={}".format(
            kind, key, job.get("seed", 0), bool(job.get("trace"))
        )
        self._active += 1
        self._idle.clear()
        leader_rid: Optional[str] = None
        try:
            with bind_request_id(rid):
                if self.coalescer.has(coalesce_key):
                    # Followers ride the in-flight leader: no admission
                    # check, no queue slot, no worker.
                    leader_rid = self.coalescer.leader_id(coalesce_key)
                    if LOG.enabled:
                        LOG.event(
                            "request.coalesced",
                            kind=kind,
                            key=key,
                            leader_request_id=leader_rid,
                        )
                    payload = await self.coalescer.join(coalesce_key)
                    coalesced = True
                else:
                    if self._draining:
                        return (
                            503,
                            (("Retry-After", "1"),),
                            self._error_body(
                                ServiceError("server is draining"), rid
                            ),
                        )
                    depth = self.coalescer.depth
                    if depth >= self.queue_limit:
                        return self._shed(kind, key, rid, depth)
                    if LOG.enabled:
                        LOG.event("request.lead", kind=kind, key=key)
                    payload = await self.coalescer.lead(
                        coalesce_key,
                        lambda: self._run_job(job),
                        request_id=rid,
                    )
                    coalesced = False
        except WorkerCrashError as exc:
            if LOG.enabled:
                LOG.event(
                    "request.crash", request_id=rid, kind=kind, key=key,
                    error=str(exc),
                )
            return 500, (), self._error_body(exc, rid)
        except ReproError as exc:
            return 422, (), self._error_body(exc, rid)
        except Exception as exc:
            return 500, (), self._error_body(exc, rid)
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()

        self.served += 1
        total = time.perf_counter() - started
        self.latency["total"].observe(total)
        if LOG.enabled:
            LOG.event(
                "request.done",
                request_id=rid,
                kind=kind,
                key=key,
                coalesced=coalesced,
                leader_request_id=leader_rid,
                cached=payload.get("cached"),
                ms=round(total * 1e3, 3),
            )
        return 200, (), self._success_body(
            kind, key, payload, coalesced, rid, leader_rid
        )

    def _build_job(
        self, kind: str, body: bytes
    ) -> Tuple[Dict[str, Any], str]:
        """Validate a request envelope into a pool job + content key.
        Raises :class:`ReproError` (→ 400) on anything client-shaped."""
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}")
        if not isinstance(request, dict):
            raise ServiceError("request body must be a JSON object")
        schema = request.get("schema")
        if schema is not None and schema != SCHEMA:
            raise ServiceError(
                f"unsupported schema {schema!r} (this server speaks "
                f"{SCHEMA})",
                rule="service.schema",
            )

        source = _field(request, "program", str, None)
        kernel_name = _field(request, "kernel", str, None)
        if kernel_name is not None:
            from ..bench.kernels import KERNELS

            if kernel_name not in KERNELS:
                raise ServiceError(f"unknown kernel {kernel_name!r}")
            program = KERNELS[kernel_name].build(_field(request, "n", int, 0))
            source = format_program(program)
        elif source is None:
            raise ServiceError("request needs 'program' or 'kernel'")

        variant_name = _field(request, "variant", str, "global")
        if variant_name not in _VARIANTS:
            raise ServiceError(
                f"unknown variant {variant_name!r} "
                f"(choose from {', '.join(sorted(_VARIANTS))})"
            )
        machine_name = _field(request, "machine", str, "intel")
        if machine_name not in MACHINES:
            raise ServiceError(
                f"unknown machine {machine_name!r} "
                f"(choose from {', '.join(sorted(MACHINES))})"
            )
        datapath = _field(request, "datapath", int, 0)
        seed = _field(request, "seed", int, 0)
        options = options_from_dict(request.get("options"))

        machine = MACHINES[machine_name]()
        if datapath:
            machine = machine.with_datapath(datapath)
        key = ArtifactStore.text_key(
            self._printed(source), _VARIANTS[variant_name], machine, options
        )
        request_id = request.get("request_id")
        if not isinstance(request_id, str) or not request_id:
            request_id = new_request_id()
        job: Dict[str, Any] = {
            "kind": kind,
            "source": source,
            "variant": variant_name,
            "machine": machine_name,
            "datapath": datapath,
            "options": request.get("options") or {},
            "seed": seed,
            "trace": bool(request.get("trace")),
            "key": key,
            "request_id": request_id,
        }
        if self.test_hooks:
            for hook in ("x_crash_once", "x_crash", "x_sleep"):
                if hook in request:
                    job[hook] = request[hook]
        return job, key

    def _printed(self, source: str) -> str:
        """The printed program the content key hashes. Parsing here
        validates the program early; the memo parses each distinct
        source text once per process."""
        printed = self._sources.get(source)
        if printed is None:
            printed = format_program(parse_program(source))
            self._sources[source] = printed
            while len(self._sources) > SOURCE_MEMO_ENTRIES:
                self._sources.pop(next(iter(self._sources)))
        return printed

    async def _run_job(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Leader path: ship the job to its shard via the executor,
        recording queue-wait and execute latency."""
        loop = asyncio.get_running_loop()
        admitted_at = time.perf_counter()

        def run() -> Dict[str, Any]:
            started = time.perf_counter()
            self.latency["queue_wait"].observe(started - admitted_at)
            try:
                return self.pool.submit(job)
            finally:
                self.latency["execute"].observe(
                    time.perf_counter() - started
                )

        return await loop.run_in_executor(self._executor, run)

    def _shed(
        self, kind: str, key: str, rid: str, depth: int
    ) -> Tuple[int, Tuple, Dict[str, Any]]:
        """The 429 for a job shed because the queue is full, with a
        ``Retry-After`` scaled to the backlog per shard."""
        self.rejected += 1
        if LOG.enabled:
            LOG.event("request.shed", kind=kind, key=key, depth=depth)
        retry_after = max(1, depth // self.shards)
        return (
            429,
            (("Retry-After", str(retry_after)),),
            self._error_body(
                ServiceError(
                    f"queue full ({depth} in flight, limit "
                    f"{self.queue_limit})",
                    rule="service.backpressure",
                ),
                rid,
            ),
        )

    # -- response bodies -------------------------------------------------------

    @staticmethod
    def _error_body(
        exc: BaseException, request_id: Optional[str] = None
    ) -> Dict[str, Any]:
        if request_id and getattr(exc, "request_id", None) is None:
            try:
                exc.request_id = request_id
            except AttributeError:  # pragma: no cover - slotted exception
                pass
        body = {"schema": SCHEMA, "ok": False, "error": error_payload(exc)}
        if request_id:
            # Every response names its OWN request, even when the
            # exception object is shared — a coalescing follower must
            # not see the leader's id in its error envelope.
            body["error"]["request_id"] = request_id
            body["request_id"] = request_id
        return body

    def _success_body(
        self,
        kind: str,
        key: str,
        payload: Dict[str, Any],
        coalesced: bool,
        request_id: Optional[str] = None,
        leader_request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "schema": SCHEMA,
            "ok": True,
            "kind": kind,
            "key": key,
            "cached": payload["cached"],
            "coalesced": coalesced,
            "result": {
                "pickle": bytes_b64(payload["result"]),
                "summary": payload["summary"],
            },
            "diagnostics": payload["diagnostics"],
        }
        if "report" in payload:
            body["report"] = {
                "pickle": bytes_b64(payload["report"]),
                "summary": payload["report_summary"],
            }
            body["memory"] = {"pickle": bytes_b64(payload["memory"])}
        if "trace_summary" in payload:
            body["trace_summary"] = payload["trace_summary"]
        if request_id:
            body["request_id"] = request_id
        if coalesced and leader_request_id:
            body["leader_request_id"] = leader_request_id
        return body

    def _healthz_body(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "ok": True,
            "draining": self._draining,
            "workers": self.shards,
            "queue_depth": self.coalescer.depth,
            "queue_limit": self.queue_limit,
            "served": self.served,
        }

    def _metrics_body(self) -> Dict[str, Any]:
        store_stats: Dict[str, Any] = {}
        if self.store is not None:
            # Directory figures only: this handle never reads or writes.
            # The workers' store traffic (hits, misses, corrupt
            # evictions) arrives in the merged perf counters.
            stats = self.store.stats()
            store_stats = {
                "root": stats.root,
                "entries": stats.entries,
                "bytes": stats.bytes,
            }
        return {
            "schema": SCHEMA,
            "ok": True,
            "service": {
                "requests": dict(sorted(self.requests.items())),
                "served": self.served,
                "coalesced": self.coalescer.coalesced,
                "leads": self.coalescer.leads,
                "queue": {
                    "depth": self.coalescer.depth,
                    "limit": self.queue_limit,
                    "rejected": self.rejected,
                },
                "pool": self.pool.stats() if self.pool else {},
                "store": store_stats,
                "latency_ms": {
                    name: hist.snapshot()
                    for name, hist in self.latency.items()
                },
                "draining": self._draining,
            },
            "perf": PERF.snapshot(),
        }


# -- embedding helpers (tests, benchmarks) -------------------------------------


class ServiceThread:
    """Run a :class:`ReproService` on a background thread with its own
    event loop — how the tests and the service benchmark embed a real
    server on an ephemeral port inside one process."""

    def __init__(self, **service_kwargs: Any):
        import threading

        service_kwargs.setdefault("port", 0)
        self._kwargs = service_kwargs
        self.service: Optional[ReproService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self.service = ReproService(**self._kwargs)
        self._loop.run_until_complete(self.service.start())
        self._ready.set()
        self._loop.run_until_complete(self.service._shutdown.wait())
        self._loop.run_until_complete(self.service.drain())
        self._loop.close()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServiceError("service thread failed to start")
        return self

    @property
    def url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=60.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


__all__ = ["MAX_BODY_BYTES", "ReproService", "ServiceThread"]
