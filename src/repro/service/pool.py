"""The sharded worker pool behind the compile service.

Each shard is a long-lived worker process holding a warm interpreter
and a handle on the shared on-disk :class:`repro.store.ArtifactStore`.
Jobs are routed to shards by content key, so repeated simulates of
one program reach the worker whose compiled-engine kernel memo
already holds its kernels, while different keys spread across shards
and run in parallel. The workers keep no compile memo: the server
answers a warm compile from its result memo without a worker, and
ships a warm simulate's compile pickle in the job.

The worker is the only process that pickles or unpickles artifacts.
A job that carries ``artifact`` (the pickle the server memoized)
unpickles it and simulates; any other job answers by its key from the
store without parsing the program, or on a miss parses, compiles and
pickles once, and writes those same bytes to the store. A job's
payload carries ``result`` (and for simulate ``report`` and
``memory``) as pickled bytes beside the JSON summaries the response
needs, so the server forwards bytes and never re-pickles; a job that
shipped its ``artifact`` gets back only the simulate fields, since
the server already holds the rest.

Failure model (the part the acceptance tests pin):

* a worker that dies mid-job (crash, OOM-kill, hang past the job
  timeout) is killed and respawned, and the job is retried **once** on
  the fresh worker;
* a second death raises a structured
  :class:`repro.errors.WorkerCrashError` — never a hung caller, never
  a raw traceback;
* errors raised *by the job itself* (parse errors, verifier
  violations, ...) travel back as pickled exceptions and re-raise in
  the parent with their context intact — they are the job's result,
  not a worker failure, and do not trigger restarts.

Every job response carries the worker's ``repro.perf`` snapshot; the
pool merges them into the parent registry on collection, so
``/metrics`` sees one coherent view across all shards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import signal
import threading
import time
from typing import Any, Dict, Optional

from ..errors import ReproError, ServiceError, WorkerCrashError
from ..perf import PERF
from ..store import ArtifactStore
from ..trace import summarize, traced_run
from .log import LOG, bind_request_id

#: Distinct request sources whose printed form the server keeps (FIFO
#: evicted), so a repeated source is parsed once per server process.
SOURCE_MEMO_ENTRIES = 256


def _compile_inputs(job: Dict[str, Any]):
    """The ``(program, variant, machine)`` a job compiles."""
    from ..compiler import Variant
    from ..ir import parse_program
    from ..vm import MACHINES

    machine = MACHINES[job["machine"]]()
    if job.get("datapath"):
        machine = machine.with_datapath(job["datapath"])
    return parse_program(job["source"]), Variant(job["variant"]), machine


def _execute_job(
    job: Dict[str, Any],
    store: Optional[ArtifactStore],
    test_hooks: bool,
) -> Dict[str, Any]:
    """Run one compile / compile+simulate job inside a worker. A job
    with a shipped ``artifact`` unpickles it; otherwise a hit answers
    by the job's key from the store, without parsing. Artifacts leave
    as pickled bytes next to their JSON summaries."""
    from ..compiler import compile_program
    from ..vm import Simulator

    from . import options_from_dict

    if test_hooks:
        _run_test_hooks(job)

    options = options_from_dict(job.get("options"))
    key = job["key"]
    simulate = job["kind"] == "simulate"
    seed = job.get("seed", 0)
    run = None
    if job.get("trace"):
        # A traced job compiles even when the store or the server's
        # memo holds the result (see ``repro.trace.traced_run``). The
        # correlation ID lands in the trace header, so a saved trace
        # joins against the request's log lines.
        meta = {"key": key[:12], "variant": job["variant"]}
        if job.get("request_id"):
            meta["request_id"] = job["request_id"]
        run = traced_run(
            *_compile_inputs(job), options, simulate=simulate, seed=seed,
            kernel_store=store, meta=meta,
        )
        result, blob, cached = run.result, pickle.dumps(run.result), False
    elif job.get("artifact") is not None:
        # The server's memo holds this compile's pickle and JSON
        # summaries; only the simulate fields travel back.
        result, blob, cached = pickle.loads(job["artifact"]), None, True
    else:
        entry = None if store is None else store.read(key)
        if entry is None:
            result = compile_program(*_compile_inputs(job), options)
            blob, cached = pickle.dumps(result), False
            if store is not None:
                store.write(key, blob)
        else:
            (blob, result), cached = entry, True
    payload: Dict[str, Any] = {"cached": cached, "key": key}
    if blob is not None:
        payload["result"] = blob
        payload["summary"] = dataclasses.asdict(result.stats)
        payload["diagnostics"] = [
            dataclasses.asdict(diag) for diag in result.diagnostics
        ]
    if simulate:
        if run is None:
            report, memory = Simulator(
                result.machine, engine=options.engine, kernel_store=store
            ).run(result.plan, seed=seed)
        else:
            report, memory = run.report, run.memory
        payload["report"] = pickle.dumps(report)
        payload["report_summary"] = {
            "cycles": report.cycles,
            "dynamic_instructions": report.dynamic_instructions,
            "pack_unpack_ops": report.pack_unpack_ops,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
        }
        payload["memory"] = pickle.dumps(memory)
    if run is not None:
        payload["trace_summary"] = summarize(run.records)
    return payload


def _run_test_hooks(job: Dict[str, Any]) -> None:
    """Deterministic failure injection for the crash/backpressure
    tests; only honored when the pool was built with test hooks on.

    ``x_sleep`` runs *before* the crash hooks so a test can combine
    them: sleep holds the coalesce window open (followers join the
    in-flight leader), then the crash fans the failure out to all of
    them."""
    sleep = job.get("x_sleep")
    if sleep:
        time.sleep(sleep)
    crash_once = job.get("x_crash_once")
    if crash_once and not os.path.exists(crash_once):
        with open(crash_once, "w") as handle:
            handle.write("crashed")
        os._exit(3)
    if job.get("x_crash"):
        os._exit(3)


def _worker_main(conn, store_dir: Optional[str], test_hooks: bool) -> None:
    """Worker-process loop: recv job, send ``(status, payload,
    perf_snapshot)``, repeat until the pipe closes or ``None`` arrives."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    store = ArtifactStore(store_dir) if store_dir else None
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        PERF.reset()
        PERF.enable()
        try:
            with bind_request_id(job.get("request_id")):
                payload = _execute_job(job, store, test_hooks)
            response = ("ok", payload, PERF.snapshot())
        except Exception as exc:
            response = ("error", exc, PERF.snapshot())
        try:
            conn.send(response)
        except Exception:
            if response[0] == "error":
                # The job's own exception didn't pickle — degrade to a
                # structured, always-picklable summary.
                exc = response[1]
                conn.send(
                    (
                        "error",
                        ServiceError(
                            f"worker error did not serialize: "
                            f"{type(exc).__name__}: {exc}"
                        ),
                        response[2],
                    )
                )
            else:  # pragma: no cover - results are picklable by design
                raise
    conn.close()


class _Worker:
    """One shard: a process, its pipe, and a lock serializing jobs."""

    def __init__(self, index: int, pool: "WorkerPool"):
        self.index = index
        self.pool = pool
        self.lock = threading.Lock()
        self.jobs = 0
        self.restarts = 0
        self.process: Optional[multiprocessing.Process] = None
        self.conn = None
        self.spawn()

    def spawn(self) -> None:
        ctx = self.pool._ctx
        parent, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, self.pool.store_dir, self.pool.test_hooks),
            daemon=True,
            name=f"repro-worker-{self.index}",
        )
        self.process.start()
        child.close()
        self.conn = parent

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass

    def respawn(self) -> None:
        self.kill()
        self.spawn()
        self.restarts += 1

    def stop(self) -> None:
        """Graceful: ask the loop to exit, then join."""
        try:
            self.conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Sharded process pool with warm workers and crash recovery.

    Thread-safe: ``submit`` may be called from many threads (the
    server's executor); jobs routed to the same shard serialize on the
    shard's lock.
    """

    def __init__(
        self,
        shards: int = 2,
        store_dir: Optional[str] = None,
        job_timeout: float = 300.0,
        test_hooks: bool = False,
    ):
        if shards < 1:
            raise ServiceError(f"need at least 1 worker shard, got {shards}")
        self.store_dir = str(store_dir) if store_dir else None
        self.job_timeout = job_timeout
        self.test_hooks = test_hooks
        self._ctx = multiprocessing.get_context()
        self._merge_lock = threading.Lock()
        #: Worker deaths observed mid-job, and jobs retried after one.
        self.crashes = 0
        self.retries = 0
        self._closed = False
        # The simulation engines (and NumPy) load here, before the first
        # fork: every worker, a respawned one too, inherits them, so no
        # request pays for the import.
        from ..vm import batched, compiled  # noqa: F401

        self.workers = [_Worker(i, self) for i in range(shards)]

    # -- routing ---------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % len(self.workers)

    # -- submission ------------------------------------------------------------

    def submit(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run one job on its shard (blocking); returns the worker's
        payload dict: artifacts as pickled bytes, everything else plain
        JSON. Re-raises job errors; retries once across a worker death,
        then raises :class:`WorkerCrashError`."""
        if self._closed:
            raise ServiceError("pool is closed")
        request_id = job.get("request_id")
        worker = self.workers[self.shard_for(job["key"])]
        with worker.lock:
            for attempt in (0, 1):
                if not worker.alive():
                    worker.respawn()
                try:
                    worker.conn.send(job)
                    if not worker.conn.poll(self.job_timeout):
                        raise TimeoutError(
                            f"job exceeded {self.job_timeout:.0f}s"
                        )
                    status, payload, snapshot = worker.conn.recv()
                except (
                    EOFError,
                    BrokenPipeError,
                    ConnectionError,
                    OSError,
                    TimeoutError,
                ) as transport:
                    self.crashes += 1
                    worker.respawn()
                    if attempt == 0:
                        self.retries += 1
                        if LOG.enabled:
                            LOG.event(
                                "pool.retry",
                                request_id=request_id,
                                shard=worker.index,
                                cause=type(transport).__name__,
                            )
                        continue
                    crash = WorkerCrashError(
                        f"worker shard {worker.index} died twice running "
                        f"one job ({type(transport).__name__}: {transport});"
                        f" giving up after one retry",
                        rule="service.worker-crash",
                    )
                    # Correlate the structured failure with the request
                    # (travels in the error payload next to the pickle).
                    crash.request_id = request_id
                    if LOG.enabled:
                        LOG.event(
                            "pool.crash",
                            request_id=request_id,
                            shard=worker.index,
                            cause=type(transport).__name__,
                        )
                    raise crash
                worker.jobs += 1
                if snapshot:
                    # The worker's perf snapshot merges under the same
                    # correlation ID the job ran with.
                    with self._merge_lock:
                        PERF.merge(snapshot)
                    if LOG.enabled:
                        LOG.event(
                            "pool.perf_merge",
                            request_id=request_id,
                            shard=worker.index,
                            sections=len(snapshot.get("sections", {})),
                            counters=len(snapshot.get("counters", {})),
                        )
                if status == "error":
                    if isinstance(payload, BaseException):
                        raise payload
                    raise ServiceError(str(payload))
                return payload
        raise AssertionError("unreachable")  # pragma: no cover

    # -- stats / lifecycle -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "shards": len(self.workers),
            "jobs": sum(w.jobs for w in self.workers),
            "restarts": sum(w.restarts for w in self.workers),
            "crashes": self.crashes,
            "retries": self.retries,
            "per_shard_jobs": [w.jobs for w in self.workers],
        }

    def close(self) -> None:
        """Graceful shutdown: every worker finishes its current job
        (shard locks serialize), receives the stop sentinel, and is
        joined."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            with worker.lock:
                worker.stop()


__all__ = ["WorkerPool", "SOURCE_MEMO_ENTRIES"]
