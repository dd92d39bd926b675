"""End-to-end tests for ``repro.service``.

A real :class:`ReproService` runs on a background thread with an
ephemeral port and a sharded worker pool; a blocking
:class:`ServiceClient` drives it over actual HTTP. The headline
assertion is the acceptance criterion: for every benchmark kernel ×
variant, the server-returned ``CompileResult`` and ``ExecutionReport``
are dataclass-``==`` equal to a local in-process compile + simulate of
the same inputs.

Failure injection (worker crashes, slow jobs) goes through the
``x_*`` test hooks, which the server only honors because the fixture
starts it with ``test_hooks=True``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import pickle
import threading
import time
from contextlib import contextmanager

import pytest

from repro import (
    FLOAT32,
    ArtifactStore,
    CompilerOptions,
    ParseError,
    ProgramBuilder,
    ServiceError,
    Variant,
    VerifyError,
    WorkerCrashError,
    compile_program,
)
from repro.bench import KERNELS
from repro.errors import ServiceBusyError
from repro.ir import parse_program
from repro.ir.printer import format_program
from repro.service.client import ServiceClient
from repro.service.coalesce import Coalescer
from repro.service import server as server_module
from repro.service.pool import SOURCE_MEMO_ENTRIES, WorkerPool
from repro.service.server import Histogram, ReproService, ServiceThread
from repro.service.log import LOG, bind_request_id, parse_jsonl
from repro.vm import MACHINES, Simulator

#: Small problem size: the full 16-kernel × 5-variant matrix stays in
#: the sub-second range locally, and the service adds only HTTP + IPC.
N = 2


def unique_source(tag: int) -> str:
    """A tiny valid program whose content key depends on ``tag`` —
    gives tests fresh, never-before-seen cache keys on demand."""
    builder = ProgramBuilder(f"unique{tag}")
    X = builder.array("X", (16,), FLOAT32)
    Y = builder.array("Y", (16,), FLOAT32)
    with builder.loop("i", 0, 16) as i:
        builder.assign(Y[i], X[i] * (tag + 2) + Y[i])
    return format_program(builder.build())


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-store")
    with ServiceThread(
        shards=2, cache_dir=str(cache_dir), test_hooks=True
    ) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url, timeout=120.0)


def submit_with_hooks(client, kind, source, **hooks):
    """Submit a job with ``x_*`` failure-injection fields attached.
    The public client deliberately has no API for these — they are
    wire-level fields the server only reads under ``test_hooks``."""
    request = ServiceClient._job_request(
        source, None, 0, "global", "intel", None, None, seed=0, trace=False
    )
    request.update(hooks)
    return client._submit(kind, request)


# -- the acceptance criterion --------------------------------------------------


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_served_results_equal_local(client, kernel, variant):
    """Server compile+simulate (default engine) == local compile +
    reference-interpreter simulate, dataclass-==, for every benchmark
    kernel × variant."""
    program = KERNELS[kernel].build(N)
    local = compile_program(program, Variant(variant), MACHINES["intel"]())
    report, memory = Simulator(local.machine, engine="reference").run(
        local.plan, seed=7
    )

    outcome = client.simulate(kernel=kernel, n=N, variant=variant, seed=7)

    assert outcome.result == local
    assert outcome.report == report
    assert outcome.memory.state_equal(memory)
    assert (
        outcome.summary["total_statements"] == local.stats.total_statements
    )

    # The envelope's JSON summaries (built in the worker, next to the
    # pickles the server forwards) match the local objects.
    envelope = client._request(
        "POST",
        "/v1/simulate",
        ServiceClient._job_request(
            None, kernel, N, variant, "intel", None, None,
            seed=7, trace=False,
        ),
    )
    summary = dict(envelope["result"]["summary"])
    expected = dataclasses.asdict(local.stats)
    del summary["compile_seconds"], expected["compile_seconds"]
    assert summary == expected
    assert envelope["diagnostics"] == json.loads(
        json.dumps([dataclasses.asdict(d) for d in local.diagnostics])
    )
    assert envelope["report"]["summary"] == {
        "cycles": report.cycles,
        "dynamic_instructions": report.dynamic_instructions,
        "pack_unpack_ops": report.pack_unpack_ops,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
    }


def test_source_and_kernel_requests_agree(client):
    """Submitting the printed source is identical to submitting the
    kernel by name — the server canonicalizes both to the same key."""
    program = KERNELS["milc"].build(N)
    by_kernel = client.compile(kernel="milc", n=N, variant="global")
    by_source = client.compile(
        source=format_program(program), variant="global"
    )
    assert by_source.key == by_kernel.key
    assert by_source.result == by_kernel.result
    assert by_source.cached, "second request for the key must hit warm state"


# -- caching and coalescing ----------------------------------------------------


def test_repeat_request_is_cached(client):
    source = unique_source(1001)
    first = client.simulate(source=source, variant="slp")
    second = client.simulate(source=source, variant="slp")
    assert not first.cached
    assert second.cached
    assert second.result == first.result
    assert second.report == first.report


def test_warm_compile_is_answered_by_the_server(client):
    """A repeated compile comes from the server's result memo: cached,
    equal to a local compile, and no worker job or execute stage."""
    source = unique_source(1100)
    first = client.compile(source=source, variant="slp")
    before = client.metrics()["service"]
    second = client.compile(source=source, variant="slp")
    after = client.metrics()["service"]

    assert not first.cached and second.cached
    assert second.result == compile_program(
        parse_program(source), Variant.SLP, MACHINES["intel"]()
    )
    assert after["pool"]["jobs"] == before["pool"]["jobs"]
    assert after["memo"]["hits"] - before["memo"]["hits"] == 1
    assert (
        after["latency_ms"]["execute"]["count"]
        == before["latency_ms"]["execute"]["count"]
    )


def test_result_memo_keeps_recently_used_keys(monkeypatch):
    """The memo is bounded and least-recently-used: a key touched once
    outlives ``RESULT_MEMO_ENTRIES - 1`` later fills, while the oldest
    untouched key is evicted. The server has no store, so ``cached``
    says whether the memo answered."""
    limit = 4
    monkeypatch.setattr(server_module, "RESULT_MEMO_ENTRIES", limit)
    with ServiceThread(shards=1) as thread:
        client = ServiceClient(thread.url, timeout=60.0)

        def compile_checked(tag):
            outcome = client.compile(source=unique_source(tag))
            memo = client.metrics()["service"]["memo"]
            assert memo["entries"] <= memo["limit"] == limit
            return outcome

        for tag in range(1200, 1200 + limit):
            assert not compile_checked(tag).cached
        assert compile_checked(1200).cached
        for tag in range(1300, 1300 + limit - 1):
            assert not compile_checked(tag).cached
        assert compile_checked(1200).cached
        assert not compile_checked(1201).cached
        client.close()


def test_one_off_compiles_do_not_evict_a_hot_key(monkeypatch):
    """A fill enters the memo's probation segment and a hit promotes
    the key, so a key compiled twice survives twice the memo's size in
    one-off compiles: each of those evicts an older one-off key."""
    limit = 4
    monkeypatch.setattr(server_module, "RESULT_MEMO_ENTRIES", limit)
    with ServiceThread(shards=1) as thread:
        client = ServiceClient(thread.url, timeout=60.0)
        hot = unique_source(1250)
        assert not client.compile(source=hot).cached
        assert client.compile(source=hot).cached
        for tag in range(1350, 1350 + 2 * limit):
            assert not client.compile(source=unique_source(tag)).cached
        memo = client.metrics()["service"]["memo"]
        assert memo["entries"] == memo["limit"] == limit
        assert client.compile(source=hot).cached
        assert not client.compile(source=unique_source(1350)).cached
        client.close()


def test_warm_simulate_ships_the_memoized_compile(client):
    """A simulate of a memoized key carries the compile pickle to the
    worker, which neither reads the store nor compiles; the report and
    memory still equal a local run."""
    source = unique_source(1400)
    client.compile(source=source)
    before = client.metrics()
    outcome = client.simulate(source=source, seed=7)
    after = client.metrics()

    local = compile_program(
        parse_program(source), Variant.GLOBAL, MACHINES["intel"]()
    )
    report, memory = Simulator(local.machine, engine="reference").run(
        local.plan, seed=7
    )
    assert outcome.cached
    assert outcome.result == local
    assert outcome.report == report
    assert outcome.memory.state_equal(memory)
    counters = before["perf"]["counters"], after["perf"]["counters"]
    for name in ("compile_cache.hits", "compile_cache.misses"):
        assert counters[0].get(name, 0) == counters[1].get(name, 0), name
    shipped = after["service"]["memo"]["shipped"]
    assert shipped - before["service"]["memo"]["shipped"] == 1


def test_storeless_server_answers_repeat_simulate_warm():
    """Without an artifact store, a repeated simulate is still cached
    and compiles nothing: the server's memo supplies the compile."""
    with ServiceThread(shards=1) as thread:
        client = ServiceClient(thread.url, timeout=60.0)
        source = unique_source(1500)
        first = client.simulate(source=source)
        _seconds, compiles = client.metrics()["perf"]["sections"]["compile"]
        second = client.simulate(source=source)
        metrics = client.metrics()
        client.close()
    assert not first.cached and second.cached
    assert second.result == first.result
    assert second.report == first.report
    assert metrics["perf"]["sections"]["compile"][1] == compiles
    assert metrics["service"]["memo"]["shipped"] == 1


def test_datapath_field_and_option_share_one_compile():
    """The top-level ``datapath`` and ``options.datapath_bits`` set the
    same width: the second spelling is answered from the first
    compile, with no second worker job."""
    with ServiceThread(shards=1) as thread:
        client = ServiceClient(thread.url, timeout=60.0)
        first = client.compile(kernel="milc", n=16, datapath=512)
        second = client.compile(
            kernel="milc", n=16, options=CompilerOptions(datapath_bits=512)
        )
        metrics = client.metrics()
        client.close()
    assert not first.cached and second.cached
    assert second.result == first.result
    assert metrics["service"]["pool"]["jobs"] == 1


def test_traced_repeat_compiles_and_leaves_the_memo_alone(client):
    """A traced request neither reads nor fills the result memo: it
    always reaches a worker and compiles."""
    source = unique_source(1600)
    client.compile(source=source)
    before = client.metrics()["service"]
    traced = client.compile(source=source, trace=True)
    after = client.metrics()["service"]
    assert traced.trace_summary is not None
    assert not traced.cached
    assert after["pool"]["jobs"] - before["pool"]["jobs"] == 1
    assert after["memo"] == before["memo"]

    fresh = unique_source(1601)
    client.compile(source=fresh, trace=True)
    assert not client.compile(source=fresh).cached


def test_concurrent_identical_requests_coalesce(server, client):
    """N identical in-flight requests trigger exactly one compile; the
    followers share the leader's payload."""
    before = client.metrics()["service"]
    source = unique_source(2002)
    fan_out = 6
    outcomes = [None] * fan_out
    errors = []

    def submit(slot):
        try:
            outcomes[slot] = submit_with_hooks(
                client, "simulate", source, x_sleep=0.4
            )
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=submit, args=(slot,))
        for slot in range(fan_out)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert all(outcome is not None for outcome in outcomes)
    for outcome in outcomes[1:]:
        assert outcome.result == outcomes[0].result
        assert outcome.report == outcomes[0].report

    after = client.metrics()["service"]
    assert after["pool"]["jobs"] - before["pool"]["jobs"] == 1
    assert after["leads"] - before["leads"] == 1
    assert after["coalesced"] - before["coalesced"] == fan_out - 1
    assert sum(1 for o in outcomes if o.coalesced) == fan_out - 1

    # Correlation linkage: every follower names the leader's request ID.
    (leader,) = [o for o in outcomes if not o.coalesced]
    assert leader.leader_request_id is None
    for follower in outcomes:
        if follower.coalesced:
            assert follower.request_id != leader.request_id
            assert follower.leader_request_id == leader.request_id


# -- failure model -------------------------------------------------------------


def test_worker_crash_retries_transparently(server, client, tmp_path):
    """A worker killed mid-job is respawned and the job retried once —
    the client just sees a successful response."""
    before = client.metrics()["service"]["pool"]
    flag = tmp_path / "crash-once"
    outcome = submit_with_hooks(
        client, "compile", unique_source(3003), x_crash_once=str(flag)
    )
    assert outcome.result is not None
    assert flag.exists(), "the first attempt must have reached the worker"
    after = client.metrics()["service"]["pool"]
    assert after["retries"] - before["retries"] == 1
    assert after["restarts"] - before["restarts"] >= 1


def test_worker_crash_twice_is_structured(server, client):
    """A shard that dies on the retry too surfaces a WorkerCrashError —
    a structured diagnostic, never a hung client or raw traceback."""
    with pytest.raises(WorkerCrashError) as excinfo:
        submit_with_hooks(client, "compile", unique_source(4004), x_crash=True)
    assert excinfo.value.rule == "service.worker-crash"
    assert excinfo.value.stage == "service"
    # The diagnostic carries the request's correlation ID across the
    # pickle boundary, so client logs join to server/worker logs.
    assert excinfo.value.request_id
    int(excinfo.value.request_id, 16)
    # The pool recovered: the same server keeps serving.
    assert client.healthz()["ok"]
    assert client.compile(source=unique_source(4005)).result is not None


def test_coalesced_crash_fans_out_with_own_request_ids(server, client):
    """When the leader's job dies, every coalescing follower gets the
    same WorkerCrashError — but stamped with the follower's *own*
    request ID, not the leader's, so each caller's logs still join."""
    source = unique_source(4500)
    fan_out = 4
    rids = [f"f4500{slot:03x}00000000" for slot in range(fan_out)]
    failures = [None] * fan_out
    surprises = []

    def submit(slot):
        request = ServiceClient._job_request(
            source, None, 0, "global", "intel", None, None,
            seed=0, trace=False,
        )
        # x_sleep runs first (holds the coalesce window open for the
        # followers), then x_crash kills both pool attempts.
        request.update(
            request_id=rids[slot], x_sleep=0.4, x_crash=True
        )
        try:
            client._submit("compile", request)
            surprises.append(slot)
        except WorkerCrashError as exc:
            failures[slot] = exc

    threads = [
        threading.Thread(target=submit, args=(slot,))
        for slot in range(fan_out)
    ]
    threads[0].start()
    time.sleep(0.1)  # let the leader register the in-flight key
    for thread in threads[1:]:
        thread.start()
    for thread in threads:
        thread.join()

    assert not surprises, "a crash-injected job somehow succeeded"
    assert all(failures)
    for slot, exc in enumerate(failures):
        assert exc.request_id == rids[slot], (slot, exc.request_id)
    # They really did share one failure (not four crash cycles).
    coalesced = client.metrics()["service"]["coalesced"]
    assert coalesced >= fan_out - 1
    assert client.healthz()["ok"]


# -- connection reuse ----------------------------------------------------------


def test_keep_alive_reuses_one_connection(server):
    """The warm path's TCP tax: many requests, one connect."""
    fresh = ServiceClient(server.url, timeout=60.0)
    fresh.healthz()
    fresh.compile(source=unique_source(4600))
    fresh.compile(source=unique_source(4600))  # warm hit
    fresh.metrics()
    assert fresh.connections_opened == 1
    fresh.close()


def test_keep_alive_off_connects_per_request(server):
    legacy = ServiceClient(server.url, timeout=60.0, keep_alive=False)
    legacy.healthz()
    legacy.healthz()
    legacy.healthz()
    assert legacy.connections_opened == 3


def test_keep_alive_survives_error_responses(server):
    """The server closes the connection after a 4xx (framing may be
    suspect); the client transparently reconnects for the next call."""
    fresh = ServiceClient(server.url, timeout=60.0)
    fresh.healthz()
    with pytest.raises(ParseError):
        fresh.compile(source="not a program")
    out = fresh.compile(source=unique_source(4601))
    assert out.result is not None
    assert fresh.connections_opened == 2  # one reconnect, not per-call


def test_job_errors_reraise_original_type(client):
    """Parse failures come back as the pickled original exception with
    its stage context, not an opaque 500."""
    with pytest.raises(ParseError) as excinfo:
        client.compile(source="this is not a program")
    assert excinfo.value.stage == "parse"


#: Programs that parse but that the ``ir`` verifier rejects: a read of
#: ``A[i-1]`` from ``i = 0``, and a write of ``A[i]`` past a 4-element
#: ``A``.
OUT_OF_BOUNDS_SOURCES = [
    """
double A[8];
double B[8];
for (i = 0; i < 8; i += 1) {
    B[i] = A[i-1];
}
""",
    """
double A[4];
for (i = 0; i < 8; i += 1) {
    A[i] = 1.0;
}
""",
]


@pytest.mark.parametrize(
    "source", OUT_OF_BOUNDS_SOURCES, ids=["read-before", "write-past"]
)
def test_unverifiable_programs_never_reach_the_pool(client, source):
    """A subscript outside its array is refused while the request is
    keyed — a 400 carrying the verifier's ``VerifyError`` on both job
    endpoints — instead of being simulated on memory outside the
    array or failing inside a worker."""
    before = client.metrics()["service"]["pool"]["jobs"]
    for submit in (client.compile, client.simulate):
        with pytest.raises(VerifyError) as excinfo:
            submit(source=source)
        assert excinfo.value.rule == "ir.bounds"
    for path in ("/v1/compile", "/v1/simulate"):
        status, raw, _headers = client._round_trip(
            "POST", path, json.dumps({"program": source}).encode(), {}, 30.0
        )
        assert status == 400, path
        assert json.loads(raw)["error"]["rule"] == "ir.bounds", path
    assert client.metrics()["service"]["pool"]["jobs"] == before


def test_request_validation(client):
    with pytest.raises(ServiceError, match="unknown kernel"):
        client.compile(kernel="nonexistent")
    with pytest.raises(ServiceError, match="unknown variant"):
        client.compile(kernel="milc", n=N, variant="turbo")
    with pytest.raises(ServiceError, match="unsupported schema"):
        client._request(
            "POST",
            "/v1/compile",
            {"schema": "repro.service/99", "kernel": "milc"},
        )
    with pytest.raises(ServiceError, match="not allowed"):
        client._request("GET", "/v1/compile")
    with pytest.raises(ServiceError, match="no such endpoint"):
        client._request("GET", "/v1/frobnicate")
    # A field of the wrong JSON type is client-shaped too: a 400, not a
    # 500 from wherever the value is first used.
    for request in (
        {"kernel": "milc", "n": N, "seed": "abc"},
        {"kernel": "milc", "n": "x"},
        {"kernel": "milc", "n": N, "datapath": "wide"},
        {"program": 5},
        {"kernel": "milc", "n": N, "variant": ["global"]},
        {"kernel": "milc", "n": N, "options": [1, 2]},
    ):
        status, raw, _headers = client._round_trip(
            "POST", "/v1/compile", json.dumps(request).encode(), {}, 30.0
        )
        assert status == 400, request
        assert json.loads(raw)["error"]["type"] == "ServiceError", request


@pytest.mark.parametrize(
    "request_body, named",
    [
        ({"options": {"decision_mode": "bogus"}}, "decision mode"),
        ({"options": {"checks": "bogus"}}, "check stage"),
        ({"options": {"on_error": "bogus"}}, "on_error"),
        ({"datapath": -128}, "-128 bits"),
        ({"datapath": 8}, "8 bits"),
        ({"datapath": 100}, "100 bits"),
        ({"n": -3}, "n=-3"),
        ({"options": {"layout_amortization": -1.0}}, "layout_amortization"),
        ({"options": {"layout_amortization": 0}}, "layout_amortization"),
        ({"options": {"datapath_bits": 100}}, "100 bits"),
        ({"options": {"unroll_factor": -2}}, "unroll_factor"),
        ({"options": {"unroll_factor": 0}}, "unroll_factor"),
        (
            {"options": {"layout_budget_elements": -5}},
            "layout_budget_elements",
        ),
        ({"options": {"optimal_node_budget": 0}}, "optimal_node_budget"),
        ({"options": {"unroll_factor": "eight"}}, "unroll_factor"),
    ],
)
def test_meaningless_values_are_client_errors(client, request_body, named):
    """A value that names no configuration — or has the wrong JSON type
    for its option — fails while the request is built, on both job
    endpoints: a 400 naming it, not a worker's 422, a 200 with an
    all-scalar plan or negative cycles, or a parse error about source
    the client never sent."""
    request = {"kernel": "milc", "n": N, **request_body}
    for path in ("/v1/compile", "/v1/simulate"):
        status, raw, _headers = client._round_trip(
            "POST", path, json.dumps(request).encode(), {}, 30.0
        )
        assert status == 400, (path, request)
        error = json.loads(raw)["error"]
        assert error["type"] == "OptionsError", error
        assert named in error["message"], error


def test_power_of_two_datapaths_still_compile(client):
    for datapath in (128, 256, 512, 1024):
        outcome = client.compile(kernel="milc", n=N, datapath=datapath)
        assert outcome.result.machine.datapath_bits == datapath


@contextmanager
def queue_held(tmp_path):
    """A ``queue_limit=1`` server whose only queue slot is held by a
    slow leader job (``x_sleep=1.5``) when the block starts. Yields
    ``(client, source, done)``: ``source`` is the slow job's program,
    and ``done`` receives its outcome once the leader finishes (the
    block's exit waits for that)."""
    with ServiceThread(
        shards=1,
        queue_limit=1,
        cache_dir=str(tmp_path / "store"),
        test_hooks=True,
    ) as thread:
        client = ServiceClient(thread.url, timeout=60.0)
        source = unique_source(5005)
        done = []
        leader = threading.Thread(
            target=lambda: done.append(
                submit_with_hooks(client, "compile", source, x_sleep=1.5)
            )
        )
        leader.start()
        try:
            deadline = time.time() + 5.0
            while client.metrics()["service"]["queue"]["depth"] < 1:
                assert time.time() < deadline, "slow job never queued"
                time.sleep(0.02)
            yield client, source, done
        finally:
            leader.join()


def test_backpressure_sheds_load(tmp_path):
    """With queue_limit=1, a second distinct job while the first is
    in flight is shed with 429 + Retry-After (ServiceBusyError)."""
    with queue_held(tmp_path) as (client, _source, done):
        with pytest.raises(ServiceBusyError) as excinfo:
            client.compile(source=unique_source(6006))
        rejected = client.metrics()["service"]["queue"]["rejected"]
    busy = excinfo.value
    assert "queue full" in str(busy)
    assert busy.retry_after >= 1.0
    assert rejected == 1
    assert done and done[0].result is not None


def test_follower_bypasses_full_queue(tmp_path):
    """A coalescing follower of the in-flight key is not shed while the
    queue is full: it takes no queue slot and shares the leader's
    result."""
    with queue_held(tmp_path) as (client, source, done):
        follower = client.compile(source=source)
        rejected = client.metrics()["service"]["queue"]["rejected"]
    assert follower.coalesced
    assert rejected == 0
    assert done and follower.result == done[0].result


def test_client_retries_honor_retry_after(tmp_path):
    """With ``retries=``, a shed client sleeps 0.5-1.5x the advertised
    Retry-After and resubmits until the queue frees up."""
    with queue_held(tmp_path) as (client, _source, done):
        sleeps = []

        def wait_for_leader(seconds):
            # Record the backoff, then wait for the slot to free up
            # rather than for the real (jittered) delay.
            sleeps.append(seconds)
            deadline = time.time() + 30.0
            while not done and time.time() < deadline:
                time.sleep(0.02)

        client._sleep = wait_for_leader
        outcome = client.compile(source=unique_source(6007), retries=3)
    assert outcome.result is not None
    assert sleeps, "the retry path never slept"
    # queue_limit=1 on one shard advertises Retry-After: 1.
    assert all(0.5 <= s <= 1.5 for s in sleeps), sleeps


def test_retries_exhausted_reraises(tmp_path):
    """Once ``retries`` resubmits are all shed, the client re-raises
    the last ServiceBusyError."""
    with queue_held(tmp_path) as (client, _source, _done):
        sleeps = []
        client._sleep = sleeps.append  # no real waiting: queue stays full
        with pytest.raises(ServiceBusyError):
            client.compile(source=unique_source(6008), retries=2)
    assert len(sleeps) == 2


# -- observability -------------------------------------------------------------


def test_healthz_and_metrics_shape(server, client):
    client.compile(source=unique_source(9009))
    client.simulate(
        source=unique_source(9010),
        options=CompilerOptions(engine="compiled"),
    )
    health = client.healthz()
    assert health["ok"] and not health["draining"]
    assert health["workers"] == 2

    metrics = client.metrics()
    service = metrics["service"]
    assert service["served"] > 0
    assert service["requests"]["/v1/simulate"] > 0
    assert service["pool"]["shards"] == 2
    assert service["store"]["entries"] > 0
    assert service["latency_ms"]["total"]["count"] > 0
    assert service["latency_ms"]["execute"]["count"] > 0
    # The JSON bucket keys are pinned: deployed consumers parse them.
    assert list(service["latency_ms"]["total"]["buckets"]) == [
        "le_1", "le_2", "le_5", "le_10", "le_20", "le_50", "le_100",
        "le_200", "le_500", "le_1000", "le_2000", "le_5000", "inf",
    ]
    # What perfbench's serve-mixed workload reads (metrics_delta).
    for stage in ("parse", "queue_wait", "execute", "total"):
        assert {"count", "sum_ms"} <= set(service["latency_ms"][stage])
    assert {"/v1/compile", "/v1/simulate"} <= set(service["requests"])
    assert isinstance(service["coalesced"], int)
    # The merged cross-worker perf registry: sections are
    # (seconds, calls) pairs, counters plain integers.
    seconds, calls = metrics["perf"]["sections"]["simulate"]
    assert isinstance(seconds, float) and isinstance(calls, int)
    assert calls > 0
    assert metrics["perf"]["counters"]["compiled.emissions"] > 0


def test_corrupt_store_entry_is_a_counted_miss(server, client):
    """A garbage store entry never reaches a client: the worker evicts
    it, counts it in the merged perf counters, recompiles and rewrites
    the entry. ``service.store`` reports only the directory figures —
    the server's own handle sees none of the workers' traffic."""
    source = unique_source(9100)
    program = parse_program(source)
    machine = MACHINES["intel"]()
    store = ArtifactStore(server.service.cache_dir)
    key = ArtifactStore.key(program, Variant.GLOBAL, machine, None)
    store._path(key).write_bytes(b"not a pickle at all")
    before = client.metrics()["perf"]["counters"]

    outcome = client.compile(source=source)

    local = compile_program(program, Variant.GLOBAL, machine)
    assert outcome.key == key
    assert not outcome.cached
    assert outcome.result == local
    metrics = client.metrics()
    evictions = metrics["perf"]["counters"]["store.corrupt_evictions"]
    assert evictions - before.get("store.corrupt_evictions", 0) == 1
    assert set(metrics["service"]["store"]) == {"root", "entries", "bytes"}
    assert store.get(key) == local


def test_pool_returns_artifacts_as_bytes(tmp_path):
    """The server holds no artifacts: a job's payload carries each one
    as the worker's pickle, and everything else as plain JSON."""
    service = ReproService(cache_dir=str(tmp_path / "store"))
    pool = WorkerPool(shards=1, store_dir=service.cache_dir)
    local = compile_program(
        KERNELS["milc"].build(N), Variant.GLOBAL, MACHINES["intel"]()
    )
    try:
        for kind, artifacts in (
            ("compile", {"result"}),
            ("simulate", {"result", "report", "memory"}),
        ):
            job, _key = service._build_job(
                kind, json.dumps({"kernel": "milc", "n": N}).encode()
            )
            payload = pool.submit(job)
            as_bytes = {
                name for name, value in payload.items()
                if isinstance(value, bytes)
            }
            assert as_bytes == artifacts, kind
            # json.dumps rejects bytes and arbitrary objects.
            json.dumps(
                {name: payload[name] for name in payload.keys() - artifacts}
            )
            assert pickle.loads(payload["result"]) == local
    finally:
        pool.close()


def test_source_memo_parses_each_source_once(monkeypatch):
    """The server parses a repeated source once, keys it exactly as
    ``ArtifactStore.key`` does, and keeps a bounded FIFO of sources."""
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse_program(text)

    monkeypatch.setattr(server_module, "parse_program", counting_parse)
    service = ReproService()
    source = unique_source(9200)
    body = json.dumps({"program": source, "variant": "slp"}).encode()
    _job, key = service._build_job("compile", body)
    _job, again = service._build_job("simulate", body)
    assert parsed == [source]
    assert key == again == ArtifactStore.key(
        parse_program(source), Variant.SLP, MACHINES["intel"](), None
    )
    for tag in range(SOURCE_MEMO_ENTRIES):
        service._printed(unique_source(10_000 + tag))
    assert len(service._sources) == SOURCE_MEMO_ENTRIES
    assert source not in service._sources


def test_unknown_paths_share_one_request_count(server, client):
    """``/metrics`` counts requests by endpoint; every unknown path
    lands in one ``other`` entry, so the table cannot grow without
    bound."""
    for index in range(300):
        status, _raw, _headers = client._round_trip(
            "GET", f"/no/such/path/{index}", None, {}, 30.0
        )
        assert status == 404
    requests = client.metrics()["service"]["requests"]
    assert set(requests) <= {
        "/healthz", "/metrics", "/v1/compile", "/v1/simulate", "other",
    }
    assert requests["other"] >= 300


def test_coalescers_count_separately():
    """Each coalescer counts its own leaders and followers."""

    async def scenario():
        first, second = Coalescer(), Coalescer()
        gate = asyncio.Event()

        async def work():
            await gate.wait()
            return "done"

        leader = asyncio.ensure_future(first.lead("key", work))
        await asyncio.sleep(0)
        follower = asyncio.ensure_future(first.join("key"))
        await asyncio.sleep(0)
        gate.set()
        assert await leader == await follower == "done"
        return first, second

    first, second = asyncio.run(scenario())
    assert (first.leads, first.coalesced) == (1, 1)
    assert (second.leads, second.coalesced) == (0, 0)


# -- the latency histogram behind /metrics -------------------------------------


def test_histogram_bucket_boundary_is_inclusive():
    """An observation landing exactly on a bound goes in that bucket
    (``ms <= bound``)."""
    hist = Histogram()
    hist.observe(0.001)   # exactly 1 ms -> le_1
    hist.observe(0.0010001)  # just over -> le_2
    snap = hist.snapshot()
    assert snap["buckets"]["le_1"] == 1
    assert snap["buckets"]["le_2"] == 1


def test_histogram_overflow_goes_to_inf():
    hist = Histogram()
    hist.observe(6.0)  # 6000 ms, past the last 5000 ms bound
    snap = hist.snapshot()
    assert snap["buckets"]["inf"] == 1
    assert snap["count"] == 1


def test_histogram_snapshot_shape_is_the_service_json_shape():
    """The exact keys the service's JSON ``/metrics`` exposes."""
    hist = Histogram()
    hist.observe(0.003)
    snap = hist.snapshot()
    assert set(snap) == {"count", "sum_ms", "buckets"}
    assert list(snap["buckets"]) == [
        "le_1", "le_2", "le_5", "le_10", "le_20", "le_50", "le_100",
        "le_200", "le_500", "le_1000", "le_2000", "le_5000", "inf",
    ]
    assert snap["count"] == 1
    assert snap["sum_ms"] == 3.0


def test_request_ids_minted_and_echoed(client):
    """Every response carries a request ID: client-minted by default,
    caller-supplied when one is already bound."""
    outcome = client.compile(source=unique_source(7007))
    assert outcome.request_id and len(outcome.request_id) == 16
    int(outcome.request_id, 16)

    with bind_request_id("feedc0de00001111"):
        echoed = client.compile(source=unique_source(7007))
    assert echoed.request_id == "feedc0de00001111"
    assert echoed.cached


def test_log_events_share_the_request_correlation_id(server, client):
    """The structured log joins on request_id: the admission decision
    and the completion record for one request carry the same ID."""
    sink = io.StringIO()
    LOG.configure(stream=sink, service="test-serve")
    try:
        outcome = client.compile(source=unique_source(8008))
    finally:
        LOG.disable()
    records = [
        record
        for record in parse_jsonl(sink.getvalue())
        if record.get("request_id") == outcome.request_id
    ]
    events = {record["event"] for record in records}
    assert "request.lead" in events
    assert "request.done" in events
    done = next(r for r in records if r["event"] == "request.done")
    assert done["service"] == "test-serve"
    assert done["ms"] >= 0


def test_trace_requests_carry_a_summary(client):
    outcome = client.compile(kernel="cg", n=N, variant="global", trace=True)
    assert outcome.trace_summary is not None


def test_drain_is_clean(tmp_path):
    """Stopping the service drains in-flight work and frees the port;
    afterwards the client sees it as down."""
    thread = ServiceThread(
        shards=1, cache_dir=str(tmp_path / "store"), test_hooks=True
    ).start()
    client = ServiceClient(thread.url)
    assert client.compile(kernel="milc", n=N).result is not None
    thread.stop()
    assert not thread._thread.is_alive()
    assert not client.is_up(timeout=1.0)
