"""Serving frontend: overload partitions, byte-identity, breakers, drain.

Acceptance anchors (ISSUE 10):

* a seeded burst of >= 100 mixed requests against an undersized queue
  partitions into accepted/shed **deterministically** — the partition is
  a pure function of arrival order and capacity, identical across runs;
* every accepted request's results are **byte-identical** to running the
  same jobs directly through :func:`repro.analysis.runner.run_jobs` —
  the server adds supervision, never nondeterminism;
* repeated pool crashes (injected ``worker_sigkill`` storms) trip the
  per-scheme breaker open, subsequent requests shed with a typed
  ``breaker_open``, and after the cooldown a half-open probe success
  closes it again — all driven by a :class:`ManualClock`, no real waits;
* a drain journals the queued remainder and :func:`execute_drained`
  replays it byte-identically.

The socket transport rides the same :class:`ServerCore`; the
end-to-end SIGTERM path is covered by the subprocess test in
``tests/test_resume.py`` and by ``tools/serve_smoke.sh``.
"""

import json

import pytest

from repro.analysis.runner import clear_result_memo, run_jobs
from repro.envfault import FaultPlan, FaultSpec, injected
from repro.obs import MetricsRegistry
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    ManualClock,
    REJECT_BREAKER_OPEN,
    REJECT_DEADLINE,
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    Rejected,
    RetryPolicy,
)
from repro.runtime.pool import shutdown_shared_pool
from repro.serve import (
    ControlRequest,
    InProcessClient,
    ProtocolError,
    ServeConfig,
    ServerCore,
    SimRequest,
    build_jobs,
    execute_drained,
    parse_request,
    read_drained_requests,
    request_to_payload,
    results_payload,
    seeded_burst,
)
from repro.serve.protocol import (
    error_response,
    journaled_response,
    ok_response,
    shed_response,
)


def _reference_results(request: SimRequest, workers: int) -> dict:
    """What the live server must produce for ``request``, bit for bit."""
    jobs = build_jobs(request)
    results = run_jobs(
        jobs,
        workers=workers if len(jobs) > 1 else 1,
        on_error="raise",
        retries=0,
    )
    return results_payload(jobs, results)


def _canon(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


# --- protocol ----------------------------------------------------------------


class TestProtocol:
    def test_request_payload_round_trip(self):
        request = SimRequest(
            id="r1",
            benchmarks=("mcf", "lbm"),
            scheme="cobcm",
            num_ops=500,
            seed=3,
            warmup=0.25,
            deadline_s=12.0,
        )
        assert parse_request(request_to_payload(request)) == request

    def test_defaults_round_trip_without_optionals(self):
        request = SimRequest(id="r2", benchmarks=("mcf",))
        payload = request_to_payload(request)
        assert "scheme" not in payload and "deadline_s" not in payload
        assert parse_request(payload) == request

    def test_string_benchmarks_wrapped(self):
        request = parse_request({"id": "r3", "benchmarks": "mcf"})
        assert request.benchmarks == ("mcf",)

    def test_control_requests_parse(self):
        request = parse_request({"kind": "stats", "id": "c1"})
        assert isinstance(request, ControlRequest)
        assert request.op == "stats"

    def test_validation_errors(self):
        with pytest.raises(ProtocolError, match="non-empty string 'id'"):
            parse_request({"benchmarks": ["mcf"]})
        with pytest.raises(ProtocolError, match="unknown request kind"):
            parse_request({"id": "r", "kind": "mystery"})
        with pytest.raises(ProtocolError, match="no benchmarks"):
            SimRequest(id="r", benchmarks=())
        with pytest.raises(ProtocolError, match="deadline_s"):
            SimRequest(id="r", benchmarks=("mcf",), deadline_s=0.0)
        with pytest.raises(ProtocolError, match="unknown control op"):
            ControlRequest(id="c", op="reboot")

    def test_response_shapes_carry_version_and_id(self):
        for response in (
            ok_response("r", {}),
            shed_response("r", "queue_full", "full"),
            error_response("r", "RuntimeError", "boom"),
            journaled_response("r", "drain.jsonl"),
        ):
            assert response["v"] == 1
            assert response["id"] == "r"

    def test_seeded_burst_is_deterministic(self):
        first = seeded_burst(2023, 120, num_ops=300)
        second = seeded_burst(2023, 120, num_ops=300)
        assert first == second
        assert len(first) == 120
        assert [r.id for r in first[:3]] == ["r0000", "r0001", "r0002"]
        # A mixed burst: both serial requests and warm-pool sweeps.
        widths = {len(r.benchmarks) for r in first}
        assert 1 in widths and widths - {1}
        assert {r.scheme for r in first} > {None}

    def test_seeded_burst_seed_changes_the_mix(self):
        assert seeded_burst(1, 50) != seeded_burst(2, 50)


# --- overload: deterministic accept/shed partition ---------------------------


BURST_SEED = 2023
BURST_COUNT = 120
QUEUE_DEPTH = 8


def _offer_burst(core: ServerCore):
    """Offer the seeded burst; returns (client, accepted ids, shed map)."""
    client = InProcessClient(core)
    accepted, shed = [], {}
    for request in seeded_burst(BURST_SEED, BURST_COUNT, num_ops=250):
        rejected = client.send(request)
        if rejected is None:
            accepted.append(request.id)
        else:
            shed[request.id] = rejected
    return client, accepted, shed


class TestOverloadPartition:
    def test_partition_is_deterministic_and_typed(self):
        partitions = []
        for _ in range(2):
            # No dispatcher: pure admission against a full-size burst.
            core = ServerCore(ServeConfig(queue_depth=QUEUE_DEPTH))
            client, accepted, shed = _offer_burst(core)
            assert len(accepted) == QUEUE_DEPTH
            assert len(shed) == BURST_COUNT - QUEUE_DEPTH
            assert all(
                isinstance(r, Rejected) and r.reason == REJECT_QUEUE_FULL
                for r in shed.values()
            )
            # Every shed request was answered immediately with a typed
            # shed response (the client saw it without any dispatch).
            responses = client.responses()
            assert set(responses) == set(shed)
            assert all(
                response["status"] == "shed"
                and response["reason"] == REJECT_QUEUE_FULL
                for response in responses.values()
            )
            partitions.append((tuple(accepted), tuple(sorted(shed))))
        assert partitions[0] == partitions[1]
        # Bounded FIFO admission accepts exactly the burst prefix.
        assert list(partitions[0][0]) == [
            f"r{i:04d}" for i in range(QUEUE_DEPTH)
        ]

    def test_accepted_results_byte_identical_to_direct_run_jobs(self):
        config = ServeConfig(workers=2, queue_depth=QUEUE_DEPTH)
        core = ServerCore(config)
        core.pause()  # freeze dispatch so admission sees the whole burst
        core.start()
        try:
            client, accepted, _shed = _offer_burst(core)
            core.unpause()
            client.wait_all(BURST_COUNT, timeout=300.0)
            burst = {
                r.id: r for r in seeded_burst(BURST_SEED, BURST_COUNT,
                                              num_ops=250)
            }
            for request_id in accepted:
                response = client.collect(request_id, timeout=1.0)
                assert response["status"] == "ok", response
                # The server filled the memo; the reference must simulate.
                clear_result_memo()
                reference = _reference_results(
                    burst[request_id], config.workers
                )
                assert _canon(response["results"]) == _canon(reference)
            assert core.completed == len(accepted)
        finally:
            core.stop()


# --- deadlines ---------------------------------------------------------------


class TestDeadlines:
    def test_request_expired_in_queue_is_shed_not_run(self):
        clock = ManualClock()
        core = ServerCore(ServeConfig(queue_depth=4), clock=clock)
        core.pause()
        core.start()
        try:
            client = InProcessClient(core)
            request = SimRequest(
                id="late", benchmarks=("mcf",), num_ops=200, deadline_s=5.0
            )
            assert client.send(request) is None
            clock.advance(6.0)  # the budget dies while queued
            core.unpause()
            response = client.collect("late", timeout=30.0)
            assert response["status"] == "shed"
            assert response["reason"] == REJECT_DEADLINE
        finally:
            core.stop()

    def test_config_default_deadline_applies(self):
        clock = ManualClock()
        core = ServerCore(
            ServeConfig(queue_depth=4, default_deadline_s=3.0), clock=clock
        )
        core.pause()
        core.start()
        try:
            client = InProcessClient(core)
            assert client.send(
                SimRequest(id="r", benchmarks=("mcf",), num_ops=200)
            ) is None
            clock.advance(4.0)
            core.unpause()
            assert client.collect("r", timeout=30.0)["status"] == "shed"
        finally:
            core.stop()


# --- breaker trip and recovery under injected pool crashes -------------------


class TestBreakerUnderFaults:
    def test_sigkill_storm_trips_breaker_then_half_open_recovery(
        self, tmp_path
    ):
        clock = ManualClock()
        config = ServeConfig(
            workers=2,
            queue_depth=16,
            retries=0,  # failures surface to the breaker immediately
            breaker=BreakerPolicy(
                window=4, failure_rate=0.5, min_calls=2, open_seconds=30.0
            ),
            restart_backoff=RetryPolicy(
                attempts=3, base_delay=0.05, multiplier=4.0, jitter_frac=0.0
            ),
        )
        core = ServerCore(config, clock=clock)
        core.start()
        client = InProcessClient(core)

        def sweep(request_id):
            # Two benchmarks: rides the warm pool, where worker_sigkill
            # lands.  Single-benchmark requests run serially and are
            # immune by construction.
            return SimRequest(
                id=request_id,
                benchmarks=("mcf", "lbm"),
                scheme="cobcm",
                num_ops=200,
            )

        # Every worker's first task dies while the plan is armed: each
        # sweep observes a broken pool and fails (retries=0).  The pool
        # forked before arming would dodge the fault, so force a fresh
        # fork inside the armed region.
        shutdown_shared_pool(wait=False)
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    op="worker.task", index=0, kind="worker_sigkill", count=64
                ),
            ),
        )
        try:
            with injected(plan):
                for request_id in ("kill1", "kill2"):
                    assert client.send(sweep(request_id)) is None
                    # An "error" response proves the storm landed: the
                    # kills fire in forked workers (whose context copies
                    # record them), and the parent observes the broken
                    # pool.  Nothing else can fail a 200-op sweep.
                    response = client.collect(request_id, timeout=120.0)
                    assert response["status"] == "error", response
                breaker = core.breaker_for("cobcm")
                assert breaker.state == OPEN
                assert (CLOSED, OPEN) in breaker.transitions
                # While open, requests for the scheme shed immediately
                # without burning a pool fork.
                assert client.send(sweep("shedme")) is None
                response = client.collect("shedme", timeout=30.0)
                assert response["status"] == "shed"
                assert response["reason"] == REJECT_BREAKER_OPEN
                # Other schemes have their own breakers, still closed.
                assert core.breaker_for("nogap").state == CLOSED
            # The supervisor paced each refork on the virtual clock:
            # no real time was burned in the crash loop.
            assert core.restarts.restarts == 2
            assert clock.sleeps  # pacing happened, virtually
        finally:
            # Tear down the armed-at-fork pool so the probe (and later
            # tests) run faultless.
            shutdown_shared_pool(wait=False)

        try:
            # Cooldown not served: still shedding.
            assert not core.breaker_for("cobcm").allow()
            clock.advance(31.0)
            probe = sweep("probe")
            assert client.send(probe) is None
            response = client.collect("probe", timeout=120.0)
            assert response["status"] == "ok", response
            breaker = core.breaker_for("cobcm")
            assert breaker.state == CLOSED
            assert breaker.transitions == [
                (CLOSED, OPEN),
                (OPEN, HALF_OPEN),
                (HALF_OPEN, CLOSED),
            ]
            # The probe's results are the reference bytes, crash
            # history notwithstanding.
            clear_result_memo()
            assert _canon(response["results"]) == _canon(
                _reference_results(probe, config.workers)
            )
            assert core.stats()["pool_restarts"] == 2
        finally:
            core.stop()


# --- graceful drain ----------------------------------------------------------


class TestDrain:
    def _requests(self):
        return [
            SimRequest(id="q1", benchmarks=("mcf",), num_ops=150),
            SimRequest(
                id="q2", benchmarks=("lbm", "milc"), scheme="cobcm",
                num_ops=150, seed=2,
            ),
            SimRequest(id="q3", benchmarks=("bzip2",), scheme="nogap",
                       num_ops=150),
        ]

    def test_drain_journals_queue_and_replays_byte_identical(self, tmp_path):
        core = ServerCore(ServeConfig(queue_depth=8, workers=2))
        client = InProcessClient(core)
        requests = self._requests()
        for request in requests:
            assert client.send(request) is None
        journal_path = tmp_path / "serve.drain.jsonl"

        journaled = core.drain(journal_path)
        assert journaled == len(requests)
        assert core.journaled == len(requests)
        for request in requests:
            response = client.collect(request.id, timeout=1.0)
            assert response["status"] == "journaled"
            assert response["journal"] == str(journal_path)
        # Admission is closed: late offers shed with ``draining``.
        late = client.send(SimRequest(id="late", benchmarks=("mcf",)))
        assert isinstance(late, Rejected)
        assert late.reason == REJECT_DRAINING
        # A second drain is a no-op and must not clobber the journal.
        assert core.drain(tmp_path / "other.jsonl") == 0

        # The journal parses back into the exact requests, in order.
        assert read_drained_requests(journal_path) == requests
        # Replay produces the bytes the live server would have.
        replayed = execute_drained(journal_path, workers=2)
        assert list(replayed) == [r.id for r in requests]
        for request in requests:
            clear_result_memo()
            assert _canon(replayed[request.id]) == _canon(
                _reference_results(request, workers=2)
            )

    def test_empty_queue_drain_writes_no_journal(self, tmp_path):
        core = ServerCore(ServeConfig(queue_depth=4))
        journal_path = tmp_path / "empty.jsonl"
        assert core.drain(journal_path) == 0
        assert not journal_path.exists()

    def test_foreign_journal_rejected(self, tmp_path):
        from repro.durability.journal import JournalError, JournalWriter

        path = tmp_path / "foreign.jsonl"
        JournalWriter.create(path, "campaign", {"x": 1}).close()
        with pytest.raises(JournalError, match="not 'serve-drain'"):
            read_drained_requests(path)


# --- control plane -----------------------------------------------------------


class TestControlPlane:
    def test_health_tracks_dispatcher_and_drain(self, tmp_path):
        core = ServerCore(ServeConfig(queue_depth=4))
        client = InProcessClient(core)
        assert client.control("health")["ready"] is False
        core.start()
        try:
            assert client.control("health")["ready"] is True
        finally:
            core.drain(tmp_path / "drain.jsonl")
        health = client.control("health")
        assert health["draining"] is True

    def test_stats_shape(self):
        metrics = MetricsRegistry()
        core = ServerCore(ServeConfig(queue_depth=4), metrics=metrics)
        client = InProcessClient(core)
        client.send(SimRequest(id="r", benchmarks=("mcf",), num_ops=150))
        stats = client.control("stats")["stats"]
        assert stats["queue_depth"] == 1
        assert stats["accepted"] == 1
        assert stats["shed"] == 0
        for key in (
            "completed", "errors", "journaled", "in_flight", "draining",
            "breakers", "pool", "pool_restarts",
        ):
            assert key in stats
        # Admission flowed through the shared metrics registry too.
        names = set(metrics.snapshot(include_nondeterministic=True))
        assert "resilience.admission_accepted" in names
        core.stop()
