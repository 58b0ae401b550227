"""Smoke tests for the multi-process shard backend (one worker per shard).

Small by design — real subprocesses on CI are expensive — but they
cover the full protocol surface once: serve through the router, shared
L2 visibility across worker processes, snapshot shipping, trace
merging, heartbeats, hard kill + ejection (under serial and concurrent
callers), late replies after a timeout, and clean shutdown.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.shard import (
    ProcessShardBackend,
    ShardClusterError,
    ShardRemoteError,
    ShardSpec,
    ShardedPredictionService,
)
from repro.service.shard.testing import DeterministicStubPredictor
from repro.trace import TRACER, RingBufferSink

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def cluster():
    """One 2-worker cluster shared by the module's tests (ordering matters)."""
    spec = ShardSpec(
        factory="repro.service.shard.testing:build_stub_service", trace=True
    )
    backend = ProcessShardBackend(("w0", "w1"), spec, request_timeout_s=30.0)
    router = ShardedPredictionService(backend)
    yield router, backend
    router.shutdown()


def test_serves_stub_values_through_worker_processes(cluster) -> None:
    """Routed answers equal the stub's, so the IPC path is transparent."""
    router, _ = cluster
    stub = DeterministicStubPredictor()
    assert router.predict_mrt_ms("shop", 60) == stub.predict_mrt_ms("shop", 60)
    assert router.predict_throughput("shop", 40) == stub.predict_throughput("shop", 40)
    assert router.max_clients("shop", 500.0) == stub.max_clients("shop", 500.0)


def test_l2_is_shared_across_worker_processes(cluster) -> None:
    """A value computed in one worker is an L2 hit for the other."""
    router, backend = cluster
    info = router.serve_info("mrt", "crossshard", 77.0, 0.0)
    other = next(s for s in backend.shard_ids() if s != info.shard)
    value, outcome = backend.request(other, "mrt", "crossshard", 77.0, 0.0)
    assert value == info.value
    assert outcome == "l2_hit"


def test_snapshots_ship_and_merge(cluster) -> None:
    """Worker snapshots cross the pipe and merge into cluster counters."""
    router, backend = cluster
    merged = router.snapshot()
    shard_requests = sum(
        backend.snapshot(s).counters.get("cache.requests", 0)
        for s in backend.shard_ids()
    )
    assert merged.counters["cache.requests"] == shard_requests
    assert merged.counters["router.requests"] >= 4


def test_worker_traces_merge_into_one_timeline(cluster) -> None:
    """Worker spans drain across the pipe into the parent's timeline."""
    router, backend = cluster
    router.predict_mrt_ms("traced", 50)
    sink = RingBufferSink()
    TRACER.enable(sink)
    try:
        merged = sum(
            backend.drain_trace_into_timeline(s) for s in backend.shard_ids()
        )
    finally:
        TRACER.disable()
    assert merged > 0
    events = sink.events()
    assert events and all(e.name == "shard.worker_span" for e in events)
    assert {e.attributes["shard"] for e in events} <= {"w0", "w1"}
    assert any(e.attributes["span_name"] == "service.request" for e in events)


def test_ping_and_kill_feed_health(cluster) -> None:
    """Heartbeats pass while alive; a hard-killed worker gets ejected.

    Runs last in the module (the fixture is module-scoped and this test
    kills one of its workers).
    """
    router, backend = cluster
    assert router.poll_health() == {"w0": True, "w1": True}
    backend.kill("w0")
    assert backend.ping("w0") is False
    # Three failed heartbeat polls trip the dead worker's breaker even
    # though no request happened to route to it.
    for _ in range(3):
        assert router.poll_health()["w0"] is False
    assert "w0" in router.health.ejected()
    for _ in range(4):  # every request still answers via the survivor
        info = router.serve_info("mrt", "afterkill", 42.0, 0.0)
        assert info.shard == "w1"


def _wait_until_answering(backend: ProcessShardBackend, shard: str) -> None:
    """Ping until the worker answers (it may still be busy with a slow solve)."""
    deadline = time.monotonic() + 30.0
    while not backend.ping(shard):
        assert time.monotonic() < deadline, f"worker {shard} never answered"


def test_late_reply_after_timeout_is_never_read_as_a_later_answer() -> None:
    """A reply that arrives after its request timed out is dropped.

    Regression: the timed-out request's answer stayed in the pipe and
    the next round-trip on that shard read it as its own — a request
    for 900 clients returned the 60-client value, and a later ping on a
    live worker read the stale reply and reported the worker dead.
    """
    stub = DeterministicStubPredictor()
    spec = ShardSpec(
        factory="repro.service.shard.testing:build_stub_service",
        kwargs={"delay_s": 1.0},
    )
    with ProcessShardBackend(("w0",), spec, l2=False, request_timeout_s=0.25) as backend:
        with pytest.raises(ShardRemoteError):
            backend.request("w0", "mrt", "shop", 60.0, 0.0)
        time.sleep(1.5)  # the 60-client answer is now waiting in the pipe
        with pytest.raises(ShardRemoteError):  # a fresh 1 s solve times out too
            backend.request("w0", "mrt", "shop", 900.0, 0.0)
        _wait_until_answering(backend, "w0")
        # Both solves finished in the worker and sit in its L1 now.
        assert backend.request("w0", "mrt", "shop", 900.0, 0.0) == (
            stub.predict_mrt_ms("shop", 900.0),
            "l1_hit",
        )
        assert backend.request("w0", "mrt", "shop", 60.0, 0.0) == (
            stub.predict_mrt_ms("shop", 60.0),
            "l1_hit",
        )
        assert backend.ping("w0") is True


def test_kill_under_concurrent_callers_answers_exactly_or_raises_typed() -> None:
    """Kill one of two workers while several threads are calling.

    Every call either returns the stub's exact value or raises
    :class:`ShardClusterError`; none hangs past the bound, and the
    killed worker ends up ejected.
    """
    stub = DeterministicStubPredictor()
    spec = ShardSpec(factory="repro.service.shard.testing:build_stub_service")
    backend = ProcessShardBackend(("w0", "w1"), spec, request_timeout_s=5.0)
    threads, per_thread, bound_s = 4, 100, 10.0
    results: list[tuple[float, float, float | Exception]] = []
    results_lock = threading.Lock()
    started = threading.Barrier(threads + 1)

    def caller(index: int) -> None:
        started.wait()
        for i in range(per_thread):
            n_clients = float(100 + index * per_thread + i)
            begin = time.monotonic()
            try:
                outcome: float | Exception = router.predict_mrt_ms("shop", n_clients)
            except Exception as error:  # recorded and checked below
                outcome = error
            with results_lock:
                results.append((n_clients, time.monotonic() - begin, outcome))

    with ShardedPredictionService(backend) as router:
        workers = [
            threading.Thread(target=caller, args=(i,), daemon=True)
            for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        started.wait()
        deadline = time.monotonic() + 60.0
        while True:  # kill mid-run, once the callers have made progress
            with results_lock:
                if len(results) >= threads * 5:
                    break
            assert time.monotonic() < deadline, "the callers never got going"
            time.sleep(0.001)
        backend.kill("w0")
        for worker in workers:
            worker.join(timeout=120.0)
            assert not worker.is_alive(), "a caller hung"
        assert "w0" in router.health.ejected()

    assert len(results) == threads * per_thread
    for n_clients, elapsed_s, outcome in results:
        assert elapsed_s < bound_s, f"call for {n_clients} took {elapsed_s:.1f}s"
        if isinstance(outcome, Exception):
            assert isinstance(outcome, ShardClusterError), repr(outcome)
        else:
            assert outcome == stub.predict_mrt_ms("shop", n_clients)
