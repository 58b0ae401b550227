"""Integration tests for the shard router (repro.service.shard.router).

Everything runs on the inline backend over a shared FakeClock — the
deterministic regime the chaos experiment and CI gates use — with the
importable stub stack from ``repro.service.shard.testing``.
"""

from __future__ import annotations

import pytest

from repro.service.breaker import BreakerConfig, BreakerState
from repro.service.shard import (
    InlineShardBackend,
    ShardClusterError,
    ShardedPredictionService,
    SharedL2Cache,
)
from repro.service.shard.testing import DeterministicStubPredictor, build_stub_service
from repro.util.clock import FakeClock
from repro.util.rng import spawn_rng


def _cluster(n_shards: int, clock: FakeClock, *, l2: SharedL2Cache | None = None):
    shared = l2 if l2 is not None else SharedL2Cache(clock=clock.monotonic_s)

    def factory(shard_id: str):
        service = build_stub_service(shard_id)
        service.l2 = shared
        return service

    backend = InlineShardBackend(tuple(f"s{i}" for i in range(n_shards)), factory)
    breaker = BreakerConfig(failure_threshold=3, recovery_time_s=5.0)
    return ShardedPredictionService(backend, breaker=breaker, clock=clock), backend


def test_values_agree_with_unsharded_stub_at_any_shard_count() -> None:
    """The cluster is value-transparent: same answers as the raw stub."""
    stub = DeterministicStubPredictor()
    for n_shards in (1, 3, 5):
        clock = FakeClock()
        cluster, _ = _cluster(n_shards, clock)
        with cluster:
            assert cluster.predict_mrt_ms("shop", 60) == stub.predict_mrt_ms("shop", 60)
            assert cluster.predict_throughput("shop", 40) == stub.predict_throughput(
                "shop", 40
            )
            assert cluster.max_clients("shop", 500.0) == stub.max_clients("shop", 500.0)


def test_routing_is_sticky_and_cache_local() -> None:
    """One grid cell always routes to one shard, whose L1 then serves it."""
    clock = FakeClock()
    cluster, _ = _cluster(4, clock)
    with cluster:
        first = cluster.serve_info("mrt", "shop", 60.0, 0.0)
        assert first.outcome == "computed"
        for _ in range(5):
            again = cluster.serve_info("mrt", "shop", 60.0, 0.0)
            assert again.shard == first.shard  # locality
            assert again.outcome == "l1_hit"  # served by that shard's L1
        # Same cell (sub-grid-step perturbation) routes identically too.
        nearby = cluster.serve_info("mrt", "shop", 60.4, 0.0)
        assert nearby.shard == first.shard and nearby.outcome == "l1_hit"
    # A second pass over a seeded request stream is served entirely from
    # L1, whether one shard holds every key or four split them.
    rng = spawn_rng(2004, "locality")
    stream = [
        (("mrt", "throughput")[int(rng.integers(0, 2))], float(rng.integers(100, 1101)))
        for _ in range(600)
    ]
    for n_shards in (1, 4):
        cluster, _ = _cluster(n_shards, FakeClock())
        with cluster:
            for op, operand in stream:
                cluster.serve_info(op, "shop", operand, 0.0)
            second = [cluster.serve_info(op, "shop", operand, 0.0) for op, operand in stream]
        assert {info.outcome for info in second} == {"l1_hit"}


def test_failed_shard_is_ejected_keys_reroute_and_l2_promotes() -> None:
    """Kill the owner: keys walk to the successor, which warms from L2."""
    clock = FakeClock()
    cluster, backend = _cluster(3, clock)
    with cluster:
        first = cluster.serve_info("mrt", "shop", 60.0, 0.0)
        owner = first.shard
        backend.kill(owner)
        # Three failures (threshold) eject the owner — the third request's
        # own failure trips the breaker; every request still answers by
        # rerouting to the ring successor.
        serves = [cluster.serve_info("mrt", "shop", 60.0, 0.0) for _ in range(4)]
        assert all(s.shard != owner for s in serves)
        assert all(s.reroutes >= 1 for s in serves[:3])
        assert owner in cluster.health.ejected()
        assert cluster.health.breaker(owner).state is BreakerState.OPEN
        # The successor had never seen the key: its first serve came from
        # the shared L2 (computed once on the dead owner), then its L1.
        assert serves[0].outcome == "l2_hit"
        assert serves[1].outcome == "l1_hit"
        # Once ejected, requests route straight to the successor.
        assert serves[3].reroutes == 0


def test_recovered_shard_rejoins_with_l1_intact() -> None:
    """After the recovery window a probe re-closes the breaker; keys return."""
    clock = FakeClock()
    cluster, backend = _cluster(3, clock)
    with cluster:
        first = cluster.serve_info("mrt", "shop", 60.0, 0.0)
        owner = first.shard
        backend.kill(owner)
        for _ in range(3):
            cluster.serve_info("mrt", "shop", 60.0, 0.0)
        backend.revive(owner)
        clock.advance(6.0)  # past recovery_time_s: the breaker owes a probe
        probe = cluster.serve_info("mrt", "shop", 60.0, 0.0)
        assert probe.shard == owner  # the ring position never moved
        assert probe.outcome == "l1_hit"  # its L1 survived the outage
        assert cluster.health.breaker(owner).state is BreakerState.CLOSED
        assert owner not in cluster.health.ejected()
        transitions = [t[2] for t in cluster.health.breaker(owner).transitions()]
        assert transitions == ["open", "half_open", "closed"]


def test_cluster_exhaustion_raises_shard_cluster_error() -> None:
    """Every shard dead → ShardClusterError, not a hang or a wrong value."""
    clock = FakeClock()
    cluster, backend = _cluster(2, clock)
    with cluster:
        for shard in backend.shard_ids():
            backend.kill(shard)
        with pytest.raises(ShardClusterError):
            cluster.serve_info("mrt", "shop", 60.0, 0.0)
        assert cluster.export_metrics()["router.exhausted"] >= 1


def test_merged_snapshot_sums_router_and_all_shards() -> None:
    """Cluster snapshot counters == router counters + Σ shard counters."""
    clock = FakeClock()
    cluster, backend = _cluster(3, clock)
    with cluster:
        for i in range(20):
            cluster.serve_info("mrt", "shop", float(40 + i), 0.0)
        merged = cluster.snapshot()
        shard_requests = sum(
            backend.snapshot(s).counters.get("cache.requests", 0)
            for s in backend.shard_ids()
        )
        assert merged.counters["cache.requests"] == shard_requests
        assert merged.counters["router.requests"] == 20
        # Derived rates come from merged counters, never merged directly.
        export = cluster.export_metrics()
        assert export["cache.hit_rate"] == pytest.approx(
            merged.counters["cache.hits"] / merged.counters["cache.requests"]
        )


def test_per_shard_served_accounts_every_request() -> None:
    """The routing-balance view sums to the number of served requests."""
    clock = FakeClock()
    cluster, _ = _cluster(4, clock)
    with cluster:
        for i in range(30):
            cluster.serve_info("throughput", f"srv{i % 6}", float(100 + i), 0.0)
        served = cluster.per_shard_served()
        assert sum(served.values()) == 30
        assert set(served) == {"s0", "s1", "s2", "s3"}


def test_unknown_operation_is_rejected_before_routing() -> None:
    """A bogus op fails validation; no shard sees it."""
    clock = FakeClock()
    cluster, _ = _cluster(2, clock)
    with cluster:
        with pytest.raises(Exception):
            cluster.serve_info("latency", "shop", 60.0, 0.0)
        assert sum(cluster.per_shard_served().values()) == 0
