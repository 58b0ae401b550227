"""How a request was answered is the service's own report.

:meth:`PredictionService.serve` returns ``(value, outcome)``; both shard
backends forward that outcome instead of inferring it from cache
counters, so a concurrent request cannot change another request's label.
:meth:`PredictionService.export_metrics` is the snapshot export plus the
non-additive values a snapshot leaves out.
"""

from __future__ import annotations

import threading
import time

from repro.service.admission import AdmissionConfig
from repro.service.breaker import BreakerConfig
from repro.service.service import PredictionService, ServiceConfig
from repro.service.shard import InlineShardBackend, ShardedPredictionService, SharedL2Cache
from repro.service.shard.testing import DeterministicStubPredictor, build_stub_service


def test_serve_reports_which_tier_answered() -> None:
    """Computed, then an L1 hit; another stack on the same L2 gets an L2 hit."""
    l2 = SharedL2Cache()
    stub = DeterministicStubPredictor()
    with PredictionService(stub, l2=l2) as first, PredictionService(stub, l2=l2) as second:
        value, outcome = first.serve("mrt", "shop", 60.0)
        assert (value, outcome) == (stub.predict_mrt_ms("shop", 60.0), "computed")
        assert first.serve("mrt", "shop", 60.0) == (value, "l1_hit")
        assert second.serve("mrt", "shop", 60.0) == (value, "l2_hit")
        assert second.serve("mrt", "shop", 60.0) == (value, "l1_hit")
        assert first.serve("capacity", "shop", 500.0) == (
            stub.max_clients("shop", 500.0),
            "computed",
        )


def test_degraded_answer_counts_as_computed() -> None:
    """A fallback answer got past both caches, so its outcome is computed."""
    slow = DeterministicStubPredictor(delay_s=0.2)
    fast = DeterministicStubPredictor()
    config = ServiceConfig(admission=AdmissionConfig(timeout_s=0.01))
    with PredictionService(slow, fallback=fast, config=config) as service:
        value, outcome = service.serve("throughput", "shop", 40.0)
        assert outcome == "computed"
        assert value == fast.predict_throughput("shop", 40.0)
        assert service.export_metrics()["degraded.timeout"] == 1


def test_concurrent_hit_does_not_relabel_a_slow_computation() -> None:
    """A first-time key computing for 0.3 s while another thread hits the
    same shard's L1: each request keeps its own outcome."""
    backend = InlineShardBackend(("s0",), lambda sid: build_stub_service(sid, delay_s=0.3))
    outcomes: dict[str, str] = {}
    with ShardedPredictionService(backend) as cluster:
        cluster.serve_info("mrt", "shop", 10.0, 0.0)  # cache the hit's key

        def first_time() -> None:
            outcomes["slow"] = cluster.serve_info("mrt", "shop", 20.0, 0.0).outcome

        thread = threading.Thread(target=first_time)
        thread.start()
        time.sleep(0.1)
        outcomes["hit"] = cluster.serve_info("mrt", "shop", 10.0, 0.0).outcome
        thread.join(timeout=5.0)
    assert outcomes == {"slow": "computed", "hit": "l1_hit"}


def test_export_metrics_is_snapshot_export_plus_rates_and_breaker() -> None:
    """Exactly five keys beyond the snapshot export; shared keys agree."""
    l2 = SharedL2Cache()
    config = ServiceConfig(breaker=BreakerConfig())
    with PredictionService(DeterministicStubPredictor(), config=config, l2=l2) as service:
        for n_clients in (10.0, 20.0, 10.0):
            service.predict_mrt_ms("shop", n_clients)
        service.max_clients("shop", 500.0)
        exported = service.export_metrics()
        snapshot = service.snapshot().export()
    assert set(exported) - set(snapshot) == {
        "cache.hit_rate",
        "l2.hit_rate",
        "breaker.state",
        "breaker.health",
        "breaker.rejected",
    }
    assert {name: exported[name] for name in snapshot} == snapshot
    assert exported["cache.hit_rate"] == snapshot["cache.hits"] / snapshot["cache.requests"]
    assert exported["l2.hit_rate"] == snapshot["l2.hits"] / snapshot["l2.requests"]
