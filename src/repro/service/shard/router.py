"""The shard router: one Predictor facade over N serving processes.

:class:`ShardedPredictionService` is to a fleet of
:class:`~repro.service.service.PredictionService` stacks what the
service is to a raw predictor — it satisfies the same
``Predictor`` protocol, so a resource manager, the load generator and
every experiment written against a single service run on the sharded
cluster unchanged.  Per request it:

1. quantizes the operating point with the *same* grid the shard caches
   use (:func:`~repro.service.cache.quantize_key`), so routing and
   memoization agree cell-for-cell;
2. consistent-hashes the quantized key onto the ring
   (:mod:`repro.service.shard.ring`), skipping ejected shards;
3. asks the health board to admit the attempt (per-shard circuit
   breaker semantics: an OPEN shard is skipped, a recovery probe is
   granted to exactly one request);
4. dispatches to the backend, settles the health outcome, and on a
   shard failure walks clockwise to the next live owner (**rerouting**:
   only the sick shard's keys move).

Cluster observability: :meth:`ShardedPredictionService.snapshot` merges
the router's own registry with every shard's snapshot via
:func:`~repro.service.metrics.merge_snapshots` (histogram buckets sum,
so cluster p50/p95/p99 are exact), and per-shard breaker transitions /
health scores come from the board for the chaos recovery report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.prediction.interface import PredictionTimer
from repro.service.breaker import BreakerConfig
from repro.service.cache import quantize_key
from repro.service.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
    with_hit_rates,
)
from repro.service.service import OPERATIONS
from repro.service.shard.backend import ShardBackend, ShardError
from repro.service.shard.health import HealthBoard
from repro.service.shard.ring import ConsistentHashRing, NoShardAvailableError, ring_key
from repro.trace import TRACER
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ReproError
from repro.util.validation import require

__all__ = ["ShardClusterError", "ServeInfo", "ShardedPredictionService"]


class ShardClusterError(ReproError):
    """Every candidate shard failed (or was ejected) for one request."""


@dataclass(frozen=True)
class ServeInfo:
    """How one request was served: the value plus its routing story."""

    value: float
    shard: str
    outcome: str  # "l1_hit" | "l2_hit" | "computed", as the shard reported it
    reroutes: int  # candidates tried before the serving shard answered


class ShardedPredictionService:
    """Serve the ``Predictor`` protocol over a consistent-hashed fleet.

    ``breaker`` is each shard's circuit-breaker policy; the default
    ejects a shard after three consecutive failures and probes it again
    after five seconds.  The router quantizes with the
    shard services' default cache grid before hashing, so routing
    preserves cache locality, and a request may try every live shard
    before the cluster gives up.

    The router itself is thread-safe: the ring is mutated nowhere after
    construction (ejection is a *routing-time skip*, so a recovered
    shard keeps its token positions and gets its keys back), the health
    board and registry carry their own locks, and backend dispatch
    happens outside all of them.
    """

    def __init__(
        self,
        backend: ShardBackend,
        *,
        breaker: BreakerConfig = BreakerConfig(
            failure_threshold=3, recovery_time_s=5.0, half_open_probes=1
        ),
        clock: Clock = SYSTEM_CLOCK,
        name: str = "sharded_service",
    ):
        self.backend = backend
        self._clock = clock
        self.name = name
        self.timer = PredictionTimer()
        self.ring = ConsistentHashRing(backend.shard_ids())
        self.health = HealthBoard(backend.shard_ids(), breaker, clock=clock)
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._per_shard_served: dict[str, int] = {s: 0 for s in backend.shard_ids()}

    # -- Predictor protocol ----------------------------------------------------

    def predict_mrt_ms(
        self, server: str, n_clients: float, *, buy_fraction: float = 0.0
    ) -> float:
        """Predicted mean response time (ms), served by the owning shard."""
        return self.serve_info("mrt", server, n_clients, buy_fraction).value

    def predict_throughput(
        self, server: str, n_clients: float, *, buy_fraction: float = 0.0
    ) -> float:
        """Predicted throughput (req/s), served by the owning shard."""
        return self.serve_info("throughput", server, n_clients, buy_fraction).value

    def max_clients(
        self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0
    ) -> int:
        """Capacity under an SLA goal, served by the owning shard."""
        return int(self.serve_info("capacity", server, rt_goal_ms, buy_fraction).value)

    # -- the routed serving path ----------------------------------------------

    def serve_info(
        self, op: str, server: str, operand: float, buy_fraction: float = 0.0
    ) -> ServeInfo:
        """Route and serve one request, reporting how it was served.

        The chaos experiment and the serving benchmark use the routing
        story (shard, outcome, reroutes) for per-shard accounting; plain
        Predictor-protocol callers go through the three methods above
        and never see it.
        """
        require(op in OPERATIONS, f"unknown operation {op!r}")
        start = self._clock.perf_s()
        self.metrics.counter("router.requests").inc()
        rkey = ring_key(quantize_key(server, op, operand, buy_fraction))
        attempts = 0
        last_error: Exception | None = None
        try:
            with TRACER.span("shard.request", op=op, server=server) as span:
                for shard in self.ring.iter_route(rkey, skip=self.health.ejected()):
                    attempts += 1
                    if not self.health.admit(shard):
                        self.metrics.counter("router.skipped").inc()
                        continue
                    try:
                        value, outcome = self.backend.request(
                            shard, op, server, operand, buy_fraction
                        )
                    except ShardError as error:
                        self.health.record_failure(shard)
                        self.metrics.counter("router.shard_errors").inc()
                        self.metrics.counter(f"router.shard_errors.{shard}").inc()
                        TRACER.instant("shard.failure", shard=shard, op=op)
                        last_error = error
                        continue
                    self.health.record_success(shard)
                    reroutes = attempts - 1
                    if reroutes:
                        self.metrics.counter("router.rerouted").inc()
                    with self._lock:
                        self._per_shard_served[shard] += 1
                    span.set_attribute("shard", shard)
                    span.set_attribute("outcome", outcome)
                    return ServeInfo(
                        value=value, shard=shard, outcome=outcome, reroutes=reroutes
                    )
                self.metrics.counter("router.exhausted").inc()
                span.set_attribute("outcome", "exhausted")
                raise ShardClusterError(
                    f"{self.name}: no shard could serve {op} for {server!r} "
                    f"({attempts} attempt(s))"
                ) from last_error
        except NoShardAvailableError as error:
            self.metrics.counter("router.exhausted").inc()
            raise ShardClusterError(
                f"{self.name}: every shard is ejected"
            ) from error
        finally:
            elapsed = self._clock.perf_s() - start
            self.metrics.histogram("router.latency").observe(elapsed)
            self.timer.record(elapsed)

    # -- operations ------------------------------------------------------------

    def poll_health(self) -> dict[str, bool]:
        """Heartbeat every shard and feed the breakers (see the board)."""
        return self.health.poll(self.backend)

    def per_shard_served(self) -> dict[str, int]:
        """Requests each shard has answered (routing-balance view)."""
        with self._lock:
            return dict(sorted(self._per_shard_served.items()))

    def snapshot(self) -> MetricsSnapshot:
        """Router + all shards merged into one cluster snapshot.

        A dead shard's snapshot is skipped (its worker cannot answer);
        what it served before dying is still visible in the router-side
        counters, and its absence is explicit in :meth:`health_report`.
        """
        snapshots = [self.metrics.snapshot()]
        for shard in self.backend.shard_ids():
            try:
                snapshots.append(self.backend.snapshot(shard))
            except Exception:
                self.metrics.counter("router.snapshot_failures").inc()
        return merge_snapshots(snapshots)

    def export_metrics(self) -> dict[str, float]:
        """The flat cluster-wide metrics dict (merged-snapshot export).

        Derived, non-additive values (cluster cache hit rate) are
        computed here from merged counters — never merged directly.
        """
        return with_hit_rates(self.snapshot().export())

    def health_report(self) -> dict[str, Any]:
        """Per-shard health states plus the current ejection set."""
        return {
            "shards": self.health.snapshot(),
            "ejected": sorted(self.health.ejected()),
            "served": self.per_shard_served(),
        }

    def shutdown(self) -> None:
        """Stop the backend's shards (idempotent)."""
        self.backend.stop()

    def __enter__(self) -> "ShardedPredictionService":
        """Context-manager entry: the router itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut the fleet down."""
        self.shutdown()
