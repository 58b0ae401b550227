"""repro.service.shard — sharded multi-process prediction serving.

One :class:`~repro.service.service.PredictionService` saturates a
single interpreter; this package scales it sideways.  N shards — full
serving stacks (L1 cache → coalescing pool → admission → breaker),
inline or one per worker process — sit behind a
:class:`~repro.service.shard.router.ShardedPredictionService` that
consistent-hashes the *quantized* scenario key onto a virtual-node
ring, so cache locality survives sharding and resharding moves only
~1/N of the key space.  A cross-shard
:class:`~repro.service.shard.l2.SharedL2Cache` (TTL-coherent, no
invalidation protocol) catches rerouted and resharded keys; a
:class:`~repro.service.shard.health.HealthBoard` of per-shard circuit
breakers ejects sick shards from the ring and probes them back in; and
:func:`~repro.service.metrics.merge_snapshots` folds every shard's
metrics into one cluster snapshot with exact merged percentiles.

The router's one option is the per-shard breaker policy
(``breaker=BreakerConfig(...)``); the ring's virtual-node count, the
cache grid and the retry budget (every live shard) are fixed.  Request
failures and failed ``poll_health`` pings feed the breakers; there is
no heartbeat-age check.  Each answer's outcome (``"l1_hit"``,
``"l2_hit"`` or ``"computed"``) is the shard service's own report from
:meth:`~repro.service.service.PredictionService.serve`, exact under
concurrent load on either backend.

Quickstart (inline, deterministic)::

    from repro.service.shard import (
        InlineShardBackend, ShardedPredictionService,
    )
    from repro.service.shard.testing import build_stub_service

    backend = InlineShardBackend(("s0", "s1"), build_stub_service)
    with ShardedPredictionService(backend) as cluster:
        cluster.predict_mrt_ms("fruitstore_ibm", 60)

Swap :class:`~repro.service.shard.worker.ProcessShardBackend` in for
real per-shard processes; the router is identical.  See
``examples/sharded_service.py`` and the ``sharded_serving`` experiment.
"""

from repro.service.shard.backend import (
    OPERATIONS,
    InlineShardBackend,
    ShardBackend,
    ShardDownError,
    ShardError,
    ShardRemoteError,
)
from repro.service.shard.health import HealthBoard
from repro.service.shard.l2 import L2Stats, SharedL2Cache
from repro.service.shard.ring import (
    ConsistentHashRing,
    NoShardAvailableError,
    ring_key,
)
from repro.service.shard.router import (
    ServeInfo,
    ShardClusterError,
    ShardedPredictionService,
)
from repro.service.shard.worker import ProcessShardBackend, ShardSpec

__all__ = [
    "OPERATIONS",
    "ShardError",
    "ShardDownError",
    "ShardRemoteError",
    "ShardBackend",
    "InlineShardBackend",
    "ProcessShardBackend",
    "ShardSpec",
    "ConsistentHashRing",
    "NoShardAvailableError",
    "ring_key",
    "SharedL2Cache",
    "L2Stats",
    "HealthBoard",
    "ServeInfo",
    "ShardClusterError",
    "ShardedPredictionService",
]
