#!/usr/bin/env python
"""Sharded serving: scaling the prediction service sideways.

``examples/prediction_service.py`` made one serving stack affordable
online; this example runs a *fleet* of them behind the consistent-hash
router (:mod:`repro.service.shard`) and walks the three claims of the
sharded design:

1. **locality** — a quantized operating point always routes to the same
   shard, so sharding keeps every L1 as hot as the single-service case;
2. **two-tier caching** — a solve finished on one shard is an L2 hit
   (not a fresh solve) for every other shard;
3. **chaos** — kill a shard: its keys walk clockwise to the survivor,
   the health board ejects it after ``failure_threshold`` errors, and
   after the recovery window a probe re-closes the breaker and the
   shard returns with its L1 intact.

Run:  python examples/sharded_service.py

Processes: pass ``--processes`` to host each shard in its own worker
process (the GIL-escape topology).  The tier's wall-clock cost (router
overhead, L1/L2 hit ratios, end-to-end latency) is measured by the
``perfbench`` ``serve`` workload: ``python3 perfbench/run.py``.
"""

import argparse
import sys

from repro.experiments.scenario import build_predictors
from repro.servers import APP_SERV_S
from repro.service.service import PredictionService, ServiceConfig
from repro.service.shard import (
    InlineShardBackend,
    ProcessShardBackend,
    ShardSpec,
    ShardedPredictionService,
    SharedL2Cache,
)
from repro.util.clock import FakeClock


def build_inline_cluster(n_shards, primary, clock):
    """An inline cluster over ``primary`` with one shared L2.

    Each shard's breaker ejects it after three failures and probes it
    again after five seconds (the router's default policy).
    """
    l2 = SharedL2Cache(clock=clock.monotonic_s)

    def factory(shard_id):
        return PredictionService(
            primary,
            config=ServiceConfig(max_workers=1),
            name=f"shard:{shard_id}",
            clock=clock,
            l2=l2,
        )

    backend = InlineShardBackend(tuple(f"s{i}" for i in range(n_shards)), factory)
    return ShardedPredictionService(backend, clock=clock), backend


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--processes",
        action="store_true",
        help="host each shard in its own worker process",
    )
    args = parser.parse_args(argv)

    print("Calibrating the prediction methods (simulated testbed)...")
    historical, _lqn, _hybrid, _ = build_predictors(fast=True)
    server = APP_SERV_S.name
    clock = FakeClock()

    if args.processes:
        print("\nStarting one worker process per shard...")
        spec = ShardSpec(factory="repro.service.shard.testing:build_stub_service")
        backend = ProcessShardBackend(("s0", "s1", "s2"), spec)
        cluster = ShardedPredictionService(backend)
    else:
        cluster, backend = build_inline_cluster(3, historical, clock)

    with cluster:
        print("\n-- 1: routing locality ----------------------------------------")
        first = cluster.serve_info("mrt", server, 800.0, 0.0)
        again = cluster.serve_info("mrt", server, 800.0, 0.0)
        print(f"  MRT at 800 clients: {first.value:.1f} ms")
        print(f"  first serve : shard={first.shard} outcome={first.outcome}")
        print(f"  second serve: shard={again.shard} outcome={again.outcome}")

        print("\n-- 2: the cross-shard L2 --------------------------------------")
        other = next(s for s in backend.shard_ids() if s != first.shard)
        value, outcome = backend.request(other, "mrt", server, 800.0, 0.0)
        print(f"  same key asked directly on shard {other}: outcome={outcome}")
        assert value == first.value

        print("\n-- 3: kill a shard, watch ejection and recovery ---------------")
        owner = first.shard
        backend.kill(owner)
        for _ in range(3):
            info = cluster.serve_info("mrt", server, 800.0, 0.0)
        print(f"  after kill, served by shard={info.shard} (rerouted)")
        print(f"  ejected: {sorted(cluster.health.ejected())}")
        if not args.processes:
            backend.revive(owner)
            clock.advance(6.0)  # past the breaker's recovery window
            probe = cluster.serve_info("mrt", server, 800.0, 0.0)
            print(
                f"  after recovery window: shard={probe.shard} "
                f"outcome={probe.outcome} (keys returned, L1 intact)"
            )
        report = cluster.health_report()
        print(f"  per-shard served: {report['served']}")

    print("\nDone. Full chaos report: "
          "python -m repro.experiments.runner sharded_serving --fast")
    return 0


if __name__ == "__main__":
    sys.exit(main())
