"""The sharded-serving experiment: shard chaos on a deterministic cluster.

Section 8.5 of the paper argues prediction *delay* decides what a
resource manager can afford online; ``repro.experiments.serving``
showed one service changing that arithmetic.  This experiment scales
the service sideways — a consistent-hash ring of full serving stacks
(:mod:`repro.service.shard`) — and checks that the ring survives losing
a shard: a :class:`~repro.faults.plan.FaultPlan` takes one of two
shards down for a fake-clock window mid-run, and the report documents
ejection (the victim's breaker opens and the ring routes around it),
rebalance (the survivor absorbs the victim's keys) and recovery (the
breaker re-closes after the window and the victim serves again, L1
intact).

Determinism: requests are drawn from one seeded stream and every stack
runs on a shared :class:`~repro.util.clock.FakeClock` advanced one tick
per request, so two runs produce byte-identical JSON; the CI
``sharded-serving`` job diffs them.  Serving *performance* is measured
in wall clock elsewhere: the ``perfbench`` ``serve`` workload drives
the same router over real worker processes.

Run through the experiment runner (the report lands in
``DIR/sharded_serving.json``)::

    python -m repro.experiments.runner sharded_serving --fast --json DIR
"""

from __future__ import annotations

from typing import Any

from repro.experiments.chaos import _analyse_breaker
from repro.experiments.scenario import SEED, ExperimentResult, build_predictors
from repro.faults import FaultKind, FaultPlan, FaultSpec, INJECTOR
from repro.servers.catalogue import APP_SERV_S
from repro.service.breaker import BreakerConfig
from repro.service.loadgen import LoadGenConfig, _draw_request
from repro.service.service import PredictionService, ServiceConfig
from repro.service.shard import (
    InlineShardBackend,
    ShardDownError,
    ShardedPredictionService,
    SharedL2Cache,
)
from repro.util.clock import FakeClock
from repro.util.floats import quantize_to_tick
from repro.util.rng import spawn_rng
from repro.util.tables import format_kv

__all__ = [
    "TICK_S",
    "shard_fault_plan",
    "build_cluster",
    "run_chaos",
    "run",
]

#: Fake-clock seconds advanced after every chaos request — the
#: experiment's unit of time; fault windows and breaker timings below
#: are expressed in these ticks.
TICK_S = 0.05

#: The chaos request stream: the paper's scenario on one server, drawn
#: from ``spawn_rng(SEED, "fleet")``.  Its weights sum to one, so they
#: are the draw probabilities as given.
_CHAOS_STREAM = LoadGenConfig(
    servers=(APP_SERV_S.name,),
    client_range=(100, 1100),
    operation_weights=(("mrt", 0.8), ("throughput", 0.2)),
)


def build_cluster(
    n_shards: int,
    primary,
    *,
    clock: FakeClock,
    breaker: BreakerConfig | None = None,
) -> ShardedPredictionService:
    """One inline cluster of ``n_shards`` full stacks over ``primary``.

    Every shard gets its own L1 (the default grid) and all share one
    TTL-coherent L2 on the same fake clock; the router quantizes with
    the same grid before hashing, so routing preserves cache locality.
    """
    l2 = SharedL2Cache(ttl_s=None, clock=clock.monotonic_s)

    def factory(shard_id: str) -> PredictionService:
        return PredictionService(
            primary,
            config=ServiceConfig(max_workers=1),
            name=f"shard:{shard_id}",
            clock=clock,
            l2=l2,
        )

    shard_ids = tuple(f"s{i}" for i in range(n_shards))
    backend = InlineShardBackend(shard_ids, factory)
    return ShardedPredictionService(
        backend,
        breaker=breaker
        if breaker is not None
        else BreakerConfig(failure_threshold=3, recovery_time_s=10 * TICK_S),
        clock=clock,
        name=f"cluster[{n_shards}]",
    )


def shard_fault_plan(
    victim: str, fault_window_s: tuple[float, float], *, seed: int
) -> FaultPlan:
    """A plan that takes exactly one shard down for the window.

    Inside the window every request routed to ``victim`` raises
    :class:`~repro.service.shard.ShardDownError` at the per-shard fault
    site before the shard's service is touched — an outage, not a slow
    shard — so the router's health board sees precisely the failures
    the plan scheduled.
    """
    return FaultPlan(
        name="shard-outage",
        description=(
            f"shard {victim!r} is down for the whole window; the ring must "
            "route its keys to the survivor, the health board must eject it, "
            "and recovery must follow the window"
        ),
        seed=seed,
        error_rate_ceiling=0.0,  # rerouting answers every request
        specs=(
            FaultSpec(
                site=f"service.shard.{victim}",
                kind=FaultKind.ERROR,
                name="shard-down",
                error=ShardDownError,
                message="injected shard outage",
                time_window=fault_window_s,
            ),
        ),
    )


def run_chaos(requests: int, primary) -> dict[str, Any]:
    """One 2-shard run with a mid-run shard outage; the recovery report.

    The fault window covers the middle half of the run.  Requests are
    issued one at a time, the fake clock advancing one tick after each;
    per-shard served counts are snapshotted at both window boundaries
    (so one seeded run yields before/during/after deltas), and the
    victim's breaker transition log provides the ejection and recovery
    timestamps.  A request that raises counts as an error.
    """
    victim = "s0"
    window = (0.25 * requests * TICK_S, 0.75 * requests * TICK_S)
    plan = shard_fault_plan(victim, window, seed=SEED)
    clock = FakeClock()
    rng = spawn_rng(SEED, "fleet")
    ops, probs = zip(*_CHAOS_STREAM.operation_weights)
    outcomes: dict[str, int] = {}
    marks: dict[str, dict[str, int]] = {}
    with build_cluster(2, primary, clock=clock) as cluster:
        INJECTOR.arm(plan, clock=clock, sleep=clock.advance)
        try:
            for completed in range(1, requests + 1):
                op, server, operand, buy = _draw_request(_CHAOS_STREAM, rng, ops, probs)
                try:
                    outcome = cluster.serve_info(op, server, operand, buy).outcome
                except Exception:
                    outcome = "error"
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                clock.advance(TICK_S)
                if completed == int(0.25 * requests):
                    marks["window_open"] = cluster.per_shard_served()
                elif completed == int(0.75 * requests):
                    marks["window_close"] = cluster.per_shard_served()
        finally:
            injected = INJECTOR.disarm()
        final = cluster.per_shard_served()
        transitions = cluster.health.breaker(victim).transitions()
        health = cluster.health_report()

    errors = outcomes.get("error", 0)
    survivor = "s1"
    during = {
        shard: marks["window_close"][shard] - marks["window_open"][shard]
        for shard in final
    }
    after = {shard: final[shard] - marks["window_close"][shard] for shard in final}
    return {
        "plan": plan.describe(),
        "injected": injected,
        "victim": victim,
        "survivor": survivor,
        "fault_window_s": [quantize_to_tick(t, TICK_S) for t in window],
        "requests": requests,
        "errors": errors,
        "error_rate_ceiling": plan.error_rate_ceiling,
        "within_ceiling": errors <= plan.error_rate_ceiling * requests,
        "served_during_window": dict(sorted(during.items())),
        "served_after_window": dict(sorted(after.items())),
        "rebalanced": during[survivor] > during[victim],
        "victim_served_after_recovery": after[victim] > 0,
        "ejected_at_end": health["ejected"],
        "breaker": _analyse_breaker(transitions, tick_s=TICK_S),
        "outcomes": dict(sorted(outcomes.items())),
    }


def run(fast: bool = False) -> ExperimentResult:
    """Run the shard-chaos phase over the historical predictor; render it."""
    historical, _lqn, _hybrid, _ = build_predictors(fast=fast)
    chaos = run_chaos(500 if fast else 2_000, historical)
    breaker = chaos["breaker"]
    chaos_summary = format_kv(
        {
            "victim / survivor": f"{chaos['victim']} / {chaos['survivor']}",
            "fault window (s)": (
                f"[{chaos['fault_window_s'][0]:.2f}, {chaos['fault_window_s'][1]:.2f})"
            ),
            "request errors (ceiling)": (
                f"{chaos['errors']} ({chaos['error_rate_ceiling']:.2f})"
            ),
            "served during window (victim/survivor)": (
                f"{chaos['served_during_window'][chaos['victim']]} / "
                f"{chaos['served_during_window'][chaos['survivor']]}"
            ),
            "victim ejected (breaker opened)": breaker["opened"],
            "victim recovered (breaker re-closed)": breaker["recovered"],
            "time to recover (s)": (
                f"{breaker['time_to_recover_s']:.2f}"
                if breaker["time_to_recover_s"] is not None
                else "n/a"
            ),
            "victim served after recovery": chaos["victim_served_after_recovery"],
        },
        title="Shard chaos (2 shards, one injected outage)",
    )
    return ExperimentResult(
        experiment_id="sharded_serving",
        title="Sharded serving: shard chaos",
        rendered=chaos_summary,
        data={"seed": SEED, "tick_s": TICK_S, "chaos": chaos},
    )
