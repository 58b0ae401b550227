"""Execution backends: one compiled scenario drives simulator and service.

The compilation model is single-spec/two-backends: a
:class:`~repro.workloads.scenario.ScenarioSpec` is compiled once to a
deterministic arrival trace, and both backends replay *that same trace*:

* :func:`run_scenario_simulation` wires the trace into the discrete-event
  testbed through :class:`TraceReplaySource` (one replay source per
  request type, so the simulator reports per-class response times exactly
  as the paper's figures do);
* :class:`ScenarioServiceDriver` replays it against a
  :class:`~repro.service.service.PredictionService` as a closed-loop
  stream of prediction queries whose operating point follows the
  scenario — the instantaneous client count tracks the composed
  modulator factor and the buy fraction tracks the mix schedule — with
  inter-request think gaps advanced on an injectable clock.

Because both consume identical compiled entries, a capacity answer from
the simulator and a serving benchmark from the service are directly
comparable: same arrivals, same mix, same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.servers.architecture import DatabaseArchitecture, ServerArchitecture
from repro.servers.catalogue import APP_SERV_F, DB_SERVER
from repro.service.service import PredictionService
from repro.simulation.appserver import AppServerSim
from repro.simulation.database import DatabaseServerSim
from repro.simulation.engine import Simulator
from repro.simulation.events import EventPriority
from repro.simulation.metrics import MetricsCollector
from repro.simulation.system import DEFAULT_NETWORK_LATENCY_MS
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.rng import RngStreams, spawn_rng
from repro.util.units import s_to_ms
from repro.util.validation import check_non_negative, check_positive_int, require
from repro.workload.operations import operation
from repro.workloads.records import RequestRecord, classify_request_type
from repro.workloads.scenario import ScenarioSpec, generate_entries

__all__ = [
    "TraceReplaySource",
    "ScenarioSimulationSummary",
    "run_scenario_simulation",
    "ScenarioServiceReport",
    "ScenarioServiceDriver",
]


class TraceReplaySource:
    """Replays a trace into one simulated application server.

    Every record is injected at its recorded arrival instant, so recorded
    (or hand-crafted) workloads drive exactly the same machinery as the
    synthetic client populations.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: list[RequestRecord],
        server: AppServerSim,
        metrics: MetricsCollector,
        *,
        network_latency_ms: float = 0.0,
        rng: np.random.Generator | None = None,
        metric_class_name: str = "trace",
    ) -> None:
        check_non_negative(network_latency_ms, "network_latency_ms")
        self.sim = sim
        self.trace = trace
        self.server = server
        self.metrics = metrics
        self.network_latency_ms = network_latency_ms
        self.metric_class_name = metric_class_name
        self._rng = rng if rng is not None else spawn_rng(0, "trace-replay")
        self.injected = 0

    def start(self) -> None:
        """Schedule every trace record at its recorded timestamp."""
        for record in self.trace:
            self.sim.schedule_at(
                record.arrival_ms,
                lambda r=record: self._inject(r),
                priority=EventPriority.ARRIVAL,
            )

    def _net_delay(self) -> float:
        if self.network_latency_ms <= 0.0:
            return 0.0
        return float(self._rng.exponential(self.network_latency_ms))

    def _inject(self, record: RequestRecord) -> None:
        self.injected += 1
        sent_at = self.sim.now
        op = operation(record.operation)
        outbound = self._net_delay()
        self.sim.schedule(
            outbound,
            lambda: self.server.handle(
                record.client_id, op, lambda: self._on_response(sent_at)
            ),
            priority=EventPriority.ARRIVAL,
        )

    def _on_response(self, sent_at_ms: float) -> None:
        inbound = self._net_delay()
        self.sim.schedule(
            inbound,
            lambda: self.metrics.record(self.metric_class_name, self.sim.now - sent_at_ms),
            priority=EventPriority.ARRIVAL,
        )


@dataclass(frozen=True)
class ScenarioSimulationSummary:
    """What the simulated-testbed backend measured for one scenario."""

    requests_injected: int
    requests_completed: int
    mean_response_ms: float
    throughput_req_per_s: float
    per_class_mean_ms: dict[str, float]
    per_class_requests: dict[str, int]
    events_processed: int

    def to_dict(self) -> dict:
        """A JSON-serializable view."""
        return {
            "requests_injected": self.requests_injected,
            "requests_completed": self.requests_completed,
            "mean_response_ms": self.mean_response_ms,
            "throughput_req_per_s": self.throughput_req_per_s,
            "per_class_mean_ms": dict(self.per_class_mean_ms),
            "per_class_requests": dict(self.per_class_requests),
            "events_processed": self.events_processed,
        }


def run_scenario_simulation(
    spec: ScenarioSpec,
    *,
    seed: int,
    arch: ServerArchitecture = APP_SERV_F,
    db_arch: DatabaseArchitecture = DB_SERVER,
    network_latency_ms: float = DEFAULT_NETWORK_LATENCY_MS,
    entries: list[RequestRecord] | None = None,
) -> ScenarioSimulationSummary:
    """Replay a compiled scenario through the discrete-event testbed.

    Pass ``entries`` to reuse an already-compiled trace (the experiment
    does, so simulator and service provably consume identical inputs);
    otherwise the spec is compiled here under ``seed``.  Entries are
    split by request type into one replay source each, so the metrics
    come back per class (browse/buy) like every other testbed run.
    """
    check_non_negative(network_latency_ms, "network_latency_ms")
    if entries is None:
        entries = generate_entries(spec, seed=seed)
    require(len(entries) > 0, "scenario compiled to an empty trace")

    sim = Simulator()
    streams = RngStreams(seed)
    database = DatabaseServerSim(sim, db_arch)
    metrics = MetricsCollector()
    metrics.attach_clock(lambda: sim.now)
    server = AppServerSim(
        sim, arch, database, streams.get(f"service:{arch.name}"), instance=arch.name
    )

    by_type: dict[str, list[RequestRecord]] = {}
    for entry in entries:
        by_type.setdefault(classify_request_type(entry.operation), []).append(entry)
    sources = [
        TraceReplaySource(
            sim,
            class_entries,
            server,
            metrics,
            network_latency_ms=network_latency_ms,
            rng=streams.get(f"replay:{class_name}"),
            metric_class_name=class_name,
        )
        for class_name, class_entries in sorted(by_type.items())
    ]
    for source in sources:
        source.start()

    metrics.start_measuring(0.0)
    # Run past the last arrival so in-flight requests complete.
    sim.run_until(s_to_ms(spec.duration_s) + 60_000.0)
    metrics.stop_measuring(sim.now)

    per_class_mean = {name: metrics.for_class(name).mean for name in metrics.class_names()}
    return ScenarioSimulationSummary(
        requests_injected=sum(source.injected for source in sources),
        requests_completed=metrics.overall.count,
        mean_response_ms=metrics.overall.mean,
        throughput_req_per_s=metrics.throughput_req_per_s(),
        per_class_mean_ms=per_class_mean,
        per_class_requests={
            name: metrics.for_class(name).count for name in metrics.class_names()
        },
        events_processed=sim.events_processed,
    )


@dataclass
class ScenarioServiceReport:
    """What the serving backend measured for one scenario replay."""

    requests: int
    errors: int
    mean_predicted_mrt_ms: float
    min_predicted_mrt_ms: float
    max_predicted_mrt_ms: float
    min_clients: int
    max_clients: int
    per_type_requests: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    degraded: int = 0

    def to_dict(self) -> dict:
        """A JSON-serializable view."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "mean_predicted_mrt_ms": self.mean_predicted_mrt_ms,
            "min_predicted_mrt_ms": self.min_predicted_mrt_ms,
            "max_predicted_mrt_ms": self.max_predicted_mrt_ms,
            "min_clients": self.min_clients,
            "max_clients": self.max_clients,
            "per_type_requests": dict(self.per_type_requests),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "degraded": self.degraded,
        }


class ScenarioServiceDriver:
    """Replay a compiled scenario against the prediction service.

    Each trace entry becomes one closed-loop prediction request at the
    scenario's instantaneous operating point: the queried client count
    is the population scaled by the composed modulator factor at the
    entry's timestamp, and the queried buy fraction is the mix
    schedule's value there.  The think gap to the next entry advances
    the injected clock when it is advanceable (:class:`~repro.util.clock.FakeClock`),
    keeping whole replays deterministic; under the system clock the
    replay is compressed (no sleeping) and serves as a throughput
    benchmark.
    """

    def __init__(
        self,
        service: PredictionService,
        spec: ScenarioSpec,
        *,
        seed: int,
        server: str,
        clock: Clock = SYSTEM_CLOCK,
        max_requests: int | None = None,
        entries: list[RequestRecord] | None = None,
    ) -> None:
        if max_requests is not None:
            check_positive_int(max_requests, "max_requests")
        self.service = service
        self.spec = spec
        self.server = server
        self._clock = clock
        self._entries = (
            entries if entries is not None else generate_entries(spec, seed=seed)
        )
        if max_requests is not None:
            self._entries = self._entries[:max_requests]
        require(len(self._entries) > 0, "scenario compiled to an empty trace")

    def run(self) -> ScenarioServiceReport:
        """Issue every compiled request and summarize what came back."""
        advance = getattr(self._clock, "advance", None)
        predictions: list[float] = []
        client_counts: list[int] = []
        per_type: dict[str, int] = {}
        errors = 0
        last_ms = self._entries[0].arrival_ms
        for entry in self._entries:
            if advance is not None and entry.arrival_ms > last_ms:
                advance((entry.arrival_ms - last_ms) / 1000.0)
            last_ms = entry.arrival_ms
            t_s = entry.arrival_ms / 1000.0
            n_clients = max(1, int(round(self.spec.n_clients * self.spec.factor(t_s))))
            buy = self.spec.mix.buy_fraction(t_s)
            kind = classify_request_type(entry.operation)
            per_type[kind] = per_type.get(kind, 0) + 1
            try:
                predicted = self.service.predict_mrt_ms(
                    self.server, n_clients, buy_fraction=buy
                )
                predictions.append(float(predicted))
                client_counts.append(n_clients)
            except Exception:
                errors += 1
        metrics = self.service.export_metrics()
        n = len(predictions)
        return ScenarioServiceReport(
            requests=n + errors,
            errors=errors,
            mean_predicted_mrt_ms=sum(predictions) / n if n else 0.0,
            min_predicted_mrt_ms=min(predictions) if predictions else 0.0,
            max_predicted_mrt_ms=max(predictions) if predictions else 0.0,
            min_clients=min(client_counts) if client_counts else 0,
            max_clients=max(client_counts) if client_counts else 0,
            per_type_requests=dict(sorted(per_type.items())),
            cache_hits=int(metrics.get("cache.hits", 0)),
            cache_misses=int(metrics.get("cache.misses", 0)),
            degraded=int(metrics.get("degraded", 0)),
        )
