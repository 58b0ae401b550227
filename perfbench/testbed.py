"""The simulated testbed a capacity planner calibrates from, seeded per run.

:func:`calibrate_predictors` is the planner's first step, built only from
the program's public functions: benchmark the max throughput of all three
servers, calibrate the layered model on AppServF, measure historical data
points on the established servers, fit the historical model, and build the
advanced hybrid.  Nothing is read from or written to the experiments'
``ground_truth`` memo: every simulation runs cold, seeded by the workload
seed.

:class:`SimulationLedger` sits where the program calls
``simulate_deployment`` (inside the servers and lqn layers, and in the
benchmark's own calls), so every closed simulation is timed, its events
counted and Little's law checked; open simulations go through
:meth:`SimulationLedger.run_open`, which checks that every arrival is
accounted for.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.experiments.scenario import PAPER_SOLVER_OPTIONS, SOLVER_OPTIONS
from repro.historical.datastore import HistoricalDataStore
from repro.historical.loss import LossRateModel
from repro.historical.model import HistoricalModel
from repro.historical.throughput import gradient_from_think_time
from repro.hybrid.model import lqn_max_throughput
from repro.lqn import calibration as lqn_calibration
from repro.lqn.builder import TradeModelParameters, build_trade_model
from repro.prediction.interface import HistoricalPredictor, HybridPredictor, LqnPredictor
from repro.servers import benchmarking
from repro.servers.catalogue import (
    ALL_APP_SERVERS,
    APP_SERV_F,
    APP_SERV_S,
    ESTABLISHED_SERVERS,
    PAPER_MAX_THROUGHPUTS,
)
from repro.simulation import open_clients
from repro.simulation.system import SimulatedDeployment, SimulationConfig
from repro.trace.events import END, TraceEvent
from repro.workload.trade import browse_class, mixed_workload, typical_workload
from repro.workloads.etl import records_from_events
from repro.workloads.fitting import fit_all

from perfbench.checks import Checks
from perfbench.spans import SpanRecorder

__all__ = [
    "THINK_S",
    "knee_clients",
    "CalibrationPlan",
    "Predictors",
    "SimulationLedger",
    "calibrate_predictors",
    "calibrate_loss",
    "characterise_trace",
]

#: The paper's think time; every Trade client class uses it.
THINK_S = 7.0

#: Little's law, N = X*(R+Z), holds for a closed simulation only up to the
#: error of its finite measurement window.  The testbed's windows are short,
#: and a saturated population started with the simulator's staggered burst is
#: still draining its excess queue inside them: over 195 runs of this plan
#: the ratio X*(R+Z)/N read 0.91-1.38.  The check is therefore a gross-error
#: check, passing ratios within a factor LITTLE_FACTOR of 1; a lost request
#: stream, a doubled throughput or a unit slip all land outside it.
LITTLE_FACTOR = 1.5

#: Historical data points as fractions of the max-throughput load (as in
#: the canonical scenario).  Points are placed, and the historical model
#: fitted, with the clients->throughput gradient the think time implies, so
#: the lower/upper split never depends on a short run's throughput noise.
DATA_POINT_FRACTIONS = (0.35, 0.66, 1.15, 1.6)
GRADIENT = gradient_from_think_time(THINK_S * 1000.0)


def knee_clients(server: str) -> float:
    """Clients at the paper's measured max throughput (input generation only)."""
    return PAPER_MAX_THROUGHPUTS[server] * THINK_S


def _sub_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") >> 1


#: Closed runs: simulated warm-up and total seconds.
WARMUP_S = 7.0
DURATION_S = 12.0
#: The one max-throughput run per server, as a multiple of the knee.
MAX_TPUT_LOAD = 1.5
LQN_CLIENTS_PER_TYPE = 400
#: The open, bounded-queue sweep on AppServS (saturates near 86 req/s).
OPEN_RATES = (60.0, 80.0, 100.0, 120.0)
OPEN_DURATION_S = 8.0
QUEUE_CAPACITY = 60


@dataclass(frozen=True)
class CalibrationPlan:
    """The testbed's runs, seeded from the workload seed."""

    seed: int

    def sub_seed(self, label: str) -> int:
        """A deterministic simulation seed for one named testbed run."""
        return _sub_seed(self.seed, label)

    def config(self, label: str, **overrides: object) -> SimulationConfig:
        """The closed-simulation config of one named run."""
        return SimulationConfig(
            duration_s=DURATION_S, warmup_s=WARMUP_S, seed=self.sub_seed(label)
        ).with_overrides(**overrides)


@dataclass
class Predictors:
    """The three calibrated prediction methods and what they came from."""

    historical: HistoricalPredictor
    lqn: LqnPredictor
    hybrid: HybridPredictor
    parameters: TradeModelParameters


@dataclass
class SimulationLedger:
    """Counts, times and checks every simulation the testbed runs."""

    checks: Checks
    spans: SpanRecorder
    closed_wall_s: float = 0.0
    closed_events: int = 0
    open_wall_s: float = 0.0
    open_events: int = 0
    drops: int = 0
    walls: dict[str, list[float]] = field(default_factory=dict)

    def record(self, name: str, seconds: float) -> None:
        """Append one wall-time sample to the named series."""
        self.walls.setdefault(name, []).append(seconds)

    def simulate(self, arch, workload, config=None, **kwargs):
        """``simulate_deployment`` with timing and Little's-law checking."""
        start = time.perf_counter()
        result = _ORIGINAL_SIMULATE(arch, workload, config, **kwargs)
        end = time.perf_counter()
        self.spans.add("simulation.closed", start, end)
        self.closed_wall_s += end - start
        self.closed_events += result.events_processed
        self.drops += result.dropped_requests
        self._check_little(arch.name, workload, result)
        return result

    def _check_little(self, server: str, workload, result) -> None:
        # N = X * (R + Z): the measured R already includes the round-trip
        # network latency, so it is not added a second time.
        clients = sum(n for n in workload.values() if n > 0)
        cycle = sum(
            result.per_class_throughput.get(sc.name, 0.0)
            * (result.per_class_mean_ms.get(sc.name, 0.0) + sc.think_time_ms)
            / 1000.0
            for sc, n in workload.items()
            if n > 0
        )
        ratio = cycle / clients
        self.checks.expect(
            1.0 / LITTLE_FACTOR <= ratio <= LITTLE_FACTOR,
            "little",
            f"{server} with {clients} clients: X*(R+Z)/N = {ratio:.3f}",
        )

    @contextmanager
    def installed(self):
        """Route the program's own simulation calls through this ledger."""
        saved = (benchmarking.simulate_deployment, lqn_calibration.simulate_deployment)
        benchmarking.simulate_deployment = self.simulate
        lqn_calibration.simulate_deployment = self.simulate
        try:
            yield self
        finally:
            benchmarking.simulate_deployment, lqn_calibration.simulate_deployment = saved

    def run_open(self, deployment: SimulatedDeployment):
        """Run an open deployment and check arrivals are all accounted for.

        The deployment must have no warm-up and no network latency, so the
        whole run is measured and nothing is in flight between client and
        server at the end: then every arrival the source generated is a
        completion, a drop, or still in the server.
        """
        config = deployment.config
        self.checks.expect(
            config.warmup_s == 0.0 and config.network_latency_ms == 0.0,
            "conservation",
            "open runs are measured from t=0 with no network in flight",
        )
        saved = open_clients.OpenArrivalProcess
        sources = []

        class Recording(saved):
            """The program's open source, unchanged, remembering its instances."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sources.append(self)

        open_clients.OpenArrivalProcess = Recording
        try:
            start = time.perf_counter()
            result = deployment.run()
            end = time.perf_counter()
        finally:
            open_clients.OpenArrivalProcess = saved
        self.spans.add("simulation.open", start, end)
        self.open_wall_s += end - start
        self.open_events += result.events_processed
        self.drops += result.dropped_requests
        arrivals = sum(source.arrivals for source in sources)
        servers = {id(source.server): source.server for source in sources}.values()
        in_system = sum(server.threads.total_in_system for server in servers)
        for server in servers:
            stats = server.threads.stats
            accounted = stats.completions + stats.drops + stats.balks
            self.checks.expect(
                stats.arrivals == accounted + server.threads.total_in_system,
                "conservation",
                f"{server.name}: {stats.arrivals} arrivals != {accounted} served or "
                f"shed + {server.threads.total_in_system} in system",
            )
        self.checks.expect(
            arrivals == result.samples + result.dropped_requests + in_system,
            "conservation",
            f"{arrivals} arrivals != {result.samples} completions + "
            f"{result.dropped_requests} drops + {in_system} in system",
        )
        return result


_ORIGINAL_SIMULATE = benchmarking.simulate_deployment


def _timed(ledger: SimulationLedger, name: str, call):
    """Run ``call`` inside a span and record its wall time under ``name``."""
    with ledger.spans.block(name):
        start = time.perf_counter()
        value = call()
        ledger.record(name, time.perf_counter() - start)
    return value


def calibrate_predictors(plan: CalibrationPlan, ledger: SimulationLedger) -> Predictors:
    """From a cold testbed to three usable predictors."""
    architectures = {arch.name: arch for arch in ALL_APP_SERVERS}
    max_throughputs = {}
    for arch in ALL_APP_SERVERS:
        bench = _timed(
            ledger,
            "servers.max_tput",
            lambda arch=arch: benchmarking.measure_max_throughput(
                arch,
                initial_clients=round(MAX_TPUT_LOAD * knee_clients(arch.name)),
                max_doublings=1,
                duration_s=DURATION_S,
                warmup_s=WARMUP_S,
                seed=plan.sub_seed(f"max_tput:{arch.name}"),
            ),
        )
        max_throughputs[arch.name] = bench.max_throughput_req_per_s

    calibration = _timed(
        ledger,
        "lqn.calibrate",
        lambda: lqn_calibration.calibrate_from_simulator(
            APP_SERV_F,
            clients_per_type=LQN_CLIENTS_PER_TYPE,
            duration_s=DURATION_S,
            warmup_s=WARMUP_S,
            seed=plan.sub_seed("lqn_calibration"),
        ),
    )
    parameters = calibration.to_model_parameters()

    store = HistoricalDataStore()
    for arch in ESTABLISHED_SERVERS:
        n_at_max = max_throughputs[arch.name] / GRADIENT
        for frac in DATA_POINT_FRACTIONS:
            n = max(1, round(frac * n_at_max))
            label = f"data_point:{arch.name}:{frac}"
            result = ledger.simulate(arch, typical_workload(n), plan.config(label))
            store.add_from_simulation(arch.name, n, result)

    def mix_observations():
        # Relationship 3's anchors: LQN max throughputs at 0 %/25 % buy.
        return [
            (buy, lqn_max_throughput(
                build_trade_model(APP_SERV_F, mixed_workload(400, buy), parameters)
            ))
            for buy in (0.0, 0.25)
        ]

    mix = _timed(ledger, "lqn.mix", mix_observations)
    historical = _timed(
        ledger,
        "historical.calibrate",
        lambda: HistoricalModel.calibrate(
            store,
            max_throughputs,
            gradient=GRADIENT,
            new_servers=(APP_SERV_S.name,),
            mix_observations=mix,
            mix_server=APP_SERV_F.name,
        ),
    )
    hybrid = _timed(
        ledger,
        "hybrid.build",
        lambda: HybridPredictor.from_parameters(
            parameters, list(ALL_APP_SERVERS), solver_options=SOLVER_OPTIONS
        ),
    )
    return Predictors(
        historical=HistoricalPredictor(historical),
        # Point queries use the paper's 20 ms convergence criterion, the
        # setting of its prediction-delay figures.
        lqn=LqnPredictor(parameters, architectures, solver_options=PAPER_SOLVER_OPTIONS),
        hybrid=hybrid,
        parameters=parameters,
    )


def calibrate_loss(plan: CalibrationPlan, ledger: SimulationLedger) -> LossRateModel:
    """One open, bounded-queue sweep on AppServS fed to the loss model."""
    observations = []
    for rate in OPEN_RATES:
        deployment = SimulatedDeployment(
            placements={APP_SERV_S.name: (APP_SERV_S, {})},
            config=SimulationConfig(
                duration_s=OPEN_DURATION_S,
                warmup_s=0.0,
                seed=plan.sub_seed(f"open:{rate}"),
                network_latency_ms=0.0,
                queue_capacity=QUEUE_CAPACITY,
            ),
            open_arrivals={APP_SERV_S.name: {browse_class(): rate}},
        )
        result = ledger.run_open(deployment)
        observations.append((rate, result.loss_rate))
    return _timed(
        ledger,
        "historical.loss_calibrate",
        lambda: LossRateModel.calibrate(APP_SERV_S.name, observations),
    )


def characterise_trace(plan: CalibrationPlan, ledger: SimulationLedger, checks: Checks):
    """Capture one measurement trace and characterise it (ETL, then fit_all)."""
    n = round(0.66 * knee_clients(APP_SERV_F.name))
    result = ledger.simulate(
        APP_SERV_F, typical_workload(n), plan.config("trace", capture_trace=True)
    )
    trace = result.trace

    def fit():
        events = [
            TraceEvent(
                kind=END,
                name="service.request",
                ts_us=(t_ms - response_ms) * 1000.0,
                dur_us=response_ms * 1000.0,
                attributes={"kind": service_class},
            )
            for t_ms, service_class, response_ms in trace
        ]
        records = records_from_events(events)
        return records, fit_all(records.service_ms())

    records, fits = _timed(ledger, "workloads.fit", fit)
    checks.expect(
        len(records) == len(trace) and all(f.n_samples == len(trace) for f in fits),
        "workloads",
        f"{len(trace)} captured completions, {len(records)} records after ETL",
    )
    return fits
