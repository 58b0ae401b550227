"""Open-loop load on the sharded serving tier, over real worker processes.

Each step starts a fresh cluster — a :class:`ShardedPredictionService` over a
:class:`ProcessShardBackend` with two shards and the shared L2 on, each shard
an LQN primary with a historical fallback — sends it the same warm-up, then
drives it with a seeded Poisson schedule from at most ``nproc`` client
threads.  Latency is timed from when each request was due, so a stall
charges every request queued behind it.  Every answer is checked against the
raw primary's answer at its key, or the fallback's when the answer was
degraded.

A schedule's keys follow one of two mixes: ``zipf`` repeats popular
operating points (and asks a few capacity queries), so the cache answers
most requests; ``distinct`` asks every operating point at most once, so
every request misses both cache tiers and solves.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.lqn.builder import build_trade_model
from repro.lqn.solver import LqnSolver
from repro.service.metrics import HistogramSnapshot
from repro.service.service import PredictionService, ServiceConfig
from repro.service.shard import ProcessShardBackend, ShardedPredictionService, ShardSpec
from repro.workload.trade import mixed_workload

from perfbench.checks import Checks
from perfbench.predict import SERVERS, SLA_BUY_FRACTION, SLA_GOALS_MS
from perfbench.spans import SpanRecorder
from perfbench.stats import resident_mb, seeded_rng
from perfbench.testbed import Predictors, knee_clients

__all__ = [
    "SHARDS",
    "LATENCY_LIMIT_S",
    "MIXES",
    "Key",
    "key_universe",
    "Schedule",
    "make_schedule",
    "StepResult",
    "run_step",
    "merge_steps",
    "check_answers",
    "References",
]

SHARDS = ("s0", "s1")
#: The serving latency limit the ladder applies to each step's p99.
LATENCY_LIMIT_S = 0.050
#: Operating points: loads up to each server's knee (the range a serving
#: tier answers for capacity planning) times buy fractions, 2,496 keys over
#: the three servers.
LEVELS = tuple(float(x) for x in np.linspace(0.2, 1.0, 64))
SERVE_BUYS = tuple(round(0.02 * i, 2) for i in range(13))
#: Capacity queries ask AppServF for each section 9 goal.
CAPACITY_SERVER = "AppServF"
CAPACITY_SHARE = 0.02
#: The key mixes a schedule can follow.
MIXES = ("zipf", "distinct")
#: Popularity skew of the operating points.  With the warm-up below, about
#: one request in thirty asks for a key no shard has seen, at a steady rate
#: through the whole step, so misses keep solving while hits are served.
ZIPF_EXPONENT = 1.6
#: Unmeasured requests at the step's rate before measuring starts, so the
#: fresh workers' first solves and page faults settle first; at most
#: ``SETTLE_MAX_S`` seconds of them.
SETTLE_REQUESTS = 150
SETTLE_MAX_S = 0.5
#: Client threads: the load generator never runs more threads than cores.
CLIENT_THREADS = max(1, min(2, os.cpu_count() or 1))
#: Keys sent once each before a step is measured: the capacity keys and the
#: most popular operating points.
WARM_POINTS = 100
#: Per-shard L1 entries.  Each shard sees more keys than this in a step, so
#: the L1 evicts and the shared L2 answers part of the repeats.
L1_ENTRIES = 64


def build_shard_service(shard_id: str, *, predictors: Predictors) -> PredictionService:
    """One shard's serving stack: LQN primary, historical fallback."""
    return PredictionService(
        predictors.lqn,
        fallback=predictors.historical,
        config=ServiceConfig(max_workers=2, cache_entries=L1_ENTRIES),
        name=f"shard:{shard_id}",
    )


@dataclass(frozen=True)
class Key:
    """One quantized request: operands sit exactly on the cache grid."""

    op: str  # "mrt" or "capacity"
    server: str
    operand: float
    buy: float


def key_universe() -> tuple[tuple[Key, ...], tuple[Key, ...]]:
    """The operating-point keys and the capacity keys."""
    points = tuple(
        Key("mrt", server, float(max(1, round(level * knee_clients(server)))), buy)
        for server in SERVERS
        for level in LEVELS
        for buy in SERVE_BUYS
    )
    capacity = tuple(
        Key("capacity", CAPACITY_SERVER, goal, SLA_BUY_FRACTION) for goal in SLA_GOALS_MS
    )
    return points, capacity


@dataclass(frozen=True)
class Schedule:
    """A step's warm-up keys, then its due offsets (s) and keys; the first
    ``settle`` requests are sent but not measured."""

    warm: tuple[Key, ...]
    offsets: np.ndarray
    keys: tuple[Key, ...]
    settle: int

    @property
    def repeated_share(self) -> float:
        """Share of measured requests whose key was already asked in the step."""
        seen = set(self.warm + self.keys[: self.settle])
        repeats = 0
        for key in self.keys[self.settle:]:
            repeats += key in seen
            seen.add(key)
        return repeats / (len(self.keys) - self.settle)

    @property
    def capacity_share(self) -> float:
        """Share of measured requests that are capacity queries."""
        measured = self.keys[self.settle:]
        return sum(key.op == "capacity" for key in measured) / len(measured)


def make_schedule(
    seed: int, rate: float, seconds: float, part: int = 0, *, mix: str = "zipf"
) -> Schedule:
    """A seeded Poisson schedule: ``SETTLE_REQUESTS`` unmeasured requests'
    worth of time (at most ``SETTLE_MAX_S``), then ``seconds`` measured.

    With the ``zipf`` mix the warm-up asks the capacity keys and the most
    popular points, and the schedule draws Zipf-skewed points plus a share
    of capacity queries.  With the ``distinct`` mix the warm-up asks
    ``WARM_POINTS`` points and the schedule asks a stratified sample of the
    others, each at most once, in a seeded order: one key from each of
    ``n`` equal slices of the grid, so every schedule spans light to
    near-knee points alike, as first-time solves differ widely in cost.
    Parts of one step share the key ranking, not the arrivals.
    """
    points, capacity = key_universe()
    rng = seeded_rng(seed, "serve:keys")
    ranked = [points[i] for i in rng.permutation(len(points))]
    arrivals = seeded_rng(seed, f"serve:{mix}:{rate}:{part}")
    settle_s = min(SETTLE_REQUESTS / rate, SETTLE_MAX_S)
    total = settle_s + seconds
    n = max(2, int(arrivals.poisson(rate * total)))
    if mix == "distinct":
        warm = tuple(ranked[:WARM_POINTS])
        warmed = set(warm)
        unseen = [key for key in points if key not in warmed]
        if n > len(unseen):
            raise ValueError(f"{n} requests need more than {len(unseen)} distinct keys")
        offsets = np.sort(arrivals.uniform(0.0, total, n))
        edges = len(unseen) * np.arange(n + 1) // n
        picks = edges[:-1] + (arrivals.random(n) * np.diff(edges)).astype(int)
        keys = tuple(unseen[i] for i in arrivals.permutation(picks))
    else:
        weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_EXPONENT
        weights /= weights.sum()
        offsets = np.sort(arrivals.uniform(0.0, total, n))
        picks = arrivals.choice(len(ranked), size=n, p=weights)
        is_capacity = arrivals.random(n) < CAPACITY_SHARE
        which = arrivals.integers(0, len(capacity), n)
        keys = tuple(
            capacity[w] if cap else ranked[p] for p, cap, w in zip(picks, is_capacity, which)
        )
        warm = capacity + tuple(ranked[:WARM_POINTS])
    settle = min(int(np.searchsorted(offsets, settle_s)), n - 1)
    return Schedule(warm=warm, offsets=offsets, keys=keys, settle=settle)


class References:
    """The raw primary's and fallback's answers, computed once per key."""

    def __init__(self, predictors: Predictors):
        self._predictors = predictors
        self._memo: dict[Key, tuple[float, float]] = {}

    def prefetch(self, keys) -> None:
        """Compute the answers of the point keys not yet known in one sweep.

        The layered answers come from a cold batched solve of the same built
        models, which is bit-identical to a solve per point and a fraction
        of its cost, so a step of first-time keys is checked in full.
        """
        todo = sorted({key for key in keys if key.op == "mrt" and key not in self._memo},
                      key=lambda key: (key.server, key.operand, key.buy))
        if not todo:
            return
        lqn, historical = self._predictors.lqn, self._predictors.historical
        models = [
            build_trade_model(
                lqn.architectures[key.server],
                mixed_workload(max(1, int(round(key.operand))), key.buy),
                lqn.parameters,
            )
            for key in todo
        ]
        solutions = LqnSolver(lqn.solver.options).solve_sweep(models, warm_start=False)
        for key, solution in zip(todo, solutions):
            self._memo[key] = (
                solution.mean_response_ms(),
                historical.predict_mrt_ms(key.server, key.operand, buy_fraction=key.buy),
            )

    def __call__(self, key: Key) -> tuple[float, float]:
        """``(primary answer, fallback answer)`` at the key."""
        if key not in self._memo:
            answers = []
            for predictor in (self._predictors.lqn, self._predictors.historical):
                if key.op == "capacity":
                    answers.append(float(predictor.max_clients(key.server, key.operand, buy_fraction=key.buy)))
                else:
                    answers.append(predictor.predict_mrt_ms(key.server, key.operand, buy_fraction=key.buy))
            self._memo[key] = (answers[0], answers[1])
        return self._memo[key]


@contextmanager
def start_cluster(predictors: Predictors, spans: SpanRecorder):
    """A fresh two-shard cluster, stopped and reaped on every exit path.

    Yields the router and its start-up time: workers forked, the shared L2
    manager up, and every shard answering a ping.
    """
    # Forked workers inherit the calibrated predictors; nothing is pickled.
    spec = ShardSpec(factory="perfbench.serve:build_shard_service", kwargs={"predictors": predictors})
    with spans.block("service.shard.start"):
        start = time.perf_counter()
        backend = ProcessShardBackend(SHARDS, spec, start_method="fork")
    try:
        router = ShardedPredictionService(backend)
        with spans.block("service.shard.ping"):
            for shard in SHARDS:
                if not backend.ping(shard):
                    raise RuntimeError(f"shard {shard} did not start")
        startup_s = time.perf_counter() - start
        yield router, startup_s
    finally:
        with spans.block("service.shard.stop"):
            backend.stop()


@dataclass
class StepResult:
    """What one rate step measured."""

    rate: float
    latency_s: np.ndarray  # from due time, per measured request; inf = failed
    lag_s: np.ndarray  # how late each measured request was sent
    outcomes: dict[str, list[float]]  # outcome -> time inside serve_info (s)
    sent: int  # measured requests
    succeeded: int
    failed: int
    settle_sent: int  # unmeasured requests before the measured part
    settle_failed: int
    degraded: int
    wall_s: float  # measured schedule time
    startup_s: float
    counters: dict[str, float]  # merged cluster metrics over the measured part
    worker_latency: HistogramSnapshot | None  # worker latency over the measured part
    served: dict[str, int]  # requests each shard answered in the measured part
    peak_rss_mb: float  # this process and its live workers, at the step's end

    @property
    def p50_s(self) -> float:
        """Median latency from due time."""
        return _quantile(self.latency_s, 0.50)

    @property
    def p99_s(self) -> float:
        """99th-percentile latency from due time."""
        return _quantile(self.latency_s, 0.99)

    @property
    def throughput(self) -> float:
        """Requests answered per second of schedule."""
        return self.succeeded / self.wall_s

    @property
    def backlog_grew(self) -> bool:
        """True when the last twentieth of the schedule was sent late."""
        tail = self.lag_s[-max(1, len(self.lag_s) // 20):]
        return bool(np.median(tail) > LATENCY_LIMIT_S)

    @property
    def passed(self) -> bool:
        """Within the latency limit at p99, with no growing backlog."""
        return self.p99_s <= LATENCY_LIMIT_S and not self.backlog_grew

    @property
    def client_busy(self) -> float:
        """Share of the client threads' time spent waiting on the tier."""
        waited = sum(sum(times) for times in self.outcomes.values())
        return waited / (self.wall_s * CLIENT_THREADS)

    @property
    def client_bound(self) -> bool:
        """True when the schedule went out late while the client threads
        mostly sat idle: the generator, not the tier, fell behind."""
        return self.backlog_grew and bool(self.client_busy < 0.5)


def merge_steps(steps: list[StepResult]) -> StepResult:
    """One step from several measured at the same rate, in order."""
    histograms = [step.worker_latency for step in steps if step.worker_latency is not None]
    counters: dict[str, float] = {}
    served: dict[str, int] = {}
    outcomes: dict[str, list[float]] = {}
    for step in steps:
        for name, value in step.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        for shard, count in step.served.items():
            served[shard] = served.get(shard, 0) + count
        for outcome, times in step.outcomes.items():
            outcomes.setdefault(outcome, []).extend(times)
    return StepResult(
        rate=steps[0].rate,
        latency_s=np.concatenate([step.latency_s for step in steps]),
        lag_s=np.concatenate([step.lag_s for step in steps]),
        outcomes=outcomes,
        sent=sum(step.sent for step in steps),
        succeeded=sum(step.succeeded for step in steps),
        failed=sum(step.failed for step in steps),
        settle_sent=sum(step.settle_sent for step in steps),
        settle_failed=sum(step.settle_failed for step in steps),
        degraded=sum(step.degraded for step in steps),
        wall_s=sum(step.wall_s for step in steps),
        startup_s=float(np.median([step.startup_s for step in steps])),
        counters=counters,
        worker_latency=(
            functools.reduce(lambda a, b: a.merge(b), histograms) if histograms else None
        ),
        served=served,
        peak_rss_mb=max(step.peak_rss_mb for step in steps),
    )


def _quantile(latency_s: np.ndarray, q: float) -> float:
    """Linear-interpolated quantile where a failure (inf) is slower than any
    answer: enough failures make the quantile infinite."""
    ordered = np.sort(latency_s)
    rank = q * (ordered.size - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    if math.isinf(ordered[hi]):
        return math.inf
    return float(ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo]))


def check_answers(keys, values, outcome, references, checks: Checks) -> int:
    """Every answer is the primary's at its key, or the fallback's.

    Returns how many answers were the fallback's (degraded).
    """
    degraded = 0
    for key, value, how in zip(keys, values, outcome):
        if how == "failed":
            continue
        primary, fallback = references(key)
        if value != primary and value == fallback:
            degraded += 1
        checks.expect(
            value == primary or value == fallback,
            "serve",
            f"{key}: served {value!r}, primary {primary!r}, fallback {fallback!r}",
        )
    return degraded


def _histogram_delta(before, after):
    """The observations ``after`` holds that ``before`` did not."""
    if after is None or before is None:
        return after
    return HistogramSnapshot(
        bounds=after.bounds,
        counts=tuple(a - b for a, b in zip(after.counts, before.counts)),
        count=after.count - before.count,
        total_s=after.total_s - before.total_s,
        max_s=after.max_s,
    )


def _send(router: ShardedPredictionService, key: Key):
    return router.serve_info(key.op, key.server, key.operand, key.buy)


def _warm(router: ShardedPredictionService, keys: tuple[Key, ...], threads: int) -> None:
    """Ask every key once; a warm-up that fails fails the run."""
    counter = itertools.count()
    errors: list[Exception] = []

    def worker() -> None:
        while (i := next(counter)) < len(keys) and not errors:
            try:
                _send(router, keys[i])
            except Exception as error:  # re-raised below, in the caller's thread
                errors.append(error)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


def run_step(
    predictors: Predictors,
    schedule: Schedule,
    rate: float,
    *,
    references: References,
    spans: SpanRecorder,
    checks: Checks,
) -> StepResult:
    """Start a fresh cluster, warm it, drive the schedule, check answers."""
    threads = CLIENT_THREADS
    n = len(schedule.keys)
    latency = np.full(n, np.inf)
    lag = np.zeros(n)
    service = np.zeros(n)
    values = np.full(n, np.nan)
    outcome = [""] * n
    counter = itertools.count()
    # Garbage the earlier phases left (simulation samples, solutions) would
    # otherwise be traversed by whichever process's collector runs first,
    # in a forked worker copying every page it touches, inside the step.
    gc.collect()
    with start_cluster(predictors, spans) as (router, startup_s):
        with spans.block("bench.serve.warm"):
            _warm(router, schedule.warm, threads)
        step_span = spans.current()
        t0 = time.perf_counter() + 0.005
        measured_from = t0 + schedule.offsets[schedule.settle]

        def client() -> None:
            while (i := next(counter)) < n:
                due = t0 + schedule.offsets[i]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = time.perf_counter()
                try:
                    info = _send(router, schedule.keys[i])
                except Exception:  # a refused or unanswered request
                    end = time.perf_counter()
                    outcome[i] = "failed"
                else:
                    end = time.perf_counter()
                    values[i] = info.value
                    outcome[i] = info.outcome
                    latency[i] = end - due
                lag[i] = start - due
                service[i] = end - start
                spans.add("service.shard.request", start, end, parent=step_span, request_id=i)

        with spans.block("bench.serve.drive"):
            pool = [threading.Thread(target=client) for _ in range(threads)]
            for thread in pool:
                thread.start()
            time.sleep(max(0.0, measured_from - time.perf_counter()))
            before = router.snapshot()
            served_before = router.per_shard_served()
            for thread in pool:
                thread.join()
            wall = time.perf_counter() - measured_from
        after = router.snapshot()
        served = router.per_shard_served()
        rss_mb = resident_mb(with_children=True)

    with spans.block("check.serve"):
        references.prefetch(schedule.keys)
        degraded = check_answers(schedule.keys, values, outcome, references, checks)
    measured = range(schedule.settle, n)
    by_outcome: dict[str, list[float]] = {}
    for i in measured:
        if outcome[i] != "failed":
            by_outcome.setdefault(outcome[i], []).append(service[i])
    failed = sum(outcome[i] == "failed" for i in measured)
    start = before.export()
    return StepResult(
        rate=rate,
        latency_s=latency[schedule.settle:],
        lag_s=lag[schedule.settle:],
        outcomes=by_outcome,
        sent=len(measured),
        succeeded=len(measured) - failed,
        failed=failed,
        settle_sent=schedule.settle,
        settle_failed=outcome[: schedule.settle].count("failed"),
        degraded=degraded,
        wall_s=max(wall, float(schedule.offsets[-1] - schedule.offsets[schedule.settle])),
        startup_s=startup_s,
        counters={name: value - start.get(name, 0.0) for name, value in after.export().items()},
        worker_latency=_histogram_delta(
            before.histograms.get("latency"), after.histograms.get("latency")
        ),
        served={shard: served[shard] - served_before.get(shard, 0) for shard in served},
        peak_rss_mb=rss_mb,
    )
