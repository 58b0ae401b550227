"""Raw-predictor queries: the paper's section 8.5 delay comparison as a stream.

One caller queries the three calibrated methods directly, with no service in
between: point queries at seeded operating points on all three methods,
layered ``max_clients`` searches at the section 9 SLA goals, and Algorithm 1
``allocate()`` decisions on the 16-server pool with the hybrid.  Every
answer is checked afterwards against a computation independent of the code
that produced it.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.experiments.scenario import rm_server_pool, rm_workload_for
from repro.lqn.builder import build_trade_model
from repro.lqn.solver import LqnSolver
from repro.resource_manager.allocation import allocate
from repro.resource_manager.sla import class_rt_factor
from repro.servers.catalogue import ALL_APP_SERVERS
from repro.util.errors import CalibrationError
from repro.workload.trade import mixed_workload

from perfbench.checks import Checks
from perfbench.spans import SpanRecorder
from perfbench.stats import seeded_rng
from perfbench.testbed import Predictors, knee_clients

__all__ = [
    "SERVERS",
    "SLA_GOALS_MS",
    "BUY_FRACTIONS",
    "PredictPlan",
    "make_predict_plan",
    "PredictResult",
    "PredictPhase",
]

SERVERS = tuple(arch.name for arch in ALL_APP_SERVERS)
#: Section 9's response-time goals (buy, high- and low-priority browse).
SLA_GOALS_MS = (150.0, 300.0, 600.0)
#: The buy share of the section 9 workload.
SLA_BUY_FRACTION = 0.1
#: Capacity queries ask each goal for an all-browse and the section 9 mix.
GOAL_BUYS = (0.0, SLA_BUY_FRACTION)
BUY_FRACTIONS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25)
SLACKS = (1.0, 1.2, 1.5)
#: Load range of the point queries, as multiples of each server's knee.
LOAD_RANGE = (0.2, 1.7)


@dataclass(frozen=True)
class PredictPlan:
    """The generated query stream of one run."""

    points: tuple[tuple[str, int, float], ...]  # (server, clients, buy fraction)
    loads: tuple[float, ...]  # each point's clients as a multiple of the knee
    goals: tuple[tuple[str, float, float], ...]  # (server, goal ms, buy fraction)
    decisions: tuple[tuple[int, float], ...]  # (total clients, slack)

    @property
    def saturated_share(self) -> float:
        """Share of point queries at or past the server's knee."""
        return sum(load >= 1.0 for load in self.loads) / len(self.loads)


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """``n`` draws, one from each of ``n`` equal slices of ``[lo, hi)``, shuffled.

    Every seed then covers the range evenly, so the cost mix of a run (light
    against saturated points, small against large pools) barely moves from
    seed to seed while the exact inputs still do.
    """
    return lo + (hi - lo) * rng.permutation((np.arange(n) + rng.random(n)) / n)


def make_predict_plan(seed: int, n_points: int, n_decisions: int) -> PredictPlan:
    """Seeded point, capacity and allocation queries."""
    rng = seeded_rng(seed, "predict")
    loads = _stratified(rng, n_points, *LOAD_RANGE)
    servers = rng.permutation(np.arange(n_points) % len(SERVERS))
    buys = rng.permutation(np.arange(n_points) % len(BUY_FRACTIONS))
    points = tuple(
        (SERVERS[s], max(1, round(load * knee_clients(SERVERS[s]))), BUY_FRACTIONS[b])
        for s, load, b in zip(servers, loads, buys)
    )
    goals = [
        (server, goal, buy) for server in SERVERS for goal in SLA_GOALS_MS for buy in GOAL_BUYS
    ]
    order = rng.permutation(len(goals))
    totals = np.rint(_stratified(rng, n_decisions, 1000.0, 14001.0)).astype(int)
    slacks = rng.permutation(np.arange(n_decisions) % len(SLACKS))
    return PredictPlan(
        points=points,
        loads=tuple(float(x) for x in loads),
        goals=tuple(goals[i] for i in order),
        decisions=tuple((int(t), SLACKS[s]) for t, s in zip(totals, slacks)),
    )


class TimingProxy:
    """Forwards to a predictor and adds up the time spent inside it."""

    def __init__(self, predictor, spans: SpanRecorder):
        self._predictor = predictor
        self._spans = spans
        self.name = predictor.name
        self.timer = predictor.timer
        self.inside_s = 0.0

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        """Timed passthrough of the one query ``allocate()`` makes."""
        start = time.perf_counter()
        value = self._predictor.predict_mrt_ms(server, n_clients, buy_fraction=buy_fraction)
        end = time.perf_counter()
        self.inside_s += end - start
        self._spans.add("prediction.hybrid", start, end)
        return value


@dataclass
class PredictResult:
    """Samples (seconds) and counts from one predict phase."""

    hist_s: list[float]  # per point, the least over the timing passes
    hybrid_s: list[float]  # per point, the least over the timing passes
    lqn_s: list[float]  # per point, the least of its asks
    lqn_values: list[float]
    capacity_s: list[float]  # per goal, the least of its asks
    allocate_s: list[float]  # per decision, the least over the passes
    allocate_self_s: list[float]
    predictions_per_decision: list[int]
    lqn_build_s: list[float]
    lqn_solve_s: list[float]
    lqn_overhead_s: list[float]  # predictor call minus build and solve, per point
    lqn_iterations: list[int]
    sweep_points_per_s: float
    attempted: int
    failed: int
    failed_decisions: list[str]  # the first few, for the report


#: The layered queries run in this many blocks, spread through the run.
#: The blocks alternate between two halves of the layered points and
#: capacity goals, so each query is asked ``ASKS`` times, seconds apart, and
#: its time is the least of its asks: on a shared machine speed switches
#: between modes within seconds, and a query timed once carries whichever
#: mode it met.
BLOCKS = 4
ASKS = BLOCKS // 2
#: Allocation decisions, the same ones in every closed-form pass.
DECISIONS = 16
#: Timing passes over the closed-form point queries inside each block, one
#: after every equal share of its layered queries.  A microsecond query's
#: speed on a shared host follows the host's mode, which can hold for most
#: of a run; only a time taken at many moments spread through the run
#: reliably meets the fast mode, so each point's time is the least over
#: every timing pass (about 70 in a run, at ~15 ms a pass).
PASSES_PER_BLOCK = 16


def _least_per_query(asks: dict[int, list[float]]) -> list[float]:
    return [min(times) for _, times in sorted(asks.items())]


class PredictPhase:
    """The query stream, in blocks and passes, then checked as a whole.

    Each block asks every layered point query and capacity search after a
    closed-form pass, with timing passes between shares of the layered
    queries; further closed-form passes run between blocks.  A timing pass
    asks every point on the historical and hybrid methods; a closed-form
    pass is a timing pass plus the same allocation decisions in the same
    order.  Each query or decision's time is the least over its asks.
    """

    def __init__(
        self,
        plan: PredictPlan,
        *,
        lqn_points: int,
        spans: SpanRecorder,
        checks: Checks,
    ):
        self.plan = plan
        self.layered = plan.points[:lqn_points]
        self.spans = spans
        self.checks = checks
        #: Per closed-form pass: the time of each allocation decision.
        self.passes: list[list[float]] = []
        #: Per closed-form method: each point's least time so far, and how
        #: many timing passes asked every point.
        self.least = {method: [math.inf] * len(plan.points) for method in ("historical", "hybrid")}
        self.timing_passes = 0
        self.blocks = 0
        #: Per layered query (index into its list): the times of its asks.
        self.lqn_asks: dict[int, list[float]] = {}
        self.capacity_asks: dict[int, list[float]] = {}
        self.values = {"historical": [], "hybrid": [], "lqn": {}, "capacity": {}}
        self.allocate_self_s: list[float] = []
        self.per_decision: list[int] = []
        self.failed_decisions: list[str] = []
        self.pool = rm_server_pool()

    def _points(self, method: str, predictor) -> None:
        """One timing pass of ``method`` over every point.

        The first pass keeps each answer; every later one is checked
        against it.  One span covers the pass, so tracing adds no clock read
        to a query.
        """
        values, least = self.values[method], self.least[method]
        first = not values
        changed = 0
        pass_start = time.perf_counter()
        for i, (server, n, buy) in enumerate(self.plan.points):
            start = time.perf_counter()
            value = predictor.predict_mrt_ms(server, n, buy_fraction=buy)
            end = time.perf_counter()
            if end - start < least[i]:
                least[i] = end - start
            if first:
                values.append(value)
            elif value != values[i]:
                changed += 1
        self.spans.add(f"prediction.{method}", pass_start, time.perf_counter())
        if not first:
            self.checks.expect(
                changed == 0, "repeat", f"{changed} {method} point queries changed answer"
            )

    def _timing_pass(self, predictors: Predictors) -> None:
        self._points("historical", predictors.historical)
        self._points("hybrid", predictors.hybrid)
        self.timing_passes += 1

    def _layered(self, lqn, indices) -> None:
        values = self.values["lqn"]
        for i in indices:
            server, n, buy = self.layered[i]
            start = time.perf_counter()
            value = lqn.predict_mrt_ms(server, n, buy_fraction=buy)
            end = time.perf_counter()
            self.lqn_asks.setdefault(i, []).append(end - start)
            values.setdefault(i, []).append(value)
            self.spans.add("prediction.lqn", start, end)

    def _capacity(self, lqn, indices) -> None:
        values = self.values["capacity"]
        for i in indices:
            server, goal, buy = self.plan.goals[i]
            start = time.perf_counter()
            value = lqn.max_clients(server, goal, buy_fraction=buy)
            end = time.perf_counter()
            self.capacity_asks.setdefault(i, []).append(end - start)
            values.setdefault(i, []).append(value)
            self.spans.add("prediction.lqn_capacity", start, end)

    def _decide(self, hybrid, samples: list[float]) -> None:
        spans = self.spans
        for total, slack in self.plan.decisions:
            classes = rm_workload_for(total)
            model = TimingProxy(hybrid, spans) if spans.enabled else hybrid
            with spans.block("resource_manager.allocate"):
                start = time.perf_counter()
                try:
                    allocation = allocate(classes, self.pool, model, slack=slack)
                except CalibrationError as error:
                    # The hybrid cannot answer some query the allocator
                    # makes (e.g. a buy-only server past its fitted mix
                    # range): a failed decision, timed until it failed.
                    allocation = None
                    self.failed_decisions.append(f"{total} clients, slack {slack}: {error}")
                end = time.perf_counter()
            samples.append(end - start)
            if allocation is None:
                continue
            self.per_decision.append(allocation.predictions_made)
            if spans.enabled:
                self.allocate_self_s.append(end - start - model.inside_s)
            with spans.block("check.allocate"):
                _check_allocation(allocation, classes, self.pool, hybrid, slack, self.checks)

    def closed_forms(self, predictors: Predictors) -> None:
        """A timing pass over every point on the historical and hybrid
        methods, and the ``DECISIONS`` allocation decisions, which are made
        of such calls.

        A pass costs a fraction of a second, so the run makes one after
        every phase: a decision's time is the least over the passes.
        """
        samples: list[float] = []
        with self.spans.block("bench.predict.closed_forms"):
            self._timing_pass(predictors)
            self._decide(predictors.hybrid, samples)
        self.passes.append(samples)

    def run_block(self, predictors: Predictors) -> None:
        """One block of half the layered queries, after a closed-form pass,
        with ``PASSES_PER_BLOCK`` timing passes spread through it."""
        gc.collect()  # the set-up's garbage is not the queries' cost
        self.closed_forms(predictors)
        half = self.blocks % 2
        self.blocks += 1
        with self.spans.block("bench.predict.block"):
            points = np.arange(half, len(self.layered), 2)
            for chunk in np.array_split(points, PASSES_PER_BLOCK):
                self._layered(predictors.lqn, chunk.tolist())
                self._timing_pass(predictors)
            self._capacity(predictors.lqn, range(half, len(self.plan.goals), 2))

    def finish(self, predictors: Predictors) -> PredictResult:
        """Check every kind of answer; with spans on, time the LQN layers."""
        spans, checks, plan = self.spans, self.checks, self.plan
        hist_v, hybrid_v = self.values["historical"], self.values["hybrid"]
        asked = {"lqn": self.values["lqn"], "capacity": self.values["capacity"]}
        for kind, answers in asked.items():
            checks.expect(
                all(len(set(values)) == 1 for values in answers.values()),
                "repeat",
                f"a {kind} query asked {ASKS} times gave different answers",
            )
        lqn_v = [answers[0] for _, answers in sorted(asked["lqn"].items())]
        lqn_s = _least_per_query(self.lqn_asks)
        capacity_s = _least_per_query(self.capacity_asks)
        build_s, solve_s, overhead_s, iterations, sweep_rate = [], [], [], [], 0.0
        if spans.enabled:
            build_s, solve_s, overhead_s, iterations, sweep_rate = _lqn_layers(
                predictors, self.layered, lqn_v, spans, checks
            )
        else:
            with spans.block("check.lqn"):
                _check_lqn_bitwise(predictors, self.layered[::10], lqn_v[::10], checks)
        with spans.block("check.inversion"):
            _check_inversion(predictors.historical, plan.goals, checks, "historical")
            _check_inversion(predictors.hybrid, plan.goals, checks, "hybrid")
        finite = np.isfinite(hist_v + hybrid_v + lqn_v)
        checks.expect(bool(finite.all()), "predict", "every point query returns a finite value")
        return PredictResult(
            hist_s=self.least["historical"],
            hybrid_s=self.least["hybrid"],
            lqn_s=lqn_s,
            lqn_values=lqn_v,
            capacity_s=capacity_s,
            allocate_s=[min(times) for times in zip(*self.passes)],
            allocate_self_s=self.allocate_self_s,
            predictions_per_decision=self.per_decision,
            lqn_build_s=build_s,
            lqn_solve_s=solve_s,
            lqn_overhead_s=overhead_s,
            lqn_iterations=iterations,
            sweep_points_per_s=sweep_rate,
            attempted=self.timing_passes * (len(hist_v) + len(hybrid_v))
            + sum(len(times) for times in self.lqn_asks.values())
            + sum(len(times) for times in self.capacity_asks.values())
            + sum(len(samples) for samples in self.passes),
            failed=int((~finite).sum()) + len(self.failed_decisions),
            failed_decisions=self.failed_decisions[:3],
        )


def _lqn_layers(predictors: Predictors, points, values, spans, checks):
    """Time ``build_trade_model`` and ``LqnSolver.solve`` apart, and the
    predictor's own call, on each predicted point; check each solve against
    the predictor's answer.

    The predictor call and the build-then-solve pair alternate which runs
    first, so warm caches favour neither side of the overhead difference.
    """
    solver = LqnSolver(predictors.lqn.solver.options)
    architectures = predictors.lqn.architectures
    build_s, solve_s, overhead_s, iterations = [], [], [], []

    def predict(server, n, buy) -> float:
        start = time.perf_counter()
        predictors.lqn.predict_mrt_ms(server, n, buy_fraction=buy)
        end = time.perf_counter()
        spans.add("prediction.lqn", start, end)
        return end - start

    with spans.block("bench.predict.lqn_layers"):
        for i, ((server, n, buy), value) in enumerate(zip(points, values)):
            whole = predict(server, n, buy) if i % 2 else 0.0
            start = time.perf_counter()
            model = build_trade_model(
                architectures[server], mixed_workload(max(1, round(n)), buy), predictors.parameters
            )
            mid = time.perf_counter()
            solution = solver.solve(model)
            end = time.perf_counter()
            if not i % 2:
                whole = predict(server, n, buy)
            spans.add("lqn.build", start, mid)
            spans.add("lqn.solve", mid, end)
            build_s.append(mid - start)
            solve_s.append(end - mid)
            overhead_s.append(whole - (end - start))
            iterations.append(solution.iterations)
            _expect_equal(solution.mean_response_ms(), value, server, n, buy, checks)
        sweep = points[: min(len(points), 64)]
        start = time.perf_counter()
        predictors.lqn.solve_points(sweep)
        end = time.perf_counter()
        spans.add("lqn.sweep", start, end)
    return build_s, solve_s, overhead_s, iterations, len(sweep) / (end - start)


def _expect_equal(solved: float, predicted: float, server, n, buy, checks: Checks) -> None:
    checks.expect(
        solved == predicted,
        "lqn_bitwise",
        f"{server} n={n} buy={buy}: predictor {predicted!r} != solver {solved!r}",
    )


def _check_lqn_bitwise(predictors: Predictors, points, values, checks: Checks) -> None:
    solver = LqnSolver(predictors.lqn.solver.options)
    architectures = predictors.lqn.architectures
    for (server, n, buy), value in zip(points, values):
        model = build_trade_model(
            architectures[server], mixed_workload(max(1, round(n)), buy), predictors.parameters
        )
        _expect_equal(solver.solve(model).mean_response_ms(), value, server, n, buy, checks)


def _check_inversion(predictor, goals, checks: Checks, label: str) -> None:
    """``max_clients(g)`` is the last client count whose prediction meets g."""
    for server, goal, buy in goals:
        c = predictor.max_clients(server, goal, buy_fraction=buy)
        above = predictor.predict_mrt_ms(server, c + 1, buy_fraction=buy)
        ok = above > goal
        if c > 0:
            ok = ok and predictor.predict_mrt_ms(server, c, buy_fraction=buy) <= goal * (1.0 + 1e-9)
        checks.expect(ok, "inversion", f"{label} {server} goal={goal} buy={buy}: c={c}")


def _check_allocation(allocation, classes, pool, predictor, slack, checks: Checks) -> None:
    """Clients are conserved and every hosted class meets its goal."""
    placed: dict[str, int] = {}
    for per_class in allocation.per_server.values():
        for name, count in per_class.items():
            placed[name] = placed.get(name, 0) + count
    for cls in classes:
        wanted = int(round(cls.n_clients * slack))
        got = placed.get(cls.name, 0) + allocation.unallocated.get(cls.name, 0)
        checks.expect(got == wanted, "allocate", f"{cls.name}: {got} placed != {wanted}")
    by_name = {cls.name: cls for cls in classes}
    architectures = {server.name: server.architecture for server in pool}
    for server, per_class in allocation.per_server.items():
        total = sum(per_class.values())
        if total == 0:
            continue
        buy = sum(n for name, n in per_class.items() if by_name[name].is_buy) / total
        mean = predictor.predict_mrt_ms(architectures[server], total, buy_fraction=buy)
        for name, n in per_class.items():
            if n <= 0:
                continue
            cls = by_name[name]
            rt = mean * class_rt_factor(cls.is_buy, buy)
            checks.expect(
                rt <= cls.rt_goal_ms,
                "allocate",
                f"{server}: {name} predicted {rt:.1f} ms > goal {cls.rt_goal_ms} ms",
            )
