"""The layered queuing solver.

Solution strategy (an SRVN-style approximation in the spirit of LQNS):

1. **Flatten the call DAG.**  For every reference task (service class) the
   solver walks the synchronous call graph and accumulates per-entry visit
   ratios per client cycle.  Crossing an *asynchronous* call boundary — or a
   second service phase — moves the downstream work onto the class's
   *hidden* demand: it loads the stations but is off the response path.
2. **Hardware contention.**  Every processor becomes a station of a closed
   multiclass network (PS and FIFO both queue; DELAY processors are
   infinite servers) with the flattened per-cycle demands, solved by
   Bard–Schweitzer approximate MVA (:mod:`repro.lqn.mva`).
3. **Software contention.**  Every non-reference task contributes a
   *surrogate multi-server station* with one server per thread of its
   multiplicity and ``waiting_only=True``: only queueing for a thread — not
   the (already-counted) work done while holding it — adds to response
   times.  The surrogate's per-visit service time is the task's
   no-contention holding time (its entries' raw demand plus downstream raw
   demands along synchronous calls), which keeps thread-pool queueing
   negligible while the pool is ample and growing once offered concurrency
   approaches the pool size — without double-counting processor queueing.

The iteration stops when both queue lengths and per-class response times are
stable; ``SolverOptions.convergence_criterion_ms`` plays the role of the
LQNS convergence criterion the paper sets to 20 ms, trading accuracy for
solve time (section 4.2 notes predictions for nearby client counts can
invert under a loose criterion — this solver reproduces that behaviour).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.faults.injector import INJECTOR
from repro.lqn.loss import solve_batch_with_loss
from repro.lqn.model import CallKind, LqnModel, Scheduling, Task
from repro.lqn.mva import MvaBatchInput, MvaInput, Station, StationKind
from repro.lqn.results import LqnSolution
from repro.trace import TRACER
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ConvergenceError, ModelError
from repro.util.search import largest_satisfying
from repro.util.validation import check_positive, check_positive_int

__all__ = ["SolverOptions", "LqnSolver", "MVA_ITERATION_SAMPLE", "WARM_START_STRIDE"]

#: Every k-th MVA fixed-point iteration gets an instant event when tracing.
MVA_ITERATION_SAMPLE = 25

#: Warm-started sweeps solve every ``stride``-th point cold (in locality
#: order), then seed the points in between from their nearest solved
#: neighbour's queue lengths.
WARM_START_STRIDE = 4


def _mva_iteration_hook():
    """A sampled per-iteration callback carrying the convergence delta.

    ``delta`` is the largest queue-length residual among the batch points
    still iterating; ``active`` counts them (1 for a single-point solve).
    """

    def hook(iteration: int, delta: float, n_active: int) -> None:
        if iteration == 1 or iteration % MVA_ITERATION_SAMPLE == 0:
            TRACER.instant(
                "lqn.mva.iteration", iteration=iteration, delta=delta, active=n_active
            )

    return hook


@dataclass(frozen=True)
class SolverOptions:
    """Numerical controls for the layered solver.

    ``convergence_criterion_ms`` is the paper's LQNS convergence criterion:
    iteration stops once successive per-class response-time estimates differ
    by less than this (and queue lengths by less than ``queue_tol``).
    Tightening it increases solve time — the trade-off section 4.2 discusses.

    ``lint_models`` runs :func:`repro.analysis.check_model` over every model
    before solving: structural defects (call cycles, unreachable entries,
    non-positive demands) surface as a
    :class:`~repro.analysis.model_lint.ModelLintError` listing every
    finding, instead of one-at-a-time validation errors or a hung
    iteration.
    """

    convergence_criterion_ms: float = 1.0
    queue_tol: float = 1e-6
    max_iterations: int = 200_000
    damping: float = 0.5
    lint_models: bool = False

    def __post_init__(self) -> None:
        check_positive(self.convergence_criterion_ms, "convergence_criterion_ms")
        check_positive(self.queue_tol, "queue_tol")
        check_positive_int(self.max_iterations, "max_iterations")


class LqnSolver:
    """Solves :class:`~repro.lqn.model.LqnModel` instances."""

    def __init__(self, options: SolverOptions | None = None, *, clock: Clock = SYSTEM_CLOCK):
        self.options = options if options is not None else SolverOptions()
        self.solve_count = 0  # predictions evaluated, for delay accounting
        self._clock = clock
        # One solver is shared across prediction-service worker threads.
        self._lock = threading.Lock()

    # -- public API -----------------------------------------------------------

    def solve(self, model: LqnModel) -> LqnSolution:
        """Solve ``model`` and return steady-state predictions.

        A batch of one: the model goes through exactly the same prepare →
        batched-fixed-point → package pipeline as :meth:`solve_sweep`.
        """
        if INJECTOR.armed:
            INJECTOR.fire("lqn.solve")
        start = self._clock.perf_s()
        with TRACER.span("lqn.solve") as span:
            classes, vis, hid, inp, station_names, task_station_index = self._prepare(model)
            with TRACER.span("lqn.iterate"):
                solution = self._iterate(inp)

            elapsed = self._clock.perf_s() - start
            with self._lock:
                self.solve_count += 1
            span.set_attribute("classes", len(classes))
            span.set_attribute("stations", len(station_names))
            span.set_attribute("iterations", solution[0].iterations)
            return self._package(
                model, classes, vis, hid, inp, solution, station_names, task_station_index, elapsed
            )

    def solve_sweep(
        self, models: list[LqnModel], *, warm_start: bool = True
    ) -> list[LqnSolution]:
        """Solve a whole sweep of models as (a few) NumPy batches.

        Models sharing a network *structure* (same stations and class
        names — e.g. one architecture swept over populations and request
        mixes) are stacked into one :class:`MvaBatchInput` and iterated
        together by :func:`repro.lqn.mva.solve_batch`; converged points
        freeze while stragglers keep iterating.  Results come back in
        input order, each bit-identical (``warm_start=False``) or
        tolerance-equal (``warm_start=True``) to ``solve`` on that model.

        With ``warm_start`` (the default), each structure group is first
        ordered for locality (by population, then think times/demands) and
        every :data:`WARM_START_STRIDE`-th point is solved cold; the points
        in between start from their nearest solved neighbour's queue
        lengths, rescaled to their own populations, and later ladder stages
        reuse the previous stage's iterate instead of restarting — both
        collapse iteration counts on smooth sweeps.

        Faults and accounting match the serial path: one
        ``lqn.solve`` fault-injection firing and one ``solve_count``
        increment per model.  ``solve_time_s`` on each returned solution is
        the sweep's wall time divided evenly across its points.
        """
        models = list(models)
        if not models:
            return []
        if INJECTOR.armed:
            for _ in models:
                INJECTOR.fire("lqn.solve")
        start = self._clock.perf_s()
        with TRACER.span("lqn.sweep") as span:
            prepared = [self._prepare(model) for model in models]
            groups: dict[tuple, list[int]] = {}
            for i, (_, _, _, inp, _, _) in enumerate(prepared):
                groups.setdefault(inp.structure_signature(), []).append(i)

            results: list[tuple | None] = [None] * len(models)
            for indices in groups.values():
                ordered = sorted(indices, key=lambda i: self._locality_key(prepared[i][3]))
                inputs = [prepared[i][3] for i in ordered]
                with TRACER.span("lqn.iterate") as group_span:
                    group_span.set_attribute("points", len(ordered))
                    if warm_start and len(inputs) > WARM_START_STRIDE:
                        solved = self._solve_group_warm(inputs)
                    else:
                        solved = self._iterate_batch(
                            MvaBatchInput.from_points(inputs), warm_start=warm_start
                        )
                for i, result in zip(ordered, solved):
                    results[i] = result

            elapsed = self._clock.perf_s() - start
            with self._lock:
                self.solve_count += len(models)
            span.set_attribute("models", len(models))
            span.set_attribute("groups", len(groups))
            per_point_s = elapsed / len(models)
            return [
                self._package(
                    models[i], classes, vis, hid, inp, results[i],
                    station_names, task_station_index, per_point_s,
                )
                for i, (classes, vis, hid, inp, station_names, task_station_index)
                in enumerate(prepared)
            ]

    def max_clients_for_goal(
        self,
        build_model,
        rt_goal_ms: float,
        *,
        class_name: str,
        upper_bound: int = 100_000,
    ) -> tuple[int, int]:
        """Largest client count whose predicted response time meets a goal.

        The layered queuing method can only take the number of clients as an
        *input*, so — as section 8.2 of the paper notes — finding a capacity
        means searching over client counts, evaluating a prediction at each
        probe.  ``build_model(n)`` must return the model for ``n`` clients.

        Returns ``(max_clients, predictions_evaluated)``; the second element
        is what makes the layered method's capacity queries expensive
        (section 8.5).
        """
        check_positive(rt_goal_ms, "rt_goal_ms")
        evaluations = 0

        def meets(n: int) -> bool:
            nonlocal evaluations
            evaluations += 1
            result = self.solve(build_model(n))
            return result.response_ms[class_name] <= rt_goal_ms

        capacity = largest_satisfying(meets, upper_bound)
        return capacity, evaluations

    # -- preparation ----------------------------------------------------------

    def _prepare(self, model: LqnModel):
        """Lint/validate ``model`` and build its MVA network."""
        if self.options.lint_models:
            # Lazy import: repro.analysis imports this module's
            # SolverOptions consumers; importing at module scope would
            # cycle.
            from repro.analysis.model_lint import check_model

            with TRACER.span("lqn.lint"):
                check_model(model)
        model.validate()
        classes = model.reference_tasks()
        if not classes:
            raise ModelError("model has no reference tasks")

        with TRACER.span("lqn.flatten"):
            vis, hid = self._flatten(model, classes)
        with TRACER.span("lqn.build_network"):
            inp, station_names, task_station_index = self._build_network(
                model, classes, vis, hid
            )
        return classes, vis, hid, inp, station_names, task_station_index

    @staticmethod
    def _locality_key(inp: MvaInput) -> tuple:
        """Sort key placing neighbouring sweep points next to each other.

        Population dominates (fig2/fig6-style client sweeps), then think
        times and total demand (mix sweeps at fixed population).
        """
        return (
            float(sum(inp.populations)),
            tuple(inp.populations),
            tuple(inp.think_times_ms),
            float(inp.demands.sum()),
            float(inp.hidden_demands.sum()),
        )

    # -- flattening -----------------------------------------------------------

    def _flatten(
        self, model: LqnModel, classes: list[Task]
    ) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
        """Per-class visible/hidden visit ratios for every entry.

        Returns two maps ``(class_name, entry_name) -> visits per cycle``.
        """
        vis: dict[tuple[str, str], float] = {}
        hid: dict[tuple[str, str], float] = {}

        def walk(class_name: str, entry_name: str, visits: float, hidden: bool) -> None:
            bucket = hid if hidden else vis
            key = (class_name, entry_name)
            bucket[key] = bucket.get(key, 0.0) + visits
            entry = model.entry(entry_name)
            for call in entry.calls:
                child_hidden = hidden or call.kind is CallKind.ASYNCHRONOUS
                walk(class_name, call.target_entry, visits * call.mean_calls, child_hidden)

        for ref in classes:
            for ref_entry in ref.entries:
                # The reference entry's own demand is the client's local work
                # (usually zero); its calls define one request cycle.
                for call in ref_entry.calls:
                    hidden = call.kind is CallKind.ASYNCHRONOUS
                    walk(ref.name, call.target_entry, call.mean_calls, hidden)
        return vis, hid

    # -- network construction ---------------------------------------------------

    def _holding_time_ms(self, model: LqnModel, entry_name: str) -> float:
        """No-contention holding time of one entry invocation (ms):
        raw scaled demand plus downstream synchronous holding times.

        Asynchronous and forwarding calls do not extend the holding time:
        the thread is released (forwarded work continues on the *client's*
        response path but on the *callee's* thread, not the caller's).
        """
        entry = model.entry(entry_name)
        owner = model.entry_owner(entry_name)
        assert owner is not None
        proc = model.processors[owner.processor]
        total = entry.demand_ms / proc.speed
        for call in entry.calls:
            if call.kind is CallKind.SYNCHRONOUS:
                total += call.mean_calls * self._holding_time_ms(model, call.target_entry)
        return total

    def _build_network(
        self,
        model: LqnModel,
        classes: list[Task],
        vis: dict[tuple[str, str], float],
        hid: dict[tuple[str, str], float],
    ) -> tuple[MvaInput, list[str], dict[str, int]]:
        closed = [t for t in classes if not t.is_open_reference]
        opened = [t for t in classes if t.is_open_reference]
        class_names = [t.name for t in closed]
        populations = [t.multiplicity for t in closed]
        think_times = [t.think_time_ms for t in closed]

        stations: list[Station] = []
        station_names: list[str] = []
        proc_index: dict[str, int] = {}
        for proc in model.processors.values():
            if proc.scheduling is Scheduling.DELAY:
                kind = StationKind.DELAY
            else:
                kind = StationKind.QUEUE
            proc_index[proc.name] = len(stations)
            stations.append(
                Station(
                    name=f"proc:{proc.name}",
                    kind=kind,
                    servers=proc.multiplicity,
                    capacity=proc.queue_capacity,
                )
            )
            station_names.append(f"proc:{proc.name}")

        task_station_index: dict[str, int] = {}
        server_tasks = model.server_tasks()
        for task in server_tasks:
            task_station_index[task.name] = len(stations)
            stations.append(
                Station(
                    name=f"task:{task.name}",
                    kind=StationKind.QUEUE,
                    servers=task.multiplicity,
                    waiting_only=True,
                )
            )
            station_names.append(f"task:{task.name}")

        C, K = len(class_names), len(stations)
        demands = np.zeros((C, K))
        hidden = np.zeros((C, K))

        for c, cname in enumerate(class_names):
            for task in model.tasks.values():
                proc = model.processors[task.processor]
                k = proc_index[proc.name]
                for entry in task.entries:
                    v = vis.get((cname, entry.name), 0.0)
                    h = hid.get((cname, entry.name), 0.0)
                    demands[c, k] += v * entry.demand_ms / proc.speed
                    hidden[c, k] += h * entry.demand_ms / proc.speed
                    # Second-phase work loads the processor off the response path.
                    hidden[c, k] += (v + h) * entry.phase2_demand_ms / proc.speed

            for task in server_tasks:
                k = task_station_index[task.name]
                for entry in task.entries:
                    holding = self._holding_time_ms(model, entry.name)
                    holding += entry.phase2_demand_ms / model.processors[task.processor].speed
                    v = vis.get((cname, entry.name), 0.0)
                    h = hid.get((cname, entry.name), 0.0)
                    demands[c, k] += v * holding
                    hidden[c, k] += h * holding

        # Open workload sources load the processor stations per request;
        # thread-pool (surrogate) waiting is not modelled for open traffic.
        open_names = [t.name for t in opened]
        open_rates = [t.open_arrival_rate_per_s / 1000.0 for t in opened]
        open_demands = np.zeros((len(opened), K))
        for o, task in enumerate(opened):
            for server_task in model.tasks.values():
                proc = model.processors[server_task.processor]
                k = proc_index[proc.name]
                for entry in server_task.entries:
                    visits = vis.get((task.name, entry.name), 0.0) + hid.get(
                        (task.name, entry.name), 0.0
                    )
                    open_demands[o, k] += (
                        visits * (entry.demand_ms + entry.phase2_demand_ms) / proc.speed
                    )

        inp = MvaInput(
            stations=stations,
            class_names=class_names,
            populations=populations,
            think_times_ms=think_times,
            demands=demands,
            hidden_demands=hidden,
            open_class_names=open_names,
            open_rates_per_ms=open_rates,
            open_demands=open_demands,
        )
        return inp, station_names, task_station_index

    # -- iteration ---------------------------------------------------------------

    def _iterate(self, inp: MvaInput):
        """Bard–Schweitzer fixed point with the response-time stopping rule."""
        return self._iterate_batch(MvaBatchInput.from_points([inp]))[0]

    def _iterate_batch(
        self,
        batch: MvaBatchInput,
        *,
        warm_start: bool = False,
        initial_queue_lengths: np.ndarray | None = None,
        start_stage: int = 1,
    ) -> list[tuple]:
        """Run the staged tolerance ladder over a whole batch at once.

        The AMVA fixed point runs in stages of loosening-to-tightening
        tolerance (``10^-stage`` down to ``queue_tol``), checking the
        response-time criterion between stages; this reproduces LQNS's
        "iterate until response times move < criterion" behaviour while
        the queue-length tolerance guards the fine-grained fixed point.
        Each point climbs the ladder independently: a point whose
        response residual drops below ``convergence_criterion_ms`` leaves
        the batch, and later stages solve only the survivors.

        ``warm_start=False`` (the default, used by :meth:`solve`) restarts
        every stage from the default iterate, which makes each point's
        result bit-identical to the historical serial ladder.  With
        ``warm_start=True`` each stage continues from the previous stage's
        queue lengths, and ``initial_queue_lengths`` (``(B, C, K)``) seeds
        the first stage — e.g. from a neighbouring, already-solved sweep
        point.  ``start_stage`` skips the coarsest ladder rungs, which a
        well-seeded iterate has already passed.

        Returns one ``(MvaSolution, residual_ms)`` tuple per point, in
        batch order.
        """
        options = self.options
        B = batch.batch_size
        results: list[tuple | None] = [None] * B
        live = np.arange(B)
        prev_response: np.ndarray | None = None  # (b, C) for live points
        stage_iterations = np.zeros(B, dtype=int)
        current = batch
        seed = initial_queue_lengths
        # Tracing: per-stage instants always (cheap), per-MVA-iteration
        # instants through a sampled hook so tight fixed points (tens of
        # thousands of iterations) don't flood the event log.
        trace_on = TRACER.enabled
        hook = _mva_iteration_hook() if trace_on else None
        # A loose criterion stops early (coarse, fast); a tight criterion
        # runs the fixed point to queue_tol (accurate, slower).
        for stage in range(start_stage, 64):
            stage_tol = max(options.queue_tol, 10.0 ** (-stage))
            # The finite-capacity wrapper: with no capacity stations (or
            # when every loss probability underflows to 0.0 — the K→∞
            # limit) it calls the unbounded core once on the unmodified
            # input, so this stays bit-identical to the historical ladder.
            solution = solve_batch_with_loss(
                current,
                tol=stage_tol,
                max_iterations=options.max_iterations,
                damping=options.damping,
                initial_queue_lengths=seed,
                iteration_hook=hook,
            )
            stage_iterations[live] += solution.iterations
            response = solution.cycle_response_ms  # (b, C)
            if response.shape[1] == 0:
                # Pure-open models: the mixed-network reduction is closed form.
                for j, i in enumerate(live):
                    results[i] = (solution.solution(j), 0.0)
                break
            residuals = None
            if prev_response is not None:
                residuals = np.max(np.abs(response - prev_response), axis=1)  # (b,)
            if trace_on:
                TRACER.instant(
                    "lqn.solve.stage",
                    stage=stage,
                    stage_tol=stage_tol,
                    iterations=int(solution.iterations.max()),
                    residual_ms=None if residuals is None else float(residuals.max()),
                    active=int(live.size),
                )
            if residuals is not None:
                done = residuals < options.convergence_criterion_ms
            else:
                done = np.zeros(live.size, dtype=bool)
            final_residuals = np.where(done, residuals if residuals is not None else 0.0, 0.0)
            if stage_tol <= options.queue_tol:
                # Ladder floor: whoever is left stops here, reporting a zero
                # residual exactly as the historical serial ladder did.
                done = np.ones(live.size, dtype=bool)
            if done.any():
                for j in np.flatnonzero(done):
                    point = solution.solution(j)
                    point.iterations = int(stage_iterations[live[j]])
                    results[live[j]] = (point, float(final_residuals[j]))
                keep = ~done
                live = live[keep]
                if live.size == 0:
                    break
                current = current.subset(np.flatnonzero(keep))
                prev_response = response[keep].copy()
                seed = solution.queue_lengths[keep] if warm_start else None
            else:
                prev_response = response.copy()
                seed = solution.queue_lengths if warm_start else None
        else:  # pragma: no cover - defensive
            raise ConvergenceError(
                "layered solver failed to converge",
                iterations=int(stage_iterations.max()),
            )
        return results

    def _solve_group_warm(self, inputs: list[MvaInput]) -> list[tuple]:
        """Warm-started wave solve of one locality-ordered structure group.

        Every :data:`WARM_START_STRIDE`-th point solves cold (one batch);
        the points in between seed their iterate from the nearest cold
        point's queue lengths, rescaled per class to their own population
        (classes active in the warm point but absent from its seed keep the
        default spread initialisation).  Returns results in ``inputs``
        order.
        """
        n = len(inputs)
        cold_positions = list(range(0, n, WARM_START_STRIDE))
        warm_positions = [p for p in range(n) if p % WARM_START_STRIDE != 0]
        cold_results = self._iterate_batch(
            MvaBatchInput.from_points([inputs[p] for p in cold_positions]),
            warm_start=True,
        )
        results: list[tuple | None] = [None] * n
        for p, result in zip(cold_positions, cold_results):
            results[p] = result
        if warm_positions:
            seeds = np.zeros(
                (len(warm_positions), len(inputs[0].class_names), len(inputs[0].stations))
            )
            for w, p in enumerate(warm_positions):
                nearest = min(cold_positions, key=lambda c: abs(c - p))
                neighbour, _ = results[nearest]
                n_new = np.asarray(inputs[p].populations, dtype=float)
                n_old = np.asarray(inputs[nearest].populations, dtype=float)
                scale = np.where(n_old > 0, n_new / np.where(n_old > 0, n_old, 1.0), 0.0)
                seeded = neighbour.queue_lengths * scale[:, None]
                newly_active = (n_new > 0) & (n_old == 0)
                if newly_active.any():
                    # No neighbour information for these classes: fall back to
                    # the solver's default spread-over-visited-stations seed.
                    inp = inputs[p]
                    visits = ((inp.demands + inp.hidden_demands) > 0).astype(float)
                    counts = np.maximum(visits.sum(axis=1, keepdims=True), 1.0)
                    default = n_new[:, None] / counts * visits
                    seeded = np.where(newly_active[:, None], default, seeded)
                seeds[w] = seeded
            warm_results = self._iterate_batch(
                MvaBatchInput.from_points([inputs[p] for p in warm_positions]),
                warm_start=True,
                initial_queue_lengths=seeds,
                # A neighbour-seeded iterate is already past the coarse rungs.
                start_stage=3,
            )
            for p, result in zip(warm_positions, warm_results):
                results[p] = result
        return results

    # -- packaging ----------------------------------------------------------------

    def _package(
        self,
        model: LqnModel,
        classes: list[Task],
        vis: dict[tuple[str, str], float],
        hid: dict[tuple[str, str], float],
        inp: MvaInput,
        solution_and_residual,
        station_names: list[str],
        task_station_index: dict[str, int],
        elapsed_s: float,
    ) -> LqnSolution:
        solution, residual = solution_and_residual
        response: dict[str, float] = {}
        throughput: dict[str, float] = {}
        residence: dict[tuple[str, str], float] = {}
        closed = [t for t in classes if not t.is_open_reference]
        for c, task in enumerate(closed):
            response[task.name] = float(solution.cycle_response_ms[c])
            throughput[task.name] = float(solution.throughput_per_ms[c] * 1000.0)
            for proc_name in model.processors:
                k = station_names.index(f"proc:{proc_name}")
                residence[(task.name, proc_name)] = float(solution.residence_ms[c, k])
        loss_probability: dict[str, float] = {t.name: 0.0 for t in closed}
        for task in classes:
            if task.is_open_reference:
                response[task.name] = float(solution.open_response_ms[task.name])
                # An open class's *carried* throughput: its (stable) arrival
                # rate minus whatever finite-capacity processors shed.  With
                # no capacity bounds the loss is exactly 0.0 and this is the
                # arrival rate bit-for-bit.
                loss = float(solution.open_loss.get(task.name, 0.0))
                loss_probability[task.name] = loss
                throughput[task.name] = task.open_arrival_rate_per_s * (1.0 - loss)

        processor_util = {
            proc_name: float(solution.utilisation[station_names.index(f"proc:{proc_name}")])
            for proc_name in model.processors
        }
        task_concurrency = {
            task_name: float(solution.queue_lengths[:, k].sum())
            for task_name, k in task_station_index.items()
        }
        station_loss = {
            proc_name: (
                float(solution.loss_probability[station_names.index(f"proc:{proc_name}")])
                if solution.loss_probability is not None
                else 0.0
            )
            for proc_name in model.processors
            if model.processors[proc_name].queue_capacity is not None
        }
        return LqnSolution(
            response_ms=response,
            throughput_req_per_s=throughput,
            processor_utilisation=processor_util,
            residence_ms=residence,
            task_concurrency=task_concurrency,
            iterations=solution.iterations,
            solve_time_s=elapsed_s,
            converged=True,
            final_residual_ms=residual,
            loss_probability=loss_probability,
            station_loss_probability=station_loss,
        )
