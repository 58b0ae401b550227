"""The benchmark's own tests: inputs, metric definitions, failure counting,
and that a wrong answer trips each correctness check.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.resource_manager.allocation import Allocation
from repro.servers.catalogue import APP_SERV_S
from repro.simulation.system import SimulatedDeployment, SimulationConfig
from repro.workload.trade import browse_class

from perfbench import predict
from perfbench.checks import Checks
from perfbench.predict import (
    PredictPhase,
    _check_allocation,
    _check_inversion,
    _expect_equal,
    _least_per_query,
    make_predict_plan,
)
from perfbench.serve import (
    CLIENT_THREADS,
    LATENCY_LIMIT_S,
    MIXES,
    StepResult,
    check_answers,
    key_universe,
    make_schedule,
)
from perfbench.spans import SpanRecorder, self_times
from perfbench.testbed import SimulationLedger, CalibrationPlan
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("mix", MIXES)
def test_same_seed_generates_the_same_inputs(mix):
    assert make_predict_plan(7, 300, 5) == make_predict_plan(7, 300, 5)
    first, again = make_schedule(7, 600.0, 2.0, mix=mix), make_schedule(7, 600.0, 2.0, mix=mix)
    assert first.keys == again.keys and first.warm == again.warm
    assert np.array_equal(first.offsets, again.offsets)
    assert CalibrationPlan(7).config("x") == CalibrationPlan(7).config("x")


@pytest.mark.parametrize("mix", MIXES)
def test_different_seeds_generate_different_inputs(mix):
    assert make_predict_plan(7, 300, 5).points != make_predict_plan(8, 300, 5).points
    assert make_schedule(7, 600.0, 2.0, mix=mix).keys != make_schedule(8, 600.0, 2.0, mix=mix).keys
    assert CalibrationPlan(7).sub_seed("x") != CalibrationPlan(8).sub_seed("x")


def test_the_two_mixes_differ_in_repeats_and_capacity_queries():
    distinct = make_schedule(7, 600.0, 2.0, mix="distinct")
    assert len(set(distinct.keys)) == len(distinct.keys)
    assert not set(distinct.keys) & set(distinct.warm)
    assert distinct.repeated_share == 0.0 and distinct.capacity_share == 0.0
    zipf = make_schedule(7, 600.0, 2.0, mix="zipf")
    assert zipf.repeated_share > 0.9 and 0.0 < zipf.capacity_share < 0.1
    assert {WORKLOADS[name].mix for name in WORKLOADS} == set(MIXES)


def test_serve_keys_sit_on_the_cache_grid():
    points, capacity = key_universe()
    for key in points + capacity:
        assert key.operand == round(key.operand)
        assert round(key.buy / 0.01) * 0.01 == pytest.approx(key.buy, abs=1e-12)


# -- metric definitions ----------------------------------------------------------


def test_every_metric_has_a_unit_and_a_direction():
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert entry["unit"] and entry["better"] in ("lower", "higher")
    end_to_end = {e["name"]: (e["unit"], e["better"]) for e in BENCHMARK["end_to_end"]}
    assert end_to_end == END_TO_END
    assert {e["name"]: e["unit"] for e in BENCHMARK["per_layer"]} == PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert end_to_end["setup_s"] == ("s", "lower")


# -- failures --------------------------------------------------------------------


def _step(latencies_s, failed: int, lag_s=None) -> StepResult:
    latency = np.r_[np.asarray(latencies_s, dtype=float), np.full(failed, np.inf)]
    return StepResult(
        rate=100.0,
        latency_s=latency,
        lag_s=np.zeros(latency.size) if lag_s is None else np.asarray(lag_s),
        outcomes={},
        sent=latency.size,
        succeeded=latency.size - failed,
        failed=failed,
        settle_sent=0,
        settle_failed=0,
        degraded=0,
        wall_s=1.0,
        startup_s=0.1,
        counters={},
        worker_latency=None,
        served={},
        peak_rss_mb=1.0,
    )


def test_failed_requests_count_against_attempted_as_latency_misses():
    fast = [0.001] * 980
    assert _step(fast, failed=0).passed
    step = _step(fast, failed=20)
    assert step.sent == 1000 and step.succeeded == 980
    assert step.p99_s == np.inf and not step.passed


def test_a_late_generator_fails_the_step():
    late = np.r_[np.zeros(900), np.full(100, 2 * LATENCY_LIMIT_S)]
    assert not _step([0.001] * 1000, failed=0, lag_s=late).passed


def test_a_step_is_client_bound_only_when_late_with_idle_threads():
    late = np.r_[np.zeros(900), np.full(100, 2 * LATENCY_LIMIT_S)]
    idle = _step([0.001] * 1000, failed=0, lag_s=late)
    assert idle.client_bound
    busy = _step([0.001] * 1000, failed=0, lag_s=late)
    busy.outcomes = {"computed": [0.9 * CLIENT_THREADS / 1000] * 1000}
    assert busy.client_busy == pytest.approx(0.9) and not busy.client_bound
    assert not _step([0.001] * 1000, failed=0).client_bound


def test_each_query_is_timed_as_the_least_of_its_asks():
    assert _least_per_query({1: [2.0, 5.0], 0: [3.0, 1.0, 4.0]}) == [1.0, 2.0]


def test_timing_passes_keep_each_points_least_time_and_check_repeats(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(predict, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    class Stub:
        costs = iter([3e-6, 5e-6, 2e-6, 4e-6, 9e-6, 9e-6])
        answer = 1.0

        def predict_mrt_ms(self, server, n, *, buy_fraction=0.0):
            clock[0] += next(self.costs)
            return self.answer

    checks = Checks()
    phase = PredictPhase(
        make_predict_plan(7, 2, 1), lqn_points=2, spans=SpanRecorder(False), checks=checks
    )
    stub = Stub()
    for _ in range(2):
        phase._points("historical", stub)
    assert phase.least["historical"] == pytest.approx([2e-6, 4e-6])
    assert checks.made["repeat"] == 1 and checks.correct
    stub.answer = 2.0
    phase._points("historical", stub)
    assert phase.least["historical"] == pytest.approx([2e-6, 4e-6])
    assert checks.missed["repeat"] == 1


# -- correctness checks trip on wrong answers -------------------------------------


def test_little_check_trips_on_a_doubled_throughput():
    checks = Checks()
    ledger = SimulationLedger(checks, SpanRecorder(False))
    sc = browse_class()
    workload = {sc: 700}
    steady = 700 / (sc.think_time_ms + 100.0) * 1000.0  # req/s with R = 100 ms
    for throughput in (steady, 2.0 * steady):
        result = SimpleNamespace(
            per_class_throughput={sc.name: throughput}, per_class_mean_ms={sc.name: 100.0}
        )
        ledger._check_little("AppServF", workload, result)
    assert checks.made["little"] == 2 and checks.missed["little"] == 1


def test_open_runs_conserve_requests():
    checks = Checks()
    ledger = SimulationLedger(checks, SpanRecorder(False))
    deployment = SimulatedDeployment(
        placements={APP_SERV_S.name: (APP_SERV_S, {})},
        config=SimulationConfig(
            duration_s=2.0, warmup_s=0.0, seed=3, network_latency_ms=0.0, queue_capacity=60
        ),
        open_arrivals={APP_SERV_S.name: {browse_class(): 200.0}},
    )
    result = ledger.run_open(deployment)
    assert result.dropped_requests > 0
    assert checks.made["conservation"] >= 3 and checks.correct


def test_open_run_with_network_in_flight_is_refused():
    checks = Checks()
    ledger = SimulationLedger(checks, SpanRecorder(False))
    deployment = SimulatedDeployment(
        placements={APP_SERV_S.name: (APP_SERV_S, {})},
        config=SimulationConfig(duration_s=1.0, warmup_s=0.0, seed=3),
        open_arrivals={APP_SERV_S.name: {browse_class(): 50.0}},
    )
    ledger.run_open(deployment)
    assert not checks.correct


def test_lqn_check_trips_on_the_last_bit():
    checks = Checks()
    _expect_equal(12.5, 12.5, "AppServF", 100, 0.0, checks)
    _expect_equal(np.nextafter(12.5, 13.0), 12.5, "AppServF", 100, 0.0, checks)
    assert checks.made["lqn_bitwise"] == 2 and checks.missed["lqn_bitwise"] == 1


class _Linear:
    """Response time grows 1 ms per client; capacity is its inverse."""

    def __init__(self, off_by: int = 0):
        self.off_by = off_by

    def predict_mrt_ms(self, server, n, *, buy_fraction=0.0):
        return float(n)

    def max_clients(self, server, goal, *, buy_fraction=0.0):
        return int(goal) + self.off_by


def test_inversion_check_trips_when_capacity_is_off_by_one():
    goals = [("AppServF", 150.0, 0.1)]
    for off_by, missed in ((0, 0), (1, 1), (-1, 1)):
        checks = Checks()
        _check_inversion(_Linear(off_by), goals, checks, "stub")
        assert checks.missed.get("inversion", 0) == missed


def test_allocation_check_trips_on_lost_clients_and_missed_goals():
    from repro.experiments.scenario import rm_server_pool, rm_workload_for

    classes = rm_workload_for(50)
    pool = rm_server_pool()
    placed = {c.name: c.n_clients for c in classes}
    good = Allocation(per_server={"F0": placed})
    checks = Checks()
    _check_allocation(good, classes, pool, _Linear(), 1.0, checks)
    assert checks.correct

    lost = Allocation(per_server={"F0": {**placed, "buy": placed["buy"] - 1}})
    checks = Checks()
    _check_allocation(lost, classes, pool, _Linear(), 1.0, checks)
    assert checks.missed["allocate"] == 1

    crowded = Allocation(per_server={"F0": {c.name: 10 * c.n_clients for c in classes}})
    checks = Checks()
    _check_allocation(crowded, classes, pool, _Linear(), 10.0, checks)
    assert checks.missed["allocate"] >= 1


def test_serve_check_trips_on_an_answer_from_neither_method():
    points, _ = key_universe()
    keys = points[:3]
    references = {key: (float(i), 100.0 + i) for i, key in enumerate(keys)}.__getitem__
    checks = Checks()
    degraded = check_answers(keys, [0.0, 101.0, 7.0], ["l1_hit", "computed", "l1_hit"], references, checks)
    assert degraded == 1
    assert checks.made["serve"] == 3 and checks.missed["serve"] == 1


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = SpanRecorder(True)
    outer = spans.add("bench.x", 0.0, 10.0, parent=0)
    spans.add("lqn.solve", 1.0, 4.0, parent=outer)
    spans.add("lqn.solve", 3.0, 6.0, parent=outer)  # overlaps its sibling
    spans.add("service.shard.request", 7.0, 8.0, parent=outer)
    times = self_times(spans.spans)
    assert times == {"bench": 4.0, "lqn": 6.0, "service.shard": 1.0}


def test_a_disabled_recorder_keeps_nothing():
    spans = SpanRecorder(False)
    spans.add("lqn.solve", 0.0, 1.0)
    with spans.block("bench.x"):
        pass
    assert spans.spans == []
