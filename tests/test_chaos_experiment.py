"""Acceptance tests for the chaos experiment: determinism, the error-rate
ceiling, and breaker recovery."""

import json

import pytest

from repro.experiments.chaos import TICK_S, default_fault_plan, run
from repro.experiments.runner import main
from repro.faults import INJECTOR


@pytest.fixture(scope="module")
def chaos_results():
    """Two complete fast chaos runs (the determinism comparison pair)."""
    return run(fast=True), run(fast=True)


def test_chaos_run_is_bit_identical_under_fixed_seed(chaos_results):
    first, second = chaos_results
    dump = lambda r: json.dumps(r.data, sort_keys=True)  # noqa: E731
    assert dump(first) == dump(second)
    assert first.rendered == second.rendered


def test_chaos_error_rate_within_documented_ceiling(chaos_results):
    data = chaos_results[0].data
    assert data["within_ceiling"]
    assert data["error_rate"] <= data["error_rate_ceiling"]
    # With the historical fallback registered nothing may fail outright.
    assert data["errors"] == 0


def test_chaos_breaker_opens_and_recovers(chaos_results):
    breaker = chaos_results[0].data["breaker"]
    assert breaker["opened"]
    assert breaker["recovered"]
    assert breaker["time_to_recover_s"] > 0.0
    assert breaker["transitions"][0][1:] == ["closed", "open"]
    assert breaker["transitions"][-1][2] == "closed"
    # The brownout window ends at half the run; recovery happens after it.
    assert breaker["reclosed_at_s"] >= chaos_results[0].data["fault_window_s"][1]


def test_chaos_faults_were_actually_injected(chaos_results):
    data = chaos_results[0].data
    assert data["injected"]["solver-errors"] > 0
    assert data["injected"]["cache-expiry"] > 0
    assert data["degraded"]["total"] > 0
    # The trip is consulted on would-be hits only, so every fired trip
    # forcibly expired exactly one present entry (the cache has no TTL
    # here, so no other expirations occur).
    assert data["service"]["cache_expirations"] == data["injected"]["cache-expiry"]


def test_chaos_leaves_the_global_injector_disarmed(chaos_results):
    assert not INJECTOR.armed


def test_default_fault_plan_shape():
    plan = default_fault_plan((1.0, 2.0), seed=5)
    assert plan.error_rate_ceiling == 0.0
    assert set(plan.sites()) == {
        "lqn.solve",
        "service.cache.expire",
        "service.pool",
    }
    for spec in plan.specs:
        assert spec.time_window == (1.0, 2.0)


def test_chaos_registered_in_experiment_runner():
    from repro.experiments.runner import EXPERIMENTS

    assert EXPERIMENTS["chaos"] == "repro.experiments.chaos"


def test_chaos_cli_writes_sorted_json(tmp_path, capsys):
    assert main(["chaos", "--fast", "--json", str(tmp_path)]) == 0
    out = tmp_path / "chaos.json"
    data = json.loads(out.read_text())
    assert data["within_ceiling"] is True
    assert out.read_text() == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert "Chaos run" in capsys.readouterr().out
    assert TICK_S == data["tick_s"]
