"""Chaos coverage for the sharded cluster (satellite of PR 8).

Drives :func:`repro.experiments.sharded_serving.run_chaos` — a
:mod:`repro.faults` plan that takes one shard down for a fake-clock
window mid-run — twice, and asserts the two recovery reports are
**byte-identical** after JSON canonicalization, on top of the three
behavioural properties: the victim is ejected (breaker opens), the
survivor absorbs its keys (rebalance), and the victim recovers and
serves again after the window.

A stub primary stands in for the calibrated predictors so the test is
fast and hermetic; the experiment itself wires the same machinery to
the paper-calibrated historical model.
"""

from __future__ import annotations

import json

from repro.experiments.sharded_serving import TICK_S, run_chaos
from repro.service.shard.testing import DeterministicStubPredictor
from repro.util.floats import quantize_to_tick


def _chaos_report() -> dict:
    return run_chaos(400, DeterministicStubPredictor())


def test_chaos_report_documents_ejection_rebalance_recovery() -> None:
    """The three acceptance properties of the shard-outage plan hold."""
    report = _chaos_report()
    assert report["errors"] == 0  # rerouting answered every request
    assert report["within_ceiling"]
    breaker = report["breaker"]
    assert breaker["opened"], "the victim's breaker never opened (no ejection)"
    assert breaker["recovered"], "the victim's breaker never re-closed"
    assert breaker["first_opened_at_s"] >= report["fault_window_s"][0]
    assert breaker["reclosed_at_s"] > report["fault_window_s"][0]
    assert report["rebalanced"], "the survivor did not absorb the victim's keys"
    victim = report["victim"]
    assert report["served_during_window"][victim] <= 3  # only pre-ejection leaks
    assert report["victim_served_after_recovery"]
    assert report["ejected_at_end"] == []
    assert report["injected"].get("shard-down", 0) > 0


def test_chaos_report_is_byte_identical_across_runs() -> None:
    """Two runs on fresh clusters and fresh fake clocks byte-match."""
    first = json.dumps(_chaos_report(), sort_keys=True)
    second = json.dumps(_chaos_report(), sort_keys=True)
    assert first == second


def test_chaos_report_timestamps_sit_on_the_tick_grid() -> None:
    """Serialized virtual-time instants carry no float-noise tails.

    Regression: breaker timestamps used to serialize as the fake
    clock's raw tick sums (``25.200000000000223``), churning every
    regeneration of the published report.
    """
    report = _chaos_report()
    breaker = report["breaker"]
    stamps = [at_s for at_s, _old, _new in breaker["transitions"]]
    stamps += [breaker["first_opened_at_s"], breaker["reclosed_at_s"]]
    stamps += [breaker["time_to_recover_s"], *report["fault_window_s"]]
    for stamp in stamps:
        assert stamp == quantize_to_tick(stamp, TICK_S)
        # The JSON representation is the short decimal, not a noisy tail.
        assert len(json.dumps(stamp)) <= len(f"{stamp:.2f}")


def test_quantize_to_tick_recovers_exact_tick_multiples() -> None:
    """Accumulated tick sums snap back to the value the clock meant."""
    total = 0.0
    for _ in range(504):
        total += 0.05
    assert total != 25.2  # the raw sum carries noise
    assert quantize_to_tick(total, 0.05) == 25.2
    assert quantize_to_tick(75.09999999999788 - 25.200000000000223, 0.05) == 49.9
    assert quantize_to_tick(25.2, 0.05) == 25.2  # idempotent on clean values

