"""The workloads experiment: the characterization loop as one artefact.

The paper fixes its workload at exp(7 s) think times and a constant buy
knob; this experiment runs the :mod:`repro.workloads` pipeline end to
end on a workload the paper could not express — lognormal think times
under a diurnal swing, a mid-run flash crowd and a drifting buy mix —
and publishes every stage as one reproducible payload:

1. **compile** the canonical :class:`~repro.workloads.scenario.ScenarioSpec`
   to a single deterministic arrival trace;
2. **characterize** it — distribution fits ranked by AIC with KS/AD/CV²
   diagnostics, plus the exponentiality screen (which must *reject* the
   exponential here: the scenario exists to break that assumption);
3. **validate** the round trip — refit the trace, regenerate from the
   fitted model, and compare arrival rate, think-time moments and mix
   within declared tolerances;
4. **replay the identical compiled entries through both backends** —
   the discrete-event testbed and the prediction service (historical
   predictor on a fake clock) — demonstrating single-spec/two-backends:
   same arrivals, same mix, same seed, two consumers.

Everything is seeded and clocked deterministically, so two runs produce
byte-identical JSON; the CI ``workloads`` job diffs them and the golden
test pins the fast-mode payload.

Run through the experiment runner for the CI-facing JSON report
(written to ``DIR/workloads.json``)::

    python -m repro.experiments.runner workloads --fast --json DIR
"""

from __future__ import annotations

import math

from repro.experiments.scenario import SEED, ExperimentResult, build_historical_model
from repro.prediction.interface import HistoricalPredictor
from repro.servers.catalogue import APP_SERV_F
from repro.service.service import PredictionService, ServiceConfig
from repro.util.clock import FakeClock
from repro.util.tables import format_kv, format_table
from repro.workloads.backends import ScenarioServiceDriver, run_scenario_simulation
from repro.workloads.fitting import discriminate_tail, fit_all
from repro.workloads.records import RecordSet
from repro.workloads.scenario import canonical_spec, generate_entries
from repro.workloads.validation import validate_roundtrip

__all__ = ["run"]


def _finite(value):
    """Replace non-finite floats with None, recursively (JSON/golden-safe)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def run(fast: bool = False) -> ExperimentResult:
    """Run the characterization loop and replay both backends."""
    spec = canonical_spec(fast=fast)
    entries = generate_entries(spec, seed=SEED)  # compiled once, consumed twice
    records = RecordSet(entries)
    stats = records.statistics()

    thinks = records.think_times_ms()
    fits = fit_all(thinks)
    tail_class, expo = discriminate_tail(thinks)
    validation = validate_roundtrip(records, seed=SEED + 1)

    simulation = run_scenario_simulation(spec, seed=SEED, entries=entries)

    clock = FakeClock()
    with PredictionService(
        HistoricalPredictor(build_historical_model(fast=fast)),
        config=ServiceConfig(),
        clock=clock,
    ) as service:
        serving = ScenarioServiceDriver(
            service,
            spec,
            seed=SEED,
            server=APP_SERV_F.name,
            clock=clock,
            entries=entries,
        ).run()

    data = _finite(
        {
            "seed": SEED,
            "scenario": spec.to_dict(),
            "n_entries": len(entries),
            "source_statistics": stats.to_dict(),
            "exponentiality": expo.to_dict(),
            "tail_class": tail_class,
            "fits": [fit.to_dict() for fit in fits],
            "validation": validation.to_dict(),
            "simulation": simulation.to_dict(),
            "serving": serving.to_dict(),
            "backends_consumed_identical_entries": (
                simulation.requests_injected == serving.requests == len(entries)
            ),
        }
    )

    fits_table = format_table(
        ["family", "AIC", "KS D", "KS p", "AD A²", "CV²", "verdict"],
        [
            (
                fit.spec.kind,
                "n/a" if fit.spec.kind == "empirical" else f"{fit.aic:.1f}",
                f"{fit.gof.ks_stat:.4f}",
                f"{fit.gof.ks_p:.4f}",
                f"{fit.gof.ad_stat:.2f}",
                f"{fit.gof.cv2:.3f}",
                fit.gof.verdict,
            )
            for fit in fits
        ],
        title="Think-time distribution fits (AIC-ranked)",
    )
    validation_table = format_table(
        ["statistic", "source", "regenerated", "tolerance", "result"],
        [
            (
                check.name,
                f"{check.source:.4f}",
                f"{check.regenerated:.4f}",
                f"{check.tolerance:.3f}{' rel' if check.relative else ' abs'}",
                "pass" if check.passed else "FAIL",
            )
            for check in validation.checks
        ],
        title="Round-trip validation (fit -> regenerate -> compare)",
    )
    summary = format_kv(
        {
            "scenario": spec.name,
            "compiled requests": len(entries),
            "clients / duration (s)": f"{spec.n_clients} / {spec.duration_s:.0f}",
            "think CV²": f"{stats.think_cv2:.3f}",
            "exponential think times?": f"{expo.is_exponential} ({expo.reason})",
            "tail classification": tail_class,
            "round-trip validation": "PASSED" if validation.passed else "FAILED",
            "simulator: completed / mean RT (ms)": (
                f"{simulation.requests_completed} / {simulation.mean_response_ms:.1f}"
            ),
            "service: requests / mean predicted MRT (ms)": (
                f"{serving.requests} / {serving.mean_predicted_mrt_ms:.1f}"
            ),
            "service: client range driven": f"{serving.min_clients}..{serving.max_clients}",
            "both backends consumed identical entries": data[
                "backends_consumed_identical_entries"
            ],
        },
        title="Workload characterization loop (single spec, two backends)",
    )

    return ExperimentResult(
        experiment_id="workloads",
        title="Workloads: trace-driven characterization, fit, validate, replay",
        rendered=summary + "\n\n" + fits_table + "\n\n" + validation_table,
        data=data,
    )
