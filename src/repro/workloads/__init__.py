"""Trace-driven workload characterization: ETL, fitting, scenarios, validation.

The paper fixes its workload by fiat — every client thinks exp(7 s) and
the buy share is a constant knob.  This package closes the loop in the
other direction: it *measures* workloads from traces and compiles the
measurements back into executable load.  The pipeline has four stages:

1. **ETL** (:mod:`~repro.workloads.etl`) — normalize CSV arrival traces,
   JSONL span logs and generic timestamped logs into one
   :class:`~repro.workloads.records.RecordSet`;
2. **fitting** (:mod:`~repro.workloads.fitting`,
   :mod:`~repro.workloads.diagnostics`) — closed-form MLE over
   exponential / lognormal / Pareto / hyperexponential families plus an
   empirical fallback, each fit carrying KS/AD/CV²/Q-Q diagnostics and
   an AIC rank;
3. **scenarios** (:mod:`~repro.workloads.scenario`,
   :mod:`~repro.workloads.modulators`,
   :mod:`~repro.workloads.backends`) — a declarative
   :class:`~repro.workloads.scenario.ScenarioSpec` composes a fitted (or
   parametric) think-time distribution with diurnal curves, flash
   crowds, ramps and a buy-mix schedule, and compiles to one
   deterministic trace that *both* the discrete-event simulator and the
   prediction-service load driver replay;
4. **validation** (:mod:`~repro.workloads.validation`) — regenerate a
   trace from its own fitted model and compare arrival rate, think-time
   moments and request mix within declared tolerances.

``python -m repro.workloads`` exposes fit / generate / validate on the
command line; the ``workloads`` experiment publishes the whole loop as a
reproducible artefact.  All sampling flows through
:func:`~repro.util.rng.spawn_rng` named streams.
"""

from repro.workloads.backends import (
    ScenarioServiceDriver,
    ScenarioServiceReport,
    ScenarioSimulationSummary,
    TraceReplaySource,
    run_scenario_simulation,
)
from repro.workloads.diagnostics import (
    ExponentialityVerdict,
    GoodnessOfFit,
    diagnose,
    exponentiality,
)
from repro.workloads.dists import (
    DistributionSpec,
    empirical_spec,
    exponential_spec,
    hyperexponential_spec,
    lognormal_spec,
    pareto_spec,
)
from repro.workloads.etl import (
    LogFormat,
    load_records_csv,
    load_records_jsonl,
    load_records_log,
    load_trace_csv,
    parse_log_lines,
    records_from_events,
    save_trace_csv,
)
from repro.workloads.fitting import (
    DistributionFit,
    best_fit,
    discriminate_tail,
    fit_all,
    fit_empirical,
    fit_exponential,
    fit_hyperexponential,
    fit_lognormal,
    fit_pareto,
)
from repro.workloads.modulators import (
    DiurnalCurve,
    FlashCrowd,
    MixSchedule,
    Ramp,
    compose_factor,
)
from repro.workloads.records import (
    RecordSet,
    RequestRecord,
    TraceStatistics,
    classify_request_type,
)
from repro.workloads.scenario import (
    ScenarioSpec,
    canonical_spec,
    generate_entries,
    generate_records,
    generate_trace,
)
from repro.workloads.validation import (
    CheckResult,
    Tolerances,
    ValidationReport,
    fit_scenario_from_records,
    validate_roundtrip,
)

__all__ = [
    # records
    "RequestRecord",
    "RecordSet",
    "TraceStatistics",
    "classify_request_type",
    # ETL
    "save_trace_csv",
    "load_trace_csv",
    "load_records_csv",
    "records_from_events",
    "load_records_jsonl",
    "LogFormat",
    "parse_log_lines",
    "load_records_log",
    # distributions
    "DistributionSpec",
    "exponential_spec",
    "lognormal_spec",
    "pareto_spec",
    "hyperexponential_spec",
    "empirical_spec",
    # diagnostics
    "GoodnessOfFit",
    "ExponentialityVerdict",
    "diagnose",
    "exponentiality",
    # fitting
    "DistributionFit",
    "fit_exponential",
    "fit_lognormal",
    "fit_pareto",
    "fit_hyperexponential",
    "fit_empirical",
    "fit_all",
    "best_fit",
    "discriminate_tail",
    # modulators
    "DiurnalCurve",
    "FlashCrowd",
    "Ramp",
    "MixSchedule",
    "compose_factor",
    # scenarios
    "ScenarioSpec",
    "generate_trace",
    "generate_entries",
    "generate_records",
    "canonical_spec",
    # backends
    "TraceReplaySource",
    "ScenarioSimulationSummary",
    "run_scenario_simulation",
    "ScenarioServiceReport",
    "ScenarioServiceDriver",
    # validation
    "Tolerances",
    "CheckResult",
    "ValidationReport",
    "fit_scenario_from_records",
    "validate_roundtrip",
]
