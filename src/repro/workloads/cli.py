"""``python -m repro.workloads`` — fit, generate and validate workloads.

Three subcommands expose the pipeline end-to-end:

* ``fit TRACE`` — ingest a trace (CSV arrival trace or JSONL span log,
  chosen by extension), extract think times, rank every distribution
  family with its goodness-of-fit verdict and print the exponentiality
  diagnosis; ``--json`` dumps the ranked fits for tooling.
* ``generate --out TRACE.csv`` — compile a scenario (``--spec FILE`` or
  the built-in canonical scenario) to a CSV arrival trace replayable by
  both backends.
* ``validate TRACE`` — run the round-trip battery and exit 0/1 on its
  verdict; ``--json`` writes the full report, byte-identical per seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.util.errors import ValidationError
from repro.util.tables import format_kv, format_table
from repro.workloads.etl import load_records_csv, load_records_jsonl, save_trace_csv
from repro.workloads.fitting import fit_all
from repro.workloads.diagnostics import exponentiality
from repro.workloads.records import RecordSet
from repro.workloads.scenario import ScenarioSpec, canonical_spec, generate_entries
from repro.workloads.validation import Tolerances, validate_roundtrip

__all__ = ["main"]


def _load_records(path: str) -> RecordSet:
    """Ingest a trace file, dispatching on extension (.jsonl vs CSV)."""
    if path.endswith(".jsonl"):
        return load_records_jsonl(path)
    return load_records_csv(path)


def _cmd_fit(args: argparse.Namespace) -> int:
    records = _load_records(args.trace)
    stats = records.statistics()
    thinks = records.think_times_ms()
    if thinks.size < 2:
        print("trace has fewer than two think-time samples; nothing to fit")
        return 1
    fits = fit_all(thinks)
    verdict = exponentiality(thinks)
    print(
        format_kv(
            {
                "requests": stats.n_requests,
                "clients": stats.n_clients,
                "duration (s)": f"{stats.duration_s:.1f}",
                "arrival rate (req/s)": f"{stats.arrival_rate_req_per_s:.3f}",
                "think mean (ms)": f"{stats.think_mean_ms:.1f}",
                "think CV²": f"{stats.think_cv2:.3f}",
                "exponential?": f"{verdict.is_exponential} ({verdict.reason})",
            },
            title=f"Workload characterization: {args.trace}",
        )
    )
    print()
    rows = []
    for fit in fits:
        rows.append(
            (
                fit.spec.kind,
                "n/a" if fit.spec.kind == "empirical" else f"{fit.aic:.1f}",
                f"{fit.gof.ks_stat:.4f}",
                f"{fit.gof.ks_p:.4f}",
                f"{fit.gof.ad_stat:.2f}",
                fit.gof.verdict,
            )
        )
    print(
        format_table(
            ["family", "AIC", "KS D", "KS p", "AD A²", "verdict"],
            rows,
            title="Distribution fits (think time), AIC-ranked",
        )
    )
    if args.json:
        payload = {
            "statistics": stats.to_dict(),
            "exponentiality": verdict.to_dict(),
            "fits": [fit.to_dict() for fit in fits],
        }
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        print(f"\nfit report written to {args.json}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = (
        ScenarioSpec.load_json(args.spec) if args.spec else canonical_spec(fast=True)
    )
    entries = generate_entries(spec, seed=args.seed)
    save_trace_csv(entries, args.out)
    print(
        f"scenario '{spec.name}': {len(entries)} requests over "
        f"{spec.duration_s:.0f}s written to {args.out}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    records = _load_records(args.trace)
    report = validate_roundtrip(records, seed=args.seed, tolerances=Tolerances())
    rows = [
        (
            check.name,
            f"{check.source:.4f}",
            f"{check.regenerated:.4f}",
            f"{check.tolerance:.3f}{' (rel)' if check.relative else ' (abs)'}",
            "pass" if check.passed else "FAIL",
        )
        for check in report.checks
    ]
    print(
        format_table(
            ["statistic", "source", "regenerated", "tolerance", "result"],
            rows,
            title=(
                f"Round-trip validation: fitted {report.think_fit.spec.kind} "
                f"think times ({report.tail_class} tail), seed {args.seed}"
            ),
        )
    )
    print(f"\nvalidation {'PASSED' if report.passed else 'FAILED'}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"validation report written to {args.json}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for the workload-characterization pipeline."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Trace-driven workload characterization: fit, generate, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="characterize a trace and rank distribution fits")
    fit.add_argument("trace", help="CSV arrival trace or JSONL span log")
    fit.add_argument("--json", metavar="PATH", help="write the fit report as JSON")

    gen = sub.add_parser("generate", help="compile a scenario spec to a CSV trace")
    gen.add_argument("--spec", metavar="PATH", help="scenario JSON (default: canonical)")
    gen.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
    gen.add_argument("--out", required=True, metavar="PATH", help="output trace CSV")

    val = sub.add_parser("validate", help="run the round-trip validation battery")
    val.add_argument("trace", help="CSV arrival trace or JSONL span log")
    val.add_argument("--seed", type=int, default=0, help="regeneration seed (default 0)")
    val.add_argument("--json", metavar="PATH", help="write the validation report as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_validate(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
