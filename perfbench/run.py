"""Run one benchmark workload and print its result as the last line.

From the repository root::

    python3 perfbench/run.py --workload predict --seed 1 --seconds 10 --trace 0

The benchmark imports the program from ``src/`` next to this directory and
from nowhere else; without it the run fails before printing a result.  The
report (machine, checks, sample counts, input property shares and, with
``--trace 1``, every span) is printed as the line before the result and
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src/`` first and make sure that is what loads."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    loaded = Path(repro.__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"repro loaded from {loaded}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    """Parse, run, report; exit 0 only when every check passed."""
    args = _parse(argv)
    # The run never touches the experiments' on-disk memo.
    os.environ["REPRO_NO_DISK_CACHE"] = "1"
    # A terminated run still unwinds, so its shard workers are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_program()
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"result": result, "report": report}, indent=1) + "\n")
    report.pop("spans", None)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
