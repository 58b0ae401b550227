"""Small shared helpers: seeded streams, percentiles and the machine record."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import sys

import numpy as np

__all__ = ["seeded_rng", "percentile", "resident_mb", "cpu_ticks", "machine"]


def seeded_rng(seed: int, label: str) -> np.random.Generator:
    """An independent generator for one named input stream of a run."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) of the samples; NaN when empty."""
    if len(samples) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def _peak_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def resident_mb(*, with_children: bool = False) -> float:
    """Peak resident memory (MB) of this process, plus its live children's.

    Each process's own high-water mark is summed, so pages a forked worker
    still shares with its parent count once per process.
    """
    kb = _peak_kb("self")
    if kb == 0:  # no /proc: fall back to the portable counter
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += sum(_peak_kb(child.pid) for child in multiprocessing.active_children())
    return kb / 1024.0


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, total)`` CPU ticks of the machine so far (0, 0 without /proc).

    On a virtual machine, ticks stolen by the host during a run slow every
    figure of that run; the report records their share.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    """What the figures were measured on."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
