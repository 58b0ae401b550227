"""The correctness ledger: every check the run makes, and every miss.

A check compares the program's output with something independent of the
code that produced it (a conservation law, a second computation, an
inversion).  One miss makes the whole run incorrect.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["Checks"]

#: How many miss messages a run keeps for its report.
_KEPT_MISSES = 20


@dataclass
class Checks:
    """Counts of checks made and missed, per kind."""

    made: dict[str, int] = field(default_factory=dict)
    missed: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def expect(self, ok: bool, kind: str, detail: str) -> bool:
        """Record one check of ``kind``; ``detail`` describes a miss."""
        with self._lock:
            self.made[kind] = self.made.get(kind, 0) + 1
            if not ok:
                self.missed[kind] = self.missed.get(kind, 0) + 1
                if len(self.messages) < _KEPT_MISSES:
                    self.messages.append(f"{kind}: {detail}")
        return ok

    @property
    def correct(self) -> bool:
        """True when at least one check ran and none missed."""
        return bool(self.made) and not self.missed

    def summary(self) -> dict:
        """A JSON-ready view of the ledger."""
        return {
            "made": dict(sorted(self.made.items())),
            "missed": dict(sorted(self.missed.items())),
            "messages": list(self.messages),
        }
