"""Shard execution backends: where a routed request actually runs.

The router speaks one small protocol — ``request``/``ping``/
``snapshot``/``stop`` — and two implementations provide it:

* :class:`InlineShardBackend` (here): every shard is a full
  :class:`~repro.service.service.PredictionService` instance in *this*
  process.  This is the deterministic path: driven single-threaded on a
  :class:`~repro.util.clock.FakeClock` it is byte-reproducible, which
  is what the sharded chaos experiment and the CI determinism gate run.
* :class:`~repro.service.shard.worker.ProcessShardBackend`: one worker
  *process* per shard (the GIL-escape topology), same protocol over
  pipes.

Chaos integration: every inline request consults the per-shard fault
site ``service.shard.<id>`` before touching the shard's service, so a
:class:`~repro.faults.plan.FaultPlan` can kill or brown out exactly one
shard (an ERROR spec raising :class:`ShardDownError` over a fake-clock
time window) and the router's health board sees precisely the failures
the plan scheduled.
"""

from __future__ import annotations

import threading
from typing import Callable, Protocol, runtime_checkable

from repro.faults.injector import INJECTOR
from repro.service.metrics import MetricsSnapshot
from repro.service.service import OPERATIONS, PredictionService
from repro.util.errors import ReproError
from repro.util.validation import require

__all__ = [
    "ShardError",
    "ShardDownError",
    "ShardRemoteError",
    "OPERATIONS",
    "ShardBackend",
    "InlineShardBackend",
]


class ShardError(ReproError):
    """Base class of failures the router treats as *shard* failures.

    Anything else escaping a shard (a ``ValidationError`` for a bogus
    request, say) is the caller's problem and propagates; only
    ``ShardError`` subclasses feed the health board and trigger
    rerouting to ring successors.
    """


class ShardDownError(ShardError):
    """The shard is dead (killed worker, injected outage)."""


class ShardRemoteError(ShardError):
    """The shard answered, but with a failure of its own serving stack."""


@runtime_checkable
class ShardBackend(Protocol):
    """What the router needs from any shard execution substrate."""

    def shard_ids(self) -> tuple[str, ...]:
        """The fixed set of shards this backend hosts, sorted."""
        ...

    def request(
        self, shard_id: str, op: str, server: str, operand: float, buy_fraction: float
    ) -> tuple[float, str]:
        """Serve one operation on one shard; returns ``(value, outcome)``.

        ``outcome`` is the shard service's own report of how it answered
        (``"l1_hit"``, ``"l2_hit"`` or ``"computed"``, see
        :meth:`~repro.service.service.PredictionService.serve`).  Raises
        a :class:`ShardError` subclass when the *shard* failed.
        """
        ...

    def ping(self, shard_id: str) -> bool:
        """Heartbeat: True iff the shard is alive and answering."""
        ...

    def snapshot(self, shard_id: str) -> MetricsSnapshot:
        """The shard's mergeable metrics snapshot."""
        ...

    def stop(self) -> None:
        """Shut every shard down (idempotent)."""
        ...


class InlineShardBackend:
    """N full serving stacks in this process, one per shard.

    ``factory(shard_id)`` builds each shard's
    :class:`~repro.service.service.PredictionService` (the caller wires
    the shared L2 and clock into it); the backend owns their lifecycle.
    """

    def __init__(
        self,
        shard_ids: tuple[str, ...],
        factory: Callable[[str], PredictionService],
    ):
        require(len(shard_ids) > 0, "need at least one shard")
        require(len(set(shard_ids)) == len(shard_ids), "shard ids must be unique")
        self._ids = tuple(sorted(shard_ids))
        self._services: dict[str, PredictionService] = {
            shard: factory(shard) for shard in self._ids
        }
        self._lock = threading.Lock()
        self._down: set[str] = set()

    def shard_ids(self) -> tuple[str, ...]:
        """The hosted shards, sorted."""
        return self._ids

    def service(self, shard_id: str) -> PredictionService:
        """The named shard's serving stack (tests and reports peek here)."""
        return self._services[shard_id]

    # -- lifecycle / chaos hooks ----------------------------------------------

    def kill(self, shard_id: str) -> None:
        """Mark ``shard_id`` dead: requests and pings fail until revived."""
        with self._lock:
            self._down.add(shard_id)

    def revive(self, shard_id: str) -> None:
        """Bring a killed shard back (its caches survive the outage)."""
        with self._lock:
            self._down.discard(shard_id)

    def _check_up(self, shard_id: str) -> None:
        with self._lock:
            down = shard_id in self._down
        if down:
            raise ShardDownError(f"shard {shard_id!r} is down")

    # -- the backend protocol --------------------------------------------------

    def request(
        self, shard_id: str, op: str, server: str, operand: float, buy_fraction: float
    ) -> tuple[float, str]:
        """Serve one operation inline; returns ``(value, outcome)``."""
        require(op in OPERATIONS, f"unknown operation {op!r}")
        self._check_up(shard_id)
        # Per-shard chaos site: an armed ERROR spec here is an injected
        # outage/brownout of exactly this shard; consulted outside every
        # lock (the injector's session lock must never nest inside ours).
        if INJECTOR.armed:
            INJECTOR.fire(f"service.shard.{shard_id}")
        value, outcome = self._services[shard_id].serve(op, server, operand, buy_fraction)
        return float(value), outcome

    def ping(self, shard_id: str) -> bool:
        """Heartbeat: False when killed, True otherwise."""
        with self._lock:
            return shard_id not in self._down

    def snapshot(self, shard_id: str) -> MetricsSnapshot:
        """The shard service's mergeable snapshot."""
        return self._services[shard_id].snapshot()

    def stop(self) -> None:
        """Shut every shard's worker pool down (idempotent)."""
        for service in self._services.values():
            service.shutdown()
