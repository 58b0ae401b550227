"""Per-shard health: request outcomes and heartbeats feeding circuit breakers.

A shard can fail two ways the router must distinguish from a slow
answer: its requests error (process died, injected brownout), or it
stops answering heartbeat pings.  Both feed the *existing*
:class:`~repro.service.breaker.CircuitBreaker` — one per shard — so
shard ejection inherits the breaker's whole state machine for free:

* ``failure_threshold`` consecutive request/heartbeat failures open the
  shard's breaker, which **ejects it from the ring** (the router skips
  ejected shards, so its keys rehash clockwise onto the survivors);
* after ``recovery_time_s`` the breaker admits a single probe request —
  the router sends exactly that request to the sick shard, and on
  success the breaker re-closes and the shard **rejoins the ring** with
  its old token positions (its keys come straight back, L1 intact);
* the breaker's EWMA health score is the per-shard leading indicator
  the merged cluster report publishes.

A shard that is alive but not answering is caught by its requests'
timeouts and by failed pings; there is no separate heartbeat-age check.

Everything is clock-injected, so the chaos experiment drives ejection
and recovery on a shared :class:`~repro.util.clock.FakeClock` and two
runs produce byte-identical transition logs.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.service.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.validation import require

__all__ = ["HealthBoard"]


class HealthBoard:
    """Health accounting for a fixed set of shards.

    Thread-safe: the board holds no state of its own beyond the fixed
    shard table; each shard's breaker carries its own lock.
    """

    def __init__(
        self,
        shard_ids: Iterable[str],
        breaker: BreakerConfig,
        *,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self._breakers: dict[str, CircuitBreaker] = {
            shard: CircuitBreaker(breaker, clock=clock) for shard in shard_ids
        }
        require(len(self._breakers) > 0, "a health board needs at least one shard")

    def shard_ids(self) -> tuple[str, ...]:
        """The shards this board tracks, sorted."""
        return tuple(sorted(self._breakers))

    def breaker(self, shard: str) -> CircuitBreaker:
        """The named shard's circuit breaker (for transition logs)."""
        return self._breakers[shard]

    # -- the admit/record protocol (mirrors CircuitBreaker's) -----------------

    def admit(self, shard: str) -> bool:
        """May the router send a request to ``shard`` right now?

        Delegates to the shard's breaker: CLOSED always admits, OPEN
        admits nothing until the recovery window, then exactly the
        configured probe budget.  An admitted call MUST be settled with
        :meth:`record_success` / :meth:`record_failure`.
        """
        return self._breakers[shard].allow()

    def record_success(self, shard: str) -> None:
        """Settle one admitted request as a success."""
        self._breakers[shard].record_success()

    def record_failure(self, shard: str) -> None:
        """Settle one admitted request as a failure."""
        self._breakers[shard].record_failure()

    # -- heartbeats ------------------------------------------------------------

    def poll(self, backend: Any) -> dict[str, bool]:
        """Ping every shard through ``backend`` and feed the breakers.

        Returns ``{shard: ping_ok}``.  A successful ping records nothing
        (it is not a breaker success — pings must not mask request
        failures); a failed ping is recorded as a breaker failure, so a
        shard that dies silently between requests still gets ejected
        after ``failure_threshold`` polls.
        """
        results: dict[str, bool] = {}
        for shard in self.shard_ids():
            try:
                ok = bool(backend.ping(shard))
            except Exception:
                ok = False
            if not ok:
                self._breakers[shard].record_failure()
            results[shard] = ok
        return results

    # -- cluster views ---------------------------------------------------------

    def ejected(self) -> frozenset[str]:
        """Shards currently off the ring (breaker OPEN).

        A shard whose breaker is due a recovery probe is *not* listed —
        the router must route its next owned request to it so
        :meth:`admit` can grant the probe; listing it here would starve
        recovery forever.
        """
        return frozenset(
            shard
            for shard, breaker in self._breakers.items()
            if breaker.state is BreakerState.OPEN and not breaker.recovery_due
        )

    def snapshot(self) -> dict[str, dict[str, float | str]]:
        """Per-shard ``{state, health}`` for reports."""
        return {
            shard: {"state": breaker.state.value, "health": breaker.health_score}
            for shard, breaker in sorted(self._breakers.items())
        }
