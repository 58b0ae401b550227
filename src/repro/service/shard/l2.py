"""The cross-shard shared L2 prediction cache.

Sharding turns one big L1 into N private ones, which costs hit rate in
two places: a key whose shard was resharded away arrives at a shard
whose L1 has never seen it, and an expensive solve finished on shard A
is invisible to shard B even for the *same* grid cell (capacity
searches route probe keys across the whole ring).  The L2 is the shared
backstop for both: every computed value is published to one
cluster-wide store, and every L1 miss consults it before paying for a
solve.

Coherence is **TTL-based, with no invalidation protocol**: entries
carry the store timestamp and readers treat anything older than
``ttl_s`` as a miss, exactly matching
:class:`~repro.service.cache.PredictionCache` semantics (an entry aged
exactly ``ttl_s`` is still a hit; staleness between recalibrations is
bounded by the TTL, and :meth:`SharedL2Cache.invalidate` drops entries
eagerly cluster-wide when a model is refit).  There is deliberately no
cross-shard invalidation chatter — the DESIGN notes discuss why TTL
bounds are the right coherence contract for idempotent predictions.

The store itself is pluggable: a plain ``dict`` for the in-process
backend (guarded by a ``threading.Lock``) or a
``multiprocessing.Manager().dict()`` for the multi-process backend.
Across processes no lock is shared — each store operation is atomic in
the manager, and deletions tolerate a key another accessor already
removed — so a worker that dies mid-operation cannot leave the L2
locked for the survivors.  Hit/miss accounting is kept *locally* per
accessor (each shard counts its own L2 traffic) so the shared store
carries values only, never contended counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, MutableMapping

from repro.service.cache import CacheKey
from repro.util.validation import check_positive_int, require

__all__ = ["L2Stats", "SharedL2Cache"]


@dataclass
class L2Stats:
    """A point-in-time snapshot of one accessor's L2 traffic counters."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    expirations: int = 0
    puts: int = 0
    evictions: int = 0
    invalidated: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the L2 (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0


class SharedL2Cache:
    """A TTL cache over a shared (possibly cross-process) key/value store.

    * ``store`` maps :class:`~repro.service.cache.CacheKey` to
      ``(value, stored_at_s)`` tuples and may be shared by many
      accessors (threads or processes);
    * each accessor's own lock guards its compound read-modify-write
      sequences; other accessors (threads with their own accessor, or
      other processes) do not take it, and a race with them costs at
      most a refreshed entry (one extra miss), never a wrong value;
    * ``clock`` supplies ``stored_at`` timestamps and ages, injectable
      so TTL behaviour is exactly testable (and deterministic under the
      sharded chaos experiment's :class:`~repro.util.clock.FakeClock`).

    Capacity is bounded: on overflow the *oldest* entries (by store
    timestamp, key-repr tie-break) are evicted.  True cross-process LRU
    would require touching shared state on every read; oldest-first is
    deterministic, cheap, and close enough for a cache whose freshness
    contract is already TTL-based.
    """

    def __init__(
        self,
        *,
        ttl_s: float | None = None,
        max_entries: int = 65_536,
        store: MutableMapping[Any, tuple[Any, float]] | None = None,
        clock: Callable[[], float] | None = None,
    ):
        check_positive_int(max_entries, "max_entries")
        if ttl_s is not None:
            require(ttl_s > 0.0, "ttl_s must be positive (or None to disable)")
        self._ttl_s = ttl_s
        self._max_entries = max_entries
        self._store: MutableMapping[Any, tuple[Any, float]] = (
            store if store is not None else {}
        )
        self._lock = threading.Lock()
        self._clock = clock if clock is not None else time.monotonic
        # Local accounting only; never shared across accessors.
        self._stats_lock = threading.Lock()
        self._stats = L2Stats()

    @property
    def ttl_s(self) -> float | None:
        """The staleness bound (None = entries never expire)."""
        return self._ttl_s

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get(self, key: CacheKey) -> tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, value)`` and counts locally.

        A present-but-expired entry counts as a miss (and one
        expiration) and is removed so the store does not accumulate dead
        weight; ages are measured against this accessor's clock, which
        every accessor of one store must share for coherent TTLs.
        """
        now = self._clock()
        expired = False
        with self._lock:
            entry = self._store.get(key)
            if entry is not None:
                value, stored_at = entry
                if self._ttl_s is not None and now - stored_at > self._ttl_s:
                    # Delete exactly what we read; a concurrent refresh
                    # under the same lock stored a different tuple and
                    # survives.
                    if self._store.get(key) == entry:
                        self._store.pop(key, None)
                    expired = True
                    entry = None
        with self._stats_lock:
            self._stats.requests += 1
            if entry is not None:
                self._stats.hits += 1
            else:
                self._stats.misses += 1
                if expired:
                    self._stats.expirations += 1
        if entry is not None:
            return True, entry[0]
        return False, None

    def put(self, key: CacheKey, value: Any) -> None:
        """Publish ``key`` cluster-wide, evicting oldest on overflow."""
        now = self._clock()
        evicted = 0
        with self._lock:
            self._store[key] = (value, now)
            overflow = len(self._store) - self._max_entries
            if overflow > 0:
                doomed = sorted(
                    self._store.items(), key=lambda kv: (kv[1][1], repr(kv[0]))
                )[:overflow]
                for doomed_key, _ in doomed:
                    if self._store.pop(doomed_key, None) is not None:
                        evicted += 1
        with self._stats_lock:
            self._stats.puts += 1
            self._stats.evictions += evicted

    def invalidate(self, server: str | None = None) -> int:
        """Drop all entries (or only ``server``'s) cluster-wide.

        The eager path of the coherence story: after a recalibration the
        TTL bound is not enough, so the refitting site drops the stale
        entries for every shard at once.
        """
        with self._lock:
            if server is None:
                doomed = list(self._store.keys())
            else:
                doomed = [k for k in self._store.keys() if k.server == server]
            dropped = sum(self._store.pop(key, None) is not None for key in doomed)
        with self._stats_lock:
            self._stats.invalidated += dropped
        return dropped

    def stats(self) -> L2Stats:
        """A consistent snapshot of this accessor's traffic counters."""
        with self._stats_lock:
            return L2Stats(
                requests=self._stats.requests,
                hits=self._stats.hits,
                misses=self._stats.misses,
                expirations=self._stats.expirations,
                puts=self._stats.puts,
                evictions=self._stats.evictions,
                invalidated=self._stats.invalidated,
            )
