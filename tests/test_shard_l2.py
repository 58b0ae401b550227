"""Tests for the cross-shard shared L2 cache (repro.service.shard.l2).

The L2's coherence contract is TTL-only, so the TTL boundary semantics
must match :class:`~repro.service.cache.PredictionCache` *exactly* —
an entry aged exactly ``ttl_s`` is still a hit, one instant older is a
miss — and everything is driven on a FakeClock so the boundary is
tested at the boundary, not near it.
"""

from __future__ import annotations

from repro.service.cache import quantize_key
from repro.service.shard.l2 import SharedL2Cache
from repro.util.clock import FakeClock


def _key(operand: float, server: str = "AppServS"):
    return quantize_key(server, "mrt", operand, 0.0)


def test_put_get_roundtrip_and_stats() -> None:
    """A stored value comes back; hits/misses/puts are counted."""
    clock = FakeClock()
    l2 = SharedL2Cache(clock=clock.monotonic_s)
    hit, value = l2.get(_key(10.0))
    assert not hit and value is None
    l2.put(_key(10.0), 123.0)
    hit, value = l2.get(_key(10.0))
    assert hit and value == 123.0
    stats = l2.stats()
    assert (stats.requests, stats.hits, stats.misses, stats.puts) == (2, 1, 1, 1)
    assert stats.hit_rate == 0.5


def test_ttl_boundary_matches_l1_semantics() -> None:
    """Exactly at TTL is a hit; past TTL is a miss + expiration."""
    clock = FakeClock()
    l2 = SharedL2Cache(ttl_s=10.0, clock=clock.monotonic_s)
    l2.put(_key(1.0), 1.0)
    clock.advance(10.0)  # age == ttl: still fresh, as in PredictionCache
    hit, _ = l2.get(_key(1.0))
    assert hit
    clock.advance(0.001)  # age > ttl: stale
    hit, _ = l2.get(_key(1.0))
    assert not hit
    assert l2.stats().expirations == 1
    assert len(l2) == 0  # the expired entry was removed, not retained


def test_eviction_drops_oldest_first() -> None:
    """On overflow the oldest entries (by store time) are evicted."""
    clock = FakeClock()
    l2 = SharedL2Cache(max_entries=3, clock=clock.monotonic_s)
    for i in range(3):
        l2.put(_key(float(i)), float(i))
        clock.advance(1.0)
    l2.put(_key(99.0), 99.0)  # overflow: key 0 (oldest) must go
    assert len(l2) == 3
    hit, _ = l2.get(_key(0.0))
    assert not hit
    hit, value = l2.get(_key(99.0))
    assert hit and value == 99.0
    assert l2.stats().evictions == 1


def test_invalidate_by_server_is_selective() -> None:
    """invalidate(server) drops only that server's entries, cluster-wide."""
    clock = FakeClock()
    l2 = SharedL2Cache(clock=clock.monotonic_s)
    l2.put(_key(1.0, "alpha"), 1.0)
    l2.put(_key(2.0, "alpha"), 2.0)
    l2.put(_key(1.0, "beta"), 3.0)
    assert l2.invalidate("alpha") == 2
    assert not l2.get(_key(1.0, "alpha"))[0]
    assert l2.get(_key(1.0, "beta"))[0]
    assert l2.invalidate() == 1  # no server: drop everything left
    assert len(l2) == 0
    assert l2.stats().invalidated == 3


def test_shared_store_has_shared_values_and_local_stats() -> None:
    """Two accessors of one store see each other's values, not counters."""
    clock = FakeClock()
    store: dict = {}
    writer = SharedL2Cache(store=store, clock=clock.monotonic_s)
    reader = SharedL2Cache(store=store, clock=clock.monotonic_s)
    writer.put(_key(5.0), 42.0)
    hit, value = reader.get(_key(5.0))
    assert hit and value == 42.0
    # Traffic accounting stays per-accessor (shards count their own).
    assert writer.stats().puts == 1 and writer.stats().requests == 0
    assert reader.stats().requests == 1 and reader.stats().puts == 0


def test_refreshed_entry_restarts_its_ttl() -> None:
    """A re-put entry ages from the new store time, not the first."""
    clock = FakeClock()
    l2 = SharedL2Cache(ttl_s=5.0, clock=clock.monotonic_s)
    l2.put(_key(1.0), 1.0)
    clock.advance(4.0)
    l2.put(_key(1.0), 2.0)  # refresh
    clock.advance(4.0)  # 8s since first put, 4s since refresh
    hit, value = l2.get(_key(1.0))
    assert hit and value == 2.0


class _RacedStore(dict):
    """A store whose listings go stale at once: another process (which
    shares the store but not the lock) deletes every listed key between
    the listing and the deletion."""

    def keys(self):
        listed = list(super().keys())
        self.clear()
        return listed

    def items(self):
        listed = list(super().items())
        self.clear()
        return listed


def test_deletions_tolerate_keys_another_process_removed() -> None:
    """Eviction and invalidation skip keys already gone, without raising.

    Worker processes share the L2 store but no lock, so a key listed
    for deletion may vanish before it is deleted; only keys this
    accessor actually removed are counted.
    """
    clock = FakeClock()
    l2 = SharedL2Cache(max_entries=1, store=_RacedStore(), clock=clock.monotonic_s)
    l2.put(_key(1.0), 1.0)
    l2.put(_key(2.0), 2.0)  # overflow: the listed victims are already gone
    assert l2.stats().evictions == 0
    l2.put(_key(3.0), 3.0)
    assert l2.invalidate() == 0
    assert l2.invalidate("AppServS") == 0
    assert l2.stats().invalidated == 0
