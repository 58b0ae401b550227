"""Thread-pool execution with in-flight request coalescing.

When many concurrent callers ask the service the same (quantized)
question that is not yet cached, executing the underlying predictor once
per caller multiplies exactly the cost the paper warns about — an LQN
capacity query is already a multi-solve search (section 8.2), so ten
simultaneous copies of it would be ten searches.  The
:class:`CoalescingPool` deduplicates *in-flight* work: the first caller
for a key starts the computation, every later caller that arrives before
it finishes receives the same :class:`~concurrent.futures.Future`, and
the work function runs exactly once.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.faults.injector import INJECTOR
from repro.util.validation import check_positive_int

__all__ = ["CoalescingPool", "PoolStats"]


@dataclass
class PoolStats:
    """A snapshot of the pool's coalescing effectiveness."""

    submitted: int = 0  # submit() calls
    coalesced: int = 0  # calls satisfied by an already-in-flight future
    executed: int = 0  # work functions actually run

    @property
    def coalescing_rate(self) -> float:
        """Fraction of submissions that piggybacked on in-flight work."""
        return self.coalesced / self.submitted if self.submitted else 0.0


class CoalescingPool:
    """A bounded worker pool that deduplicates identical in-flight work.

    ``submit(key, fn)`` returns a future for ``fn()``; if a future for
    the same ``key`` is still in flight it is returned instead and
    ``fn`` is never invoked for this call.  Keys use the same quantized
    identity as the prediction cache, so "identical" means "would have
    hit the same cache entry".

    The in-flight table is pruned by a done-callback *before* waiters
    observe completion ordering guarantees; a submission racing with
    completion either joins the finishing future (and gets its result)
    or starts a fresh computation (and, in the serving stack, finds the
    value already cached) — both are correct, neither double-counts.
    """

    def __init__(self, max_workers: int = 4):
        check_positive_int(max_workers, "max_workers")
        self.max_workers = max_workers
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, Future] = {}
        self._stats = PoolStats()

    def submit(self, key: Hashable, fn: Callable[[], Any]) -> Future:
        """Run ``fn`` on the pool (or join the in-flight run for ``key``)."""
        return self.submit_or_join(key, fn)[0]

    def submit_or_join(
        self, key: Hashable, fn: Callable[[], Any]
    ) -> tuple[Future, bool]:
        """Like :meth:`submit`, also reporting which of the two happened.

        Returns ``(future, started)``: ``started`` is True when this
        call began a fresh execution of ``fn`` and False when it joined
        a future already in flight for ``key``.  The service uses the
        flag to charge its circuit breaker exactly once per primary
        execution rather than once per coalesced waiter.
        """

        def _run() -> Any:
            with self._lock:
                self._stats.executed += 1
            # Chaos site on the worker thread itself: injected latency
            # here holds the pool slot (unlike latency inside fn, which
            # a specific predictor may not exercise), and an injected
            # error surfaces through the future like any worker crash.
            if INJECTOR.armed:
                INJECTOR.fire("service.pool")
            return fn()

        # The in-flight entry is a placeholder future published under the
        # lock, so two racing callers for one key agree on who starts the
        # work; the executor submission happens after the lock is released.
        with self._lock:
            self._stats.submitted += 1
            existing = self._inflight.get(key)
            if existing is not None:
                self._stats.coalesced += 1
                return existing, False
            future: Future = Future()
            self._inflight[key] = future

        def _forget(done: Future, *, key: Hashable = key) -> None:
            with self._lock:
                if self._inflight.get(key) is done:
                    del self._inflight[key]

        future.add_done_callback(_forget)

        def _complete() -> None:
            if not future.set_running_or_notify_cancel():
                return
            try:
                result = _run()
            except BaseException as error:
                future.set_exception(error)
            else:
                future.set_result(result)

        try:
            self._executor.submit(_complete)
        except BaseException as error:
            # A shut-down pool refuses the work: fail the placeholder so
            # joiners do not wait forever (and _forget drops the entry).
            future.set_exception(error)
            raise
        return future, True

    def inflight_count(self) -> int:
        """Number of distinct keys currently being computed."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> PoolStats:
        """A consistent snapshot of the coalescing counters."""
        with self._lock:
            return PoolStats(
                submitted=self._stats.submitted,
                coalesced=self._stats.coalesced,
                executed=self._stats.executed,
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker threads (idempotent)."""
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "CoalescingPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut the workers down."""
        self.shutdown()
