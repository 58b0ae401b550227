"""The multi-process shard backend: one worker process per shard.

This is the topology the ROADMAP's open item asks for — N full serving
stacks, each in its own interpreter (its own GIL), behind the
consistent-hash router.  The protocol is deliberately tiny and typed as
plain tuples over a :func:`multiprocessing.Pipe`.  Every message starts
with a per-shard sequence number that the worker echoes at the head of
its reply (left out of the table below); the parent drops any reply
whose number is not the one it is waiting for, so the late answer to a
request that timed out can never be read as the answer to a later one:

========================  =================================================
parent sends              worker answers
========================  =================================================
``("request", op, ...)``  ``("ok", value, outcome)`` or
                          ``("error", exc_type_name, message)``
``("ping",)``             ``("pong",)``
``("snapshot",)``         ``("ok", MetricsSnapshot.to_jsonable())``
``("drain_trace",)``      ``("ok", [TraceEvent.to_dict(), ...])``
``("stop",)``             (exits)
========================  =================================================

Workers are built from a picklable :class:`ShardSpec` naming a factory
by dotted path (``"package.module:callable"``), because code objects
and closures do not cross ``spawn`` boundaries.  The cross-shard L2
lives in a :class:`multiprocessing.managers.SyncManager` dict shared by
every worker; each worker wraps the proxy in its own
:class:`~repro.service.shard.l2.SharedL2Cache` accessor (values are
shared, traffic counters stay local and are shipped inside snapshots).
No lock is shared across workers: each dict operation is atomic in the
manager, and a lock held by a killed worker would never be released.

Tracing: with ``ShardSpec(trace=True)`` each worker records its spans
into a :class:`~repro.trace.RingBufferSink`; the parent drains them and
re-emits each worker span into its own timeline as an instant carrying
the worker-side name/timestamp/duration and the shard id — one merged
timeline across processes, without a cross-process clock protocol
(worker timestamps are worker-epoch microseconds and are labelled so).
"""

from __future__ import annotations

import importlib
import multiprocessing
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.service.metrics import MetricsSnapshot
from repro.service.service import OPERATIONS
from repro.service.shard.backend import ShardDownError, ShardRemoteError
from repro.service.shard.l2 import SharedL2Cache
from repro.trace import TRACER, RingBufferSink
from repro.util.clock import SYSTEM_CLOCK
from repro.util.validation import require

__all__ = ["ShardSpec", "resolve_factory", "ProcessShardBackend"]


@dataclass(frozen=True)
class ShardSpec:
    """A picklable recipe for building one shard's serving stack.

    ``factory`` is a ``"module.path:callable"`` reference resolved in
    the worker; it is called as ``factory(shard_id, **kwargs)`` and must
    return a :class:`~repro.service.service.PredictionService`.  The
    worker attaches the shared L2 afterwards (no TTL, the default
    capacity), so factories stay L2 agnostic.  ``trace=True`` arms
    worker-side span recording.
    """

    factory: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    trace: bool = False

    def __post_init__(self) -> None:
        """Validate the factory reference shape early (parent side)."""
        require(
            ":" in self.factory,
            "factory must be a 'module.path:callable' reference",
        )


def resolve_factory(reference: str):
    """Resolve a ``"module.path:callable"`` reference to the callable."""
    module_name, _, attr = reference.partition(":")
    module = importlib.import_module(module_name)
    factory = getattr(module, attr)
    require(callable(factory), f"{reference!r} does not name a callable")
    return factory


def _answer(service, sink: RingBufferSink | None, verb: str, args: list) -> tuple:
    """The worker's reply to one protocol message (without its sequence number)."""
    if verb == "ping":
        return ("pong",)
    if verb == "snapshot":
        return ("ok", service.snapshot().to_jsonable())
    if verb == "drain_trace":
        events = []
        if sink is not None:
            events = [event.to_dict() for event in sink.events()]
            sink.clear()
        return ("ok", events)
    if verb == "request":
        op, server, operand, buy_fraction = args
        try:
            value, outcome = service.serve(op, server, operand, buy_fraction)
            return ("ok", float(value), outcome)
        except Exception as error:  # ship, don't crash the worker
            return ("error", type(error).__name__, str(error))
    return ("error", "ProtocolError", f"unknown verb {verb!r}")


def _worker_main(spec: ShardSpec, shard_id: str, conn, l2_store) -> None:
    """The worker process body: build the stack, answer the protocol."""
    sink: RingBufferSink | None = None
    if spec.trace:
        sink = RingBufferSink()
        TRACER.enable(sink)
    service = resolve_factory(spec.factory)(shard_id, **spec.kwargs)
    if l2_store is not None:
        service.l2 = SharedL2Cache(store=l2_store)
    try:
        while True:
            seq, verb, *args = conn.recv()
            if verb == "stop":
                conn.send((seq, "ok"))
                return
            conn.send((seq, *_answer(service, sink, verb, args)))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        service.shutdown()
        if sink is not None:
            TRACER.disable()


class ProcessShardBackend:
    """One worker process per shard, spoken to over pipes.

    Satisfies the same :class:`~repro.service.shard.backend.ShardBackend`
    protocol as the inline backend, so the router does not know or care
    that its shards are processes.  Per-shard connection locks serialize
    each pipe (requests to *different* shards proceed concurrently);
    a dead process raises :class:`ShardDownError` and a request that
    outlives ``request_timeout_s`` raises :class:`ShardRemoteError` —
    both feed the router's health board like any shard failure.
    """

    def __init__(
        self,
        shard_ids: tuple[str, ...],
        spec: ShardSpec,
        *,
        l2: bool = True,
        start_method: str | None = None,
        request_timeout_s: float = 60.0,
    ):
        require(len(shard_ids) > 0, "need at least one shard")
        require(len(set(shard_ids)) == len(shard_ids), "shard ids must be unique")
        require(request_timeout_s > 0.0, "request_timeout_s must be positive")
        self._ids = tuple(sorted(shard_ids))
        self._spec = spec
        self._timeout_s = request_timeout_s
        methods = multiprocessing.get_all_start_methods()
        chosen = start_method or ("fork" if "fork" in methods else "spawn")
        self._ctx = multiprocessing.get_context(chosen)
        self._manager = self._ctx.Manager() if l2 else None
        # The parent MUST hold this proxy for the backend's lifetime:
        # under the fork start method children inherit the parent's proxy
        # without incref'ing the manager-side referent, so dropping the
        # parent reference would let the manager delete the shared dict
        # out from under every worker.  There is deliberately no manager
        # lock beside it: a worker killed while holding one would leave
        # it held forever and stall every survivor's L2 access.
        self._l2_store = self._manager.dict() if self._manager is not None else None
        self._conns: dict[str, Any] = {}
        self._procs: dict[str, Any] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._seq: dict[str, int] = {}
        for shard in self._ids:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(spec, shard, child_conn, self._l2_store),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns[shard] = parent_conn
            self._procs[shard] = process
            self._locks[shard] = threading.Lock()
            self._seq[shard] = 0
        self._stopped = False

    def shard_ids(self) -> tuple[str, ...]:
        """The hosted shards, sorted."""
        return self._ids

    def _roundtrip(self, shard_id: str, message: tuple, timeout_s: float) -> tuple:
        """Send one message and await its reply (per-shard serialized).

        Replies carrying an older sequence number are late answers to
        requests that timed out; they are dropped, and the wait for
        this message's own reply keeps its original deadline.
        """
        process = self._procs[shard_id]
        with self._locks[shard_id]:
            if not process.is_alive():
                raise ShardDownError(f"shard {shard_id!r}: worker process is dead")
            conn = self._conns[shard_id]
            self._seq[shard_id] += 1
            seq = self._seq[shard_id]
            deadline = SYSTEM_CLOCK.monotonic_s() + timeout_s
            try:
                conn.send((seq, *message))
                while True:
                    remaining = deadline - SYSTEM_CLOCK.monotonic_s()
                    if remaining <= 0.0 or not conn.poll(remaining):
                        raise ShardRemoteError(
                            f"shard {shard_id!r}: no reply within {timeout_s}s"
                        )
                    reply = conn.recv()
                    if reply[0] == seq:
                        return reply[1:]
            except (BrokenPipeError, EOFError, OSError) as error:
                raise ShardDownError(
                    f"shard {shard_id!r}: connection lost ({type(error).__name__})"
                ) from error

    def request(
        self, shard_id: str, op: str, server: str, operand: float, buy_fraction: float
    ) -> tuple[float, str]:
        """Serve one operation on the worker; returns ``(value, outcome)``."""
        require(op in OPERATIONS, f"unknown operation {op!r}")
        reply = self._roundtrip(
            shard_id, ("request", op, server, operand, buy_fraction), self._timeout_s
        )
        if reply[0] == "ok":
            return float(reply[1]), str(reply[2])
        raise ShardRemoteError(f"shard {shard_id!r}: {reply[1]}: {reply[2]}")

    def ping(self, shard_id: str) -> bool:
        """Heartbeat: a fast protocol round-trip (False on any failure)."""
        try:
            reply = self._roundtrip(shard_id, ("ping",), min(self._timeout_s, 5.0))
        except (ShardDownError, ShardRemoteError):
            return False
        return reply[0] == "pong"

    def snapshot(self, shard_id: str) -> MetricsSnapshot:
        """The worker's mergeable metrics snapshot, shipped as JSON."""
        reply = self._roundtrip(shard_id, ("snapshot",), self._timeout_s)
        if reply[0] != "ok":
            raise ShardRemoteError(f"shard {shard_id!r}: {reply[1]}: {reply[2]}")
        return MetricsSnapshot.from_jsonable(reply[1])

    def drain_trace_into_timeline(self, shard_id: str) -> int:
        """Pull the worker's recorded spans into this process's timeline.

        Each worker END event is re-emitted as a
        ``shard.worker_span`` instant tagged with the shard id, the
        worker-side span name, and the worker-epoch timestamp/duration.
        Returns how many events were merged.
        """
        reply = self._roundtrip(shard_id, ("drain_trace",), self._timeout_s)
        if reply[0] != "ok":
            raise ShardRemoteError(f"shard {shard_id!r}: {reply[1]}: {reply[2]}")
        merged = 0
        for raw in reply[1]:
            if raw.get("kind") != "end":
                continue
            TRACER.instant(
                "shard.worker_span",
                shard=shard_id,
                span_name=raw.get("name", ""),
                worker_ts_us=raw.get("ts_us", 0.0),
                dur_us=raw.get("dur_us", 0.0),
            )
            merged += 1
        return merged

    def kill(self, shard_id: str) -> None:
        """Hard-kill one worker (chaos: the process is simply gone)."""
        self._procs[shard_id].terminate()
        self._procs[shard_id].join(timeout=5.0)

    def stop(self) -> None:
        """Stop every worker (graceful, then forceful) and the manager."""
        if self._stopped:
            return
        self._stopped = True
        for shard in self._ids:
            process = self._procs[shard]
            if not process.is_alive():
                continue
            try:
                self._roundtrip(shard, ("stop",), 5.0)
            except (ShardDownError, ShardRemoteError):
                pass
        for shard in self._ids:
            process = self._procs[shard]
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        if self._manager is not None:
            self._manager.shutdown()

    def __enter__(self) -> "ProcessShardBackend":
        """Context-manager entry: the backend itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: stop the fleet."""
        self.stop()
