"""Algorithm 1: greedy SLA-ordered server allocation.

The algorithm (section 9 of the paper):

1. sort the service classes in order of increasing response-time goal;
2. repeatedly pick an application server for the current class — greedily,
   the server the performance model predicts can be allocated the most
   clients of that class, *except* when selecting the class's last server,
   where the smallest sufficient server is taken;
3. allocate clients until the server's predicted capacity is reached or the
   class is exhausted;
4. stop when no server has available capacity or no clients remain.

"Application servers are considered to have available capacity unless the
performance model predicts that adding an extra client from the current
service class would result in some clients missing SLA response time goals"
— capacity is therefore a model query: the largest addition under which
every class already on the server still meets its goal.

A *slack* multiplier inflates every class's client count before allocation
(section 9's generic strategy for compensating predictive inaccuracy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prediction.interface import Predictor
from repro.resource_manager.sla import ClassWorkload, class_rt_factor
from repro.util.search import largest_satisfying
from repro.util.validation import check_positive, require

__all__ = ["ManagedServer", "Allocation", "allocate"]

# Bound on any single server's client capacity probes; generous relative to
# the case study's ~4000-client largest server.
_CAPACITY_PROBE_LIMIT = 1 << 20


@dataclass(frozen=True, slots=True)
class ManagedServer:
    """An application server available to the resource manager."""

    name: str
    architecture: str  # architecture name the predictor knows it by
    max_throughput_req_per_s: float  # its "processing power" (section 9.1)

    def __post_init__(self) -> None:
        check_positive(self.max_throughput_req_per_s, "max_throughput_req_per_s")


@dataclass
class Allocation:
    """Outcome of one run of Algorithm 1."""

    # server name -> class name -> allocated clients (inflated by slack)
    per_server: dict[str, dict[str, int]] = field(default_factory=dict)
    # class name -> clients that could not be allocated (inflated counts)
    unallocated: dict[str, int] = field(default_factory=dict)
    slack: float = 1.0
    predictions_made: int = 0

    def clients_on(self, server: str) -> int:
        """Total (inflated) clients allocated to one server."""
        return sum(self.per_server.get(server, {}).values())

    def servers_used(self) -> list[str]:
        """Servers that received at least one client."""
        return sorted(s for s in self.per_server if self.clients_on(s) > 0)

    def total_allocated(self) -> int:
        """Total (inflated) clients placed on servers."""
        return sum(self.clients_on(s) for s in self.per_server)

    def total_unallocated(self) -> int:
        """Total (inflated) clients rejected by the allocator."""
        return sum(self.unallocated.values())


def _server_capacity_for(
    predictor: Predictor,
    server: ManagedServer,
    existing: dict[str, int],
    classes_by_name: dict[str, ClassWorkload],
    current: ClassWorkload,
    limit: int,
) -> tuple[int, int]:
    """Most additional ``current``-class clients the server can take.

    Monotone-predicate search: the predicate asks the performance model
    whether, with ``x`` extra clients, every class hosted on the server
    still meets its SLA goal (class response times are the mix-adjusted
    workload mean scaled by each class's demand factor).

    Returns ``(capacity, predictions_made)``.
    """
    predictions = 0

    existing_total = sum(existing.values())
    existing_buy = sum(
        count for name, count in existing.items() if classes_by_name[name].is_buy
    )

    def ok(x: int) -> bool:
        nonlocal predictions
        total = existing_total + x
        if total == 0:
            return True
        buy = existing_buy + (x if current.is_buy else 0)
        buy_fraction = buy / total
        predictions += 1
        mean_rt = predictor.predict_mrt_ms(
            server.architecture, total, buy_fraction=buy_fraction
        )
        hosted = [classes_by_name[name] for name, c in existing.items() if c > 0]
        if x > 0 and current not in hosted:
            hosted.append(current)
        for cls in hosted:
            factor = class_rt_factor(cls.is_buy, buy_fraction)
            if mean_rt * factor > cls.rt_goal_ms:
                return False
        return True

    capacity = largest_satisfying(ok, limit)
    return capacity, predictions


def allocate(
    classes: list[ClassWorkload],
    servers: list[ManagedServer],
    predictor: Predictor,
    *,
    slack: float = 1.0,
) -> Allocation:
    """Run Algorithm 1 and return the resulting allocation.

    ``slack`` multiplies each class's client count before allocation; the
    runtime evaluation (:mod:`repro.resource_manager.runtime`) scales the
    real workload back onto the allocation.
    """
    require(slack >= 0.0, "slack must be >= 0")
    require(len(servers) > 0, "need at least one server")
    names = [c.name for c in classes]
    require(len(set(names)) == len(names), "service class names must be unique")

    allocation = Allocation(slack=slack)
    classes_by_name = {c.name: c for c in classes}
    # Line 1: increasing response-time goal == decreasing priority for later
    # classes (insufficient servers reject the laxest-goal classes last in
    # processing order, i.e. they are the first left unallocated).
    ordered = sorted(classes, key=lambda c: c.rt_goal_ms)

    remaining_capacity: dict[str, bool] = {s.name: True for s in servers}
    current_alloc: dict[str, dict[str, int]] = {s.name: {} for s in servers}
    servers_by_name = {s.name: s for s in servers}

    for cls in ordered:
        remaining = int(round(cls.n_clients * slack))
        if remaining == 0:
            continue
        while remaining > 0:
            candidates: list[tuple[str, int]] = []
            for server_name, available in remaining_capacity.items():
                if not available:
                    continue
                capacity, predictions = _server_capacity_for(
                    predictor,
                    servers_by_name[server_name],
                    current_alloc[server_name],
                    classes_by_name,
                    cls,
                    _CAPACITY_PROBE_LIMIT,
                )
                allocation.predictions_made += predictions
                if capacity > 0:
                    candidates.append((server_name, capacity))
                else:
                    remaining_capacity[server_name] = False
            if not candidates:
                allocation.unallocated[cls.name] = (
                    allocation.unallocated.get(cls.name, 0) + remaining
                )
                break
            # Line 6's selection rule: greedy max capacity, except the last
            # server for the class, where the smallest sufficient one wins.
            sufficient = [c for c in candidates if c[1] >= remaining]
            if sufficient:
                chosen, capacity = min(sufficient, key=lambda c: (c[1], c[0]))
            else:
                chosen, capacity = max(candidates, key=lambda c: (c[1], c[0]))
            take = min(capacity, remaining)
            bucket = current_alloc[chosen]
            bucket[cls.name] = bucket.get(cls.name, 0) + take
            remaining -= take
            if take >= capacity:
                remaining_capacity[chosen] = False

    allocation.per_server = {
        name: dict(alloc) for name, alloc in current_alloc.items() if alloc
    }
    return allocation
