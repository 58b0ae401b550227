"""Runtime evaluation of an allocation against ground-truth response times.

At runtime the real clients (the *un*-inflated workload) arrive at the
servers the allocator chose.  Following section 9, "application servers
reject clients at runtime if response times are within a threshold of
missing SLA goals", preventing the clients already on a server from missing
their goals too; and "runtime optimisations allow the resource manager to
use any available capacity the algorithm leaves on a server", so rejected
clients are re-placed onto residual capacity before being counted as SLA
failures.

Ground truth is supplied as another :class:`~repro.prediction.interface.
Predictor` — the paper uses "the more accurate historical model … to
represent the real system response times" while the less accurate hybrid
model drives the allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prediction.interface import Predictor
from repro.resource_manager.allocation import Allocation, ManagedServer
from repro.resource_manager.sla import ClassWorkload, class_rt_factor
from repro.util.search import largest_satisfying
from repro.util.validation import check_fraction, require

__all__ = ["RuntimeOutcome", "evaluate_runtime"]


@dataclass
class RuntimeOutcome:
    """Cost metrics of one allocation under the real workload."""

    sla_failure_pct: float
    server_usage_pct: float
    rejected_clients: int
    total_clients: int
    placed: dict[str, dict[str, int]] = field(default_factory=dict)
    servers_used: list[str] = field(default_factory=list)


def _actual_capacity(
    ground_truth: Predictor,
    server: ManagedServer,
    hosted: dict[str, int],
    classes_by_name: dict[str, ClassWorkload],
    threshold: float,
) -> int:
    """Largest total client count (at the hosted mix) actually sustainable.

    The runtime rejection rule triggers when a class's *actual* response
    time comes within ``threshold`` (fractional) of its goal; capacity is
    found by scaling the hosted mix.
    """
    total = sum(hosted.values())
    if total == 0:
        return 0
    fractions = {name: count / total for name, count in hosted.items()}
    buy_fraction = sum(
        frac for name, frac in fractions.items() if classes_by_name[name].is_buy
    )

    def ok(n: int) -> bool:
        if n == 0:
            return True
        mean_rt = ground_truth.predict_mrt_ms(
            server.architecture, n, buy_fraction=buy_fraction
        )
        for name, frac in fractions.items():
            if frac <= 0:
                continue
            cls = classes_by_name[name]
            factor = class_rt_factor(cls.is_buy, buy_fraction)
            if mean_rt * factor > cls.rt_goal_ms * (1.0 - threshold):
                return False
        return True

    return largest_satisfying(ok, 1 << 20)


def evaluate_runtime(
    allocation: Allocation,
    classes: list[ClassWorkload],
    servers: list[ManagedServer],
    ground_truth: Predictor,
    *,
    rejection_threshold: float = 0.05,
) -> RuntimeOutcome:
    """Play the real workload onto ``allocation`` and measure the costs.

    Real clients are spread over the allocator's placements in proportion to
    the (slack-inflated) plan; each server then rejects the excess over its
    ground-truth capacity; rejected clients finally probe residual capacity
    on other used servers (the paper's runtime optimisation) before counting
    as SLA failures.
    """
    check_fraction(rejection_threshold, "rejection_threshold")
    classes_by_name = {c.name: c for c in classes}
    servers_by_name = {s.name: s for s in servers}
    require(
        all(s in servers_by_name for s in allocation.per_server),
        "allocation references unknown servers",
    )

    # Scale planned (inflated) placements back to the real client counts.
    planned_by_class: dict[str, int] = {}
    for alloc in allocation.per_server.values():
        for name, count in alloc.items():
            planned_by_class[name] = planned_by_class.get(name, 0) + count

    placed: dict[str, dict[str, int]] = {}
    arrived_by_class: dict[str, int] = {name: 0 for name in classes_by_name}
    for server_name, alloc in allocation.per_server.items():
        bucket: dict[str, int] = {}
        for name, count in alloc.items():
            planned = planned_by_class[name]
            real_total = classes_by_name[name].n_clients
            share = int(round(count / planned * min(real_total, planned)))
            share = min(share, real_total - arrived_by_class[name])
            if share > 0:
                bucket[name] = share
                arrived_by_class[name] += share
        if bucket:
            placed[server_name] = bucket

    # Clients the allocator never placed (plus rounding remainders) start
    # out rejected.
    rejected: dict[str, int] = {
        name: classes_by_name[name].n_clients - arrived_by_class[name]
        for name in classes_by_name
    }

    # Per-server runtime rejection down to actual capacity.
    for server_name, bucket in placed.items():
        total = sum(bucket.values())
        capacity = _actual_capacity(
            ground_truth,
            servers_by_name[server_name],
            bucket,
            classes_by_name,
            rejection_threshold,
        )
        if capacity >= total:
            continue
        # Reject proportionally across hosted classes (any client may be the
        # one that tips the server over).
        overflow = total - capacity
        for name in sorted(bucket, key=lambda n: -classes_by_name[n].rt_goal_ms):
            if overflow <= 0:
                break
            take = min(bucket[name], overflow)
            bucket[name] -= take
            rejected[name] = rejected.get(name, 0) + take
            overflow -= take

    # Runtime optimisation: rejected clients fill residual capacity on the
    # servers the allocator already engaged (priority order: tightest goal
    # first, matching the allocator's ordering).
    for cls in sorted(classes, key=lambda c: c.rt_goal_ms):
        pending = rejected.get(cls.name, 0)
        if pending <= 0:
            continue
        for server_name in sorted(placed):
            if pending <= 0:
                break
            bucket = placed[server_name]
            trial = dict(bucket)
            trial[cls.name] = trial.get(cls.name, 0) + pending
            capacity = _actual_capacity(
                ground_truth,
                servers_by_name[server_name],
                trial,
                classes_by_name,
                rejection_threshold,
            )
            current_total = sum(bucket.values())
            headroom = max(0, capacity - current_total)
            take = min(headroom, pending)
            if take > 0:
                bucket[cls.name] = bucket.get(cls.name, 0) + take
                pending -= take
        rejected[cls.name] = pending

    total_clients = sum(c.n_clients for c in classes)
    rejected_total = sum(rejected.values())
    used = [s for s in placed if sum(placed[s].values()) > 0]
    total_power = sum(s.max_throughput_req_per_s for s in servers)
    used_power = sum(servers_by_name[s].max_throughput_req_per_s for s in used)

    return RuntimeOutcome(
        sla_failure_pct=100.0 * rejected_total / total_clients if total_clients else 0.0,
        server_usage_pct=100.0 * used_power / total_power if total_power else 0.0,
        rejected_clients=rejected_total,
        total_clients=total_clients,
        placed=placed,
        servers_used=sorted(used),
    )
