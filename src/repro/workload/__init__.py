"""Synthesized IBM *Trade* benchmark workload.

The paper drives its testbed with the IBM WebSphere Performance Benchmark
Sample "Trade" — a stock-trading application whose clients are divided into
service classes:

* **browse** clients call a mix of read-mostly operations (quote, home,
  portfolio, …) with probabilities representative of real clients;
* **buy** clients run a scripted session: *register new user and login*, ten
  sequential *buy* requests, then *logoff* (mean portfolio size 5.5).

Since the Trade binary itself is proprietary, this package recreates the
workload synthetically: operations with per-request CPU demands at the
application and database tiers, chosen so that the class-level aggregate
demands reproduce the paper's measured per-request-type behaviour (table 2)
and the published per-server max throughputs (86/186/320 req/s).
"""

from repro.workload.operations import Operation, TRADE_OPERATIONS, operation
from repro.workload.service_class import (
    OperationMix,
    ScriptedSession,
    ServiceClass,
)
from repro.workload.trade import (
    BROWSE_CLASS,
    BUY_CLASS,
    browse_class,
    buy_class,
    mixed_workload,
    typical_workload,
)

__all__ = [
    "Operation",
    "TRADE_OPERATIONS",
    "operation",
    "OperationMix",
    "ScriptedSession",
    "ServiceClass",
    "BROWSE_CLASS",
    "BUY_CLASS",
    "browse_class",
    "buy_class",
    "mixed_workload",
    "typical_workload",
]
