"""Capacity search: the largest load a monotone predicate accepts.

The layered method can only take a client count as an *input*, so every
capacity question in this codebase (section 8.2 of the paper) is a
search over client counts with one prediction per probe.  This is the
one implementation of that search.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["largest_satisfying"]


def largest_satisfying(meets: Callable[[int], bool], limit: int) -> int:
    """Largest ``n`` in ``[1, limit]`` with ``meets(n)``, or 0 if ``meets(1)`` fails.

    ``meets`` must be monotone (true up to some load, false beyond).
    Probes ``1, 2, 4, ...`` while at most ``limit``, then binary-searches
    the last bracket, so a capacity ``c`` costs about ``2 log2 c``
    probes.  ``limit`` is inclusive: when every load meets the goal the
    answer is ``limit`` itself.
    """
    if not meets(1):
        return 0
    lo, hi = 1, 2
    while hi <= limit and meets(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, limit + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo
