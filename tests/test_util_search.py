"""Tests for the shared capacity search (repro.util.search)."""

from __future__ import annotations

import pytest

from repro.util.search import largest_satisfying


def _probed(capacity: int, limit: int) -> tuple[int, list[int]]:
    probes: list[int] = []

    def meets(n: int) -> bool:
        probes.append(n)
        return n <= capacity

    return largest_satisfying(meets, limit), probes


def test_probes_double_then_bisect() -> None:
    """The probe order the allocator and the runtime evaluation rely on."""
    found, probes = _probed(37, 100)
    assert found == 37
    assert probes == [1, 2, 4, 8, 16, 32, 64, 48, 40, 36, 38, 37]


@pytest.mark.parametrize("limit", (1, 2, 63, 64, 100, 1000))
def test_limit_is_inclusive(limit: int) -> None:
    """When every load is accepted the answer is the limit itself."""
    assert _probed(10**9, limit)[0] == limit
