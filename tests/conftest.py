"""Shared fixtures."""

import pytest

from qbattery import battery, dynamics
from qbattery.dynamics import ChebyshevEngine, state_cap


@pytest.fixture
def cap_states(monkeypatch):
    """Set ``state_cap()`` to a given number of states by patching physical memory."""

    def set_cap(states: int) -> None:
        memory = states * 2 * ChebyshevEngine.window_bytes(1)
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: memory)
        assert state_cap() == states

    return set_cap


@pytest.fixture
def dense_limit(monkeypatch):
    """Set ``battery.DENSE_LIMIT``, the largest block the dense engine takes."""

    def set_limit(states: int) -> None:
        monkeypatch.setattr(battery, "DENSE_LIMIT", states)

    return set_limit
