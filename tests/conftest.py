"""Shared fixtures.

``heap_engine`` is how tests reach the differential oracle: the seed
heap engine (:class:`~repro.sim.engine_ref.HeapSimulator`) is never
chosen at runtime, so a test that compares whole launches against it
substitutes it for the simulator class ``repro.gpu.device`` builds.
"""

import contextlib

import pytest

import repro.gpu.device
from repro.sim import HeapSimulator


@pytest.fixture
def heap_engine(monkeypatch):
    """Context manager: launches inside ``with heap_engine():`` run on
    the heap-engine oracle (and launch replay stays off for them)."""

    @contextlib.contextmanager
    def substituted():
        with monkeypatch.context() as patch:
            patch.setattr(repro.gpu.device, "Simulator", HeapSimulator)
            yield

    return substituted
