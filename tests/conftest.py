"""Shared fixtures.

``heap_engine`` is how tests reach the differential oracle: the seed
heap engine (:class:`~repro.sim.engine_ref.HeapSimulator`) is never
chosen at runtime, so a test that compares whole launches against it
substitutes it for the simulator class ``repro.gpu.device`` builds.

``_isolated_result_cache`` points the exec disk cache at a temporary
directory for the whole test run, so what ``~/.cache/repro`` already
holds (entries written by older code, say) cannot change a result, and
the suite leaves it be.
"""

import contextlib

import pytest

import repro.gpu.device
from repro.exec import CACHE_DIR_ENV
from repro.sim import HeapSimulator


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV,
                     str(tmp_path_factory.mktemp("repro-cache")))
        yield


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
