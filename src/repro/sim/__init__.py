"""Discrete-event simulation kernel.

Every timing model in this package (SIMT cores, caches, DRAM, RTA/TTA/TTA+
pipelines) is built on the primitives exported here:

* :class:`~repro.sim.engine.Simulator` — the integer-cycle
  calendar-queue engine, the only engine a launch runs on.
* :class:`~repro.sim.engine_ref.HeapSimulator` — the seed heap engine,
  kept as the differential oracle that tests substitute for
  ``repro.gpu.device.Simulator``.
* :class:`~repro.sim.resources.PipelinedUnit` /
  :class:`~repro.sim.resources.Timeline` /
  :class:`~repro.sim.resources.ThroughputResource` — contended resources
  modelled as occupancy timelines at cycle resolution.
* :mod:`~repro.sim.stats` — counters, occupancy and latency trackers used
  to produce the paper's utilization figures.
"""

import hashlib
import pathlib

from repro.sim.engine import Signal, Simulator, ceil_cycles
from repro.sim.engine_ref import HeapSimulator
from repro.sim.resources import PipelinedUnit, ThroughputResource, Timeline
from repro.sim.stats import Counter, LatencySampler, OccupancyTracker

__all__ = [
    "Simulator",
    "HeapSimulator",
    "Signal",
    "Timeline",
    "PipelinedUnit",
    "ThroughputResource",
    "Counter",
    "OccupancyTracker",
    "LatencySampler",
    "ceil_cycles",
    "scheduler_fingerprint",
]

#: Source files folded into the scheduler fingerprint: the engine itself
#: plus the packages whose code decides what every simulated cycle
#: computes — the vectorized geometry kernels and the batched
#: accelerator driver.  An edit to any of these must invalidate cached
#: results.  The heap-engine oracle (``engine_ref.py``) is left out: no
#: runtime result depends on it.
_MODEL_SOURCES = (
    ("sim", ("engine.py",)),
    ("geometry", None),  # None = every *.py in the package
    ("rta", None),
)


def _model_source_hash(root: pathlib.Path = None) -> str:
    """Hash the timing-model sources under ``root`` (default: repro/).

    ``root`` is parameterizable so tests can copy the tree, edit one
    geometry file, and prove the fingerprint moves.
    """
    if root is None:
        root = pathlib.Path(__file__).parent.parent
    digest = hashlib.sha256()
    for package, names in _MODEL_SOURCES:
        folder = root / package
        paths = ([folder / name for name in names] if names is not None
                 else sorted(folder.glob("*.py")))
        for path in paths:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


#: Hash of the scheduler + model sources, computed once at import.
_ENGINE_HASH = _model_source_hash()


def scheduler_fingerprint() -> str:
    """Scheduler-model identity folded into exec-cache keys.

    A hash of the engine, geometry, and accelerator-driver sources, so
    results computed by an older model revision can never satisfy a
    spec executed under another.
    """
    return _ENGINE_HASH
