"""Host-time spans around the repro layers, recorded from outside.

A :class:`Recorder` wraps public entry points of the library (see
:func:`entry_points`) for the length of a traced run.  Each wrapped call
becomes a span with a name, a layer, a start, an end, its parent span
and the id of the run it belongs to.  Every name is patched where its
caller looks it up: a class attribute for methods, the importing
module's global for functions imported by name.

Inside ``Simulator.run`` the simulator, the accelerator models, the
memory system and the guard interleave event by event, so spans cannot
separate them.  While the innermost open span is ``sim.run`` a
deterministic profiler (``cProfile``) runs, and the span's self time is
split across packages in proportion to the profiler's per-package self
time.  The profiler runs only in traced runs.
"""

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name of the simulator event loop, whose self time is split by
#: package from the profile.
SIM_RUN = "sim.run"

#: Layers whose self time is reported even when a workload never
#: enters them, so every traced run prints the same rows.
LAYERS = ("trees", "kernels", "gpu", "sim", "rta", "core.ttaplus",
          "memsys", "guard", "geometry", "obs", "harness", "energy",
          "exec", "serve", "mutation", "other")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "run_id",
                 "child_s", "args")

    def __init__(self, name, layer, start, parent, run_id):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.child_s = 0.0
        self.args: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """In-memory span store plus the ``sim.run`` profiler."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.run_id = ""
        self.profiler = cProfile.Profile()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------
    def enter(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        if parent is not None and self.spans[parent].name == SIM_RUN:
            self.profiler.disable()
        idx = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), parent,
                               self.run_id))
        self.stack.append(idx)
        if name == SIM_RUN:
            self.profiler.enable()
        return idx

    def exit(self, idx: int) -> Span:
        span = self.spans[idx]
        if span.name == SIM_RUN:
            self.profiler.disable()
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_s += span.duration
            if parent.name == SIM_RUN:
                self.profiler.enable()
        return span

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self.enter(name, layer)
        try:
            yield self.spans[idx]
        finally:
            self.exit(idx)

    # -- patching -------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(span, args, kwargs)`` and ``after(span, args, kwargs,
        result)`` may annotate the span.
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            idx = recorder.enter(name, layer)
            if before is not None:
                before(recorder.spans[idx], args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                span = recorder.exit(idx)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, layer, after, *before in entry_points():
            self.wrap(owner, attr, name, layer, after, *before)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- entry points -------------------------------------------------------------
def _note(key: str, value_of: Callable) -> Callable:
    def after(span, args, kwargs, result):
        span.args = span.args or {}
        span.args[key] = value_of(args, kwargs, result)
    return after


def _jobs_before(span, args, kwargs) -> None:
    span.args = {"hit": args[1] in args[0]._jobs_cache}


def _jobs_after(span, args, kwargs, result) -> None:
    jobs = result[0] if isinstance(result, tuple) else result
    span.args["requested"] = len(jobs)
    span.args["lowered"] = 0 if span.args.pop("hit") else len(jobs)


def _launch_stats(args, kwargs, result) -> Dict[str, float]:
    out = {"cycles": float(result.cycles)}
    snapshot = getattr(result, "metrics", None)
    if snapshot is not None:
        for name in METRIC_SUMS + METRIC_RATES:
            out[name] = float(snapshot.get(name, 0.0))
        out["memsys.l2.accesses"] = float(
            snapshot.get("memsys.l2.accesses", 0.0))
    return out


def _replayed(args, kwargs, result) -> int:
    return 0 if result is None else 1


def _events(args, kwargs, result) -> int:
    return args[0].events_processed


def _memo_before(span, args, kwargs) -> None:
    span.args = {"requested": len(args[1]), "memo": len(args[0]._lowered)}


def _memo_after(span, args, kwargs, result) -> None:
    span.args["lowered"] = len(args[0]._lowered) - span.args.pop("memo")


#: Model-side counters summed over launches (``KernelStats.metrics``).
METRIC_SUMS = ("accel.jobs_completed", "accel.uop_tests_run",
               "rta.unit.query_key.ops", "rta.unit.point_dist.ops",
               "rta.unit.box.ops", "memsys.dram.bytes",
               "memsys.sector_requests")
#: Per-launch rates, combined weighted by their denominators.
METRIC_RATES = ("memsys.l1.hit_rate", "memsys.l2.hit_rate")


def entry_points() -> List[tuple]:
    """(owner, attribute, span name, layer, after[, before]) for every
    patch; see :meth:`Recorder.wrap` for the annotators."""
    import repro.gpu.device as device
    import repro.harness.runner as runner
    import repro.mutation.mutable_index as mutable_index
    import repro.mutation.mutators as mutators
    import repro.serve as serve
    import repro.workloads as workloads
    from repro.exec.service import ExecutionService
    from repro.gpu.sm import SM
    from repro.memsys.hierarchy import MemoryHierarchy
    from repro.serve.backends import LaunchBackend
    from repro.serve.index import ResidentIndex
    from repro.sim.engine import Simulator
    from repro.workloads.btree_workload import BTreeWorkload
    from repro.workloads.nbody import NBodyWorkload
    from repro.workloads.rtnn import RTNNWorkload

    points = [
        # build
        (runner, "build_workload", "trees.build_workload", "trees", None),
        (serve, "build_resident_index", "trees.build_resident_index",
         "trees", None),
    ]
    for attr in sorted(dir(workloads)):
        if attr.startswith("make_") and attr.endswith("_workload"):
            points.append((workloads, attr, f"trees.{attr}", "trees", None))
    for cls in (mutators.BTreeMutator, mutators.RTreeMutator,
                mutators.KDTreeMutator, mutators.BVHMutator):
        points.append((cls, "rebuild", "trees.rebuild", "trees", None))
        points.append((cls, "refit", "mutation.refit", "mutation", None))
    points += [
        # lowering
        (BTreeWorkload, "jobs", "kernels.jobs", "kernels", _jobs_after,
         _jobs_before),
        (NBodyWorkload, "jobs", "kernels.jobs", "kernels", _jobs_after,
         _jobs_before),
        (RTNNWorkload, "jobs", "kernels.jobs", "kernels", _jobs_after,
         _jobs_before),
        (ResidentIndex, "batch_jobs", "kernels.batch_jobs", "kernels",
         _memo_after, _memo_before),
        # launch and device
        (device.GPU, "launch", "gpu.launch", "gpu",
         _note("stats", _launch_stats)),
        (MemoryHierarchy, "__init__", "gpu.device_setup.hierarchy", "gpu",
         None),
        (SM, "__init__", "gpu.device_setup.sm", "gpu", None),
        (Simulator, "run", SIM_RUN, "sim", _note("events", _events)),
        (device, "build_metrics", "obs.build_metrics", "obs", None),
        (device, "warp_trace", "gpu.warp_trace", "gpu", None),
        (device, "replay_launch", "gpu.replay_launch", "gpu",
         _note("hit", _replayed)),
        # serving
        (LaunchBackend, "launch", "serve.launch", "serve", None),
        (LaunchBackend, "_verify", "harness.verify", "harness", None),
        (serve, "run_loadtest", "serve.loadtest", "serve", None),
        # mutation
        (mutable_index.MutableResidentIndex, "apply", "mutation.apply",
         "mutation", None),
        (mutable_index.MutableResidentIndex, "ensure_ready",
         "mutation.ensure_ready", "mutation", None),
        # harness
        (runner, "verify_results", "harness.verify", "harness", None),
        (runner, "_verify_nbody", "harness.verify", "harness", None),
        (runner, "_verify_rtnn", "harness.verify", "harness", None),
        (runner, "energy_report", "energy.report", "energy", None),
        (ExecutionService, "run", "exec.run", "exec", None),
    ]
    return points


# -- profile attribution ------------------------------------------------------
def package_of(filename: str) -> Optional[str]:
    """The repro package a source file belongs to (``core.ttaplus``
    keeps its own row), or None outside the repro tree."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    parts = path[at + len(marker):].split("/")
    if len(parts) == 1:
        return "other"
    if parts[0] == "core" and len(parts) > 2 and parts[1] == "ttaplus":
        return "core.ttaplus"
    return parts[0]


def profile_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """Profiler self time per repro package.

    Time in code outside the repro tree (builtins, numpy, the standard
    library) goes to its direct callers' packages in proportion to the
    time each caller spent in it, or to ``other`` when the caller is
    outside the tree too.
    """
    try:
        stats = pstats.Stats(profiler).stats
    except TypeError:  # nothing was profiled
        return {}
    shares: Dict[str, float] = {}
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in \
            stats.items():
        package = package_of(filename)
        if package is not None:
            shares[package] = shares.get(package, 0.0) + tt
            continue
        spread = sum(entry[2] for entry in callers.values())
        if not callers or spread <= 0:
            shares["other"] = shares.get("other", 0.0) + tt
            continue
        for caller, entry in callers.items():
            owner = package_of(caller[0]) or "other"
            shares[owner] = shares.get(owner, 0.0) + tt * entry[2] / spread
    return shares


# -- self-time accounting ---------------------------------------------------
def self_times(spans: List[Span], shares: Dict[str, float],
               roots: List[int]) -> Tuple[Dict[str, float], float]:
    """Per-layer self time below ``roots``, and the roots' own self time
    (the time no layer claims).

    ``sim.run`` self time is split by ``shares``; every other span
    contributes its self time to its own layer.  Layer totals plus the
    unattributed remainder equal the roots' summed durations.
    """
    below = set(roots)
    table = {layer: 0.0 for layer in LAYERS}
    total_share = sum(shares.values())
    unattributed = 0.0
    for idx, span in enumerate(spans):
        if idx in below:
            unattributed += span.self_s
            continue
        if span.parent not in below:
            continue
        below.add(idx)
        if span.name == SIM_RUN and total_share > 0:
            for package, seconds in shares.items():
                layer = package if package in table else "other"
                table[layer] += span.self_s * seconds / total_share
        else:
            table[span.layer] = table.get(span.layer, 0.0) + span.self_s
    return table, unattributed


def chrome_trace(spans: List[Span], path: str,
                 metadata: Dict[str, Any]) -> None:
    """Write spans as Chrome trace-event JSON (loads in Perfetto)."""
    if not spans:
        return
    origin = min(span.start for span in spans)
    events = []
    for idx, span in enumerate(spans):
        args = {"id": idx, "run_id": span.run_id,
                "parent": span.parent,
                "parent_name": (spans[span.parent].name
                                if span.parent is not None else None)}
        if span.args:
            args.update({k: v for k, v in span.args.items()
                         if isinstance(v, (int, float, str))})
        events.append({
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1, "tid": 1, "args": args,
        })
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": metadata}, fh)
