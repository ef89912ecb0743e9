"""Per-layer metrics of a traced run, from its spans and counters.

Every value is per timed round: totals over the traced rounds divided
by their number.  Times are host seconds measured with tracing on;
inside ``Simulator.run`` that includes the deterministic profiler's
overhead, so compare traced figures only with traced figures.
"""

from typing import Any, Dict, List

from spans import (
    METRIC_SUMS,
    SIM_RUN,
    Recorder,
    profile_shares,
    self_times,
)
from workloads import Round, nearest_rank

#: Per-layer metric name -> unit, in report order.  BENCHMARK.json's
#: ``per_layer`` list is exactly these names.
UNITS = {
    "trees.build_s": "s",
    "trees.builds": "count",
    "mutation.writes": "count",
    "mutation.refits": "count",
    "mutation.rebuilds": "count",
    "mutation.write_s": "s",
    "mutation.rebuild_s": "s",
    "kernels.lower_s": "s",
    "kernels.jobs_lowered": "count",
    "serve.lower_memo_hit_rate": "ratio",
    "gpu.launches": "count",
    "gpu.launch_s": "s",
    "gpu.launch_p50_ms": "ms",
    "gpu.launch_p99_ms": "ms",
    "gpu.device_setup_s": "s",
    "gpu.device_setups": "count",
    "gpu.replay_record_s": "s",
    "gpu.launch_replays": "count",
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "rta.self_s": "s",
    "accel.jobs_completed": "count",
    "rta.unit.query_key.ops": "count",
    "rta.unit.point_dist.ops": "count",
    "rta.unit.box.ops": "count",
    "ttaplus.self_s": "s",
    "accel.uop_tests_run": "count",
    "memsys.self_s": "s",
    "memsys.l1.hit_rate": "ratio",
    "memsys.l2.hit_rate": "ratio",
    "memsys.dram.bytes": "bytes",
    "memsys.sector_requests": "count",
    "obs.build_metrics_s": "s",
    "guard.self_s": "s",
    "harness.verify_s": "s",
    "harness.fig12_s": "s",
    "harness.fig14_s": "s",
    "energy.report_s": "s",
    "exec.executed": "count",
    "exec.memo_hits": "count",
    "serve.batches": "count",
    "serve.mean_batch_size": "count",
    "serve.device_busy_frac": "ratio",
    "serve.launch_p50_ms": "virtual_ms",
    "serve.launch_p99_ms": "virtual_ms",
    "serve.degraded_batches": "count",
    "serve.retries": "count",
    "serve.loadtest_self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: Spans that build a tree (besides the ``trees.make_*`` factories).
BUILD_SPANS = ("trees.build_resident_index", "trees.rebuild")

#: Self-time table rows reported as ``<metric>``.
_SELF_ROWS = {"sim.self_s": "sim", "rta.self_s": "rta",
              "ttaplus.self_s": "core.ttaplus", "memsys.self_s": "memsys",
              "guard.self_s": "guard"}


def _outermost(spans, idxs: List[int]) -> List[int]:
    """Spans in ``idxs`` not nested in another span of ``idxs``."""
    chosen = set(idxs)
    out = []
    for idx in idxs:
        parent = spans[idx].parent
        while parent is not None and parent not in chosen:
            parent = spans[parent].parent
        if parent is None:
            out.append(idx)
    return out


def compute(recorder: Recorder, run_roots: List[int], rounds: List[Round],
            walls: List[float], untraced_wall: float) -> Dict[str, Any]:
    """Per-layer metrics plus the self-time table of the timed phase."""
    spans = recorder.spans
    n = len(rounds)
    by_name: Dict[str, List[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(idx)

    def named(*names) -> List[int]:
        return [idx for name in names for idx in by_name.get(name, [])]

    def total(idxs) -> float:
        return sum(spans[idx].duration for idx in idxs) / n

    def arg_sum(idxs, key) -> float:
        return sum((spans[idx].args or {}).get(key, 0)
                   for idx in idxs) / n

    m: Dict[str, float] = {}
    # A build is a workload factory, a resident index or a rebuild;
    # ``build_workload`` calls that hit its memo build nothing.
    builds = _outermost(spans, [idx for name, idxs in by_name.items()
                                if name in BUILD_SPANS
                                or name.startswith("trees.make_")
                                for idx in idxs])
    m["trees.build_s"] = total(builds)
    m["trees.builds"] = len(builds) / n
    m["mutation.writes"] = len(named("mutation.apply")) / n
    m["mutation.refits"] = len(named("mutation.refit")) / n
    m["mutation.rebuilds"] = len(named("trees.rebuild")) / n
    m["mutation.write_s"] = total(named("mutation.apply"))
    m["mutation.rebuild_s"] = total(named("trees.rebuild"))
    lowering = named("kernels.jobs", "kernels.batch_jobs")
    m["kernels.lower_s"] = total(lowering)
    m["kernels.jobs_lowered"] = arg_sum(lowering, "lowered")
    serve_lowering = named("kernels.batch_jobs")
    requested = arg_sum(serve_lowering, "requested")
    m["serve.lower_memo_hit_rate"] = (
        1.0 - arg_sum(serve_lowering, "lowered") / requested
        if requested else 0.0)

    launches = named("gpu.launch")
    launch_ms = sorted(spans[idx].duration * 1e3 for idx in launches)
    m["gpu.launches"] = len(launches) / n
    m["gpu.launch_s"] = total(launches)
    m["gpu.launch_p50_ms"] = nearest_rank(launch_ms, 50) or 0.0
    m["gpu.launch_p99_ms"] = nearest_rank(launch_ms, 99) or 0.0
    m["gpu.device_setup_s"] = total(named("gpu.device_setup.hierarchy",
                                          "gpu.device_setup.sm"))
    m["gpu.device_setups"] = len(named("gpu.device_setup.hierarchy")) / n
    m["gpu.replay_record_s"] = total(named("gpu.warp_trace"))
    m["gpu.launch_replays"] = arg_sum(named("gpu.replay_launch"), "hit")

    runs = named(SIM_RUN)
    m["sim.events"] = arg_sum(runs, "events")
    m["sim.run_s"] = total(runs)
    m["sim.events_per_s"] = (m["sim.events"] / m["sim.run_s"]
                             if m["sim.run_s"] else 0.0)

    table, unattributed = self_times(spans, profile_shares(recorder.profiler),
                                     run_roots)
    for metric, layer in _SELF_ROWS.items():
        m[metric] = table[layer] / n

    stats = [spans[idx].args["stats"] for idx in launches
             if spans[idx].args and "stats" in spans[idx].args]
    for name in METRIC_SUMS:
        m[name] = sum(s.get(name, 0.0) for s in stats) / n
    for name, weight in (("memsys.l1.hit_rate", "memsys.sector_requests"),
                         ("memsys.l2.hit_rate", "memsys.l2.accesses")):
        denom = sum(s.get(weight, 0.0) for s in stats)
        m[name] = (sum(s.get(name, 0.0) * s.get(weight, 0.0)
                       for s in stats) / denom if denom else 0.0)

    m["obs.build_metrics_s"] = total(named("obs.build_metrics"))
    m["harness.verify_s"] = total(named("harness.verify"))
    m["harness.fig12_s"] = total(named("harness.fig12"))
    m["harness.fig14_s"] = total(named("harness.fig14"))
    m["energy.report_s"] = total(named("energy.report"))

    counters: Dict[str, Any] = {}
    for r in rounds:
        for key, value in r.counters.items():
            if isinstance(value, list):
                counters.setdefault(key, []).extend(value)
            else:
                counters[key] = counters.get(key, 0.0) + value / n
    for name in ("exec.executed", "exec.memo_hits", "serve.batches",
                 "serve.mean_batch_size", "serve.device_busy_frac",
                 "serve.degraded_batches", "serve.retries"):
        m[name] = counters.get(name, 0.0)
    serve_ms = sorted(counters.get("serve.launch_ms", []))
    m["serve.launch_p50_ms"] = nearest_rank(serve_ms, 50) or 0.0
    m["serve.launch_p99_ms"] = nearest_rank(serve_ms, 99) or 0.0
    m["serve.loadtest_self_s"] = sum(
        spans[idx].self_s for idx in named("serve.loadtest")) / n

    traced_wall = sum(walls) / n
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = unattributed / n
    m["trace.overhead_s"] = traced_wall - untraced_wall
    per_round = {layer: seconds / n for layer, seconds in table.items()}
    return {"metrics": m, "self_s": per_round,
            "unattributed_s": unattributed / n, "wall_s": traced_wall}
