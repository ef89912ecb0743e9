"""The benchmark's workloads: what each one builds and what it times.

Every workload splits into ``setup(seed)`` (host work before the timed
phase: trees, memory images, golden oracles, resident indexes and their
copies) and ``run`` (the timed phase).  Both are deterministic for a
seed.

``figures``      closed loop, serial: the Fig. 12 point set cold, then
                 the Fig. 14 sweep over the already built workloads.
``serve_sparse`` open loop: a virtual-time Poisson loadtest on gpu,
                 tta and ttaplus over the same resident indexes.
``serve_churn``  the same reads plus a seeded write stream; each
                 platform leg gets its own copy of the indexes.
"""

import copy
import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import repro.exec
import repro.serve as serve
from repro.exec import StubResult, make_spec
from repro.harness import experiments, runner
from repro.mutation import MutationConfig, WriteProfile, parse_rebuild_policy
from repro.serve.clock import DEFAULT_CLOCK

#: Serve legs, in order.
SERVE_PLATFORMS = ("gpu", "tta", "ttaplus")
#: Query classes every serve leg mixes.
SERVE_CLASSES = ("point", "range", "knn", "radius")
#: Write stream of ``serve_churn`` (writes per virtual second).
CHURN_MIX = {"insert": 300.0, "delete": 150.0, "update": 150.0}
CHURN_POLICY = "writes:64"
#: Writes between refits (the mutation benchmark's default).
CHURN_REFIT_THRESHOLD = 16
#: Seed of the read and write streams.  A round's seed picks the index
#: datasets; the read stream stays that of the published serving
#: benchmark, so every seed serves the same operating point (class mix,
#: arrivals, batch sizes).
TRAFFIC_SEED = 0
#: Queries per batch checked against the golden oracle.
MAX_VERIFY = 4

#: Sizes.  ``full`` is what the benchmark measures; ``tiny`` only
#: exercises the machinery (the self-test).
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "figure_scale": "perfbench",
        "serve": None,            # repro.serve.SERVE_SCALES["smoke"]
        "duration_s": 0.25,
        "warmup_s": 0.05,
    },
    "tiny": {
        "figure_scale": "perfbench-tiny",
        "serve": {
            "point": dict(n_keys=256, n_queries=64),
            "range": dict(n_rects=256, n_queries=64),
            "knn": dict(n_points=256, n_queries=64, k=4),
            "radius": dict(n_points=256, n_queries=64),
        },
        "duration_s": 0.02,
        "warmup_s": 0.005,
    },
}

#: Figure parameters of the benchmark, registered next to the repo's own
#: scales at run time.  ``perfbench`` halves the ``smoke`` sizes, so
#: that a round is short enough to repeat several times in a run.
FIGURE_SCALES: Dict[str, Dict[str, Any]] = {}
FIGURE_SCALES["perfbench"] = dict(
    btree_sweep=[(1024, 1024)],
    btree_main=(1024, 1024),
    nbody_bodies=192,
    rtnn=(1024, 192),
    lumi_res=8,
    wknd=dict(res=8, spheres=160, bounces=1),
)
FIGURE_SCALES["perfbench-tiny"] = dict(
    btree_sweep=[(256, 128)],
    btree_main=(256, 128),
    nbody_bodies=48,
    rtnn=(256, 48),
    lumi_res=4,
    wknd=dict(res=4, spheres=16, bounces=1),
)


@dataclass
class Round:
    """What one timed phase produced."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    sim_cycles: float = 0.0
    #: Modelled latency samples, virtual milliseconds.
    virtual_ms: List[float] = field(default_factory=list)
    #: Everything simulated, hashed into the digest.
    outputs: List[Any] = field(default_factory=list)
    #: Counters the per-layer report reads.
    counters: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: The untraced run's :class:`pace.Pacer` for the set-up or timed phase
#: in progress; ``_tick`` calls sit between the parts of both.
PACER = None


def _tick() -> None:
    if PACER is not None:
        PACER.tick()


def _span(recorder, name: str, layer: str):
    return recorder.span(name, layer) if recorder else nullcontext()


# -- figures ------------------------------------------------------------------
class Figures:
    name = "figures"

    def __init__(self, size: str):
        self.size = SIZES[size]

    @staticmethod
    def _rewrite(spec, seed: int):
        """The figure's own spec with the seed applied and golden
        verification forced on (Fig. 14 runs its points unverified)."""
        workload = dict(spec.workload)
        if "seed" in workload:
            workload["seed"] += seed
        run_kwargs = {k: v for k, v in spec.run_kwargs.items()
                      if k != "verify"}
        return make_spec(spec.kind, workload, spec.platform,
                         config=spec.config, run_kwargs=run_kwargs)

    def setup(self, seed: int, recorder=None) -> Dict[str, Any]:
        for name, params in FIGURE_SCALES.items():
            experiments.SCALES.setdefault(name, params)
        scale = self.size["figure_scale"]
        runner.clear_workload_cache()
        service = repro.exec.configure(jobs=1, cache_enabled=False)
        specs = [self._rewrite(spec, seed)
                 for fn in (experiments.fig12_speedup,
                            experiments.fig14_sensitivity)
                 for spec in service.collect(fn, scale)]
        built = set()
        for spec in specs:
            key = (spec.kind, json.dumps(spec.workload, sort_keys=True))
            if key not in built:
                built.add(key)
                _tick()
                runner.build_workload(spec.kind, spec.workload)

        state = {"scale": scale, "service": service, "calls": [],
                 "results": {}, "errors": []}
        execute = service.run

        def run(spec):
            spec = self._rewrite(spec, seed)
            state["calls"].append(spec.key)
            _tick()
            try:
                result = execute(spec)
            except Exception as exc:  # counted, never fatal
                state["errors"].append(
                    f"{spec.label}: {type(exc).__name__}: {exc}")
                return StubResult(spec)
            finally:
                _tick()
            state["results"][spec.key] = (spec, result)
            return result

        service.run = run
        return state

    def run(self, state, recorder=None) -> Round:
        with _span(recorder, "harness.fig12", "harness"):
            fig12 = experiments.fig12_speedup(state["scale"])
        with _span(recorder, "harness.fig14", "harness"):
            fig14 = experiments.fig14_sensitivity(state["scale"])
        service = state["service"]
        results = state["results"]
        out = Round()
        out.attempted = len(state["calls"])
        out.errors = list(state["errors"])
        out.errors += [f"{r.label}: {r.error}"
                       for r in service.manifest.records.values()
                       if r.status == "quarantined"]
        out.failed = len(out.errors)
        points = []
        for spec, result in results.values():
            out.sim_cycles += result.cycles
            out.virtual_ms.append(DEFAULT_CLOCK.seconds(result.cycles) * 1e3)
            points.append([spec.label, spec.platform, spec.config,
                           spec.run_kwargs, result.cycles])
        out.virtual_ms.sort()
        # Spec keys fold in a source fingerprint; the digest covers only
        # what was simulated.
        out.outputs = [fig12.rows, fig14.rows, points]
        out.counters = {
            "exec.executed": service.manifest.executed,
            "exec.memo_hits": len(state["calls"]) - service.manifest.total,
        }
        return out


# -- serving ------------------------------------------------------------------
class CheckedBackend(serve.LaunchBackend):
    """Counts what the benchmark treats as a failed query instead of
    letting it abort the loadtest: a golden-oracle mismatch and a result
    from the degraded legacy engine."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.launch_cycles: List[float] = []
        self.bad_queries = 0
        self.errors: List[str] = []

    def launch(self, index, qids, now=0.0):
        _tick()
        launch = super().launch(index, qids, now)
        self.launch_cycles.append(launch.cycles)
        if launch.engine == "legacy":
            self.bad_queries += len(qids)
            self.errors.append(f"{index.query_class}: degraded batch")
        return launch

    def _verify(self, index, qids, results):
        try:
            super()._verify(index, qids, results)
        except AssertionError as exc:
            self.bad_queries += len(qids)
            self.errors.append(f"{index.query_class}: {exc}")


class Serve:
    def __init__(self, size: str, churn: bool):
        self.size = SIZES[size]
        self.churn = churn
        self.name = "serve_churn" if churn else "serve_sparse"

    def setup(self, seed: int, recorder=None) -> Dict[str, Any]:
        params = self.size["serve"] or serve.SERVE_SCALES["smoke"]
        indexes = {}
        for cls in SERVE_CLASSES:
            _tick()
            indexes[cls] = serve.build_resident_index(
                cls, dict(params[cls], seed=seed))
        if not self.churn:
            return {platform: indexes for platform in SERVE_PLATFORMS}
        copies = {}
        with _span(recorder, "setup.copy_indexes", "trees"):
            for platform in SERVE_PLATFORMS:
                _tick()
                copies[platform] = copy.deepcopy(indexes)
        return copies

    def _mutation(self):
        if not self.churn:
            return None
        return MutationConfig(
            write=WriteProfile(mix=dict(CHURN_MIX), seed=TRAFFIC_SEED),
            policy=parse_rebuild_policy(CHURN_POLICY),
            refit_threshold=CHURN_REFIT_THRESHOLD)

    def run(self, state, recorder=None) -> Round:
        profile = serve.LoadProfile(qps=1000.0,
                                    duration_s=self.size["duration_s"],
                                    warmup_s=self.size["warmup_s"],
                                    seed=TRAFFIC_SEED)
        policy = serve.BatchPolicy(max_batch=32, max_wait_s=2e-3)
        resilience = serve.ResilienceConfig()
        out = Round()
        launch_ms: List[float] = []
        busy_s = end_s = 0.0
        batches = degraded = retries = 0
        sizes = 0
        for platform in SERVE_PLATFORMS:
            backend = CheckedBackend(platform, max_verify=MAX_VERIFY,
                                    resilience=resilience)
            try:
                report = serve.run_loadtest(
                    platform, state[platform], profile, policy=policy,
                    backend=backend, resilience=resilience,
                    mutation=self._mutation())
            except Exception as exc:  # counted, never fatal
                out.attempted += 1
                out.failed += 1
                out.errors.append(f"{platform}: {type(exc).__name__}: {exc}")
                continue
            doc = report.to_dict()
            writes = (report.mutation_summary or {}).get("writes_applied", 0)
            out.attempted += report.offered + writes
            out.failed += report.offered - report.served + \
                backend.bad_queries
            out.errors += [f"{platform}/{e}" for e in backend.errors]
            if report.offered != report.served:
                out.errors.append(f"{platform}: served {report.served} of "
                                  f"{report.offered}")
            out.sim_cycles += report.sim_cycles
            out.virtual_ms += report.all_latencies_ms()
            out.outputs.append([doc, backend.launch_cycles])
            leg_ms = [DEFAULT_CLOCK.launch_seconds(c) * 1e3
                      for c in backend.launch_cycles]
            launch_ms += leg_ms
            busy_s += sum(leg_ms) / 1e3
            end_s += report.t_end
            batches += report.batches
            sizes += sum(report.batch_sizes)
            degraded += report.degraded_batches
            retries += report.retries
        out.failed = min(out.failed, out.attempted)
        out.virtual_ms.sort()
        launch_ms.sort()
        out.counters = {
            "serve.batches": batches,
            "serve.mean_batch_size": sizes / batches if batches else 0.0,
            "serve.device_busy_frac": busy_s / end_s if end_s else 0.0,
            "serve.launch_ms": launch_ms,
            "serve.degraded_batches": degraded,
            "serve.retries": retries,
        }
        return out


def make(name: str, size: str):
    if name == "figures":
        return Figures(size)
    if name in ("serve_sparse", "serve_churn"):
        return Serve(size, churn=name == "serve_churn")
    raise KeyError(name)



def nearest_rank(ordered: List[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return None
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]
