"""Performance contracts of the batched hot paths.

Four families:

* **Model fingerprints** — geometry/rta source edits must flip both the
  exec-cache scheduler fingerprint and the build fingerprint, so stale
  cached results can never be served across hot-path changes.
* **Allocation-free driver** — a warm RTA core resubmitted a 4096-job
  batch must not allocate per-job Python objects: the column-per-field
  job table recycles its slots.
* **Launch-level replay** — repeat launches of a marked kernel over an
  identical workload return byte-identical stats, and replay stays off
  wherever a launch is not a pure function of its arguments (armed
  faults, a non-default guard configuration), and for launches on the
  heap-engine oracle.
* **Pay per launch for what it uses** — a launch builds only the SMs
  its warps land on, and ``accel_stats``/``metrics`` are computed (and
  the idle SMs built) on first read.  Frozen fingerprints from the
  eager code pin that the lazy stats are unchanged.
"""

import gc
import hashlib
import json
import os
import pathlib
import pickle
import shutil
import tracemalloc

import pytest

from repro import obs
from repro.core.ttaplus.ttaplus import make_ttaplus_factory
from repro.exec.cache import build_fingerprint
from repro.gpu import GPU, GPUConfig
from repro.gpu.device import KernelStats
from repro.gpu.replay import launch_replay_enabled
from repro.gpu.sm import SM
from repro.harness.runner import run_btree, run_rtnn, scaled_config_for
from repro.kernels.radius_search import (radius_accel_kernel,
                                         radius_baseline_kernel)
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rta import Step, TraversalJob
from repro.rta.rta import make_rta_factory
from repro.sim import (HeapSimulator, Simulator, _model_source_hash,
                       scheduler_fingerprint)
from repro.workloads import make_btree_workload, make_rtnn_workload

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages whose sources feed either fingerprint (superset is fine:
#: the hash functions only glob what they cover).
_FINGERPRINT_PACKAGES = ("sim", "geometry", "rta", "trees", "workloads")


def _copy_model_tree(tmp_path) -> pathlib.Path:
    root = tmp_path / "repro"
    for package in _FINGERPRINT_PACKAGES:
        shutil.copytree(_SRC / package, root / package,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


class TestModelFingerprint:
    def test_copy_matches_repo_hashes(self, tmp_path):
        root = _copy_model_tree(tmp_path)
        assert _model_source_hash(root) == _model_source_hash()
        assert build_fingerprint(root=root) == build_fingerprint()

    def test_geometry_edit_flips_scheduler_hash(self, tmp_path):
        root = _copy_model_tree(tmp_path)
        before = _model_source_hash(root)
        target = root / "geometry" / "batch.py"
        target.write_text(target.read_text() + "\n# perturbed\n")
        assert _model_source_hash(root) != before

    def test_rta_edit_flips_scheduler_hash(self, tmp_path):
        root = _copy_model_tree(tmp_path)
        before = _model_source_hash(root)
        target = root / "rta" / "rta.py"
        target.write_text(target.read_text() + "\n# perturbed\n")
        assert _model_source_hash(root) != before

    def test_geometry_edit_flips_build_fingerprint(self, tmp_path):
        root = _copy_model_tree(tmp_path)
        before = build_fingerprint(root=root)
        target = root / "geometry" / "intersect.py"
        target.write_text(target.read_text() + "\n# perturbed\n")
        assert build_fingerprint(root=root) != before

    def test_scheduler_fingerprint_folds_model_hash(self):
        assert scheduler_fingerprint().startswith(_model_source_hash())


# -- allocation-free batched driver -------------------------------------------
_CFG = GPUConfig(n_sms=1, max_warps_per_sm=4)
_N_JOBS = 4096


def _make_core():
    sim = Simulator()
    hierarchy = MemoryHierarchy(sim, _CFG)
    sm = SM(sim, 0, _CFG, hierarchy, KernelStats(), make_rta_factory(tta=True))
    return sim, sm.accelerator


def _single_step_jobs(result):
    return [TraversalJob(qid, [Step(0x10000 + qid * 64, 64, "box")], result)
            for qid in range(_N_JOBS)]


class TestAllocationFreeDriver:
    def test_warm_resubmission_allocates_no_per_job_objects(self):
        sim, core = _make_core()
        core.submit(sim.now, _single_step_jobs("warm"))
        sim.run()
        assert core.jobs_completed == _N_JOBS
        capacity = core._jobs.capacity

        second = _single_step_jobs("again")  # built outside the window
        # A full collection also empties CPython's free lists; without
        # these two, what earlier tests parked there counts as blocks here.
        gc.collect()
        tracemalloc.start()
        core.submit(sim.now, second)
        sim.run()
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()

        assert core.jobs_completed == 2 * _N_JOBS
        # Slot recycling: the table must not have grown a single slot.
        assert core._jobs.capacity == capacity
        assert len(core._jobs.free) == capacity
        # O(1) allocation *count* from the driver: a per-job state
        # object would leave ~N_JOBS blocks attributed to rta.py; the
        # table driver leaves a handful (the jobs-list copy, the batch,
        # the results list, one pending-set rebuild).
        rta_blocks = sum(
            stat.count for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.endswith("rta.py"))
        assert rta_blocks < 64, f"{rta_blocks} live blocks from rta.py"
        # Peak envelope: the fixed costs above are ~130 B/job at this
        # batch size; per-job driver objects add 100+ B/job on top, so
        # 160 B/job separates the two regimes with margin for noise.
        assert peak < 160 * _N_JOBS, \
            f"peak {peak}B for {_N_JOBS} jobs (> 160B/job)"


# -- launch-level replay ------------------------------------------------------
class TestLaunchReplay:
    @pytest.fixture(autouse=True)
    def _default_environment(self, monkeypatch):
        # Replay is specified for the default environment; the strict CI
        # leg exports REPRO_GUARD=strict, which (rightly) turns replay off.
        for key in list(os.environ):
            if key.startswith("REPRO_GUARD") or key == "REPRO_FAULTS":
                monkeypatch.delenv(key)

    def test_repeat_tta_launch_is_identical_and_recorded(self):
        wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=9)
        first = run_btree(wl, "tta")
        assert any(isinstance(key, tuple) and key and key[0] == "__launch__"
                   for key in wl._stream_cache)
        second = run_btree(wl, "tta")  # verify=True checks results again
        assert second.stats.cycles == first.stats.cycles
        assert second.stats.warp_instructions.as_dict() == \
            first.stats.warp_instructions.as_dict()
        assert second.stats.accel_stats["jobs_completed"] == \
            first.stats.accel_stats["jobs_completed"]

    def test_replayed_stats_are_fresh_objects(self):
        wl = make_rtnn_workload(n_points=256, n_queries=32, seed=4)
        first = run_rtnn(wl, "rta")
        second = run_rtnn(wl, "rta")
        assert second.stats is not first.stats
        second.stats.cycles = -1.0  # mutating a replay must not poison
        third = run_rtnn(wl, "rta")
        assert third.stats.cycles == first.stats.cycles

    def test_enabled_by_default(self):
        assert launch_replay_enabled()

    @pytest.mark.parametrize("key,value", [
        ("REPRO_GUARD", "on"),
        ("REPRO_GUARD", ""),
        ("REPRO_GUARD_STALL_EVENTS", "2000000"),
    ])
    def test_enabled_when_guard_env_equals_default(self, monkeypatch, key,
                                                   value):
        monkeypatch.setenv(key, value)
        assert launch_replay_enabled()

    def test_relaunch_replays_under_default_guard_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "on")
        wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=9)
        first = run_btree(wl, "tta")
        runs = []
        fast_run = Simulator.run

        def spy(sim, *args, **kwargs):
            runs.append(sim)
            return fast_run(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", spy)
        second = run_btree(wl, "tta")
        assert runs == []
        assert second.stats.cycles == first.stats.cycles

    def test_disabled_under_legacy_engine(self, heap_engine, monkeypatch):
        """A launch recorded on the fast engine must be simulated, not
        replayed, on the heap-engine oracle — otherwise the differential
        tests would compare the fast engine with itself."""
        wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=9)
        run_btree(wl, "tta")
        assert any(isinstance(key, tuple) and key and key[0] == "__launch__"
                   for key in wl._stream_cache)
        heap_runs = []
        heap_run = HeapSimulator.run

        def spy(sim, *args, **kwargs):
            heap_runs.append(sim)
            return heap_run(sim, *args, **kwargs)

        monkeypatch.setattr(HeapSimulator, "run", spy)
        with heap_engine():
            run_btree(wl, "tta")
        assert len(heap_runs) == 1

    def test_disabled_under_armed_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "stall:q3")
        assert not launch_replay_enabled()

    def test_disabled_under_guard_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD_MAX_CYCLES", "1000")
        assert not launch_replay_enabled()
        monkeypatch.delenv("REPRO_GUARD_MAX_CYCLES")
        monkeypatch.setenv("REPRO_GUARD", "strict")
        assert not launch_replay_enabled()


# -- per-launch construction and stats on first read ----------------------------
#: sha256 of (accel_stats, metrics.as_dict()) for RTNN radius launches of
#: 1, 3 and 9 warps, frozen from the code that built all 8 SMs and
#: merged every stat eagerly.  Idle cores report zeros for their unit,
#: memory and warp-buffer rates, which the merged means keep.
_FROZEN_STATS = {
    ("gpu", 1): (
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "165d3fb3ef6e4af571cc14bcd97c3ec963ba839d8c9093546fa89992814152f3"),
    ("gpu", 3): (
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "48d1de1731e22d18b2203c060f07bd958a309ccabb2154b7083a5900524252ab"),
    ("gpu", 9): (
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "1e488f7dc4fba38a21485424e5a43b0a008e3a8b150b4b50e7b34e5ab577501f"),
    ("rta", 1): (
        "51672d10bee78c22f5a39acb65b252d8de4748487fb834b0e165ddc57c35f127",
        "bd3343272715cf0a671e5e413f3cbc9fc8a6cd437cc4f6d4aceeb3fcf07b8ca1"),
    ("rta", 3): (
        "a0b8ce63f89606492922fbcbad1ccc3935f796f661f2743eaf6803ecc1ee91dd",
        "b8782aab78c71d792998dc3c5fa598624cc8203bd67b6cc08d5dc3c90d0a3948"),
    ("rta", 9): (
        "f27d91d8e8ed135880fdf4e11a5984efee11e7aae7087aea2b5727e6baa02ced",
        "259ad36bee621d29cd831d97921c2667515378babf6b2cd35c12cad77b18a92a"),
    ("tta", 1): (
        "e704ab171d6b5be963b77c325f3c4ef75254e388ca0aa80188464c11bfbae527",
        "7f16dea3792b985ad878bf5b12b6476256d3a72cfeedd93719d8a908ce57eb13"),
    ("tta", 3): (
        "42df8261f704d3bc39f8fa6b57200e1e588c9c2039c90ea1f142ccb1a8b7aa0d",
        "8fb3484bd4b44acf59482e6da913da7ab3e457883d012f733df80d2547b88391"),
    ("tta", 9): (
        "d745c500348101ef145d4c5ef3b9e95ca87dc978ca622141cc803cfdb145a90e",
        "a34eb69a196e9a53eefd1bf7970d8d1e2ce758058f5e2d3c42675226e6718b80"),
    ("ttaplus", 1): (
        "e9fe9257537572b24a8f7429f40c99b03d86670fb085a6535b0b989c902910e9",
        "acc82515ed4ae722d296460f498106b8e94ce4070128f5b84769da7d3a697fec"),
    ("ttaplus", 3): (
        "fc0a93238f327b78df645e22fa14d9c95d3e4c1d4496276eba845442b0f85ece",
        "e741f09214698f5fe8c179fc1cc5924a4e5fe59dec65dec4950edb08e7474619"),
    ("ttaplus", 9): (
        "fd4c4a4e19e57e2f936ab0eecbdc25e19ce1d8718609964dc569a3d51c42c072",
        "dbf94b0656569b02002c6fa104f5be1d3fc94cd05213012fa1f5998e0ede2e39"),
}

_FACTORIES = {"rta": lambda: make_rta_factory(tta=False),
              "tta": lambda: make_rta_factory(tta=True),
              "ttaplus": make_ttaplus_factory}


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _radius_launch(platform, n_warps, factory=None):
    """One unread launch; ``max_events`` keeps launch replay (which
    pickles, and so reads, the stats) out of the way."""
    wl = make_rtnn_workload(n_points=256, n_queries=32 * n_warps, seed=5)
    config = scaled_config_for(wl.image.size_bytes)
    if platform == "gpu":
        gpu, kernel, args = GPU(config), radius_baseline_kernel, \
            wl.kernel_args()
    else:
        factory = factory or _FACTORIES[platform]()
        gpu = GPU(config, accelerator_factory=factory)
        kernel = radius_accel_kernel
        args = wl.kernel_args(jobs=wl.jobs(platform))
    return gpu.launch(kernel, wl.n_queries, args=args, max_events=10**9)


class TestStatsOnFirstRead:
    @pytest.mark.parametrize("platform,n_warps", sorted(_FROZEN_STATS))
    def test_lazy_stats_match_eager_fingerprints(self, platform, n_warps):
        stats = _radius_launch(platform, n_warps)
        assert "accel_stats" not in vars(stats)  # really the lazy path
        assert (_digest(stats.accel_stats),
                _digest(stats.metrics.as_dict())) == \
            _FROZEN_STATS[(platform, n_warps)]

    @pytest.mark.parametrize("platform", ["gpu", "ttaplus"])
    def test_pickled_unread_stats_equal_read_ones(self, platform):
        read = _radius_launch(platform, 3)
        expected = (read.accel_stats, read.metrics.as_dict())
        unread = _radius_launch(platform, 3)
        loaded = pickle.loads(pickle.dumps(unread))
        # Loaded entries carry plain attributes and no closure, the
        # layout of entries written before stats were computed lazily.
        assert "_finish" not in vars(loaded)
        assert {"accel_stats", "metrics"} <= set(vars(loaded))
        assert (loaded.accel_stats, loaded.metrics.as_dict()) == expected

    def test_bare_and_old_stats_read_defaults(self):
        stats = KernelStats()
        assert stats.accel_stats == {}
        assert not stats.metrics
        with pytest.raises(AttributeError):
            stats.no_such_attribute
        # An entry pickled before the metrics registry existed: plain
        # ``accel_stats``, no ``metrics``, no closure.
        old = KernelStats.__new__(KernelStats)
        old.__dict__.update(cycles=7.0, accel_stats={"jobs_completed": 3})
        old = pickle.loads(pickle.dumps(old))
        assert old.accel_stats == {"jobs_completed": 3}
        assert not old.metrics


class TestLaunchConstruction:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of SMs and accelerators built so far."""
        counts = {"sms": 0, "accels": 0}
        sm_init = SM.__init__

        def counting_init(sm, *args, **kwargs):
            counts["sms"] += 1
            sm_init(sm, *args, **kwargs)

        monkeypatch.setattr(SM, "__init__", counting_init)
        base = make_rta_factory(tta=True)

        def factory(sm):
            counts["accels"] += 1
            return base(sm)

        counts["factory"] = factory
        return counts

    def test_one_warp_builds_one_sm_then_the_rest_on_first_read(self,
                                                                built):
        stats = _radius_launch("tta", 1, factory=built["factory"])
        assert (built["sms"], built["accels"]) == (1, 1)
        stats.accel_stats
        assert (built["sms"], built["accels"]) == (8, 8)
        stats.accel_stats
        stats.metrics
        assert (built["sms"], built["accels"]) == (8, 8)

    def test_traced_launch_returns_with_every_sm_built(self, built):
        # A traced launch computes its stats before it ends the tracer's
        # launch, so the idle SMs exist by the time it returns.
        obs.enable()
        try:
            _radius_launch("tta", 1, factory=built["factory"])
        finally:
            obs.reset()
        assert (built["sms"], built["accels"]) == (8, 8)
