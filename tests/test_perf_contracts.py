"""Performance contracts of the batched hot paths.

Three families:

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
"""

import gc
import os
import pathlib
import shutil
import tracemalloc

import pytest

from repro.exec.cache import build_fingerprint
from repro.gpu import GPUConfig
from repro.gpu.device import KernelStats
from repro.gpu.replay import launch_replay_enabled
from repro.gpu.sm import SM
from repro.harness.runner import run_btree, run_rtnn
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
