"""repro.guard: watchdog, invariants, fault injection, exec quarantine.

The fault-detection tests are the guard's reason to exist: each fault
class from :mod:`repro.guard.faults` is injected into a real TTA run
and must be caught with a diagnostic bundle naming the stuck unit and
job.  The exec-layer tests then check the quarantine story end to end
— a poisoned spec is quarantined with its diagnostic bundle and raises
when requested, while the rest of the sweep completes.
"""

import json
import os
import pathlib
import pickle

import pytest

from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    GuardError,
    InvariantViolation,
    SimulationStallError,
)
from repro.gpu import GPU, AccelCall, GPUConfig
from repro.guard import Guard, GuardConfig, guard_mode
from repro.guard.faults import (
    FaultPlan,
    corrupt_cache_entry,
    faulty_factory,
    parse_plans,
)
from repro.harness.runner import scaled_config_for
from repro.kernels.btree_search import btree_accel_kernel
from repro.rta.rta import make_rta_factory
from repro.rta.traversal import Step, TraversalJob
from repro.sim.resources import Timeline
from repro.workloads import make_btree_workload


# -- configuration -----------------------------------------------------------------
class TestGuardConfig:
    def test_default_mode_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        assert guard_mode() == "on"

    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "paranoid")
        with pytest.raises(ConfigurationError):
            guard_mode()

    def test_from_env_thresholds(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "strict")
        monkeypatch.setenv("REPRO_GUARD_STALL_EVENTS", "5000")
        monkeypatch.setenv("REPRO_GUARD_MAX_CYCLES", "123456")
        config = GuardConfig.from_env()
        assert config.strict and config.checks_invariants
        assert config.stall_events == 5000
        assert config.max_cycles == 123456

    def test_bad_threshold_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD_CHECK_EVENTS", "-5")
        with pytest.raises(ConfigurationError):
            GuardConfig.from_env()

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            GuardConfig(mode="bogus")
        with pytest.raises(ConfigurationError):
            GuardConfig(stall_events=0)
        with pytest.raises(ConfigurationError):
            GuardConfig(max_cycles=-1)

    def test_resolve_off_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "off")
        assert Guard.resolve(None) is None
        assert Guard.resolve(GuardConfig(mode="off")) is None

    def test_resolve_builds_from_config_and_refuses_guard(self):
        built = Guard.resolve(GuardConfig(mode="watch"))
        assert isinstance(built, Guard) and built.config.mode == "watch"
        assert Guard.resolve(GuardConfig(mode="watch")) is not built
        # A Guard holds one run's state; sharing it across launches is
        # refused rather than silently rebound.
        with pytest.raises(ConfigurationError):
            Guard.resolve(Guard())

    def test_fault_plan_parsing(self):
        plans = parse_plans("stall:query=7:sm=0; lost_response:sm=all")
        assert plans[0] == FaultPlan("stall", query_id=7, sm=0)
        assert plans[1].applies_to_sm(3)
        with pytest.raises(FaultInjectionError):
            parse_plans("meltdown")


# -- error plumbing ----------------------------------------------------------------
class TestGuardErrors:
    def test_diagnostics_survive_pickling(self):
        err = SimulationStallError(
            "stuck", {"reason": "no-progress", "cycle": 42})
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, SimulationStallError)
        assert isinstance(clone, GuardError)
        assert clone.diagnostics == {"reason": "no-progress", "cycle": 42}
        assert "no-progress" in str(clone)

    def test_diagnostics_default_empty(self):
        assert InvariantViolation("broken").diagnostics == {}


# -- timeline order checking -------------------------------------------------------
class _OrderSpy:
    def __init__(self):
        self.violations = []

    def order_violation(self, name, now, last):
        self.violations.append((name, now, last))


class TestTimelineOrderCheck:
    def test_monotone_acquisitions_pass(self):
        spy = _OrderSpy()
        timeline = Timeline("t")
        timeline.enable_order_check(spy)
        for now in (0.0, 1.0, 1.5, 1.2, 2.0):  # within 1-cycle jitter
            timeline.acquire(now, 1.0)
        assert spy.violations == []

    def test_out_of_order_acquisition_flagged(self):
        spy = _OrderSpy()
        timeline = Timeline("t")
        timeline.enable_order_check(spy)
        timeline.acquire(10.0, 1.0)
        timeline.acquire(5.0, 1.0)  # 5 < 10 - tolerance
        assert spy.violations and spy.violations[0][0] == "t"

    def test_unchecked_timeline_has_no_overhead_path(self):
        timeline = Timeline("t")
        timeline.acquire(10.0, 1.0)
        timeline.acquire(5.0, 1.0)  # silently reordered, as before


# -- fault detection ---------------------------------------------------------------
def _faulted_launch(plan, config, n_queries=64, **workload_kw):
    """One-SM TTA btree run with ``plan`` armed and ``config`` guarding."""
    wl = make_btree_workload("btree", n_keys=2048, n_queries=n_queries,
                             seed=9, **workload_kw)
    cfg = scaled_config_for(wl.image.size_bytes).with_overrides(n_sms=1)
    gpu = GPU(cfg, accelerator_factory=faulty_factory(
        make_rta_factory(tta=True), plan))
    args = wl.kernel_args(jobs=wl.jobs("tta"))
    return gpu.launch(btree_accel_kernel, wl.n_queries, args=args,
                      guard=config)


class TestFaultDetection:
    CONFIG = GuardConfig(mode="on", check_events=2_000, stall_events=10_000)

    def test_stall_caught_by_watchdog(self):
        with pytest.raises(SimulationStallError) as err:
            _faulted_launch(FaultPlan("stall", query_id=3), self.CONFIG)
        bundle = err.value.diagnostics
        assert bundle["reason"] == "no-progress"
        assert 3 in bundle["cores"][0]["stuck_jobs"]
        assert bundle["cores"][0]["sm"] == 0

    def test_drop_wake_caught(self):
        with pytest.raises(SimulationStallError) as err:
            _faulted_launch(FaultPlan("drop_wake", query_id=3), self.CONFIG)
        bundle = err.value.diagnostics
        # Caught by the parked-work scan if other jobs keep the clock
        # moving, or by the quiescence check once the run goes quiet.
        assert bundle["reason"] in ("parked-work", "quiescent-with-pending")
        assert 3 in bundle["cores"][0]["stuck_jobs"]

    def test_dup_complete_caught(self):
        with pytest.raises(InvariantViolation) as err:
            _faulted_launch(FaultPlan("dup_complete", query_id=3),
                            self.CONFIG)
        assert err.value.diagnostics["reason"] == "duplicate-completion"
        assert "completed twice" in str(err.value)

    def test_lost_response_caught_by_conservation(self):
        with pytest.raises(InvariantViolation) as err:
            _faulted_launch(FaultPlan("lost_response"), self.CONFIG)
        bundle = err.value.diagnostics
        assert bundle["reason"] == "memsys-balance"
        assert bundle["memsys"]["sector_requests"] == \
            bundle["memsys"]["sector_responses"] + 1

    def test_lost_fetch_caught_by_cycle_budget(self):
        config = GuardConfig(mode="on", check_events=2_000,
                             stall_events=10_000, max_cycles=1_000_000)
        with pytest.raises(SimulationStallError) as err:
            _faulted_launch(FaultPlan("lost_fetch", after=5), config)
        assert err.value.diagnostics["reason"] == "cycle-budget"

    def test_bundle_is_json_serializable(self):
        with pytest.raises(SimulationStallError) as err:
            _faulted_launch(FaultPlan("stall", query_id=3), self.CONFIG)
        text = json.dumps(err.value.diagnostics)
        assert "no-progress" in text

    def test_clean_run_passes_strict(self):
        wl = make_btree_workload("btree", n_keys=2048, n_queries=64, seed=9)
        cfg = scaled_config_for(wl.image.size_bytes).with_overrides(n_sms=1)
        gpu = GPU(cfg, accelerator_factory=make_rta_factory(tta=True))
        args = wl.kernel_args(jobs=wl.jobs("tta"))
        stats = gpu.launch(btree_accel_kernel, wl.n_queries, args=args,
                           guard=GuardConfig(mode="strict",
                                             check_events=2_000))
        assert stats.accel_stats["jobs_completed"] == 64


# -- cache corruption --------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        from repro.exec.cache import ResultCache
        from repro.exec.service import ExecutionService, STATUS_EXECUTED
        from repro.exec.spec import RunSpec

        cache = ResultCache(tmp_path)
        spec = RunSpec(kind="btree",
                       workload={"variant": "btree", "n_keys": 512,
                                 "n_queries": 32, "seed": 5},
                       platform="tta")
        service = ExecutionService(jobs=1, cache=cache)
        first = service.run(spec)
        damaged = corrupt_cache_entry(cache, spec)
        assert pathlib.Path(damaged).exists()

        assert cache.get(spec) is None  # miss, not an exception
        corrupt_dir = tmp_path / "corrupt"
        assert len(list(corrupt_dir.glob("*.pkl"))) == 1
        assert cache.stats()["corrupt"] == 1

        fresh = ExecutionService(jobs=1, cache=cache)
        again = fresh.run(spec)  # recomputed and re-cached
        assert fresh.manifest.records[spec.key].status == STATUS_EXECUTED
        assert again.cycles == first.cycles
        assert cache.get(spec) is not None


# -- pool restart limiting ---------------------------------------------------------
def _crash_or_echo(payload):
    if payload == "boom":
        os._exit(13)
    # Keep siblings in flight long enough that the crash reliably finds
    # them pending (the fallback re-runs them in one-shot isolation
    # workers, where the sleep repeats — kept short).
    import time
    time.sleep(0.3)
    return payload * 2


class TestPoolRestartLimit:
    def test_restart_budget_exhaustion_falls_back_to_serial(self, capsys):
        from repro.exec.pool import ParallelRunner

        try:
            runner = ParallelRunner(jobs=2, retries=0, max_restarts=0,
                                    backoff_base=0.0)
        except Exception:
            pytest.skip("no multiprocessing in this environment")
        with runner:
            outcomes = runner.map(_crash_or_echo,
                                  ["boom", "a", "b", "c"])
        by_payload = {p: outcomes[i]
                      for i, p in enumerate(["boom", "a", "b", "c"])}
        assert not by_payload["boom"].ok
        assert "restart limit" in by_payload["boom"].error
        # The isolation worker pinpoints the crasher by its exit code.
        assert "exit code 13" in by_payload["boom"].error
        for payload in ("a", "b", "c"):
            assert by_payload[payload].ok
            assert by_payload[payload].value == payload * 2
        captured = capsys.readouterr()
        assert "restart limit" in captured.err

    def test_deterministic_failures_not_retried(self):
        from repro.exec.pool import run_serial

        calls = []

        def fn(payload):
            calls.append(payload)
            raise InvariantViolation("broken", {"reason": "test"})

        outcomes = run_serial(fn, ["x"], retries=3)
        assert len(calls) == 1  # no retry: the verdict is deterministic
        assert outcomes[0].failure["type"] == "InvariantViolation"
        assert outcomes[0].failure["diagnostics"] == {"reason": "test"}


# -- exec quarantine ----------------------------------------------------------------
class TestExecQuarantine:
    def test_stalled_spec_is_quarantined_and_sweep_completes(
            self, tmp_path, monkeypatch):
        from repro.exec.cache import ResultCache
        from repro.exec.service import (
            ExecutionService,
            STATUS_EXECUTED,
            STATUS_QUARANTINED,
        )
        from repro.exec.spec import RunSpec

        # Query 40 only exists in the 64-query spec: exactly one point
        # of the sweep is poisoned.
        monkeypatch.setenv("REPRO_FAULTS", "stall:query=40:sm=all")
        monkeypatch.setenv("REPRO_GUARD_STALL_EVENTS", "10000")
        monkeypatch.setenv("REPRO_GUARD_CHECK_EVENTS", "2000")
        monkeypatch.setenv("REPRO_EXEC_SERIAL", "1")

        def spec_for(n_queries):
            return RunSpec(kind="btree",
                           workload={"variant": "btree", "n_keys": 512,
                                     "n_queries": n_queries, "seed": 5},
                           platform="tta")

        specs = [spec_for(16), spec_for(64), spec_for(32)]
        cache = ResultCache(tmp_path)
        service = ExecutionService(jobs=1, cache=cache)
        service.run_many(specs)  # must not raise and must not hang

        records = {spec.key: service.manifest.records[spec.key]
                   for spec in specs}
        assert records[specs[0].key].status == STATUS_EXECUTED
        assert records[specs[2].key].status == STATUS_EXECUTED
        poisoned = records[specs[1].key]
        assert poisoned.status == STATUS_QUARANTINED
        assert "SimulationStallError" in poisoned.error
        assert service.manifest.quarantined == 1

        # The diagnostic bundle is on disk and names the stuck job.
        bundle_path = tmp_path / "quarantine" / f"{specs[1].key}.json"
        assert bundle_path.exists()
        bundle = json.loads(bundle_path.read_text())
        diag = bundle["diagnostics"]
        assert diag["reason"] == "no-progress"
        assert any(40 in core["stuck_jobs"] for core in diag["cores"])

        # Requesting the quarantined point raises; it never enters the
        # disk cache, and the healthy points are cached.
        with pytest.raises(SimulationStallError):
            service.run(specs[1])
        assert service.manifest.records[specs[1].key].status \
            == STATUS_QUARANTINED
        assert not cache.contains(specs[1])
        assert cache.contains(specs[0])
        assert cache.contains(specs[2])

    def test_run_single_point_quarantines(self, tmp_path, monkeypatch):
        from repro.exec.cache import ResultCache
        from repro.exec.service import ExecutionService, STATUS_QUARANTINED
        from repro.exec.spec import RunSpec

        monkeypatch.setenv("REPRO_FAULTS", "stall:query=3")
        monkeypatch.setenv("REPRO_GUARD_STALL_EVENTS", "10000")
        monkeypatch.setenv("REPRO_GUARD_CHECK_EVENTS", "2000")

        spec = RunSpec(kind="btree",
                       workload={"variant": "btree", "n_keys": 512,
                                 "n_queries": 32, "seed": 5},
                       platform="tta")
        service = ExecutionService(jobs=1, cache=ResultCache(tmp_path))
        with pytest.raises(SimulationStallError):
            service.run(spec)
        record = service.manifest.records[spec.key]
        assert record.status == STATUS_QUARANTINED
        assert "SimulationStallError" in record.error
        assert (tmp_path / "quarantine" / f"{spec.key}.json").exists()
        assert not service.cache.contains(spec)


# -- guard stays out of the model --------------------------------------------------
class TestGuardTransparency:
    def test_guarded_and_unguarded_stats_identical(self):
        wl = make_btree_workload("btree", n_keys=1024, n_queries=64, seed=7)
        cfg = scaled_config_for(wl.image.size_bytes)

        def run(guard):
            gpu = GPU(cfg, accelerator_factory=make_rta_factory(tta=True))
            args = wl.kernel_args(jobs=wl.jobs("tta"))
            stats = gpu.launch(btree_accel_kernel, wl.n_queries, args=args,
                               guard=guard)
            return stats, dict(args.results)

        off, off_results = run(GuardConfig(mode="off"))
        strict, strict_results = run(GuardConfig(mode="strict",
                                                 check_events=1_000))
        assert off_results == strict_results
        assert float(off.cycles) == float(strict.cycles)
        assert off.total_warp_instructions == strict.total_warp_instructions
        assert off.accel_stats["jobs_completed"] == \
            strict.accel_stats["jobs_completed"]
