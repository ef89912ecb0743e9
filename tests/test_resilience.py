"""Tests for the serving failure-semantics layer (``repro.serve.resilience``).

The fault-injection matrix: every serve-path injector in
``$REPRO_FAULTS`` has a test proving its recovery mechanism fires
(retry, circuit breaker, hedge, shed, integrity check), and the SLO
accounting invariant — every measured query lands in exactly one of
served / failed / shed — holds under each of them.  Plus the
transparency contract (resilience off, no faults: stat-for-stat
identical reports) and the overload demo (2x saturation: bounded p99
under ``shed``, unbounded queue growth under ``off``).
"""

import pytest

from repro.errors import (BackendLaunchError, ConfigurationError,
                          FaultInjectionError, InvariantViolation)
from repro.guard import (SERVE_KINDS, ServeFaultPlan, ServeFaults,
                         is_corrupt_result, parse_serve_plans)
from repro.guard.faults import parse_plans
from repro.serve import (
    BatchLaunch,
    BatchPolicy,
    CircuitBreaker,
    EwmaEstimator,
    LaunchBackend,
    LoadProfile,
    ResilienceConfig,
    build_resident_index,
    check_batch_integrity,
    run_loadtest,
)

TINY_POINT = dict(n_keys=512, n_queries=64)

OFF = ResilienceConfig(mode="off")
SHED = ResilienceConfig(mode="shed")
DEGRADE = ResilienceConfig(mode="degrade")
STRICT = ResilienceConfig(mode="strict")


@pytest.fixture(scope="module")
def point_index():
    return build_resident_index("point", TINY_POINT)


def faults(*plans):
    """A fresh armed-fault set (per-test trigger state)."""
    return ServeFaults(list(plans))


def assert_conserved(report):
    """The SLO invariant: offered == served + failed + shed."""
    assert report.offered == report.served + report.failed + report.shed
    slo = report.slo()
    assert slo["accounted"]
    assert slo["admitted"] == report.served + report.failed


# -- config & primitives ------------------------------------------------------------
class TestResilienceConfig:
    def test_mode_flags(self):
        assert not OFF.active and not OFF.sheds and not OFF.hedges
        assert SHED.sheds and not SHED.hedges
        assert DEGRADE.sheds and DEGRADE.hedges and not DEGRADE.strict
        assert STRICT.strict and STRICT.hedges

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(mode="panic")
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_queue=0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(deadline_ms=-1.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(ewma_alpha=1.5)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_retries=-1)

    def test_priority_scales_watermarks(self):
        cfg = ResilienceConfig(mode="shed", max_queue=100, backlog_ms=100.0)
        # Point lookups (tier 0) ride out overload that sheds range
        # scans (tier 2) first.
        assert cfg.queue_limit("point") == 100
        assert cfg.queue_limit("knn") == 75
        assert cfg.queue_limit("range") == 50
        assert cfg.backlog_limit_s("point") == pytest.approx(0.1)
        assert cfg.backlog_limit_s("range") == pytest.approx(0.05)
        assert cfg.priority("unheard_of_class") == 1

    def test_backoff_is_exponential_and_deterministic(self):
        cfg = ResilienceConfig(backoff_base_s=1e-4)
        assert cfg.backoff_s(1) == pytest.approx(1e-4)
        assert cfg.backoff_s(2) == pytest.approx(2e-4)
        assert cfg.backoff_s(3) == pytest.approx(4e-4)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESILIENCE", "degrade")
        monkeypatch.setenv("REPRO_RESILIENCE_MAX_QUEUE", "31")
        monkeypatch.setenv("REPRO_RESILIENCE_DEADLINE_MS", "7.5")
        cfg = ResilienceConfig.from_env()
        assert cfg.mode == "degrade"
        assert cfg.max_queue == 31
        assert cfg.deadline_ms == pytest.approx(7.5)

    def test_bad_env_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESILIENCE", "yolo")
        with pytest.raises(ConfigurationError):
            ResilienceConfig.from_env()


class TestEwmaEstimator:
    def test_cold_start_is_none(self):
        est = EwmaEstimator(alpha=0.5)
        assert est.value is None and est.samples == 0

    def test_converges_toward_samples(self):
        est = EwmaEstimator(alpha=0.5)
        assert est.observe(10.0) == 10.0    # first sample seeds
        est.observe(20.0)
        assert est.value == pytest.approx(15.0)
        for _ in range(20):
            est.observe(40.0)
        assert est.value == pytest.approx(40.0, rel=1e-3)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            EwmaEstimator(alpha=0.0)


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=1.0)
        assert breaker.allow(0.0)
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(0.1)
        assert breaker.record_failure(0.2)       # this one opens it
        assert breaker.opens == 1
        assert not breaker.allow(0.5)            # hard open

    def test_half_open_single_probe_then_close(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.5)
        assert breaker.allow(1.5)                # the half-open probe
        assert not breaker.allow(1.6)            # only ONE probe
        breaker.record_success(1.7)
        assert breaker.allow(1.8)                # closed again
        assert breaker.failures == 0

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.5)
        assert breaker.record_failure(1.5)       # probe failed: reopen
        assert breaker.opens == 2
        assert not breaker.allow(2.0)            # cooldown restarts at 1.5
        assert breaker.allow(2.6)


class TestBatchIntegrity:
    def test_sound_batch_passes(self):
        assert check_batch_integrity({0: 1, 1: 2, 2: 3}, 3) is None

    def test_missing_slot_detected(self):
        violation = check_batch_integrity({0: 1, 2: 3}, 3)
        assert violation is not None and "missing" in violation

    def test_garbled_result_detected(self):
        results = {0: 1, 1: 2}
        plan = ServeFaultPlan("corrupt_result", slot=0)
        victim = ServeFaults([plan]).corrupt(results)
        assert victim == 0 and 0 not in results
        assert is_corrupt_result(results[1])
        violation = check_batch_integrity(results, 2)
        assert violation is not None


# -- fault grammar ------------------------------------------------------------------
class TestServeFaultParsing:
    def test_parses_each_kind_with_options(self):
        plans = parse_serve_plans(
            "launch_fail:times=2;slow_backend:factor=8;"
            "shard_blackout:shard=1:at_ms=25;corrupt_result:after=1")
        assert [p.kind for p in plans] == list(SERVE_KINDS)
        assert plans[0].times == 2
        assert plans[1].factor == 8.0
        assert plans[2].shard == 1 and plans[2].at_ms == 25.0
        assert plans[3].after == 1

    def test_layers_split_one_env_string(self):
        """Core installers skip serve kinds and vice versa, so one
        ``$REPRO_FAULTS`` can poison both layers."""
        text = "stall:query=3;launch_fail:times=1"
        core = parse_plans(text)
        serve = parse_serve_plans(text)
        assert [p.kind for p in core] == ["stall"]
        assert [p.kind for p in serve] == ["launch_fail"]

    def test_rejects_unknown_kind_and_option(self):
        with pytest.raises(FaultInjectionError):
            parse_serve_plans("explode")
        with pytest.raises(FaultInjectionError):
            parse_serve_plans("launch_fail:mood=bad")
        with pytest.raises(FaultInjectionError):
            ServeFaultPlan("slow_backend", factor=0.0)

    def test_trigger_consumption(self):
        armed = faults(ServeFaultPlan("launch_fail", after=1, times=2))
        fired = []
        for _ in range(5):
            try:
                armed.fail_launch()
                fired.append(False)
            except BackendLaunchError:
                fired.append(True)
        # Skips one opportunity, fires twice, then disarms.
        assert fired == [False, True, True, False, False]

    def test_times_zero_never_disarms(self):
        armed = faults(ServeFaultPlan("slow_backend", factor=3.0, times=0))
        assert [armed.slow_factor() for _ in range(4)] == [3.0] * 4

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slow_backend:factor=2")
        armed = ServeFaults.from_env()
        assert bool(armed)
        assert armed.slow_factor() == 2.0

    def test_blackouts_skip_missing_shards(self):
        armed = faults(ServeFaultPlan("shard_blackout", shard=1, at_ms=10))
        assert armed.blackouts(1) == {}       # shard 1 doesn't exist
        assert armed.blackouts(2) == {1: pytest.approx(0.010)}


# -- the backend failure stack ------------------------------------------------------
class TestBackendRetry:
    def test_transient_failure_retries_to_fast_engine(self, point_index):
        """``launch_fail:times=1``: bounded retry recovers transparently
        — the batch still completes on the fast engine."""
        backend = LaunchBackend(
            "tta", resilience=OFF,
            faults=faults(ServeFaultPlan("launch_fail", times=1)))
        launch = backend.launch(point_index, [1, 2, 3])
        assert launch.engine == "fast" and not launch.failed
        assert backend.retries == 1
        assert launch.notes["retries"] == 1
        assert launch.backoff_s > 0
        wl = point_index.workload
        for slot, qid in enumerate([1, 2, 3]):
            assert launch.results[slot] == wl.golden[qid]

    def test_exhausted_retries_fail_the_batch(self, point_index):
        backend = LaunchBackend(
            "tta", resilience=OFF,
            faults=faults(ServeFaultPlan("launch_fail", times=0)))
        launch = backend.launch(point_index, [1, 2, 3])
        assert launch.failed and launch.engine == "failed"
        assert launch.results == {}
        assert backend.degraded == 1
        assert backend.retries == OFF.max_retries

    def test_exhausted_retries_degrade_under_policy(self, point_index):
        """The ``degrade`` policy has no fallback engine: exhausted
        retries fail the batch, counted as degraded by reason."""
        backend = LaunchBackend(
            "tta", resilience=DEGRADE,
            faults=faults(ServeFaultPlan("launch_fail", times=0)))
        launch = backend.launch(point_index, [1, 2, 3])
        assert launch.failed and launch.engine == "failed"
        assert launch.results == {}
        assert "injected launch failure" in launch.error
        assert launch.notes["degraded_reason"] == "launch_failure"
        assert backend.degraded_reasons == {"launch_failure": 1}


class TestBackendBreaker:
    def test_repeated_failures_open_the_breaker(self, point_index):
        cfg = ResilienceConfig(mode="off", max_retries=0,
                               breaker_threshold=2, breaker_cooldown_s=10.0)
        backend = LaunchBackend(
            "tta", resilience=cfg,
            faults=faults(ServeFaultPlan("launch_fail", times=0)))
        assert backend.launch(point_index, [1], now=0.0).failed
        assert backend.launch(point_index, [2], now=1.0).failed
        assert backend.breaker.opens == 1
        # While open, batches are rejected without touching the device.
        launches_before = backend.launches
        rejected = backend.launch(point_index, [3], now=2.0)
        assert rejected.failed and "breaker" in rejected.error
        assert backend.launches == launches_before + 1
        assert backend.faults.fired["launch_fail"] == 2   # no attempt made

    def test_open_breaker_degrades_under_policy(self, point_index):
        """Under ``degrade`` an open breaker fails batches outright,
        counted as degraded with reason ``breaker_open``."""
        cfg = ResilienceConfig(mode="degrade", max_retries=0,
                               breaker_threshold=1, breaker_cooldown_s=10.0)
        backend = LaunchBackend(
            "tta", resilience=cfg,
            faults=faults(ServeFaultPlan("launch_fail", times=1)))
        first = backend.launch(point_index, [1], now=0.0)
        assert first.failed                      # retryless: fail
        assert first.notes["degraded_reason"] == "launch_failure"
        second = backend.launch(point_index, [2], now=1.0)
        assert second.failed and "breaker" in second.error
        assert second.notes["degraded_reason"] == "breaker_open"
        assert backend.degraded_reasons == {"launch_failure": 1,
                                            "breaker_open": 1}

    def test_half_open_probe_recovers(self, point_index):
        cfg = ResilienceConfig(mode="off", max_retries=0,
                               breaker_threshold=1, breaker_cooldown_s=0.5)
        backend = LaunchBackend(
            "tta", resilience=cfg,
            faults=faults(ServeFaultPlan("launch_fail", times=1)))
        assert backend.launch(point_index, [1], now=0.0).failed
        assert backend.launch(point_index, [2], now=0.1).failed  # open
        probe = backend.launch(point_index, [3], now=1.0)        # half-open
        assert probe.engine == "fast"            # fault disarmed: success
        assert backend.breaker.opened_at is None  # closed again


class TestBackendIntegrity:
    def test_corrupt_batch_retries_once(self, point_index):
        backend = LaunchBackend(
            "tta", resilience=OFF,
            faults=faults(ServeFaultPlan("corrupt_result", times=1)))
        launch = backend.launch(point_index, [1, 2, 3])
        assert launch.engine == "fast" and not launch.failed
        assert backend.corrupt_detected == 1
        assert check_batch_integrity(launch.results, 3) is None

    def test_repeat_offender_degrades_even_when_off(self, point_index):
        """Integrity is not a policy knob: detection and failing the
        repeat offender happen in every mode; only *escalation* is
        strict-gated."""
        backend = LaunchBackend(
            "tta", resilience=OFF,
            faults=faults(ServeFaultPlan("corrupt_result", times=0)))
        launch = backend.launch(point_index, [1, 2, 3])
        assert launch.failed and launch.engine == "failed"
        assert launch.notes["degraded_reason"] == "corrupt_result"
        assert backend.corrupt_detected == 2

    def test_repeat_offender_degrades_under_policy(self, point_index):
        backend = LaunchBackend(
            "tta", resilience=DEGRADE,
            faults=faults(ServeFaultPlan("corrupt_result", times=0)))
        launch = backend.launch(point_index, [1, 2, 3])
        assert launch.failed and launch.engine == "failed"
        assert launch.notes["degraded_reason"] == "corrupt_result"
        # No corrupt result is ever handed back.
        assert launch.results == {}
        assert "slots missing" in launch.error

    def test_repeat_offender_raises_under_strict(self, point_index):
        backend = LaunchBackend(
            "tta", resilience=STRICT,
            faults=faults(ServeFaultPlan("corrupt_result", times=0)))
        with pytest.raises(InvariantViolation):
            backend.launch(point_index, [1, 2, 3])


class TestSlowBackend:
    def test_slow_factor_inflates_time_not_cycles(self, point_index):
        healthy = LaunchBackend("tta", resilience=OFF)
        baseline = healthy.launch(point_index, [1, 2, 3])
        slow = LaunchBackend(
            "tta", resilience=OFF,
            faults=faults(ServeFaultPlan("slow_backend", factor=8.0)))
        launch = slow.launch(point_index, [1, 2, 3])
        # Cycle counts stay truthful (one-shot equivalence holds under
        # chaos); only the service-time occupancy inflates.
        assert launch.cycles == baseline.cycles
        assert launch.slow_factor == 8.0
        from repro.serve import ServiceClock
        clock = ServiceClock()
        assert clock.launch_seconds(launch.cycles, launch.slow_factor) == \
            pytest.approx(8.0 * clock.launch_seconds(baseline.cycles))


# -- the loadtest under faults: conservation matrix ---------------------------------
def _tiny_loadtest(point_index, resilience, fault_plans=(), n_shards=1,
                   qps=400.0, policy=None, seed=5, warmup_s=0.01):
    backend = LaunchBackend("tta", resilience=resilience,
                            faults=faults(*fault_plans))
    profile = LoadProfile(qps=qps, duration_s=0.05, warmup_s=warmup_s,
                          mix={"point": 1.0}, seed=seed)
    return run_loadtest(
        "tta", {"point": point_index}, profile,
        policy=policy or BatchPolicy(max_batch=8, max_wait_s=2e-3),
        n_shards=n_shards, backend=backend, resilience=resilience)


class TestLoadtestFaultMatrix:
    def test_launch_fail_recovers_and_conserves(self, point_index):
        report = _tiny_loadtest(
            point_index, OFF, [ServeFaultPlan("launch_fail", times=1)])
        assert report.retries == 1
        assert report.failed == 0 and report.served == report.offered
        assert_conserved(report)

    def test_launch_fail_storm_accounts_failures(self, point_index):
        report = _tiny_loadtest(
            point_index, OFF, [ServeFaultPlan("launch_fail", times=0)])
        assert report.served == 0 and report.shed == 0
        assert report.failed == report.offered > 0
        assert report.breaker_opens >= 1
        assert_conserved(report)

    def test_breaker_shed_under_shed_policy(self, point_index):
        cfg = ResilienceConfig(mode="shed", max_retries=0,
                               breaker_threshold=2,
                               breaker_cooldown_s=10.0)
        report = _tiny_loadtest(
            point_index, cfg, [ServeFaultPlan("launch_fail", times=0)],
            warmup_s=0.0)
        # Once the breaker opens, arrivals shed at admission instead of
        # being admitted to doomed launches.
        assert report.breaker_opens >= 1
        assert report.shed_reasons.get("breaker", 0) > 0
        assert report.failed > 0 and report.served == 0
        assert_conserved(report)

    def test_launch_fail_storm_fails_under_policy(self, point_index):
        report = _tiny_loadtest(
            point_index, DEGRADE, [ServeFaultPlan("launch_fail", times=0)])
        # No fallback engine: nothing is served, every admitted query
        # fails and the open breaker sheds the rest at admission.
        assert report.served == 0 and report.offered > 0
        assert report.failed > 0
        assert report.degraded_batches > 0
        assert set(report.degraded_reasons) <= {"launch_failure",
                                                "breaker_open"}
        assert_conserved(report)

    def test_corrupt_result_detected_and_conserves(self, point_index):
        report = _tiny_loadtest(
            point_index, OFF, [ServeFaultPlan("corrupt_result", times=1)])
        assert report.corrupt_results == 1
        assert report.served == report.offered
        assert_conserved(report)

    def _blackout_loadtest(self, point_index, resilience):
        # Millisecond-scale service times guarantee a launch is in
        # flight on shard 1 when it goes dark at t=20ms.
        stub = _SlowStub(cycles=4_095_000.0)  # 3ms per shard launch
        stub.faults = faults(
            ServeFaultPlan("shard_blackout", shard=1, at_ms=20.0))
        profile = LoadProfile(qps=400.0, duration_s=0.05, warmup_s=0.0,
                              mix={"point": 1.0}, seed=5)
        return run_loadtest(
            "tta", {"point": point_index}, profile,
            policy=BatchPolicy(max_batch=8, max_wait_s=2e-3),
            n_shards=2, backend=stub, resilience=resilience)

    def test_blackout_without_hedging_fails_queries(self, point_index):
        report = self._blackout_loadtest(point_index, OFF)
        assert report.hedges == 0
        assert report.failed > 0              # the hung shard's queries
        assert report.served > 0              # device 0 kept serving
        assert_conserved(report)

    def test_blackout_with_hedging_re_dispatches(self, point_index):
        report = self._blackout_loadtest(point_index, DEGRADE)
        assert report.hedges >= 1
        assert report.failed == 0
        assert report.served == report.offered
        assert_conserved(report)

    def test_slow_backend_inflates_latency_not_cycles(self, point_index):
        baseline = _tiny_loadtest(point_index, OFF)
        slowed = _tiny_loadtest(
            point_index, OFF,
            [ServeFaultPlan("slow_backend", factor=16.0, times=0)])
        assert slowed.sim_cycles == baseline.sim_cycles
        assert max(slowed.all_latencies_ms()) > \
            max(baseline.all_latencies_ms())
        assert_conserved(slowed)

    def test_strict_escalates_persistent_corruption(self, point_index):
        with pytest.raises(InvariantViolation):
            _tiny_loadtest(
                point_index, STRICT,
                [ServeFaultPlan("corrupt_result", times=0)])


# -- deadlines & admission ----------------------------------------------------------
class TestDeadlines:
    def test_expired_queries_are_shed_at_dispatch(self, point_index):
        # Deadline shorter than the batch wait: every timeout-closed
        # batch expires its stragglers; EWMA then sheds at admission.
        cfg = ResilienceConfig(mode="shed", deadline_ms=0.5)
        report = _tiny_loadtest(
            point_index, cfg, qps=300.0,
            policy=BatchPolicy(max_batch=64, max_wait_s=5e-3))
        assert report.shed > 0
        assert set(report.shed_reasons) <= {"expired", "deadline"}
        assert_conserved(report)

    def test_generous_deadline_sheds_nothing(self, point_index):
        cfg = ResilienceConfig(mode="shed", deadline_ms=10_000.0)
        report = _tiny_loadtest(point_index, cfg)
        assert report.shed == 0 and report.deadline_misses == 0
        assert_conserved(report)

    def test_deadline_misses_counted_for_goodput(self, point_index):
        # Deadline between the batch wait and the service time: queries
        # are admitted (cold EWMA), served, but miss their budget.
        cfg = ResilienceConfig(mode="shed", deadline_ms=1.0, ewma_alpha=1e-9)
        report = _tiny_loadtest(
            point_index, cfg, qps=300.0,
            policy=BatchPolicy(max_batch=4, max_wait_s=5e-4))
        slo = report.slo()
        if report.deadline_misses:
            assert slo["goodput_qps"] < report.achieved_qps
        assert_conserved(report)


class _SlowStub:
    """Fixed-cost backend double: saturates at a known capacity."""

    def __init__(self, platform="tta", cycles=6_825_000.0):  # 5ms @ 1365MHz
        self.platform = platform
        self.cycles = cycles
        self.launches = 0
        self.degraded = 0

    def launch(self, index, qids, now=0.0):
        self.launches += 1
        return BatchLaunch(self.platform, index.query_class, len(qids),
                           self.cycles, {i: True for i in range(len(qids))},
                           stats=None)


class TestOverload:
    """The overload demo: 2x saturation, bounded p99 under ``shed``."""

    # 5ms service per batch of <= 8 on one device ~= 1600 qps capacity;
    # offer 2x that.
    QPS = 3200.0

    def _run(self, point_index, resilience, seed=9):
        profile = LoadProfile(qps=self.QPS, duration_s=0.5, warmup_s=0.05,
                              mix={"point": 1.0}, seed=seed)
        return run_loadtest(
            "tta", {"point": point_index}, profile,
            policy=BatchPolicy(max_batch=8, max_wait_s=2e-3),
            backend=_SlowStub(), resilience=resilience)

    def test_shed_bounds_p99_where_off_grows_unbounded(self, point_index):
        off = self._run(point_index, OFF)
        shed = self._run(point_index, SHED)
        off_p99 = off.slo()["p99_admitted_ms"]
        shed_p99 = shed.slo()["p99_admitted_ms"]
        # Without admission control the queue grows for the whole run:
        # p99 is a large fraction of the 500ms window.
        assert off_p99 > 100.0
        assert off.shed == 0
        # Shedding keeps admitted latency bounded near the deadline and
        # refuses a meaningful slice of the offered load.
        assert shed.shed > 0
        assert shed.slo()["shed_fraction"] > 0.2
        assert shed_p99 < off_p99 / 2
        assert_conserved(off)
        assert_conserved(shed)

    def test_overload_reports_are_deterministic(self, point_index):
        first = self._run(point_index, SHED)
        second = self._run(point_index, SHED)
        assert first.to_dict() == second.to_dict()

    def test_priority_sheds_bulk_classes_first(self):
        range_index = build_resident_index(
            "range", dict(n_rects=512, n_queries=32))
        point_index = build_resident_index("point", TINY_POINT)
        profile = LoadProfile(qps=self.QPS, duration_s=0.5, warmup_s=0.05,
                              mix={"point": 1.0, "range": 1.0}, seed=9)
        report = run_loadtest(
            "tta", {"point": point_index, "range": range_index}, profile,
            policy=BatchPolicy(max_batch=8, max_wait_s=2e-3),
            backend=_SlowStub(), resilience=SHED)
        assert report.shed > 0
        point_served = report.classes.get("point")
        range_served = report.classes.get("range")
        # Tier-0 point lookups survive overload better than tier-2
        # range scans (watermarks scale by priority share).
        assert point_served is not None and point_served.served > 0
        if range_served is not None:
            assert point_served.served > range_served.served
        assert_conserved(report)


# -- transparency -------------------------------------------------------------------
class TestTransparency:
    """Resilience off + no faults => stat-for-stat identical serving."""

    KEYS = ("offered", "served", "rejected", "batches", "degraded_batches",
            "mean_batch_size", "sim_cycles", "latency_ms", "classes")

    def _core(self, report):
        d = report.to_dict()
        return {k: d[k] for k in self.KEYS}

    def test_off_mode_matches_default_env(self, point_index, monkeypatch):
        monkeypatch.delenv("REPRO_RESILIENCE", raising=False)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        default = _tiny_loadtest(point_index, None)
        explicit = _tiny_loadtest(point_index, OFF)
        assert self._core(default) == self._core(explicit)
        assert default.resilience_mode == "off"
        assert default.shed == 0 and default.failed == 0
        # No resilience metrics leak into an off-mode snapshot.
        assert not [name for name in default.metrics.scalars
                    if name.startswith("serve.resilience.")]
        assert default.metrics.scalars == explicit.metrics.scalars

    def test_untriggered_shed_matches_off(self, point_index):
        """A shed policy whose watermarks never trip serves the exact
        same schedule as no policy at all."""
        generous = ResilienceConfig(mode="shed", max_queue=10 ** 6,
                                    deadline_ms=10_000.0,
                                    backlog_ms=10_000.0)
        off = _tiny_loadtest(point_index, OFF)
        armed = _tiny_loadtest(point_index, generous)
        assert self._core(off) == self._core(armed)
        assert armed.shed == 0
