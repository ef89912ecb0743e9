"""Differential tests: calendar-queue engine vs the seed heap engine.

The fast core (``repro.sim.engine.Simulator``) must preserve the legacy
heap engine's semantics exactly: same event interleaving (the heap's
``(time, seq)`` order), same signal wake-ups, same final clock.  These
tests interpret randomized process programs — generated as pure data
from seeded RNGs, no external property-testing dependency — on both
engines and require identical execution traces.  Whole-launch tests
reach the heap engine through the ``heap_engine`` fixture
(``tests/conftest.py``), which substitutes it for the simulator a
launch builds.
"""

import contextlib

import pytest

import random

import repro.gpu.device
from repro.errors import SimulationError
from repro.sim import (
    HeapSimulator,
    Simulator,
    ceil_cycles,
    scheduler_fingerprint,
)

N_MANUAL_SIGNALS = 3   # fired (at most once) by "fire" ops
N_TIMED_SIGNALS = 2    # fired by pre-scheduled fire_at events
N_SIGNALS = N_MANUAL_SIGNALS + N_TIMED_SIGNALS


def generate_program(rng: random.Random, depth: int = 0):
    """A process body as pure data: a list of op tuples."""
    ops = []
    for _ in range(rng.randint(2, 7)):
        roll = rng.random()
        if roll < 0.40:
            ops.append(("delay", rng.randint(0, 5)))
        elif roll < 0.60:
            ops.append(("wait", rng.randrange(N_SIGNALS)))
        elif roll < 0.80:
            ops.append(("fire", rng.randrange(N_MANUAL_SIGNALS),
                        rng.randint(0, 99)))
        elif roll < 0.90 and depth < 2:
            ops.append(("spawn", generate_program(rng, depth + 1)))
        else:
            ops.append(("call_after", rng.randint(0, 8), rng.randint(0, 999)))
    return ops


def generate_scenario(seed: int):
    """Top-level programs plus the timed fire_at schedule."""
    rng = random.Random(seed)
    programs = [generate_program(rng) for _ in range(rng.randint(2, 5))]
    fire_times = [rng.randint(1, 12) for _ in range(N_TIMED_SIGNALS)]
    return programs, fire_times


def run_scenario(sim, programs, fire_times):
    """Interpret a scenario on ``sim``; return the execution trace."""
    trace = []
    signals = [sim.signal() for _ in range(N_SIGNALS)]
    for i, t in enumerate(fire_times):
        signals[N_MANUAL_SIGNALS + i].fire_at(t, ("timed", i))

    def make_process(pid, ops):
        def body():
            for step, op in enumerate(ops):
                kind = op[0]
                trace.append((kind, pid, step, sim.now))
                if kind == "delay":
                    yield op[1]
                elif kind == "wait":
                    value = yield signals[op[1]]
                    trace.append(("woke", pid, step, sim.now, value))
                elif kind == "fire":
                    sig = signals[op[1]]
                    if not sig.fired:
                        sig.fire(op[2])
                elif kind == "spawn":
                    sim.spawn(make_process((pid, step), op[1])())
                elif kind == "call_after":
                    sim.call_after(
                        op[1],
                        lambda tag=op[2]: trace.append(("cb", tag, sim.now)))
            trace.append(("end", pid, sim.now))
        return body

    for pid, ops in enumerate(programs):
        sim.spawn(make_process(pid, ops)())
    end = sim.run()
    return trace, end


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_trace_and_final_time(self, seed):
        programs, fire_times = generate_scenario(seed)
        fast_trace, fast_end = run_scenario(Simulator(), programs, fire_times)
        ref_trace, ref_end = run_scenario(HeapSimulator(), programs,
                                          fire_times)
        assert fast_trace == ref_trace
        assert float(fast_end) == float(ref_end)

    def test_traces_are_nontrivial(self):
        # Guard against the generator degenerating into empty scenarios.
        total = 0
        for seed in range(40):
            programs, fire_times = generate_scenario(seed)
            trace, _ = run_scenario(Simulator(), programs, fire_times)
            total += len(trace)
        assert total > 40 * 10


class TestEndToEndEquivalence:
    """Full-platform check: both engines run the same quantized model."""

    @pytest.fixture(scope="class")
    def btree_wl(self):
        from repro.workloads import make_btree_workload
        return make_btree_workload("btree", n_keys=256, n_queries=128,
                                   seed=11)

    def _run(self, wl, platform):
        from repro.harness.runner import run_btree, scaled_config_for
        cfg = scaled_config_for(wl.image.size_bytes)
        return run_btree(wl, platform, config=cfg)

    def test_baseline_gpu_cycles_identical(self, btree_wl, heap_engine):
        fast = self._run(btree_wl, "gpu")
        with heap_engine():
            legacy = self._run(btree_wl, "gpu")
        # The SM path is shared generator code, quantized identically on
        # both engines: the clocks must agree exactly.
        assert float(fast.stats.cycles) == float(legacy.stats.cycles)
        assert fast.stats.memory == legacy.stats.memory

    def test_tta_cycles_close(self, btree_wl, heap_engine):
        fast = self._run(btree_wl, "tta")
        with heap_engine():
            legacy = self._run(btree_wl, "tta")
        # The batched driver resumes jobs on cycle boundaries (the legacy
        # engine resumed them at exact float times), so sub-cycle drain
        # ordering may differ — but the analytic model is the same, and
        # the clocks must agree to a few percent.
        assert fast.stats.cycles == pytest.approx(legacy.stats.cycles,
                                                  rel=0.05)
        assert fast.stats.accel_stats["jobs_completed"] == \
            legacy.stats.accel_stats["jobs_completed"]


class TestMetricsEquivalence:
    """repro.obs metric parity between the fast and legacy engines.

    The metrics registry folds the same model counters on both engines,
    so the *set* of metric names must be identical, count-like metrics
    must match exactly, and rate-like metrics must agree to the same
    tolerance as the underlying clocks.
    """

    @pytest.fixture(scope="class")
    def btree_wl(self):
        from repro.workloads import make_btree_workload
        return make_btree_workload("btree", n_keys=256, n_queries=128,
                                   seed=11)

    def _run(self, wl, platform):
        from repro.harness.runner import run_btree, scaled_config_for
        cfg = scaled_config_for(wl.image.size_bytes)
        return run_btree(wl, platform, config=cfg)

    def test_baseline_gpu_metrics_identical(self, btree_wl, heap_engine):
        fast = self._run(btree_wl, "gpu").metrics
        with heap_engine():
            legacy = self._run(btree_wl, "gpu").metrics
        assert set(fast.names()) == set(legacy.names())
        for name in fast.names():
            assert fast.get(name) == legacy.get(name), name

    def test_tta_metrics_equivalent(self, btree_wl, heap_engine):
        fast = self._run(btree_wl, "tta").metrics
        with heap_engine():
            legacy = self._run(btree_wl, "tta").metrics
        assert set(fast.names()) == set(legacy.names())
        # Count metrics are engine-independent (same traversal steps,
        # same ops); clocks and rates agree like the cycle counts do.
        assert fast.get("accel.jobs_completed") == \
            legacy.get("accel.jobs_completed")
        assert fast.get("rta.unit.query_key.ops") == \
            legacy.get("rta.unit.query_key.ops")
        assert fast.get("sim.warp_instructions") == \
            legacy.get("sim.warp_instructions")
        assert fast.get("sim.cycles") == \
            pytest.approx(legacy.get("sim.cycles"), rel=0.05)
        assert fast.get("memsys.dram.utilization") == \
            pytest.approx(legacy.get("memsys.dram.utilization"), rel=0.10)


class TestDegenerateEquivalence:
    """Degenerate traversal batches: both engines must terminate
    cleanly with identical functional results and matching stats."""

    @staticmethod
    def _launch_jobs(jobs, guard=None):
        from repro.gpu import GPU, AccelCall, GPUConfig
        from repro.rta.rta import make_rta_factory

        out = {}

        def kernel(tid, args):
            r = yield AccelCall(jobs[tid], tag=0)
            args[tid] = r

        gpu = GPU(GPUConfig(n_sms=1),
                  accelerator_factory=make_rta_factory())
        stats = gpu.launch(kernel, len(jobs), args=out, guard=guard)
        return stats, out

    @staticmethod
    def _duplicate_jobs():
        from repro.rta.traversal import Step, TraversalJob
        steps = [Step(0, 64, "box"), Step(64, 64, "box")]
        return [TraversalJob(i, list(steps), i) for i in range(64)]

    @staticmethod
    def _all_miss_jobs():
        from repro.rta.traversal import Step, TraversalJob
        return [TraversalJob(i, [Step((i * 11 + s) << 20, 64, "box")
                                 for s in range(8)], i)
                for i in range(32)]

    @pytest.mark.parametrize("batch", ["duplicates", "all_miss"])
    def test_same_results_and_stats(self, batch, heap_engine):
        jobs = (self._duplicate_jobs() if batch == "duplicates"
                else self._all_miss_jobs())
        fast, fast_out = self._launch_jobs(jobs)
        with heap_engine():
            legacy, legacy_out = self._launch_jobs(jobs)
        assert fast_out == legacy_out
        assert fast.accel_stats["jobs_completed"] == \
            legacy.accel_stats["jobs_completed"] == len(jobs)
        assert fast.accel_stats["node_fetches"] == \
            legacy.accel_stats["node_fetches"]
        assert float(fast.cycles) == pytest.approx(float(legacy.cycles),
                                                   rel=0.05)

    def test_max_cycles_aborts_on_both_engines(self, heap_engine):
        from repro.errors import SimulationStallError
        from repro.guard import GuardConfig
        from repro.rta.traversal import Step, TraversalJob

        jobs = [TraversalJob(i, [Step(64 * s, 64, "box")
                                 for s in range(50)], i)
                for i in range(32)]
        for engine in (contextlib.nullcontext, heap_engine):
            with engine(), pytest.raises(SimulationStallError) as err:
                self._launch_jobs(jobs,
                                  guard=GuardConfig(max_cycles=100))
            assert err.value.diagnostics["reason"] == "cycle-budget"


class TestFastEngineAPI:
    def test_non_integral_call_at_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_at(1.5, lambda: None)

    def test_non_integral_call_after_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_after(0.25, lambda: None)

    def test_integral_float_times_accepted(self):
        sim = Simulator()
        fired = []
        sim.call_at(3.0, fired.append, "a")
        sim.call_after(4.0, fired.append, "b")
        assert sim.run() == 4
        assert fired == ["a", "b"]

    def test_non_integral_yield_rejected(self):
        sim = Simulator()

        def proc():
            yield 1.5

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="non-integral"):
            sim.run()

    def test_integral_float_yield_accepted(self):
        sim = Simulator()
        seen = []

        def proc():
            yield 2.0
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert seen == [2]

    def test_ceil_cycles(self):
        assert ceil_cycles(0) == 0
        assert ceil_cycles(-3.7) == 0
        assert ceil_cycles(0.25) == 1
        assert ceil_cycles(1.0) == 1
        assert ceil_cycles(1.0 + 5e-10) == 1  # float noise, not a fraction
        assert ceil_cycles(1.1) == 2

    def test_same_cycle_events_run_fifo_without_heap(self):
        sim = Simulator()
        order = []
        sim.call_at(5, order.append, "first")
        sim.call_at(5, lambda: sim.call_at(5, order.append, "nested"))
        sim.call_at(5, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_far_future_scheduling(self):
        sim = Simulator()
        fired = []
        sim.call_at(10**9, fired.append, True)
        assert sim.run() == 10**9
        assert fired == [True]

    def test_pending_events(self):
        sim = Simulator()
        sim.call_at(1, lambda: None)
        sim.call_at(1, lambda: None)
        sim.call_at(7, lambda: None)
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0


class TestEngineSelection:
    def test_default_is_fast(self):
        # The only engine a launch builds at runtime.
        assert repro.gpu.device.Simulator is Simulator

    def test_legacy_selection(self, heap_engine):
        with heap_engine():
            assert repro.gpu.device.Simulator is HeapSimulator
        assert repro.gpu.device.Simulator is Simulator

    def test_fingerprint_in_cache_key(self):
        from repro.exec.spec import code_fingerprint
        assert scheduler_fingerprint() in code_fingerprint()
