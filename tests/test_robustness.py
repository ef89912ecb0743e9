"""Robustness: edge configurations and degenerate inputs."""

import pytest

from repro.errors import SimulationStallError
from repro.gpu import GPU, AccelCall, Compute, GPUConfig, Load
from repro.guard import GuardConfig
from repro.harness.runner import run_btree, scaled_config_for
from repro.rta.rta import make_rta_factory
from repro.rta.traversal import Step, TraversalJob
from repro.workloads import make_btree_workload


class TestDegenerateKernels:
    def test_kernel_with_no_ops(self):
        def kernel(tid, args):
            return
            yield  # pragma: no cover

        stats = GPU(GPUConfig(n_sms=1)).launch(kernel, 32)
        assert stats.cycles == 0
        assert stats.total_warp_instructions == 0

    def test_single_thread_kernel(self):
        def kernel(tid, args):
            yield Compute(5, tag=0)
            yield Load(0, 4, tag=1)

        stats = GPU(GPUConfig(n_sms=1)).launch(kernel, 1)
        assert stats.simt_efficiency == pytest.approx(1 / 32)

    def test_more_threads_than_total_capacity(self):
        cfg = GPUConfig(n_sms=2, max_warps_per_sm=2)

        def kernel(tid, args):
            yield Compute(2, tag=0)

        stats = GPU(cfg).launch(kernel, 32 * 32)  # 32 warps on 4 slots
        assert stats.notes["n_warps"] == 32
        assert stats.cycles > 0

    def test_accel_call_without_accelerator_fails_loudly(self):
        def kernel(tid, args):
            yield AccelCall(TraversalJob(0, [Step(0, 64, "box")], None),
                            tag=0)

        with pytest.raises(AttributeError):
            GPU(GPUConfig(n_sms=1)).launch(kernel, 1)


class TestExtremeConfigs:
    def test_one_sm_one_warp_buffer_entryish(self):
        wl = make_btree_workload("btree", n_keys=256, n_queries=64, seed=1)
        cfg = scaled_config_for(wl.image.size_bytes).with_overrides(
            n_sms=1, warp_buffer_warps=1)
        run = run_btree(wl, "tta", config=cfg)
        assert run.cycles > 0

    def test_huge_warp_buffer(self):
        wl = make_btree_workload("btree", n_keys=256, n_queries=64, seed=1)
        cfg = scaled_config_for(wl.image.size_bytes).with_overrides(
            warp_buffer_warps=64)
        run = run_btree(wl, "tta", config=cfg)
        assert run.cycles > 0

    def test_tiny_caches(self):
        wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=2)
        cfg = GPUConfig(l1_size=512, l2_size=16 * 16 * 128)
        base = run_btree(wl, "gpu", config=cfg)
        tta = run_btree(wl, "tta", config=cfg)
        assert base.cycles > 0 and tta.cycles > 0

    def test_many_intersection_sets(self):
        wl = make_btree_workload("btree", n_keys=256, n_queries=64, seed=3)
        cfg = scaled_config_for(wl.image.size_bytes).with_overrides(
            intersection_sets=16)
        run = run_btree(wl, "ttaplus", config=cfg)
        assert run.cycles > 0

    def test_scaled_config_immutable_base(self):
        base = GPUConfig()
        scaled = scaled_config_for(1024, base=base)
        assert base.l2_size == 3 * 1024 * 1024  # untouched
        assert scaled is not base


def _launch_jobs(jobs, guard=None):
    """Run one explicit job batch through a single-SM RTA GPU."""
    out = {}

    def kernel(tid, args):
        r = yield AccelCall(jobs[tid], tag=0)
        args[tid] = r

    gpu = GPU(GPUConfig(n_sms=1), accelerator_factory=make_rta_factory())
    stats = gpu.launch(kernel, len(jobs), args=out, guard=guard)
    return stats, out


class TestAccelRobustness:
    def test_job_with_single_step(self):
        out = {}

        def kernel(tid, args):
            r = yield AccelCall(TraversalJob(tid, [Step(64 * tid, 64,
                                                        "box")], tid), tag=0)
            args[tid] = r

        gpu = GPU(GPUConfig(n_sms=1),
                  accelerator_factory=make_rta_factory())
        gpu.launch(kernel, 3, args=out)
        assert out == {0: 0, 1: 1, 2: 2}

    def test_job_with_hundreds_of_steps(self):
        steps = [Step(64 * i, 64, "box") for i in range(400)]

        def kernel(tid, args):
            yield AccelCall(TraversalJob(0, steps, "done"), tag=0)

        gpu = GPU(GPUConfig(n_sms=1),
                  accelerator_factory=make_rta_factory())
        stats = gpu.launch(kernel, 1)
        assert stats.accel_stats["node_fetches"] == 400

    def test_mixed_accel_and_pure_compute_warps(self):
        def kernel(tid, args):
            if tid % 2 == 0:
                yield AccelCall(TraversalJob(tid, [Step(0, 64, "box")],
                                             None), tag=0)
            else:
                yield Compute(100, tag=1)

        gpu = GPU(GPUConfig(n_sms=1),
                  accelerator_factory=make_rta_factory())
        stats = gpu.launch(kernel, 32)
        assert stats.warp_instructions.get("tta") == 1
        assert stats.warp_instructions.get("alu") == 100

    def test_empty_query_batch_terminates_cleanly(self):
        # An accelerator is attached but no warp ever calls it; the
        # guard's end-of-run conservation (0 launched == 0 completed)
        # must hold and nothing may linger.
        def kernel(tid, args):
            yield Compute(3, tag=0)

        gpu = GPU(GPUConfig(n_sms=1),
                  accelerator_factory=make_rta_factory())
        stats = gpu.launch(kernel, 32,
                           guard=GuardConfig(mode="strict",
                                             check_events=1_000))
        assert stats.accel_stats["jobs_completed"] == 0
        assert stats.cycles > 0

    def test_all_duplicate_key_jobs(self):
        # Every query traverses the identical node sequence: maximal
        # cache/warp-buffer contention on one address stream.
        steps = [Step(0, 64, "box"), Step(64, 64, "box")]
        jobs = [TraversalJob(i, list(steps), i) for i in range(64)]
        stats, out = _launch_jobs(jobs)
        assert out == {i: i for i in range(64)}
        assert stats.accel_stats["jobs_completed"] == 64

    def test_all_miss_job(self):
        # Addresses strided far beyond every cache: each fetch is a
        # fresh miss all the way to DRAM.
        jobs = [TraversalJob(i, [Step((i * 11 + s) << 20, 64, "box")
                                 for s in range(8)], i)
                for i in range(32)]
        stats, out = _launch_jobs(jobs)
        assert out == {i: i for i in range(32)}
        assert stats.accel_stats["node_fetches"] == 32 * 8
        # No reuse across fetches: only the intra-fetch second sector
        # of each 64-byte node can hit its own line.
        assert stats.l1_hit_rate <= 0.5

    def test_max_cycles_exhaustion_aborts_cleanly(self):
        # A tiny cycle budget turns a healthy run into a structured
        # abort (never a hang): SimulationStallError with a bundle.
        jobs = [TraversalJob(i, [Step(64 * s, 64, "box")
                                 for s in range(50)], i)
                for i in range(32)]
        with pytest.raises(SimulationStallError) as err:
            _launch_jobs(jobs, guard=GuardConfig(max_cycles=100))
        assert err.value.diagnostics["reason"] == "cycle-budget"

    def test_prefetch_depth_does_not_change_results(self):
        wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=4)
        cfg = scaled_config_for(wl.image.size_bytes)
        from repro.gpu import GPU as _GPU
        from repro.kernels.btree_search import btree_accel_kernel

        outs = []
        for depth in (0, 2):
            gpu = _GPU(cfg, accelerator_factory=make_rta_factory(
                tta=True, prefetch_depth=depth))
            args = wl.kernel_args(jobs=wl.jobs("tta"))
            gpu.launch(btree_accel_kernel, wl.n_queries, args=args)
            outs.append(dict(args.results))
        assert outs[0] == outs[1]
