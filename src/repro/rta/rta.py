"""The accelerator core: admission, traversal replay, shader bounces.

``RTACore`` is attached to an SM and receives work through
``submit(now, jobs)`` (the :class:`~repro.gpu.isa.AccelCall` path).
Each job walks the same state machine:

1. wait for a warp-buffer ray slot,
2. for each step: fetch the node through the RTA memory scheduler,
   then execute the step's operation on the backend (fixed-function
   pools for RTA/TTA, µop programs for TTA+),
3. ``shader`` steps suspend the traversal and occupy the host SM's
   issue port — the expensive intersection-shader bounce that the
   baseline needs for procedural geometry and that TTA+ eliminates.

The state machine is driven directly (the *batched* path): one launch
event admits a whole submission, resource completion times are computed
analytically, and all jobs waking at the same cycle advance from a
single drain event — a per-(core, cycle) wake bucket instead of one
heap event per query per step.  On the heap-engine oracle
(:class:`~repro.sim.engine_ref.HeapSimulator`, which the differential
tests substitute for the runtime engine) each job instead runs as its
own generator process, exactly as the seed engine did.

The submission's signal fires when all of its jobs complete, resuming
the launching warp.
"""

from collections import deque
from typing import Iterable, List

from repro.errors import ConfigurationError, InvariantViolation
from repro.guard.faults import install_env_faults
from repro.rta.mem_scheduler import RTAMemScheduler
from repro.rta.traversal import Step, TraversalJob
from repro.rta.units import FixedFunctionBackend
from repro.rta.warp_buffer import WarpBuffer
from repro.sim.engine import TIME_EPS, ceil_cycles
from repro.sim.stats import LatencySampler

#: Fixed cost of suspending a traversal and scheduling shader threads on
#: the SM (launch + result return), in cycles each way.
SHADER_HANDOFF_CYCLES = 40


class _Batch:
    """One submission: completion countdown plus the signal to fire."""

    __slots__ = ("remaining", "signal", "jobs")

    def __init__(self, remaining, signal, jobs):
        self.remaining = remaining
        self.signal = signal
        self.jobs = jobs


class _JobTable:
    """Column-per-field traversal state for the batched driver.

    One preallocated table per core replaces the per-job ``_JobRun``
    objects: each in-flight traversal is a *slot* (an int) indexing
    parallel list columns.  ``at`` is the job's *analytic* clock: engine
    wake-ups are quantized to whole cycles, but the traversal chains its
    resource completion times in exact float time (just like the legacy
    per-job generator, which resumed at the float timestamp directly),
    so rounding never compounds across steps.

    Slots recycle through a free list and capacity grows geometrically,
    so a submission of 10^4 jobs allocates O(1) Python objects beyond
    the job/step references it must hold.  ``release`` only returns the
    slot to the free list — object references and the ``done`` latch
    survive until the slot's next ``acquire``, which keeps
    duplicate-completion diagnostics (query id, batch) readable.
    """

    _COLUMNS = ("idx", "at", "begin", "fetched", "done",
                "job", "steps", "batch", "chain")

    __slots__ = _COLUMNS + ("capacity", "free")

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        for name in self._COLUMNS:
            setattr(self, name, [None] * capacity)
        # pop() takes from the tail, so low slots go out first.
        self.free: List[int] = list(range(capacity - 1, -1, -1))

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in self._COLUMNS:
            getattr(self, name).extend([None] * old)
        self.free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def acquire(self, job, batch, begin: float) -> int:
        if not self.free:
            self._grow()
        slot = self.free.pop()
        self.job[slot] = job
        self.steps[slot] = job.steps
        self.batch[slot] = batch
        self.chain[slot] = None  # in-flight TTA+ µop chain, if any
        self.idx[slot] = 0
        self.at[slot] = begin
        self.begin[slot] = begin
        self.fetched[slot] = False  # current step's node fetch completed
        self.done[slot] = False  # completion latch (at-most-once)
        return slot

    def release(self, slot: int) -> None:
        self.free.append(slot)


class RTACore:
    """One accelerator instance (RTA, TTA, or TTA+ depending on backend).

    ``prefetch_depth`` models a treelet prefetcher [16]: while a node is
    being processed, the next ``prefetch_depth`` node fetches of the
    same traversal are issued ahead of time, overlapping their memory
    latency with the current intersection test (one of the
    "architectural improvements" §V-B says compose with TTA+).
    """

    def __init__(self, sm, backend, prefetch_depth: int = 0):
        self.sm = sm
        self.sim = sm.sim
        self.config = sm.config
        self.backend = backend
        self.prefetch_depth = prefetch_depth
        self.warp_buffer = WarpBuffer(self.sim,
                                      self.config.warp_buffer_warps,
                                      self.config.warp_size)
        self.mem = RTAMemScheduler(self.sim, sm.hierarchy, sm.l1,
                                   self.config.mem_scheduler_reqs_per_cycle)
        self.traversal_latency = LatencySampler()
        self.jobs_completed = 0
        self.jobs_launched = 0
        self.steps_advanced = 0  # guard progress counter (monotone)
        self.shader_bounces = 0
        self.shader_cycles = 0.0
        self._busy_jobs = 0
        self._legacy = getattr(self.sim, "legacy_core", False)
        self._chained = hasattr(backend, "begin_chain")
        # Cached tracer (repro.obs); job-phase events ("node_fetch",
        # "shader", "job_done") are emitted here, per-op unit events by
        # the backend's pools.
        self.trace = getattr(self.sim, "tracer", None)
        self._unit = f"rta{sm.sm_id}"
        self._admit_queue = deque()  # table slots awaiting a warp-buffer slot
        self._jobs = _JobTable()
        self._wake: dict = {}  # cycle -> [slot, ...] awaiting that cycle
        self._pending: set = set()  # query ids launched but not completed
        install_env_faults(self)

    # -- submission interface (matches gpu.sm expectations) ---------------------
    def submit(self, now: float, jobs: Iterable[TraversalJob]):
        jobs = list(jobs)
        if not jobs:
            raise ConfigurationError("empty accelerator submission")
        self.jobs_launched += len(jobs)
        self._pending.update(job.query_id for job in jobs)
        done_signal = self.sim.signal()
        launch_at = now + self.config.rta_issue_overhead
        if self._legacy:
            state = {"remaining": len(jobs)}
            for job in jobs:
                self.sim.call_at(launch_at, self._start_job, job, state,
                                 done_signal, jobs)
        else:
            batch = _Batch(len(jobs), done_signal, jobs)
            self.sim.call_at(launch_at, self._launch_batch, batch)
        return done_signal

    # -- batched driver (fast engine) --------------------------------------------
    def _launch_batch(self, batch: _Batch) -> None:
        now = self.sim.now
        begin = float(now)  # the analytic clock runs in float time
        warp_buffer = self.warp_buffer
        queue = self._admit_queue
        advance = self._advance_job
        acquire = self._jobs.acquire
        for job in batch.jobs:
            slot = acquire(job, batch, begin)
            if queue or not warp_buffer.try_admit(now):
                queue.append(slot)
            else:
                warp_buffer.record_access(writes=1)  # install ray state
                advance(slot)

    def _advance_job(self, slot: int) -> None:
        self.steps_advanced += 1
        jobs = self._jobs
        backend = self.backend
        warp_buffer = self.warp_buffer
        fetch = self.mem.fetch
        wake_at = self._wake_at
        chains = jobs.chain
        steps = jobs.steps[slot]
        n_steps = len(steps)
        chained = self._chained
        prefetch_depth = self.prefetch_depth
        obs = self.trace
        unit = self._unit
        # Hot state lives in Python locals for the whole advance; the
        # table columns are written back only when the job parks.  The
        # analytic clock ``at`` is constant within one advance (only
        # ``_wake_at`` moves it), so it is read exactly once.
        now = jobs.at[slot]
        idx = jobs.idx[slot]
        fetched = jobs.fetched[slot]
        while True:
            chain = chains[slot]
            if chain is not None:
                wake = backend.advance_chain(chain, now)
                if wake is not None:
                    jobs.idx[slot] = idx
                    wake_at(wake, slot)
                    return
                chains[slot] = None
                idx += 1
                continue
            if idx >= n_steps:
                break
            step = steps[idx]
            if not fetched:
                # Fetch the node, then *park until the data arrives* before
                # touching the backend: issuing the op at the (future)
                # fetch-completion time from within the current event
                # would acquire the FIFO unit timelines out of arrival
                # order and distort contention for every other job.
                address = step.address
                if address >= 0:
                    if prefetch_depth:
                        for ahead in steps[idx + 1: idx + 1 + prefetch_depth]:
                            if ahead.address >= 0:
                                fetch(now, ahead.address, ahead.size)
                    ready = fetch(now, address, step.size)
                else:
                    ready = now
                warp_buffer.record_access(reads=2, writes=1)
                if ready > now:
                    if obs is not None:
                        obs.emit("rta", unit, "node_fetch", now, ready - now,
                                 jobs.job[slot].query_id)
                    jobs.idx[slot] = idx
                    jobs.fetched[slot] = True
                    wake_at(ready, slot)
                    return
            fetched = False
            op = step.op
            if op == "shader":
                finish = self._shader_finish_at(now, step)
                if obs is not None:
                    obs.emit("rta", unit, "shader", now, finish - now,
                             jobs.job[slot].query_id)
                jobs.idx[slot] = idx + 1
                jobs.fetched[slot] = False
                wake_at(finish, slot)
                return
            if chained:
                chain = backend.begin_chain(op, step.count)
                wake = backend.advance_chain(chain, now)
                if wake is not None:
                    chains[slot] = chain
                    jobs.idx[slot] = idx
                    jobs.fetched[slot] = False
                    wake_at(wake, slot)
                    return
                idx += 1
                continue
            done = backend.finish_at(now, op, step.count)
            idx += 1
            if done > now:
                jobs.idx[slot] = idx
                jobs.fetched[slot] = False
                wake_at(done, slot)
                return
        jobs.idx[slot] = idx
        jobs.fetched[slot] = fetched
        self._finish_job(slot)

    def _wake_at(self, time, slot: int) -> None:
        """Park the job in ``slot`` until (the ceiling cycle of) ``time``.

        All jobs of this core waking at one cycle share a single engine
        event: whole warps of same-latency queries advance per drain.
        The job resumes with its ``at`` column set to the exact float
        ``time``, so quantization affects only event scheduling, not the
        model.
        """
        self._jobs.at[slot] = time
        sim = self.sim
        now = sim.now
        # ceil_cycles(time - now), inlined: this runs once or twice per
        # step of every traversal in every accelerated run.
        delta = time - now
        if delta <= 0:
            cycle = now
        else:
            whole = int(delta)
            cycle = now + (whole if delta - whole <= TIME_EPS else whole + 1)
        bucket = self._wake.get(cycle)
        if bucket is None:
            self._wake[cycle] = [slot]
            sim.call_at(cycle, self._drain_wake, cycle)
        else:
            bucket.append(slot)

    def _drain_wake(self, cycle: int) -> None:
        advance = self._advance_job
        for slot in self._wake.pop(cycle):
            advance(slot)

    def _finish_job(self, slot: int) -> None:
        jobs = self._jobs
        if jobs.done[slot]:
            # At-most-once completion: a duplicated finish would vacate
            # a warp-buffer slot twice and double-count the batch.
            diagnostics = {"reason": "duplicate-completion",
                           "cycle": self.sim.now}
            diagnostics.update(self.guard_state())
            raise InvariantViolation(
                f"job {jobs.job[slot].query_id} completed twice on "
                f"sm{self.sm.sm_id}'s accelerator",
                diagnostics,
            )
        jobs.done[slot] = True
        now = jobs.at[slot]  # analytic completion time (≤ the cycle)
        warp_buffer = self.warp_buffer
        warp_buffer.vacate(now)
        if self.trace is not None:
            self.trace.emit("rta", self._unit, "job_done", now, 0.0,
                            jobs.job[slot].query_id)
        self.traversal_latency.sample(now - jobs.begin[slot])
        self.jobs_completed += 1
        self._pending.discard(jobs.job[slot].query_id)
        batch = jobs.batch[slot]
        batch.remaining -= 1
        if batch.remaining == 0:
            batch.signal.fire([j.result for j in batch.jobs])
        jobs.release(slot)
        queue = self._admit_queue
        if queue and warp_buffer.try_admit(now):
            nxt = queue.popleft()
            jobs.at[nxt] = now  # the freed slot is taken at the release time
            warp_buffer.record_access(writes=1)
            self._advance_job(nxt)

    def _shader_finish_at(self, now, step: Step):
        """Analytic intersection-shader bounce (see :meth:`_run_shader`)."""
        warp_size = self.config.warp_size
        insts = step.shader_insts * step.count
        self.shader_bounces += step.count
        start = self.sm.issue_port.acquire(
            now + SHADER_HANDOFF_CYCLES,
            max(1.0, insts / warp_size))
        done = max(start + insts, now + insts) + 2 * SHADER_HANDOFF_CYCLES
        self.shader_cycles += done - now
        # Warp-batched: this ray's share of the shader warp's instructions.
        self.sm.stats.count_compute("shader", insts / warp_size, warp_size,
                                    warp_size)
        return done

    # -- per-job processes (heap-engine oracle) -----------------------------------
    def _start_job(self, job: TraversalJob, state: dict, done_signal,
                   jobs: List[TraversalJob]) -> None:
        self.sim.spawn(self._run_job(job, state, done_signal, jobs))

    def _run_job(self, job: TraversalJob, state: dict, done_signal,
                 jobs: List[TraversalJob]):
        sim = self.sim
        begin = sim.now
        obs = self.trace
        unit = self._unit
        yield from self.warp_buffer.acquire()
        self.warp_buffer.record_access(writes=1)  # install ray state
        for index, step in enumerate(job.steps):
            if step.address >= 0:
                if self.prefetch_depth:
                    for ahead in job.steps[index + 1:
                                           index + 1 + self.prefetch_depth]:
                        if ahead.address >= 0:
                            self.mem.fetch(sim.now, ahead.address,
                                           ahead.size)
                ready = self.mem.fetch(sim.now, step.address, step.size)
                if ready > sim.now:
                    if obs is not None:
                        obs.emit("rta", unit, "node_fetch", sim.now,
                                 ready - sim.now, job.query_id)
                    yield ready - sim.now
            self.warp_buffer.record_access(reads=2, writes=1)
            self.steps_advanced += 1
            if step.op == "shader":
                shader_from = sim.now
                yield from self._run_shader(step)
                if obs is not None:
                    obs.emit("rta", unit, "shader", shader_from,
                             sim.now - shader_from, job.query_id)
            else:
                yield from self.backend.execute(sim.now, step.op, step.count)
        self.warp_buffer.release()
        if obs is not None:
            obs.emit("rta", unit, "job_done", sim.now, 0.0, job.query_id)
        self.traversal_latency.sample(sim.now - begin)
        self.jobs_completed += 1
        self._pending.discard(job.query_id)
        state["remaining"] -= 1
        if state["remaining"] == 0:
            done_signal.fire([j.result for j in jobs])

    def _run_shader(self, step: Step):
        """Bounce to the SM cores for an intersection shader invocation.

        The driver batches shader invocations from many suspended rays
        into full warps, so the *issue-port* cost is amortized across the
        warp width, while the suspended ray still waits for the handoff
        plus the scalar shader execution.
        """
        sim = self.sim
        warp_size = self.config.warp_size
        insts = step.shader_insts * step.count
        self.shader_bounces += step.count
        start = self.sm.issue_port.acquire(
            sim.now + SHADER_HANDOFF_CYCLES,
            max(1.0, insts / warp_size))
        done = max(start + insts, sim.now + insts) + 2 * SHADER_HANDOFF_CYCLES
        self.shader_cycles += done - sim.now
        # Warp-batched: this ray's share of the shader warp's instructions.
        self.sm.stats.count_compute("shader", insts / warp_size, warp_size,
                                    warp_size)
        yield done - sim.now

    # -- guard interface ----------------------------------------------------------
    def guard_state(self) -> dict:
        """JSON-serializable occupancy snapshot for diagnostic bundles."""
        state = {
            "sm": self.sm.sm_id,
            "jobs_launched": self.jobs_launched,
            "jobs_completed": self.jobs_completed,
            "in_flight": self.jobs_launched - self.jobs_completed,
            "steps_advanced": self.steps_advanced,
            "stuck_jobs": sorted(self._pending)[:16],
            "admit_queue": len(self._admit_queue),
            "wake_buckets": {str(cycle): len(runs)
                             for cycle, runs in sorted(self._wake.items())[:16]},
        }
        state.update(self.warp_buffer.guard_state())
        return state

    def guard_parked(self, now, park_cycles: int):
        """Describe work parked past its budget, or None.

        A wake bucket whose cycle has already passed means its drain
        event was dropped — flagged regardless of budget.  A job at the
        head of the admission queue is allowed to wait ``park_cycles``
        (legitimate under a saturated warp buffer) before being flagged.
        """
        if self._wake:
            stale = min(self._wake)
            if stale < now:
                return (f"accelerator sm{self.sm.sm_id}: wake bucket at "
                        f"cycle {stale} ({len(self._wake[stale])} job(s)) "
                        f"was never drained (now={now})")
        if self._admit_queue:
            head = self._admit_queue[0]
            waited = now - self._jobs.begin[head]
            if waited > park_cycles:
                return (f"accelerator sm{self.sm.sm_id}: job "
                        f"{self._jobs.job[head].query_id} parked in the "
                        f"admission queue for {waited:.0f} cycles "
                        f"(budget {park_cycles})")
        return None

    # -- statistics ---------------------------------------------------------------
    def snapshot(self, end: float) -> dict:
        snap = {
            "jobs_completed": self.jobs_completed,
            "traversal_latency_mean": self.traversal_latency.mean,
            "shader_bounces": self.shader_bounces,
            "shader_cycles": self.shader_cycles,
        }
        snap.update(self.warp_buffer.snapshot(end))
        snap.update(self.mem.snapshot(end))
        snap.update(self.backend.snapshot(end))
        return snap


def make_rta_factory(tta: bool = False, latency_overrides=None,
                     prefetch_depth: int = 0):
    """Factory for attaching a baseline RTA (or TTA) to every SM.

    Use with :class:`repro.gpu.GPU`::

        gpu = GPU(config, accelerator_factory=make_rta_factory(tta=True))
    """

    def factory(sm):
        backend = FixedFunctionBackend(sm.sim, sm.config, tta=tta,
                                       latency_overrides=latency_overrides)
        return RTACore(sm, backend, prefetch_depth=prefetch_depth)

    # Value identity for launch-level replay (gpu/replay.py): two
    # factories built from equal parameters configure identical cores.
    factory.replay_fingerprint = (
        "rta", tta,
        tuple(sorted(latency_overrides.items())) if latency_overrides else (),
        prefetch_depth,
    )
    return factory
