"""Asyncio serving facade: real-time query API over resident indexes.

:class:`ServeService` is the interactive counterpart of the
virtual-time loadtest: the same resident indexes, the same
:class:`~repro.serve.batcher.BatchPolicy` semantics, the same
per-platform :class:`~repro.serve.backends.LaunchBackend` — but driven
by real callers on a real event loop.  One collector task per query
class pulls requests off an :class:`asyncio.Queue` and closes batches
timeout-or-size (``asyncio.wait_for`` plays the role the deadline heap
plays in the loadtest); launches run in the default executor so a
multi-millisecond simulated kernel never blocks the loop.

Used by ``repro serve`` (JSON-lines over stdin/stdout) and directly
embeddable::

    service = ServeService(indexes, platform="tta")
    async with service:
        response = await service.query("point", qid=17)

The virtual-time loadtest remains the *measured* path — wall-clock
latency through asyncio depends on host scheduling and is reported here
for operational visibility, not for the paper's figures.
"""

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import (BackendLaunchError, ConfigurationError,
                          DeadlineExceededError, OverloadShedError)
from repro.serve.backends import LaunchBackend
from repro.serve.batcher import BatchPolicy
from repro.serve.clock import DEFAULT_CLOCK, ServiceClock
from repro.serve.index import ResidentIndex
from repro.serve.resilience import ResilienceConfig, default_config

if TYPE_CHECKING:
    from repro.mutation import MutationConfig

_CLOSE = object()   # queue sentinel: collector drains and exits


@dataclass
class QueryResponse:
    """One served query."""

    query_class: str
    qid: Optional[int]
    result: Any
    batch_size: int
    cycles: float               # simulated cycles of the batch's launch
    sim_seconds: float          # cycles through the service clock
    engine: str                 # "fast" (a failed batch raises instead)
    latency_s: float            # wall-clock submit -> resolve
    error: Optional[str] = None


@dataclass
class _Pending:
    query_class: str
    qid: Optional[int]
    payload: Any
    future: "asyncio.Future[QueryResponse]"
    t_submit: float = field(default_factory=time.monotonic)
    deadline: Optional[float] = None    # absolute, time.monotonic domain


class ServeService:
    """Resident-index query service with per-class micro-batching."""

    def __init__(self, indexes: Dict[str, ResidentIndex],
                 platform: str = "tta",
                 policy: Optional[BatchPolicy] = None,
                 clock: ServiceClock = DEFAULT_CLOCK,
                 guard=None,
                 backend: Optional[LaunchBackend] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 mutation: Optional["MutationConfig"] = None):
        if not indexes:
            raise ConfigurationError("ServeService needs >= 1 index")
        self.indexes = dict(indexes)
        self.platform = platform
        self.policy = policy or BatchPolicy()
        self.clock = clock
        if resilience is None:
            resilience = backend.resilience if backend is not None \
                else default_config()
        self.resilience = resilience
        self.backend = backend or LaunchBackend(platform, guard=guard,
                                                resilience=resilience)
        for cls, index in self.indexes.items():
            if self.policy.max_batch > index.capacity:
                raise ConfigurationError(
                    f"max_batch {self.policy.max_batch} exceeds the "
                    f"{cls!r} index's capacity {index.capacity}")
        self._queues: Dict[str, asyncio.Queue] = {}
        self._collectors: List[asyncio.Task] = []
        self._running = False
        self.queries_served = 0
        self.batches_served = 0
        self.queries_shed = 0
        self.queries_expired = 0
        self.queries_failed = 0
        # -- optional write path (repro.mutation); None = read-only
        # service, stats() and dispatch unchanged.
        self.mutables = None
        self._write_rng: Optional[random.Random] = None
        self._write_seq = 0
        self._mutation_lock: Optional[asyncio.Lock] = None
        if mutation is not None:
            from repro.mutation import MutableResidentIndex

            self.mutables = {
                cls: MutableResidentIndex(
                    index, policy=mutation.policy,
                    refit_threshold=mutation.refit_threshold, clock=clock)
                for cls, index in self.indexes.items()}
            self._write_rng = random.Random(mutation.write.seed + 0x5EED)
            self._mutation_lock = asyncio.Lock()

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        for cls in self.indexes:
            queue: asyncio.Queue = asyncio.Queue()
            self._queues[cls] = queue
            self._collectors.append(
                asyncio.create_task(self._collect(cls, queue),
                                    name=f"serve-{cls}"))

    async def stop(self) -> None:
        """Drain open batches and stop the collectors."""
        if not self._running:
            return
        self._running = False
        for queue in self._queues.values():
            queue.put_nowait(_CLOSE)
        await asyncio.gather(*self._collectors, return_exceptions=True)
        self._collectors.clear()
        self._queues.clear()

    async def __aenter__(self) -> "ServeService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- the query API -----------------------------------------------------------
    async def query(self, query_class: str, qid: Optional[int] = None,
                    payload: Any = None) -> QueryResponse:
        """Submit one query and await its batched result.

        Either ``qid`` (an index into the class's canonical stream) or
        a raw ``payload`` (a key / window / point in the class's native
        shape) — canonical ids hit the index's memoized job lowering.
        """
        if not self._running:
            raise ConfigurationError("service is not running (use start())")
        index = self.indexes.get(query_class)
        if index is None:
            raise ConfigurationError(
                f"no resident index for query class {query_class!r}; "
                f"serving: {sorted(self.indexes)}")
        if qid is None and payload is None:
            raise ConfigurationError("query needs a qid or a payload")
        if qid is not None and not 0 <= qid < index.n_canonical:
            raise ConfigurationError(
                f"qid {qid} out of range for {query_class!r} "
                f"(canonical stream has {index.n_canonical})")
        deadline = None
        if self.resilience.sheds:
            depth = sum(q.qsize() for q in self._queues.values())
            if depth >= self.resilience.queue_limit(query_class):
                self.queries_shed += 1
                raise OverloadShedError(
                    f"{query_class!r} query shed: {depth} queued >= "
                    f"limit {self.resilience.queue_limit(query_class)}",
                    reason="queue")
            if self.resilience.deadline_s is not None:
                deadline = time.monotonic() + self.resilience.deadline_s
        future: "asyncio.Future[QueryResponse]" = \
            asyncio.get_running_loop().create_future()
        await self._queues[query_class].put(
            _Pending(query_class, qid, payload, future, deadline=deadline))
        return await future

    # -- the write API -----------------------------------------------------------
    async def write(self, query_class: str, op: str = "insert") -> Dict[str, Any]:
        """Apply one live write to a class's resident index.

        Only available when the service was constructed with a
        ``mutation`` config; writes are serialized with batch launches
        so a kernel never walks a tree mid-mutation.  Returns the
        effective op (floor degradation may turn a delete into an
        insert) and the class's mutation counters.
        """
        from repro.mutation.stream import WRITE_OPS, WriteEvent

        if self.mutables is None:
            raise ConfigurationError(
                "service is read-only (no mutation config); "
                "writes are not accepted")
        if query_class not in self.mutables:
            raise ConfigurationError(
                f"no resident index for query class {query_class!r}; "
                f"serving: {sorted(self.indexes)}")
        if op not in WRITE_OPS:
            raise ConfigurationError(
                f"unknown write op {op!r}; expected one of {WRITE_OPS}")
        mutable = self.mutables[query_class]
        async with self._mutation_lock:
            self._write_seq += 1
            event = WriteEvent(t=time.monotonic(), query_class=query_class,
                               op=op, seq=self._write_seq, measured=True)
            cycles = mutable.apply(event, self._write_rng)
        return {
            "query_class": query_class,
            "op": op,
            "cycles": cycles,
            "sim_seconds": self.clock.seconds(cycles),
            "counters": mutable.counters(),
        }

    # -- batching ----------------------------------------------------------------
    async def _collect(self, cls: str, queue: asyncio.Queue) -> None:
        closing = False
        while not closing:
            first = await queue.get()
            if first is _CLOSE:
                break
            batch: List[_Pending] = [first]
            deadline = time.monotonic() + self.policy.max_wait_s
            while len(batch) < self.policy.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if item is _CLOSE:
                    closing = True
                    break
                batch.append(item)
            await self._dispatch(cls, batch)

    async def _dispatch(self, cls: str, batch: List[_Pending]) -> None:
        index = self.indexes[cls]
        if self.resilience.sheds:
            # Expire queries whose deadline passed during batching so a
            # doomed slot never occupies the accelerator.
            now = time.monotonic()
            live: List[_Pending] = []
            for pending in batch:
                if pending.deadline is not None and now >= pending.deadline:
                    self.queries_expired += 1
                    if not pending.future.done():
                        pending.future.set_exception(DeadlineExceededError(
                            f"{cls!r} query missed its "
                            f"{self.resilience.deadline_ms}ms deadline "
                            f"while batching"))
                else:
                    live.append(pending)
            batch = live
            if not batch:
                return
        loop = asyncio.get_running_loop()
        try:
            if self.mutables is not None:
                # Serialize with the write path: install any finished
                # rebuild, refresh the image, and hold writes off until
                # the launch returns.
                async with self._mutation_lock:
                    self.mutables[cls].ensure_ready(time.monotonic())
                    launch = await loop.run_in_executor(
                        None, self._launch_sync, index, batch)
            else:
                launch = await loop.run_in_executor(
                    None, self._launch_sync, index, batch)
        except Exception as exc:  # noqa: BLE001 — fail the batch, not the loop
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        if launch.failed:
            self.queries_failed += len(batch)
            error = BackendLaunchError(
                f"batch launch failed: {launch.error}")
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        self.batches_served += 1
        now = time.monotonic()
        for slot, pending in enumerate(batch):
            if pending.future.done():      # caller went away
                continue
            self.queries_served += 1
            pending.future.set_result(QueryResponse(
                query_class=cls,
                qid=pending.qid,
                result=launch.results.get(slot),
                batch_size=len(batch),
                cycles=launch.cycles,
                sim_seconds=self.clock.launch_seconds(launch.cycles),
                engine=launch.engine,
                latency_s=now - pending.t_submit,
                error=launch.error,
            ))

    def _launch_sync(self, index: ResidentIndex, batch: List[_Pending]):
        now = time.monotonic()
        if all(p.qid is not None for p in batch):
            return self.backend.launch(index, [p.qid for p in batch], now)
        payloads = [index.payload(p.qid) if p.qid is not None else p.payload
                    for p in batch]
        return self.backend.launch_payloads(index, payloads, now)

    # -- introspection -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = {
            "platform": self.platform,
            "classes": sorted(self.indexes),
            "queries_served": self.queries_served,
            "batches_served": self.batches_served,
            "degraded_batches": self.backend.degraded,
            "launches": self.backend.launches,
            "policy": {"max_batch": self.policy.max_batch,
                       "max_wait_s": self.policy.max_wait_s},
            "resilience": {
                "mode": self.resilience.mode,
                "queries_shed": self.queries_shed,
                "queries_expired": self.queries_expired,
                "queries_failed": self.queries_failed,
                "retries": self.backend.retries,
                "breaker_opens": self.backend.breaker.opens,
                "degraded_reasons": dict(
                    sorted(self.backend.degraded_reasons.items())),
                "corrupt_results": self.backend.corrupt_detected,
            },
        }
        if self.mutables is not None:
            out["mutation"] = {cls: mutable.counters()
                               for cls, mutable in sorted(self.mutables.items())}
        return out
