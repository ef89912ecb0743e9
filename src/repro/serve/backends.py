"""Per-platform batch launch backends for the serving layer.

A :class:`LaunchBackend` turns one closed batch of same-class queries
into one simulated kernel launch on its platform (baseline ``gpu``,
``tta``, ``ttaplus``, or — radius only — stock ``rta``), using the same
kernels, job lowering, and scaled GPU configuration as the one-shot
harness runners, so a query's functional result and the cycle model it
is timed under are *identical* to the batch-experiment path
(``tests/test_serve.py`` asserts byte-identical results).

**Failure semantics** (``repro.serve.resilience``): every launch runs
inside a small failure-handling stack, outside-in:

1. **Circuit breaker** — a backend whose launches keep failing opens
   its breaker; while open, batches fail immediately instead of
   burning device time.  After a cooldown one probe launch decides
   whether to close again.
2. **Bounded retry with backoff** — a transient launch failure
   (:class:`~repro.errors.BackendLaunchError`; in this behavioral model
   only the ``launch_fail`` fault injector produces one) retries up to
   ``max_retries`` times; the accumulated exponential backoff is
   reported in ``notes["backoff_s"]`` so the virtual-time loadtest
   charges it to the batch's service time.
3. **Result integrity** — every launch's results pass
   :func:`~repro.serve.resilience.check_batch_integrity` (one
   well-formed result per query, the guard conservation invariant at
   serving granularity).  A corrupt batch retries once; a repeat
   offender raises under the ``strict`` policy and fails otherwise.
4. **Failing loudly** — a launch that aborts with a
   :class:`~repro.errors.GuardError` (watchdog stall / invariant
   break), exhausted retries, an open breaker and a repeat corrupt
   batch all fail the batch: ``engine="failed"``, the error text kept,
   ``notes["degraded_reason"]`` naming why (``guard`` |
   ``launch_failure`` | ``breaker_open`` | ``corrupt_result``), and
   every query counted failed.  The service counts each reason under
   ``serve.degraded.*``.  One poisoned batch can therefore never wedge
   the serving loop.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (BackendLaunchError, ConfigurationError,
                          GuardError, InvariantViolation)
from repro.gpu import GPU
from repro.gpu.config import GPUConfig
from repro.guard.config import GuardConfig
from repro.guard.faults import ServeFaults
from repro.guard.watchdog import check_config
from repro.serve.index import ResidentIndex
from repro.serve.resilience import (CircuitBreaker, ResilienceConfig,
                                    check_batch_integrity, default_config)


@dataclass
class BatchLaunch:
    """One completed batch launch: timing plus per-slot results."""

    platform: str
    query_class: str
    n_queries: int
    cycles: float
    #: batch-local slot -> functional result (slot i is the i-th query
    #: of the batch, in submission order).
    results: Dict[int, Any]
    stats: Any
    engine: str = "fast"        # "fast" | "failed"
    error: Optional[str] = None
    notes: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.engine == "failed"

    @property
    def slow_factor(self) -> float:
        """Service-time inflation (``slow_backend`` fault; 1.0 healthy)."""
        return self.notes.get("slow_factor", 1.0)

    @property
    def backoff_s(self) -> float:
        """Virtual retry backoff the loadtest charges to this batch."""
        return self.notes.get("backoff_s", 0.0)


def _accelerator_factory(platform: str):
    from repro.core.ttaplus import make_ttaplus_factory
    from repro.rta.rta import make_rta_factory

    if platform == "gpu":
        return None
    if platform == "rta":
        return make_rta_factory(tta=False)
    if platform == "tta":
        return make_rta_factory(tta=True)
    if platform in ("ttaplus", "ttaplus_opt"):
        return make_ttaplus_factory()
    raise ConfigurationError(f"no serve backend for platform {platform!r}")


class LaunchBackend:
    """Launches batches for one platform over resident indexes."""

    def __init__(self, platform: str,
                 config: Optional[GPUConfig] = None,
                 guard: Optional[GuardConfig] = None, max_verify: int = 0,
                 resilience: Optional[ResilienceConfig] = None,
                 faults: Optional[ServeFaults] = None):
        self.platform = platform
        #: Each launch builds its own watchdog from this config (None:
        #: from the environment), so concurrent launches share no state.
        self.guard = guard if guard is None else check_config(guard)
        #: Verify up to this many queries per batch against the golden
        #: reference (0 = trust the kernels' functional model, which the
        #: equivalence tests oracle).
        self.max_verify = max_verify
        self.resilience = resilience if resilience is not None \
            else default_config()
        #: Armed serve-path fault injectors ($REPRO_FAULTS by default);
        #: per-instance so trigger state never leaks across backends.
        self.faults = faults if faults is not None else ServeFaults.from_env()
        self.breaker = CircuitBreaker(self.resilience.breaker_threshold,
                                      self.resilience.breaker_cooldown_s)
        self._factory = _accelerator_factory(platform)
        self._explicit_config = config
        self._configs: Dict[Tuple[int, int], GPUConfig] = {}
        self.launches = 0
        #: Failed batches, in total and by reason (see :meth:`_fail`).
        self.degraded = 0
        self.degraded_reasons: Dict[str, int] = {}
        self.retries = 0
        self.corrupt_detected = 0

    # -- config ----------------------------------------------------------------
    def config_for(self, index: ResidentIndex) -> GPUConfig:
        """The same scaled-cache policy the one-shot runners default to,
        derived once per resident index *per mutation epoch* — a
        mutated index re-places its image, so the tree footprint (and
        with it the scaled cache size) can change under write load."""
        if self._explicit_config is not None:
            return self._explicit_config
        key = (id(index), getattr(index, "mutation_epoch", 0))
        config = self._configs.get(key)
        if config is None:
            from repro.harness.runner import scaled_config_for

            config = scaled_config_for(index.workload.image.size_bytes)
            self._configs[key] = config
        return config

    # -- launching ---------------------------------------------------------------
    def launch(self, index: ResidentIndex,
               qids: Sequence[int], now: float = 0.0) -> BatchLaunch:
        """Launch one batch of canonical query ids.

        ``now`` is the caller's clock (virtual loadtest time or
        ``time.monotonic()``), consulted only by the circuit breaker.
        """
        if self.platform not in index.spec.platforms:
            raise ConfigurationError(
                f"query class {index.query_class!r} cannot serve on "
                f"{self.platform!r} (valid: {index.spec.platforms})"
            )
        payloads = [index.payload(qid) for qid in qids]
        if self.platform == "gpu":
            jobs_builder = lambda: []                       # noqa: E731
            kernel = index.spec.baseline_kernel
        else:
            jobs_builder = lambda: index.batch_jobs(        # noqa: E731
                qids, self.platform)
            kernel = index.spec.accel_kernel
        launch = self._run(index, kernel, payloads, jobs_builder, now)
        if self.max_verify and not launch.failed:
            self._verify(index, qids, launch.results)
        return launch

    def launch_payloads(self, index: ResidentIndex,
                        payloads: Sequence[Any],
                        now: float = 0.0) -> BatchLaunch:
        """Launch one batch of raw (ad-hoc) query payloads."""
        if self.platform == "gpu":
            jobs_builder = lambda: []                       # noqa: E731
            kernel = index.spec.baseline_kernel
        else:
            jobs_builder = lambda: index.spec.build_jobs(   # noqa: E731
                index.workload, payloads, self.platform)
            kernel = index.spec.accel_kernel
        return self._run(index, kernel, payloads, jobs_builder, now)

    def _run(self, index: ResidentIndex, kernel, payloads,
             jobs_builder, now: float = 0.0) -> BatchLaunch:
        """One resilient launch; see the module docstring for the stack.

        ``jobs_builder`` is called per attempt: a kernel launch consumes
        nothing from the args, but a guard abort can leave a partially
        filled results dict, so every attempt gets pristine args.
        """
        if not payloads:
            raise ConfigurationError("cannot launch an empty batch")
        config = self.config_for(index)
        self.launches += 1
        notes: Dict[str, Any] = {}

        if not self.breaker.allow(now):
            return self._fail(index, payloads, "breaker_open",
                              "circuit breaker open", notes)

        attempt = 0
        corrupt_retried = False
        while True:
            attempt += 1
            args = index.batch_args(payloads, jobs_builder())
            gpu = GPU(config, accelerator_factory=self._factory)
            try:
                self.faults.fail_launch()
                stats = gpu.launch(kernel, len(payloads), args=args,
                                   guard=self.guard)
            except GuardError as exc:
                # The watchdog or an invariant tripped: a model fault,
                # not a backend fault — the breaker does not count it.
                return self._fail(index, payloads, "guard",
                                  f"{type(exc).__name__}: {exc}", notes)
            except BackendLaunchError as exc:
                self.breaker.record_failure(now)
                if attempt <= self.resilience.max_retries \
                        and self.breaker.opened_at is None:
                    self.retries += 1
                    notes["backoff_s"] = notes.get("backoff_s", 0.0) \
                        + self.resilience.backoff_s(attempt)
                    continue
                return self._fail(index, payloads, "launch_failure",
                                  str(exc), notes)

            self.breaker.record_success(now)
            results = dict(args.results)
            self.faults.corrupt(results)
            violation = check_batch_integrity(results, len(payloads))
            if violation is None:
                if attempt > 1:
                    notes["retries"] = attempt - 1
                slow = self.faults.slow_factor()
                if slow != 1.0:
                    notes["slow_factor"] = slow
                return BatchLaunch(self.platform, index.query_class,
                                   len(payloads), stats.cycles, results,
                                   stats, engine="fast", notes=notes)

            # Corrupt batch: detected unconditionally, in every mode.
            self.corrupt_detected += 1
            notes["integrity"] = violation
            if not corrupt_retried:
                corrupt_retried = True
                self.retries += 1
                notes["backoff_s"] = notes.get("backoff_s", 0.0) \
                    + self.resilience.backoff_s(attempt)
                continue
            if self.resilience.strict:
                raise InvariantViolation(
                    f"batch integrity violated twice on "
                    f"{self.platform}/{index.query_class}: {violation}",
                    diagnostics={"reason": "corrupt_result",
                                 "violation": violation,
                                 "n_queries": len(payloads)})
            return self._fail(index, payloads, "corrupt_result", violation,
                              notes)

    def _fail(self, index: ResidentIndex, payloads, reason: str,
              error: str, notes: Dict[str, Any]) -> BatchLaunch:
        """Give up on the batch: no results, the caller accounts every
        query as failed (never silently dropped)."""
        self.degraded += 1
        self.degraded_reasons[reason] = \
            self.degraded_reasons.get(reason, 0) + 1
        notes = dict(notes, degraded_reason=reason)
        return BatchLaunch(self.platform, index.query_class, len(payloads),
                           0.0, {}, None, engine="failed", error=error,
                           notes=notes)

    # -- verification -------------------------------------------------------------
    def _verify(self, index: ResidentIndex, qids: Sequence[int],
                results: Dict[int, Any]) -> None:
        """Spot-check batch results against the workload's golden
        reference (same checks as the one-shot runners, sampled)."""
        wl = index.workload
        step = max(1, len(qids) // self.max_verify)
        for slot in range(0, len(qids), step):
            qid = qids[slot]
            got = results[slot]
            if index.query_class == "point":
                assert got == wl.golden[qid], (
                    f"point query {qid}: got {got}, "
                    f"expected {wl.golden[qid]}")
            elif index.query_class == "range":
                assert tuple(sorted(got)) == wl.golden(wl.windows[qid]), (
                    f"range query {qid}: result mismatch")
            elif index.query_class == "radius":
                assert tuple(sorted(got)) == wl.golden(wl.queries[qid]), (
                    f"radius query {qid}: neighbour set mismatch")
            else:  # knn: distance multiset (ties may order differently)
                q = wl.queries[qid]
                pts = wl.tree.points
                got_d = sorted((pts[i] - q).length_squared() for i in got)
                exp_d = sorted((pts[i] - q).length_squared()
                               for i in wl.golden(q))
                assert all(abs(a - b) < 1e-9
                           for a, b in zip(got_d, exp_d)) \
                    and len(got_d) == len(exp_d), (
                        f"knn query {qid}: distance mismatch")
