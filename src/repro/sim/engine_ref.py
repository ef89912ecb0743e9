"""The seed heap engine, preserved as a reference implementation.

This is the original ``(time, seq, fn, args)`` heapq scheduler the
repository shipped with, byte-for-byte in behaviour: float-tolerant
times, one heap push/pop per event, generator processes resumed through
``isinstance`` dispatch.  No launch runs on it at runtime; it is the
differential oracle: ``tests/test_engine_equivalence.py`` checks that
the calendar-queue engine preserves its ``(time, seq)`` event ordering
exactly, and compares whole launches with this engine substituted for
``repro.gpu.device.Simulator`` (the ``heap_engine`` test fixture).

It shares :class:`~repro.sim.engine.Signal` with the fast core — the
signal parks whatever waiter record its simulator hands it and calls
back through ``_resume_waiter``, which here resumes a raw generator.
"""

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import Process, Signal


class HeapSimulator:
    """The seed discrete-event simulator (float-friendly heap scheduler)."""

    #: Routes RTACore submissions through the original per-job generators.
    legacy_core = True

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = []
        self._seq = 0
        self._events_processed = 0
        #: Optional repro.guard.Guard (same hook contract as the fast
        #: core): purely observational, never schedules events.
        self.guard = None
        #: Optional repro.obs.Tracer (same contract as the fast core).
        self.tracer = None

    # -- event interface -------------------------------------------------
    def call_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}"
            )
        heapq.heappush(self._queue, (time, self._seq, fn, args))
        self._seq += 1

    def call_after(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.call_at(self.now + delay, fn, *args)

    def signal(self) -> Signal:
        """Create a fresh :class:`Signal` bound to this simulator."""
        return Signal(self)

    # -- process interface -----------------------------------------------
    def spawn(self, process: Process) -> Process:
        """Start running a generator-based process at the current time."""
        self.call_at(self.now, self._resume, process, None)
        return process

    def _resume_waiter(self, process: Process, value: Any) -> None:
        self._resume(process, value)

    def _resume(self, process: Process, value: Any) -> None:
        try:
            yielded = process.send(value)
        except StopIteration:
            return
        self._dispatch(process, yielded)

    def _dispatch(self, process: Process, yielded: Any) -> None:
        if isinstance(yielded, Signal):
            if not yielded._add_waiter(process):
                # Already fired: resume immediately (same cycle).
                self.call_at(self.now, self._resume, process, yielded.value)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process yielded negative delay {yielded}")
            self.call_after(yielded, self._resume, process, None)
        else:
            raise SimulationError(
                f"process yielded unsupported value {yielded!r}; "
                "expected a delay or a Signal"
            )

    # -- main loop ---------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Drain the event queue; return the final simulation time."""
        guard = self.guard
        if guard is not None:
            cycle_cap = guard.cycle_cap
            check_at = guard.event_checkpoint(self._events_processed)
        else:
            cycle_cap = None
            check_at = None
        tracer = self.tracer
        last_traced = None
        while self._queue:
            time, _seq, fn, args = self._queue[0]
            if until is not None and time > until:
                self.now = until
                break
            heapq.heappop(self._queue)
            self.now = time
            if tracer is not None and time != last_traced:
                last_traced = time
                tracer.emit("scheduler", "engine", "cycle", time, 0.0, None)
            if cycle_cap is not None and time > cycle_cap:
                guard.on_cycle_budget(time)
            fn(*args)
            self._events_processed += 1
            if max_events is not None and self._events_processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now}"
                )
            if check_at is not None and self._events_processed >= check_at:
                check_at = guard.on_events(self._events_processed, self.now)
        return self.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)
