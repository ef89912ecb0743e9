"""Event queue and cooperative processes for cycle-resolution simulation.

The fast core runs an **integer cycle clock** over a calendar queue:

* events for the *current* cycle live in a flat run queue (``_ready``)
  consumed FIFO — ``call_at(now, ...)``, ``spawn`` and fired-``Signal``
  resumes append here and never touch a heap;
* future events hash into per-cycle buckets (``dict`` keyed by cycle),
  so scheduling into an already-occupied cycle is O(1) list append;
* a min-heap holds only the *distinct occupied cycles* — the overflow
  structure that orders bucket drains.  Dense simulations (hundreds of
  events per cycle, the accelerator steady state) amortize one heap
  push across a whole bucket instead of paying one per event.

Processes are Python generators that yield either

* a non-negative **integral** number of cycles — "suspend me that long"
  (analytic float completion times must be quantized with
  :func:`ceil_cycles` first; non-integral delays are rejected rather
  than silently accumulating float drift), or
* a :class:`Signal` — "suspend me until someone fires this signal"; the
  fired value is sent back into the generator.

The seed heap engine is preserved verbatim as
:class:`repro.sim.engine_ref.HeapSimulator`, the test oracle;
``tests/test_engine_equivalence.py`` checks both engines produce the
same ``(time, seq)`` event order.
"""

import heapq
from math import ceil
from typing import Any, Callable, Generator, List, Optional

from repro.errors import SimulationError

Process = Generator[Any, Any, None]

#: Slack when quantizing analytic (float) times: completion times are
#: sums of exact-by-construction rationals, so any sub-1e-9 excess over
#: an integer is float noise, not a real fraction of a cycle.
TIME_EPS = 1e-9


def ceil_cycles(delay: float) -> int:
    """Quantize an analytic (possibly fractional) wait to whole cycles.

    Returns the smallest integral cycle count >= ``delay``, treating
    values within :data:`TIME_EPS` of an integer as that integer.
    """
    if delay <= 0:
        return 0
    return int(ceil(delay - TIME_EPS))


class Signal:
    """A one-shot wake-up channel between processes.

    A process suspends on a signal by yielding it; another component wakes
    it by calling :meth:`fire`.  Multiple processes may wait on the same
    signal; all are resumed with the fired value.  Firing a signal with no
    waiters stores the value so a later waiter resumes immediately — this
    removes the race between a memory response arriving and the consumer
    reaching its ``yield``.

    Shared by both engines: the fast core parks ``_Task`` records in
    ``_waiters`` while the legacy heap engine parks raw generators; each
    engine's ``_resume_waiter`` knows its own representation.
    """

    __slots__ = ("_sim", "_waiters", "_fired", "_value")

    def __init__(self, sim):
        self._sim = sim
        self._waiters: List[Any] = []
        self._fired = False
        self._value = None

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def fire(self, value: Any = None) -> None:
        """Wake every waiter (now or as soon as they wait) with ``value``."""
        if self._fired:
            raise SimulationError("signal fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        resume = self._sim._resume_waiter
        for waiter in waiters:
            resume(waiter, value)

    def fire_at(self, time, value: Any = None) -> None:
        """Schedule :meth:`fire` to happen at absolute ``time``."""
        self._sim.call_at(time, self.fire, value)

    def _add_waiter(self, process) -> bool:
        """Register ``process``; return True if it must actually wait.

        (Legacy-engine dispatch helper; the fast core inlines this.)
        """
        if self._fired:
            return False
        self._waiters.append(process)
        return True


class _Task:
    """A spawned process, reduced to its cached ``send`` bound method."""

    __slots__ = ("send",)

    def __init__(self, process: Process):
        self.send = process.send


class Simulator:
    """Discrete-event simulator on an integer cycle clock.

    Events at equal times fire in insertion order, which makes runs
    fully deterministic (and identical, event for event, to the legacy
    heap engine's ``(time, seq)`` order).
    """

    #: The batched accelerator driver keys off this to pick its path.
    legacy_core = False

    __slots__ = ("now", "_ready", "_ri", "_buckets", "_cycle_heap",
                 "_events_processed", "guard", "tracer")

    def __init__(self) -> None:
        self.now: int = 0
        self._ready: list = []       # current-cycle events, consumed FIFO
        self._ri = 0                 # read index into _ready
        self._buckets: dict = {}     # future cycle -> [(fn, args), ...]
        self._cycle_heap: list = []  # distinct occupied future cycles
        self._events_processed = 0
        #: Optional repro.guard.Guard; set via Guard.attach().  The
        #: guard never schedules events — run() calls into it at event
        #: checkpoints and cycle advances, so an attached guard cannot
        #: change event order, the final time, or any statistic.
        self.guard = None
        #: Optional repro.obs.Tracer; set by GPU.launch.  Like the
        #: guard, purely observational: components read it once at
        #: construction and emit behind a single is-None branch.
        self.tracer = None

    # -- event interface -------------------------------------------------
    def call_at(self, time, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute integral ``time`` (>= now)."""
        if type(time) is not int:
            time = self._as_cycle(time, "event time")
        now = self.now
        if time <= now:
            if time == now:
                self._ready.append((fn, args))
                return
            raise SimulationError(
                f"cannot schedule event at {time} before now={now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heapq.heappush(self._cycle_heap, time)
        else:
            bucket.append((fn, args))

    def call_after(self, delay, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` (integral) cycles."""
        if type(delay) is not int:
            delay = self._as_cycle(delay, "delay")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.call_at(self.now + delay, fn, *args)

    @staticmethod
    def _as_cycle(value, what: str) -> int:
        try:
            as_int = int(value)
        except (TypeError, ValueError):
            raise SimulationError(
                f"{what} must be a number of cycles, got {value!r}"
            ) from None
        if as_int != value:
            raise SimulationError(
                f"non-integral {what} {value!r}: the engine runs an integer "
                "cycle clock; quantize analytic times with ceil_cycles()"
            )
        return as_int

    def signal(self) -> Signal:
        """Create a fresh :class:`Signal` bound to this simulator."""
        return Signal(self)

    # -- process interface -----------------------------------------------
    def spawn(self, process: Process) -> Process:
        """Start running a generator-based process at the current time."""
        self._ready.append((self._step, (_Task(process), None)))
        return process

    def _resume_waiter(self, task: "_Task", value: Any) -> None:
        self._step(task, value)

    def _step(self, task: "_Task", value: Any) -> None:
        try:
            yielded = task.send(value)
        except StopIteration:
            return
        tp = type(yielded)
        if tp is int:
            delay = yielded
        elif tp is Signal:
            if yielded._fired:
                self._ready.append((self._step, (task, yielded._value)))
            else:
                yielded._waiters.append(task)
            return
        elif tp is float:
            delay = int(yielded)
            if delay != yielded:
                raise SimulationError(
                    f"process yielded non-integral delay {yielded!r}; "
                    "quantize analytic times with ceil_cycles()"
                )
        elif isinstance(yielded, Signal):  # Signal subclass (rare)
            if yielded._fired:
                self._ready.append((self._step, (task, yielded._value)))
            else:
                yielded._waiters.append(task)
            return
        else:
            raise SimulationError(
                f"process yielded unsupported value {yielded!r}; "
                "expected a delay or a Signal"
            )
        if delay < 0:
            raise SimulationError(f"process yielded negative delay {yielded}")
        if delay == 0:
            self._ready.append((self._step, (task, None)))
            return
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(self._step, (task, None))]
            heapq.heappush(self._cycle_heap, time)
        else:
            bucket.append((self._step, (task, None)))

    # -- main loop ---------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the event queue; return the final simulation time.

        ``until`` caps simulated time, ``max_events`` caps host work (a
        guard against accidental infinite simulations in tests).
        """
        if until is not None and type(until) is not int:
            until = self._as_cycle(until, "until")
        buckets = self._buckets
        cycle_heap = self._cycle_heap
        heappop = heapq.heappop
        processed = self._events_processed
        ready = self._ready
        i = self._ri
        guard = self.guard
        if guard is not None:
            cycle_cap = guard.cycle_cap
            check_at = guard.event_checkpoint(processed)
        else:
            cycle_cap = None
            check_at = None
        tracer = self.tracer
        try:
            while True:
                # Drain the current cycle FIFO; handlers may append more.
                while i < len(ready):
                    fn, args = ready[i]
                    i += 1
                    fn(*args)
                    processed += 1
                    if max_events is not None and processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at t={self.now}"
                        )
                    if check_at is not None and processed >= check_at:
                        # Watchdog checkpoint (may raise); piggybacks on
                        # the per-event counter so guard-off runs pay
                        # one is-None branch and nothing else.
                        self._events_processed = processed
                        check_at = guard.on_events(processed, self.now)
                if not cycle_heap:
                    break
                time = cycle_heap[0]
                if until is not None and time > until:
                    self.now = until
                    break
                heappop(cycle_heap)
                self.now = time
                if cycle_cap is not None and time > cycle_cap:
                    self._events_processed = processed
                    guard.on_cycle_budget(time)
                ready = self._ready = buckets.pop(time)
                i = 0
                if tracer is not None:
                    tracer.emit("scheduler", "engine", "cycle", time, 0.0,
                                len(ready))
        finally:
            self._events_processed = processed
            if i >= len(self._ready):
                self._ready = []
                self._ri = 0
            else:
                self._ri = i
        return self.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return (len(self._ready) - self._ri
                + sum(len(b) for b in self._buckets.values()))
