"""Host speed, sampled while the benchmark measures.

The host the benchmark was tuned on gives one process a share of a
shared machine.  Its speed changes by up to 50% from one second to the
next and now and then drops by 40-70% for a minute or more, longer than
a whole run.  No statistic over one run's rounds removes a spell that
covers the run.  So, while a set-up or a timed phase runs, the workload
calls :meth:`Pacer.tick` at the boundaries of its parts (around a
figure point, before a serve launch, before a build), and at most every
EVERY_S seconds a tick times a fixed slice of reference work.  The
slices are pure Python (dict stores, float arithmetic, a sort), like
the program.  A phase's host time divided by the mean slice time is its
time in reference slices, which a slow spell leaves about unchanged.
"""

import statistics
import time

#: Seconds one reference slice took on the tuning host at its usual
#: fast speed: the scale that turns slice counts back into seconds.
REFERENCE_SLICE_S = 1.6e-3
#: Least seconds between two slices inside a measured phase; each costs
#: about 1.6 ms, so the slices add at most 6% to a round's host time,
#: and are taken out of what it reports.
EVERY_S = 0.025


def reference_slice() -> float:
    """A fixed amount of interpreter work, the same in every version of
    the program.  It allocates no objects the collector tracks, so the
    program's heap does not change its cost."""
    table = {}
    for i in range(14000):
        table[(i * 7919) % 1009] = i * 0.5
    ordered = sorted(table.values(), reverse=True)
    return sum(ordered[::7])


class Pacer:
    """Reference slice times of one phase, and the host seconds the
    slices timed inside it took."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def sample(self, count: int) -> None:
        """Time ``count`` slices, outside the measured phase."""
        for _ in range(count):
            started = time.perf_counter()
            reference_slice()
            self.samples.append(time.perf_counter() - started)

    def tick(self) -> None:
        """Time one slice inside the measured phase, unless one was
        timed less than EVERY_S ago."""
        started = time.perf_counter()
        if started - self._last < EVERY_S:
            return
        before = time.perf_counter()
        reference_slice()
        self._last = time.perf_counter()
        self.samples.append(self._last - before)
        self.spent_s += self._last - started

    def scaled(self, seconds: float) -> float:
        """``seconds`` of host time at the speed the slices saw, as
        seconds at the tuning host's usual speed."""
        return seconds * REFERENCE_SLICE_S / statistics.fmean(self.samples)
