"""Machine-speed probes that the benchmark's timings are corrected by.

On a machine shared with other tenants the same code runs in a fast or
a slow state, the slow one 1.3-1.9x slower, switching from one second
to the next or staying for a whole run. No clock avoids it: CPU time
slows exactly as wall time does, and steal time stays near zero. So the
benchmark times, next to its own work, a fixed loop that does not touch
the program, and rescales each slice of wall time by how slow the loop
ran in it.

There are two loops, because interpreter-bound and array-bound code
slow by different amounts in the slow state. ``INTERPRETER`` (small
objects, dicts, calls, a keyed sort) slows as a single-row serving
request does, and corrects the serving blocks. ``ARRAYS`` (sort, ufuncs,
cumsum, unique on 20k values) slows as a fit does, and corrects fits
and set-ups. Measured on 2 shared cores, the spread of one figure from
one timing to the next (standard deviation over mean) became: median
latency of a 40 ms serving block over 20-second windows 0.25 raw, 0.02
corrected by ``INTERPRETER``; an in-memory fit of about 7 s, 0.067 raw,
0.033 corrected by ``ARRAYS`` sampled during the fit, 0.085 corrected
by ``INTERPRETER``. A probe only before and after a fit of a second or
more helps little: the state changes within the fit.

A slice of wall time during which the probe took ``p`` seconds counts
``reference_s / p`` of its length, so a corrected figure reads as the
time the code would take with the machine as fast as when the probe
took ``reference_s``. A change to the program moves a corrected figure
in the same proportion as its wall time; only the machine's state is
divided out.
"""

from __future__ import annotations

import gc
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Seconds between samples while a long operation (a fit, a set-up) runs.
INTERVAL_S = 0.25

_VALUES = np.random.default_rng(0).random(20_000)
_CODES = (_VALUES * 1_000).astype(np.int64)


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key, self.value = key, value


def _interpreter_loop() -> None:
    for _ in range(25):
        table = {}
        for i in range(150):
            pair = _Pair(i, float(i))
            table[f"k{i}"] = pair.key + pair.value
        sorted(table.items(), key=lambda kv: -kv[1])


def _array_loop() -> None:
    for _ in range(3):
        ordered = np.sort(_VALUES)
        np.cumsum(np.log1p(ordered) * ordered)
        np.unique(_CODES)


@dataclass(frozen=True)
class Probe:
    """A fixed loop, and its time on the machine in its fast state."""

    loop: object
    #: The loop's time in the fast state of the 2-vCPU machine the
    #: metric bounds were set on.
    reference_s: float

    def __call__(self) -> float:
        """Seconds one pass of the loop takes now (the GC held off)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.loop()
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    def factor(self, *samples: float) -> float:
        """Correction for code timed while the probe took ``samples`` s.

        The samples are spread evenly over the code's wall time, so
        scaling each slice of it by ``reference_s / sample`` gives the
        mean of the inverse samples.
        """
        return self.reference_s * sum(1.0 / s for s in samples) / len(samples)

    def timed(self, op, interval: "float | None" = INTERVAL_S):
        """Run ``op()`` with the probe sampled around and during it.

        The probe runs right before and right after ``op()`` and, unless
        ``interval`` is None, from a ``SIGALRM`` handler every
        ``interval`` seconds of wall time while it runs, except while the
        main thread waits in ``threading``. The handler runs between
        bytecodes of the main thread, and its time is taken out of the
        operation's. Returns the value, the wall seconds and
        the corrected seconds.
        """
        samples = [self()]
        in_handler = [0.0]

        def sample(signum, frame) -> None:
            if frame is not None and frame.f_code.co_filename == threading.__file__:
                # The main thread waits for pool workers; the probe would
                # compete with them for the cores, so this slice counts
                # at the rate of the others.
                return
            t0 = time.perf_counter()
            samples.append(self())
            in_handler[0] += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample) if interval else None
        t0 = time.perf_counter()
        try:
            if interval:
                signal.setitimer(signal.ITIMER_REAL, interval, interval)
            value = op()
        finally:
            if interval:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0 - in_handler[0]
        samples.append(self())
        return value, wall, wall * self.factor(*samples)


INTERPRETER = Probe(_interpreter_loop, reference_s=0.00225)
ARRAYS = Probe(_array_loop, reference_s=0.0027)
