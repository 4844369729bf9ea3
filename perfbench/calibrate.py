"""Machine-speed calibration interleaved with the timed work.

The 2-core sandboxes this benchmark runs on change speed by up to 1.7x
within seconds, with no steal time: the CPU itself runs slower while
other tenants load the host, and process CPU time slows with it.  A
median over repetitions cannot remove swings that last longer than a
run.  So, while a repetition runs, an interval timer interrupts it
every ``PERIOD_S`` and times a fixed slice of NumPy and Python work
that belongs to the benchmark, not to torusflow.  The slowdown the
slices see scales the repetition's own time to the speed of a
reference machine, on which one slice takes ``REFERENCE_SLICE_S``:

    ref_time = (wall - time in slices) * REFERENCE_SLICE_S / mean slice time

where the mean weights each slice by the work time that preceded it.
A change to torusflow changes ``wall`` but not the slices, so the scaled
time moves with the program as the raw time does, without the host's
swings.  At its fastest the slice takes about 1 ms on the machine in
MACHINE.json, so scaled and raw times are close there.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_SLICE_S = 1e-3
PERIOD_S = 0.02

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 40000)


def calibration_slice() -> float:
    """Fixed work spending about half its time in small-array calls, as
    a step at small J does, and half in vector operations on a large
    array, as a step at large J does.  Either half alone tracks one
    kind of workload and misses the other."""
    acc = 0.0
    for _ in range(40):
        acc += float((np.roll(_SMALL, 1) * 1.5 - 0.5 * _SMALL).max())
    return acc + float((np.sin(_LARGE) * 2.0 + np.roll(_LARGE, 1)).sum())


class Calibrated:
    """Times one block of work with calibration slices interleaved.

    Use as a context manager around the work; ``on_slice`` is called
    with the duration of each slice.  Afterwards ``wall`` is the raw
    wall time, ``work`` the part not spent in slices, ``slowdown``
    the weighted mean slice time over ``REFERENCE_SLICE_S``, and
    ``ref_time`` the work time at reference speed.
    """

    def __init__(self, on_slice=None):
        self._on_slice = on_slice
        self._weighted = 0.0
        self._weight = 0.0
        self._in_slices = 0.0
        self._mark = 0.0
        self._last = None
        self._previous_handler = None
        self.wall = self.work = self.slowdown = self.ref_time = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_slice()
        end = time.perf_counter()
        took = end - start
        gap = start - self._mark
        self._weighted += gap * took
        self._weight += gap
        self._in_slices += took
        self._mark = end
        self._last = took
        if self._on_slice is not None:
            self._on_slice(took)

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        end = time.perf_counter()
        if self._last is None:  # shorter than one period: take one slice now
            start = time.perf_counter()
            calibration_slice()
            self._last = time.perf_counter() - start
        # the work after the last slice ran at about its speed
        self._weighted += (end - self._mark) * self._last
        self._weight += end - self._mark
        self.wall = end - self._start
        self.work = self.wall - self._in_slices
        self.slowdown = self._weighted / max(self._weight, 1e-12) / REFERENCE_SLICE_S
        self.ref_time = self.work / self.slowdown
        return False


def burst_slowdown(slices: int = 20) -> float:
    """Slowdown from ``slices`` back-to-back calibration slices."""
    start = time.perf_counter()
    for _ in range(slices):
        calibration_slice()
    return (time.perf_counter() - start) / slices / REFERENCE_SLICE_S
