"""Scaling of wall times to a reference processor speed.

On a shared virtual machine (measured on 2 vCPUs at 2 GHz) the same fixed
work ran up to 1.7x slower for stretches of several seconds, with no steal
time reported and process time equal to wall time. Raw times of two runs
minutes apart then differ by more than any bound worth setting.

So every run samples a fixed calibration kernel (interpreter bytecode plus
small numpy solves, no ybion code, so no change to the program can move
it) between operations, at least every INTERVAL_S, and every
CHILD_SAMPLE_S while a CLI subprocess runs. An interval of work is
reported as

    raw seconds * REFERENCE_S / (kernel time over the interval)

with the kernel time averaged over the samples inside the interval, or
interpolated at its midpoint when there are none,
that is, in seconds of a processor on which the kernel takes REFERENCE_S.
Runs on an idle machine read close to raw wall time. The raw wall times are
printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, process_time

import numpy as np

INTERVAL_S = 0.05
CHILD_SAMPLE_S = 0.1
# Kernel time on an uncontended 2 GHz vCPU (Python 3.11, numpy 2.4;
# contended stretches read up to 1.3 ms); only the ratio matters.
REFERENCE_S = 0.0008

_A = np.arange(81.0).reshape(9, 9) % 7 + 9.0 * np.eye(9)
_B = np.ones(9)


def _kernel_once(clock) -> float:
    t0 = clock()
    acc = 0
    for i in range(6000):
        acc += (i * i) % 7
    for _ in range(60):
        np.linalg.solve(_A, _B)
    return clock() - t0


def kernel_seconds() -> float:
    """Median of five wall-clock timings of the calibration kernel."""
    return statistics.median(_kernel_once(perf_counter) for _ in range(5))


class SpeedTrack:
    """Calibration samples over a run; scales intervals measured in it."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel: list[float] = []
        self.sample()

    def _add(self, kernel: float) -> None:
        self.times.append(perf_counter())
        self.kernel.append(kernel)

    def sample(self) -> None:
        self._add(kernel_seconds())

    def sample_beside_child(self) -> None:
        """One kernel timing in this process's CPU time, taken while a child
        process shares the processor: the child's time slices do not count,
        and the child loses about one percent of the processor."""
        self._add(_kernel_once(process_time))

    def maybe_sample(self) -> None:
        if perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval [start, end]; call
        after a sample has been taken at or after `end`. Samples taken inside
        the interval are averaged; without any, the kernel time is
        interpolated at its midpoint."""
        inside = self.kernel[bisect_right(self.times, start):bisect_left(self.times, end)]
        kernel = (statistics.mean(inside) if inside
                  else float(np.interp(0.5 * (start + end), self.times, self.kernel)))
        return (end - start) * REFERENCE_S / kernel

    def mean_factor(self) -> float:
        return REFERENCE_S / statistics.mean(self.kernel)
