"""Host-speed probe sampled inside the timed process.

On a shared virtual machine the core's speed drifts: on a 2-vCPU Xeon VM a
fixed batch of five 2-D N=32 ball norms took anywhere from 0.14 to 0.44 s
over ten minutes, with CPU time tracking wall time, so the drift is the
host, not the program.  Wall times of 10-20 s operations then spread by
15-25% between runs, too much for a regression bound.

The probe measures the host's speed where and when the operation runs: an
interval timer interrupts the process every ``PERIOD_S`` and the handler
times a fixed kernel on the same core, between the operation's own
bytecodes.  Like the workloads, the kernel mixes interpreted Python with
short FFT round trips; on that VM the mixed kernel followed the speed of
cross_solver operations more closely than either half alone.

The kernel must see the host, not the program that hosts it, or a slowdown
the program causes in its own process would be divided out.  So it is timed
in the main thread's CPU time, and its arrays are small enough (256 points)
that numpy keeps the GIL: a thread of the program cannot run inside it, and
time the main thread spends waiting for the GIL or preempted does not
count.  It allocates nothing (it reuses preallocated buffers, so heap state
does not reach it), and its data is 12 KiB, so a program that thrashes the
caches costs it a few microseconds of reloads.
``test_bench.py`` injects such slowdowns and checks that they show.

``adjusted`` removes the probe's own time (about 2%) from the wall time and
scales the rest to the speed at which the kernel takes ``REF_KERNEL_S``.
The probe runs in the main thread: it adds no thread and no process.  Its
samples land inside whatever traced span is open, so traced self times
include them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
REF_KERNEL_S = 3.5e-4  # about the kernel's time on a quiet core of that VM

_FIELD = np.exp(2j * np.pi * np.arange(256) / 256.0)
_SPECTRUM = np.empty_like(_FIELD)
_BACK = np.empty_like(_FIELD)


def _kernel() -> float:
    s = 0
    for i in range(1500):
        s += i * i % 7
    for _ in range(12):
        np.fft.fft(_FIELD, out=_SPECTRUM)
        np.multiply(_SPECTRUM, 0.5, out=_SPECTRUM)
        np.fft.ifft(_SPECTRUM, out=_BACK)
    return s + float(_BACK[0].real)


class HostProbe:
    """Context manager: samples the kernel's duration while it is active."""

    def __init__(self):
        self.samples: list = []
        self.busy_s = 0.0  # CPU time spent in timer-driven samples
        self._busy = False
        self._armed = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        t = time.thread_time()
        _kernel()
        self.samples.append(time.thread_time() - t)
        if signum is not None:
            self.busy_s += self.samples[-1]
        self._busy = False

    def start(self) -> "HostProbe":
        self._sample()  # at least one sample, however short the region;
        # taken before the caller's timed region starts, so not in busy_s
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._armed = True
        return self

    def stop(self) -> None:
        """Disarm the timer and restore the previous handler; idempotent."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._armed = False

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False

    @property
    def speed(self) -> float:
        """Time-averaged host speed relative to the reference.

        Samples are evenly spaced in time, so the mean of REF_KERNEL_S over
        each kernel time weights every stretch of the region by its length;
        on smoke operations, whose checks run at different speeds, this
        halved the residual spread that a median speed left.
        """
        return statistics.fmean(REF_KERNEL_S / k for k in self.samples)

    def adjusted(self, wall_s: float) -> float:
        """``wall_s`` less the probe's own time, at the reference host speed."""
        return (wall_s - self.busy_s) * self.speed
