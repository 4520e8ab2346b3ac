"""The host's speed, sampled while a measured interval runs.

The benchmark runs on shared machines whose speed swings by up to 1.8×
between phases minutes apart, and by ±20 % within seconds. A timer fires
every ``period`` seconds and, on the main thread, times a fixed snippet of
Python and small-numpy work (the same kind of work as the program's hot
paths). Work done in an interval of length T is the integral of the
speed over it, so T at the reference speed is ``T × mean(REF_S / sample)``
over samples taken uniformly in time — :meth:`HostSpeed.scale`.

The snippet runs while the program is paused, so it never competes with
the program's own thread; it does compete with other processes, the
program's Spark workers included.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: The snippet's time on the reference host (4-core container, quiet
#: phase); it only sets the scale, so scaled times read as seconds.
REF_S = 0.0005
_X = np.random.default_rng(0).random(400)


def _snippet() -> float:
    acc = 0.0
    for _ in range(30):
        acc += float(np.unique(np.round(_X * 50)).sum())
        acc += sum({j: j for j in range(40)}.values())
    return acc


class HostSpeed:
    """Context manager sampling the host's speed every ``period`` seconds."""

    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _snippet()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean speed over the interval relative to the reference host
        (1.0 when no sample was taken)."""
        return statistics.fmean(REF_S / s for s in self.samples) if self.samples else 1.0

    def scale(self, seconds: float) -> float:
        """``seconds`` measured in the interval, at the reference speed."""
        return seconds * self.speed()
