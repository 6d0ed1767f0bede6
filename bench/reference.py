"""Host-speed reference: fixed work that does not touch the package.

The shared host this benchmark was tuned on changes speed by up to 2x for
seconds to minutes at a time, and every kind of code slows together.  The
benchmark times this kernel next to and inside each operation and reports
operation times scaled to the speed at which the kernel takes ``NOMINAL_S``, so a
run that falls in a slow phase of the host reads the same as one in a
fast phase.  The kernel mixes the two kinds of work the package does:
interpreted loops over Python floats and complex numbers, and numpy calls
on small arrays.  It is fixed: a change to the package cannot speed it up.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Seconds one kernel run took on the baseline host (bench/README.md) in
# its common phase; scaled times are wall times at that speed.
NOMINAL_S = 2.2e-3

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.normal(size=(6, 6))
_POINTS = _RNG.normal(size=256) + 1j * _RNG.normal(size=256)
_EYE = np.eye(6)


def kernel() -> float:
    total = 0.0
    z = 0.3 + 0.2j
    for i in range(2000):
        total += (i * 0.5) % 7.0
        z = z * (0.999 + 0.001j) + 0.001
    table: dict = {}
    for i in range(500):
        table[i % 37] = table.get(i % 37, 0) + i
    for k in range(40):
        total += np.linalg.det(_MATRIX - (0.01 * k) * _EYE)
        total += float(np.angle(_POINTS * z).sum())
        total += float(np.exp(_POINTS * 0.01).real.max())
    return total + abs(z) + len(table)


class Sampler:
    """Times the kernel on demand and, from a SIGALRM handler, every
    ``interval`` seconds of wall time while the context is open, so an
    operation that lasts seconds is sampled at the speeds it ran at.

    ``samples`` holds the kernel times in order.  ``clock`` is wall time
    minus the time spent sampling, so intervals timed with it leave the
    samples taken inside them out."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._spent += end - start

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        kernel()  # first-call costs of the kernel itself
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
