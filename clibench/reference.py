"""A fixed reference computation that gauges the machine's current speed.

On a shared machine the speed of the CPU changes with other tenants' load,
in phases that last from seconds to minutes. While a pass runs, `Sampler`
runs this kernel from a SIGALRM handler every quarter second of wall time,
also in the middle of a long call, and keeps the time it took. The
benchmark subtracts the sampling time from the pass and reports each pass
time as a multiple of the median sample taken during that pass, which
cancels most of that drift.
The kernel imitates the program's two kinds of work, exact `Fraction`
elimination and integer loops over nested lists, and uses none of the
program's code, so a change to the program cannot change it.
"""

from __future__ import annotations

import random
import signal
import threading
from fractions import Fraction
from time import perf_counter, process_time

_RNG = random.Random(0)
_MATRIX = [[Fraction(_RNG.randint(-3, 3), _RNG.randint(1, 3)) for _ in range(18)] for _ in range(18)]
_CUBE = [
    [[_RNG.randint(-1, 1) if _RNG.random() < 0.2 else 0 for _ in range(12)] for _ in range(12)]
    for _ in range(12)
]


def _kernel() -> int:
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    cube, total = _CUBE, 0
    for i in range(12):
        for j in range(12):
            for k in range(12):
                total += sum(cube[i][j][l] * cube[l][k][j] for l in range(12))
    return total


class Sampler:
    """Context manager that samples the kernel every `interval` seconds.

    `samples` holds each sample's wall time; `busy` and `busy_cpu` add up
    the wall and CPU time spent sampling, for the caller to subtract. With
    `interval` None it samples nothing.
    """

    def __init__(self, interval: float | None):
        self.interval = interval
        self.samples: list[float] = []
        self.busy = 0.0
        self.busy_cpu = 0.0
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        start, start_cpu = perf_counter(), process_time()
        _kernel()
        elapsed = perf_counter() - start
        self._sampling = False
        self.samples.append(elapsed)
        self.busy += elapsed
        self.busy_cpu += process_time() - start_cpu

    def _tick(self, signum: int, frame: object) -> None:
        # with worker threads alive the kernel would also time their hold
        # on the interpreter lock; a tick during a slow sample is dropped
        if not self._sampling and threading.active_count() == 1:
            self.sample()

    def __enter__(self) -> Sampler:
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: object) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
