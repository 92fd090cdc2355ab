"""A fixed piece of work that measures how fast the machine runs right now.

On a shared host the same job of the same program can take 70 % longer
from one second to the next, when other tenants take the core, its cache or
memory bandwidth. Worker passes time this reference before the first job,
after each job, and every ``SAMPLE_S`` seconds while a job runs (`Sampler`),
and divide each job's time by the mean of the reference times taken around
and during it: the share of the slowdown that both saw cancels.
``at_nominal`` states the quotient in seconds on a machine that runs the
reference in ``REF_NOMINAL_S``. A change to the program moves its job times
and not the reference, so it moves the quotient by the same factor.

The work mixes what the program spends its time on: interpreter loops over
small Python containers and many numpy calls on arrays of a few hundred
elements. It allocates under 100 KiB, so it does not move peak memory.
"""

import signal
import time

# About what the reference takes on an otherwise idle 2-vCPU x86 machine,
# so that times at nominal speed read close to wall seconds there.
REF_NOMINAL_S = 0.03
ROUNDS = 100
# Often enough that a job of two seconds sees about eight samples, seldom
# enough that they add a fifth or less to its time.
SAMPLE_S = 0.2


def _work(np, a, m) -> float:
    acc = 0.0
    for _ in range(ROUNDS):
        counts = {}
        for i in range(1000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        acc += sum(counts.values())
        for k in range(60):
            b = a.reshape(-1, 2)
            acc += float((b[:, 0] - b[:, 1]).sum())
            acc += float(m[k % 32] @ m[(k + 1) % 32])
    return acc


def reference_s() -> float:
    """Seconds the reference work took this time."""
    import numpy as np
    a = np.arange(256, dtype=float)
    m = np.ones((32, 32))
    t0 = time.perf_counter()
    acc = _work(np, a, m)
    elapsed = time.perf_counter() - t0
    if acc != ROUNDS * (sum(range(1000)) - 60 * 128 + 60 * 32):
        raise RuntimeError(f"reference work computed {acc}")
    return elapsed


def at_nominal(seconds: float, refs) -> float:
    """``seconds`` as they would be at the nominal reference speed, given the
    reference times ``refs`` measured around and during them."""
    return seconds * REF_NOMINAL_S * len(refs) / sum(refs)


class Sampler:
    """Times the reference every ``interval`` seconds while the block runs
    (none if ``interval`` is 0), from a SIGALRM handler in the main thread.
    The handler's own time is added up in ``paused``, to be taken out of the
    block's time."""

    def __init__(self, interval: float):
        self.interval = interval
        self.refs = []
        self.paused = 0.0
        self._old = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # the timer fired again while the reference ran
            return
        self._busy = True
        t0 = time.perf_counter()
        self.refs.append(reference_s())
        self.paused += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        if self.interval:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
