"""A fixed reference load, sampled while the program runs, that tells how fast
the host is at that moment.

On a shared host the speed a process gets swings by tens of percent, in
phases of seconds to minutes: CPU time tracks wall time and steal time stays
flat, so the host slows the process itself. ``Sampler`` times a short fixed
burst of work every ``INTERVAL_S`` seconds from a SIGALRM handler in the
measuring process, on the same CPU and in the same phases as the experiment
around it. The benchmark subtracts the bursts' time from the experiment's
wall time and scales the rest by ``NOMINAL_S / median burst``: the result is
the time the experiment would have taken on a host that runs the burst in
``NOMINAL_S`` seconds.

A burst is interpreted Python and numpy calls on small arrays, the kind of
work that skip-gram pairs and LSTM and CNN steps do. Its data (about 150
KiB, allocated once, in the sampler) fits in a core's second-level cache, so
what the program left in the caches moves it little: inside experiments
bursts ran up to 8% slower than between them. A burst that also passed over a 700 KiB
matrix, like HAC does, ran up to 13% slower inside them, so the burst keeps
clear of the program's working set. It writes into its own arrays and so
allocates no memory between the program's allocations. It never calls the
program and draws no random numbers while active, so it cannot change the
program's results; the benchmark's repeated-seed check would show it if it
did.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.25
# About the median burst time on the 2-vCPU host the benchmark was tuned on,
# so that scaled times read close to the wall times measured there.
NOMINAL_S = 0.0025

_PY_STEPS = 8_000
_SMALL_STEPS = 50


class Sampler:
    """Context manager: while active, time one burst every ``INTERVAL_S``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._out = rng.standard_normal((127, 16))
        self._center = rng.standard_normal(16)
        self._weights = rng.standard_normal((64, 192))
        self._inputs = rng.standard_normal((16, 64))
        self._scores = np.empty(127)
        self._hidden = np.empty((16, 192))
        self.bursts: list = []
        self._previous = None

    def burst(self) -> float:
        """Run the fixed burst once; returns its wall time in seconds."""
        start = time.perf_counter()
        acc = 0
        for i in range(_PY_STEPS):
            acc += (i * 7) % 13
        scores, hidden = self._scores, self._hidden
        for _ in range(_SMALL_STEPS):
            np.matmul(self._out, self._center, out=scores)
            np.subtract(scores, scores.max(), out=scores)
            np.exp(scores, out=scores)
            np.divide(scores, scores.sum(), out=scores)
            np.matmul(self._inputs, self._weights, out=hidden)
            np.tanh(hidden, out=hidden)
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.bursts.append(self.burst())

    def __enter__(self):
        self.bursts = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
