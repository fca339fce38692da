"""Interpreter speed on this host, for rescaling wall times.

A shared host can change speed under a running benchmark: on the 2-vCPU
x86-64 VM this benchmark was defined on, pure-Python code ran up to twice as
slow for tens of seconds at a time while nothing else ran in the VM. Every
timed interval is therefore rescaled to a fixed reference speed,

    seconds = wall x REFERENCE_SECONDS / median(reference loop durations),

with the reference loop sampled during the interval itself. A change to dehn
moves the wall time and not the reference loop, so it moves the rescaled
time by the same factor; a slower host moves both.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

# Median duration of `reference()` on the VM above, at its usual speed.
REFERENCE_SECONDS = 68e-6
INTERVAL = 0.025  # seconds between samples while a Sampler is active

_A = tuple(range(1, 41))
_B = tuple(range(7, 47))


def reference() -> float:
    """Duration of a fixed pure-Python integer polynomial product."""
    t0 = time.perf_counter()
    out = [0] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    return time.perf_counter() - t0


def scale(samples: List[float]) -> float:
    """Factor that turns wall seconds into reference seconds."""
    return REFERENCE_SECONDS / statistics.median(samples)


class Sampler:
    """Runs `reference()` every INTERVAL seconds of wall time, from SIGALRM,
    while active. The handler runs between bytecodes of whatever the main
    thread is executing, so samples land inside the timed calls."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
