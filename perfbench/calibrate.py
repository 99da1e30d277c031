"""Host-speed calibration, so that timings compare across a shared host's moods.

The cores this benchmark gets are shared, and their speed swings by up to a
half over seconds to minutes, alike for every pure-Python workload (CPU time
swings with wall time, so ``process_time`` does not help).  A ``Sampler``
therefore times a fixed calibration sample -- products of two 24-term
``fractions.Fraction`` lists, standard library only, no qseries code --
before every check, once more after the last one, and every ``PERIOD_S``
seconds inside a long check on a SIGALRM interval timer.  Time spent in the
timer's samples is subtracted from the check it interrupted.

A check's speed factor is the mean of ``REFERENCE_S`` over sample time for
the samples that bracket it (the one before, those inside, the one after),
and its scaled time is its wall time times that factor: seconds at the
reference speed, which is the sample time of this calibration on an idle
2-vCPU Intel Xeon host.  A change to qseries moves the scaled times as it moves wall time;
a change in the host's speed moves the samples along with the checks and
leaves the scaled times where they were.  Samples run with the cyclic
garbage collector off, so the size of the program's heap does not leak into
them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import signal
import time
from fractions import Fraction

#: Sample time of ``sample()`` on the reference host when it was idle.
REFERENCE_S = 0.0042
#: Interval of the timer samples inside a check.
PERIOD_S = 0.25

_TERMS = 24
_A = [Fraction(i * 7919 % 1009, i + 3) for i in range(_TERMS)]
_B = [Fraction(i * 104729 % 997 - 400, 2 * i + 1) for i in range(_TERMS)]
_ROUNDS = 5


def _product() -> list[Fraction]:
    out = [Fraction(0)] * _TERMS
    for i, a in enumerate(_A):
        for j in range(_TERMS - i):
            out[i + j] += a * _B[j]
    return out


def sample() -> float:
    """Seconds taken by one calibration sample, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            _product()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(samples: list[float]) -> float:
    """Mean speed factor over the given sample times, each reference over
    sample: the work a block did, in reference seconds, per wall second."""
    return sum(REFERENCE_S / s for s in samples) / len(samples)


@dataclasses.dataclass
class Span:
    seconds: float = 0.0  # wall time of the block, timer samples taken out
    factor: float = 1.0  # speed factor over the block


class Sampler:
    """Times blocks of work and the host's speed around and inside them.

    With ``timer`` off (traced passes, whose layer timers would count the
    samples taken inside a check) a span's factor comes from the samples
    before and after it alone.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        sample()  # warm the calibration code
        self._last = sample()
        self.timer_samples: list[float] = []  # inside the latest span
        self._stolen = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.timer_samples.append(sample())
        self._stolen += time.perf_counter() - start

    @contextlib.contextmanager
    def span(self):
        """Time the block into the yielded ``Span``, also when it raises."""
        span = Span()
        before, self.timer_samples, self._stolen = self._last, [], 0.0
        if self.timer:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            yield span
        finally:
            if self.timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - start
            self._last = sample()
            span.seconds = elapsed - self._stolen
            span.factor = speed([before, *self.timer_samples, self._last])
