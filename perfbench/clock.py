"""The benchmark's clock: CPU time scaled to a fixed CPU speed.

On a shared host the CPU's speed changes by up to 1.9x in phases that last
from seconds to minutes, with other tenants' load (most likely through the
clock frequency). CPU time and wall time change with it, so neither repeats
from run to run.
This clock samples the speed instead: every ``PERIOD_S`` of CPU time a
profiling-timer signal runs a fixed reference kernel and times it. CPU time
since the previous sample is scaled by ``REFERENCE_S`` over that kernel
time, so it reads what the work would cost at the reference speed. The
kernel's own time is left out.

The benchmark runs in one thread, whose CPU time (``thread_time``) is the
base: with a profiling timer armed, Linux updates the process CPU clock only
once per scheduler tick.
"""

from __future__ import annotations

import signal
from time import thread_time

import numpy as np

PERIOD_S = 0.02
# CPU time of one reference kernel run at the reference speed, about the
# fastest the Xeon host this benchmark was written on ran it.
REFERENCE_S = 0.0006
_ARRAY = np.linspace(0.0, 1.0, 2000)


def reference_kernel() -> None:
    """A fixed mix of interpreter and small-array numpy work, as in evmfg."""
    x = 0
    for i in range(6000):
        x += i * i
    for _ in range(60):
        _ARRAY * 2.0 + _ARRAY


class ReferenceClock:
    """Seconds of CPU time at the reference speed, from ``start`` on."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self._scaled = 0.0
        self._samples = 0
        self._sampling = False

    def _run_kernel(self) -> None:
        start = thread_time()
        reference_kernel()
        self._since = thread_time()
        self._kernel = self._since - start
        self.kernel_s.append(self._kernel)

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # the timer fired again while the kernel ran
            return
        self._sampling = True
        self._scaled += (thread_time() - self._since) * REFERENCE_S / self._kernel
        self._run_kernel()
        self._samples += 1
        self._sampling = False

    def now(self) -> float:
        while True:  # a sample may land between the reads below; then read again
            samples = self._samples
            value = self._scaled + (thread_time() - self._since) * REFERENCE_S / self._kernel
            if samples == self._samples:
                return value

    def start(self) -> ReferenceClock:
        self._run_kernel()
        self._previous_handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler)

    def __enter__(self) -> ReferenceClock:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
