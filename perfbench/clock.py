"""Reference clock: wall time corrected for the speed of a shared host.

On a shared machine other tenants' load changes the speed of each CPU by up
to a factor of two, for seconds to minutes at a time.  A fixed reference
kernel (complex matrix product, complex exponential, FFT and an interpreter
loop, touching nothing in ``afdm_isac``) is timed in the same process right
before each measured step and slows down with it.  A measured time ``t`` is
reported as ``t * REFERENCE_S / k``, with ``k`` the kernel's time next to it:
on an unloaded CPU ``k`` is about ``REFERENCE_S`` and the reported time is
the wall time; under load the ratio cancels most of the slowdown.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one kernel run on an unloaded CPU of the 2-vCPU Xeon
# (Sapphire Rapids, KVM) sandbox the benchmark was sized on, one BLAS thread.
REFERENCE_S = 0.0135


class ReferenceKernel:
    """The fixed reference computation; inputs are drawn once from seed 0."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
        self._phases = rng.standard_normal(1 << 16)
        self._signal = rng.standard_normal(4096) + 0j

    def seconds(self) -> float:
        """Wall time of one kernel run."""
        t0 = time.perf_counter()
        self._matrix @ self._matrix
        self._matrix @ self._matrix
        for _ in range(4):
            np.exp(1j * self._phases)
        for _ in range(40):
            np.fft.fft(self._signal)
        acc = 0
        for i in range(30_000):
            acc += i * i
        return time.perf_counter() - t0

    def median_seconds(self) -> float:
        """Median of five kernel runs."""
        return statistics.median(self.seconds() for _ in range(5))
