"""Machine-speed reference for the gated times.

On a shared machine the same code runs 10-60% slower for tens of seconds
at a time, and the level drifts by more than that over an hour.  The
benchmark therefore runs a small fixed kernel (interpreter loop plus
small numpy and LAPACK calls, the mix the library spends its time in)
before the first task and after every task, and rescales each task's
measured time by REFERENCE_S / (mean of the two neighbouring kernel
times).  The result is the task's time in reference seconds: the time it
would take on a machine where the kernel takes REFERENCE_S.  The kernel
does not touch the library, so a change to the library cannot move it.
"""

import time

import numpy as np

# typical kernel time on a 2-vCPU Intel Xeon at 2.0 GHz (1.2-1.9 ms there)
REFERENCE_S = 1.6e-3

_MATRIX = np.random.default_rng(20240).standard_normal((16, 16))
_MATRIX = _MATRIX + _MATRIX.T


def kernel_seconds():
    """Time of one run of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40):
        acc += float(np.linalg.eigvalsh(_MATRIX)[0])
        acc += float((_MATRIX[i % 16] * 1.5 + 0.5).sum())
    for i in range(4000):
        acc += i * 0.5
    return time.perf_counter() - t0


def kernel_median(repeats=3):
    return sorted(kernel_seconds() for _ in range(repeats))[repeats // 2]


class SpeedProbe:
    """Kernel times taken between measured intervals; scale() converts
    the interval between probe k-1 and probe k to reference seconds."""

    def __init__(self):
        self.samples = [kernel_median()]

    def mark(self):
        self.samples.append(kernel_median())

    def scale(self, seconds):
        """Reference seconds of an interval that ended at the last mark."""
        return seconds * REFERENCE_S / (0.5 * (self.samples[-2] + self.samples[-1]))
