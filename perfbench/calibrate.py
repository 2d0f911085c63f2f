"""Machine-speed calibration for timings taken on a shared machine.

On a host shared with other tenants the speed of one core drifts by up
to a factor of two over seconds, and a whole run can land in a slow
phase, so raw times from two runs of the same code disagree by more than
any useful regression bound. The benchmark therefore runs a short fixed
kernel between verdicts and scales every measured time by
``NOMINAL_S / kernel time``: times are reported in seconds at the speed
at which the kernel takes ``NOMINAL_S``. The kernel does not touch the
package, so a change to the package moves the reported times exactly as
it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time, in seconds, that defines the nominal machine speed
NOMINAL_S = 0.004
_ROUNDS = 600
_A = np.arange(16.0).reshape(4, 4) / 7.0


def kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and numpy calls on
    4x4 arrays, the mix of costs of the package's own inner loops."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(_ROUNDS):
        b = _A @ _A.T + i
        acc += float(np.sum(b * _A)) % 3.0
        acc += sum(j * 0.5 for j in range(8))
    return time.perf_counter() - t0


def scale(k_before: float, k_after: float) -> float:
    """Factor from measured to nominal seconds for an interval bracketed by
    two kernel runs."""
    return NOMINAL_S / (0.5 * (k_before + k_after))
