"""Host speed, measured by a fixed probe that runs between the timed parts.

A shared 2-vCPU host runs the same code 1.2x to 1.7x slower for tens of
seconds to minutes at a time, and CPU time slows with it, so no statistic
over one run removes it.  A probe of fixed work independent of qspeedup -- an
interpreter loop of complex arithmetic, like the RK4 oracle, and elementwise
numpy on 4097-sample grids, like the envelope -- slows with it.  Every timed
part is multiplied by the host speed around it: `REFERENCE_S` over the mean
of the probes just before and just after it.  A program change still shows
in full, since the probe does not run qspeedup code.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.045  # probe time that counts as speed 1: a fast phase of the baseline host
_GRID = np.linspace(0.0, 50.0, 4097)


def probe() -> float:
    """Wall time of the fixed probe work."""
    start = time.perf_counter()
    z, h = 1.0 + 0.0j, 1e-3 + 2e-3j
    for _ in range(80000):
        z = z + h * (z * (0.5 - z) + 0.25j)
    acc = abs(z)
    for k in range(400):
        y = np.exp(-0.01 * _GRID) * np.cos(_GRID * (1.0 + 1e-4 * k))
        acc += float(np.abs(np.diff(y)).sum())
    if not np.isfinite(acc):
        raise ArithmeticError("host-speed probe diverged")
    return time.perf_counter() - start


class HostSpeed:
    """Probes once on creation; `mark()` probes again and returns the host
    speed over the interval since the previous probe (1 = REFERENCE_S)."""

    def __init__(self):
        self.last = probe()

    def mark(self) -> float:
        now = probe()
        speed = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return speed
