"""Machine-speed calibration: a fixed pure-Python kernel timed between the
benchmark's units of work.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds and minutes, while CPU time stays equal to wall time:
the instructions themselves run slower when neighbours are busy.  A drift
slows this kernel and the package's code alike, so each timed unit is scaled
by ``REF_KERNEL_S`` over the kernel's mean call time measured right before
and right after it.  Scaled times read as seconds on the host at the
kernel's reference speed; ``speed`` in a run's detail line says how fast the
host actually ran.

The kernel never calls the package, so a change to the package moves the
scaled times by the same share as the wall times.  It mimics the package's hot
paths (``solution._rk4_equivocal``, ``sim._step_raw``): RK4 steps of a small
planar system in plain Python floats, with ``math`` trigonometry and a
function call per right-hand side.
"""

from __future__ import annotations

import math
import time

# Near the fastest ``kernel()`` call seen on a 2-vCPU Intel Xeon host under
# Python 3.11 (0.84 ms; a typical call there takes 1.5 to 1.8 ms).  Only a
# scale: it turns kernel-relative times back into seconds and is the same for
# every commit.
REF_KERNEL_S = 1.0e-3

KERNEL_STEPS = 500
# Shortest calibration sample, and its length relative to the unit it follows.
MIN_SAMPLE_S = 0.05
SAMPLE_SHARE = 0.1


def _rhs(x: float, y: float, h: float, w: float) -> tuple[float, float, float]:
    c, s = math.cos(h), math.sin(h)
    return (c - w * y, s + w * x, w - 0.3 * math.atan2(y, x))


def kernel(steps: int = KERNEL_STEPS) -> float:
    """RK4 integration of a small planar system; returns its end state's sum."""
    x, y, h = 1.0, 0.0, 0.0
    w, dt = 0.7, 1e-3
    for _ in range(steps):
        k1 = _rhs(x, y, h, w)
        k2 = _rhs(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1], h + 0.5 * dt * k1[2], w)
        k3 = _rhs(x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1], h + 0.5 * dt * k2[2], w)
        k4 = _rhs(x + dt * k3[0], y + dt * k3[1], h + dt * k3[2], w)
        x += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        h += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return x + y + h


def kernel_seconds(after_seconds: float = 0.0) -> float:
    """Mean seconds per ``kernel()`` call over a sample of at least
    ``MIN_SAMPLE_S``, or ``SAMPLE_SHARE`` of the unit it follows."""
    duration = max(MIN_SAMPLE_S, SAMPLE_SHARE * after_seconds)
    calls = 0
    t0 = time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= duration:
            return elapsed / calls


class Calibrator:
    """Brackets units of work with kernel samples and scales their times.

    ``scale(seconds)`` takes a unit's wall time, samples the kernel after it
    and returns the factor that turns the unit's times into reference
    seconds: ``REF_KERNEL_S`` over the mean of the samples before and after.
    """

    def __init__(self):
        self.before = kernel_seconds()
        self.samples = [self.before]

    def scale(self, seconds: float) -> float:
        after = kernel_seconds(seconds)
        self.samples.append(after)
        factor = REF_KERNEL_S / (0.5 * (self.before + after))
        self.before = after
        return factor

    def speed(self) -> float:
        """Host speed over the run relative to the reference (1 = reference)."""
        ordered = sorted(self.samples)
        return REF_KERNEL_S / ordered[len(ordered) // 2]
