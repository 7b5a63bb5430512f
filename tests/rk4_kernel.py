"""Test helper: a generic classical RK4 step and the held-control field.

The package writes out the RK4 stages of its one integrated field (the
equivocal march's pure pursuit), so the generic kernel lives here, where the
tests use it as an independent reference.
"""

import math


def frozen_rhs(u: float, psi: float, mu: float):
    """Relative-frame velocity field under controls held fixed, as ``f(x, y, c)``
    for :func:`rk4_step` (``c`` is unused)."""
    vx, vy = mu * math.sin(psi), mu * math.cos(psi)
    return lambda x, y, _c: (-y * u + vx, x * u - 1.0 + vy)


def rk4_step(f, x, y, h):
    """One classical RK4 step of ``(x, y)' = f(x, y, c)``.

    ``c`` is the stage's offset from the start of the step (0, h/2, h/2, h),
    for fields that depend on time.  ``x`` and ``y`` may be floats or numpy
    arrays.
    """
    hh = 0.5 * h
    k1x, k1y = f(x, y, 0.0)
    k2x, k2y = f(x + hh * k1x, y + hh * k1y, hh)
    k3x, k3y = f(x + hh * k2x, y + hh * k2y, hh)
    k4x, k4y = f(x + h * k3x, y + h * k3y, h)
    return (
        x + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
        y + h / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y),
    )
