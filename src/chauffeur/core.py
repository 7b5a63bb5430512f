"""Game parameters and the reduced-order relative kinematics.

Conventions (used consistently across the package):

* Pursuer speed and minimum turn radius are both normalized to 1, so the
  evader speed ``mu`` and the capture radius ``l`` are dimensionless and time
  is measured in turn-radius transits.
* All headings are measured clockwise from the +Y axis, so a heading ``th``
  moves along ``(sin th, cos th)``.
* The relative frame puts the pursuer at the origin with the +Y axis along
  its heading.  The evader's relative position is ``(x, y)`` and its relative
  heading is ``psi = theta_E - theta_P``.

The kinematics come as the field ``rel_rhs`` and as its exact flow under
held controls, ``held_step``.  There is no generic integrator here: the one
field without a closed form, the equivocal march's pure pursuit, writes out
its RK4 stages in ``solution._rk4_equivocal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi]."""
    a = math.fmod(a + math.pi, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return a - math.pi


@dataclass(frozen=True)
class GameParams:
    """Evader/pursuer speed ratio ``mu`` and capture radius ``l``.

    Only parameter pairs with ``0 < mu < 1``, ``l > 0`` and ``mu^2 + l^2 < 1``
    are legal; use :func:`validate_params` to construct a checked instance.
    """

    mu: float
    l: float


def validate_params(mu: float, l: float) -> GameParams:
    """Return a :class:`GameParams` iff all parameter invariants hold."""
    if not (0.0 < mu < 1.0):
        raise ValueError(
            f"speed ratio mu={mu!r} must lie strictly inside (0, 1): "
            "the pursuer needs a strict speed advantage"
        )
    if not l > 0.0:
        raise ValueError(f"capture radius l={l!r} must be positive")
    if not mu * mu + l * l < 1.0:
        raise ValueError(
            f"mu^2 + l^2 = {mu * mu + l * l:.6g} must be < 1 "
            "(capture-from-everywhere parameter regime)"
        )
    return GameParams(mu=mu, l=l)


@dataclass(frozen=True)
class RelState:
    """Evader position in the pursuer-fixed rotating frame."""

    x: float
    y: float

    def captured(self, l: float) -> bool:
        return self.x * self.x + self.y * self.y <= l * l


@dataclass(frozen=True)
class Controls:
    """Pursuer turn rate, evader relative heading and commanded speed."""

    u: float
    psi: float
    mu_cmd: float

    def __post_init__(self):
        if not abs(self.u) <= 1.0 + 1e-12:
            raise ValueError(f"turn rate u={self.u!r} outside [-1, 1]")
        if not abs(self.psi) < math.inf:
            raise ValueError(f"relative heading psi={self.psi!r} must be finite")
        if not 0.0 <= self.mu_cmd < math.inf:
            raise ValueError(f"commanded speed mu_cmd={self.mu_cmd!r} must be finite and >= 0")
        object.__setattr__(self, "psi", wrap_angle(self.psi))


def rel_rhs(x: float, y: float, u: float, psi: float, mu: float) -> tuple[float, float]:
    """Relative-frame velocity (xdot, ydot)."""
    return -y * u + mu * math.sin(psi), x * u - 1.0 + mu * math.cos(psi)


def held_step(x: float, y: float, u: float, psi: float, mu: float, dt: float):
    """Exact flow over ``dt`` of the relative kinematics under held controls.

    With ``z = x + i y`` the field is linear, ``z' = i u z + w``, so
    ``z(dt) = z0 + dt (S + i C) f0`` with ``f0`` the field at the start,
    ``a = u dt``, ``S = sin(a)/a`` and ``C = 2 sin^2(a/2)/a``; ``a == 0`` is
    the straight line.
    """
    fx = -y * u + mu * math.sin(psi)
    fy = x * u - 1.0 + mu * math.cos(psi)
    a = u * dt
    if a == 0.0:
        return x + dt * fx, y + dt * fy
    sh = math.sin(0.5 * a)
    s = dt * math.sin(a) / a
    c = dt * 2.0 * sh * sh / a
    return x + s * fx - c * fy, y + s * fy + c * fx
