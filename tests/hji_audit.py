"""Shared test helper: Isaacs' equation checked on ``value()`` alone.

With the relative kinematics ``x' = -u y + mu sin psi`` and ``y' = u x - 1 +
mu cos psi``, the value V satisfies, wherever it is differentiable,

    H = 1 - V_y + mu |grad V| - |x V_y - y V_x| = 0

(Isaacs, *Differential Games*, 1965).  The gradient here comes from central
differences of ``value()`` at seeded points, not from the fans' bookkeeping,
so a family whose stored headings are not the equilibrium ones shows as a
residual far above the differencing error.

The same gradient gives the equilibrium controls, ``psi = atan2(V_x, V_y)``
for the evader and ``u = -sign(x V_y - y V_x)`` for the pursuer, which
``feedback_pair`` must play.  Outside the pocket the feedback and
``value()`` read one solve of the region's characteristic
(``SolutionGeometry._play``), so its heading is the value's own by
construction and the gap is the differencing error.  In the pocket it
follows the nearest stored sample and its projected tau, not the preimage
that the value reads, so the rear family's gap is the sampling error, about
1e-3 rad: evidence for taking the pocket feedback from the preimage too
(the preimage-feedback item in ROADMAP).
"""

import math
from typing import NamedTuple

from chauffeur.core import RelState, wrap_angle
from chauffeur.solution import PRIMARY, SECONDARY, TRIBUTARY
from chauffeur.strategy import feedback_pair

# Seeding box (x >= 0 half plane) and the clearances from the pocket wall
# outside and inside the pocket.
BOX = (0.05, 2.5, -2.5, 1.5)
WALL_MARGIN = 0.02
POCKET_MARGIN = 0.08


def family(geom, x, y):
    """``"tributary"``, ``"primary"``, or for a pocket state the family of
    its first admissible preimage, ``"rear"`` or ``"junction"``; None for
    any other state, including pocket states without a preimage."""
    tag = geom.classify(RelState(x, y)).tag
    if tag == TRIBUTARY:
        return "tributary"
    if tag == PRIMARY:
        return "primary"
    if tag == SECONDARY:
        pre = geom._preimages(x, y)
        return pre[0][0] if pre else None
    return None


class Check(NamedTuple):
    """One audited point: |H|, the gap in radians between the feedback's
    evader heading and ``atan2(V_x, V_y)``, and whether the feedback's u is
    ``-sign(x V_y - y V_x)``."""

    residual: float
    heading_gap: float
    u_minimises: bool


def check(geom, x, y, h):
    """:class:`Check` at (x, y) from central differences of ``value()``
    with step h."""
    mu = geom.params.mu

    def v(a, b):
        return geom.value(RelState(a, b))

    vx = (v(x + h, y) - v(x - h, y)) / (2.0 * h)
    vy = (v(x, y + h) - v(x, y - h)) / (2.0 * h)
    lever = x * vy - y * vx
    u, psi, _ = feedback_pair(geom, RelState(x, y))
    return Check(
        abs(1.0 - vy + mu * math.hypot(vx, vy) - abs(lever)),
        abs(wrap_angle(psi - math.atan2(vx, vy))),
        u == -math.copysign(1.0, lever),
    )


def checks(geom, rng, steps, per_family, n_seeds):
    """:class:`Check` per family over at most ``per_family`` points each,
    from ``n_seeds`` points drawn uniformly over ``BOX``.  ``steps`` maps
    each audited family to its difference step h.  A point is kept when it
    lies more than ``WALL_MARGIN`` from the wall (``POCKET_MARGIN`` inside
    the pocket) and its whole stencil lies in its family."""
    out = {name: [] for name in steps}
    x0, x1, y0, y1 = BOX
    for _ in range(n_seeds):
        x, y = float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1))
        name = family(geom, x, y)
        if name not in out or len(out[name]) >= per_family:
            continue
        margin = POCKET_MARGIN if name in ("rear", "junction") else WALL_MARGIN
        if geom.wall_distance(x, y) <= margin:
            continue
        h = steps[name]
        stencil = ((x + h, y), (x - h, y), (x, y + h), (x, y - h))
        if all(family(geom, a, b) == name for a, b in stencil):
            out[name].append(check(geom, x, y, h))
    return out
