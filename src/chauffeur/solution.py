"""Solution geometry of the chauffeur game for one parameter pair.

Everything is built in the x >= 0 half plane and mirrored on query (the game
is symmetric about the y axis).  The construction, in build order:

* usable part: the capture-circle arc at polar angles ``phi`` in
  ``[0, acos(mu))`` measured clockwise off +y; its boundary point (BUP)
  ``(l sin(phi_bar), l cos(phi_bar))`` with ``phi_bar = acos(mu)`` anchors
  the barrier.
* barrier: retrograde arc from the BUP under ``(u, psi) = (+1, phi_bar+tau)``,
  the ``phi = phi_bar`` member of the primary family, so it is evaluated in
  the same closed form (below) on the accumulated grid ``tau += d_tau``.  It
  stops where the retrograde tangent turns back toward the capture circle
  (the local x-extremum of the arc), found by bisecting ``dx/dtau`` on the
  closed form.  Two interior times matter along the way: the arc exits the
  unit turn disc centred at (1, 0) at exactly tau = l/mu, which is the focal
  time where the whole primary family converges (the primary region closes
  there), and the recorded endpoint anchors the equivocal curve.
* primary fan: the same retrograde family for ``phi`` in ``(0, phi_bar)``,
  run to the focal time on one shared tau grid.  The heading turns at the
  pursuer's own rate, ``psi = c + u tau`` with ``(c, u) = (phi, +1)``, so
  every sample is exact: with ``z = (x - u) + i y``,
  ``z(tau) = exp(-i u tau) (z0 - i mu tau exp(-i c))``.  The fan is kept
  in that form (:class:`PrimaryFan`) and sampled when read; the build
  evaluates only the innermost member, which closes the petal.
* equivocal curve: marched retrograde from the barrier endpoint with the
  evader in pure pursuit of the origin, ``(sin psi, cos psi) = -(x, y)/r``,
  and the pursuer control solved per step so that the tributary departure
  cost grows at unit rate (the two escape options stay equal in cost).  The
  root solve starts from the control's linear prediction and falls back to
  a continuity ladder around the previous control.  Each residual takes one
  RK4 step of this field, with the four stages written out, since pure
  pursuit has no closed form under held ``u``.  Its y-axis contact
  ``(0, y_es)`` closes the pocket and bounds the negative universal line.
* secondary fan: ``u = -1`` arcs from equivocal-curve anchors
  (``c = pi - atan(y_ES / x_ES)``) and from the negative universal line
  (``c = 0``), in the same closed form, sampled up to local time
  ``_SECONDARY_TAU_MAX``; they fill the pocket enclosed by barrier,
  equivocal curve, axis segment and capture circle.  An arc stops before it
  crosses the thinned barrier; each chunk of an arc takes the exact
  intersection test only against the barrier segments whose padded bounding
  box overlaps the chunk's own.
* pocket wall: one polygon over every barrier and equivocal sample, the
  axis segment and the capture arc.  It answers membership, the exact
  crossing of a segment with the wall and the section crossed (barrier,
  equivocal or arc); the axis segment is the mirror line, never crossed.

Each stage's extent is fixed by the construction (barrier endpoint, focal
time, ``_SECONDARY_TAU_MAX``), so the build functions take only the
resolution: the step ``d_tau`` and the primary fan's member count ``n_phi``.

Values: tributary points, both universal lines and the dispersal line are
closed form (turn alignment plus straight chase).  Primary values and
headings are exact, from the inverted closed form (:func:`primary_inverse`).
Outside the pocket one solve of the region's characteristic gives the
controls and the value together (:meth:`SolutionGeometry._play`); both
``value()`` and the feedback read it.  A pocket point's value is its
secondary characteristic's anchor value plus tau, from the same closed form
read backwards (:class:`_SecondaryFamilies`: the rear family in closed form,
the junction family by a Newton solve); a point with no admissible
preimage, and the pocket feedback, follow the nearest secondary sample's
headings.  The tributary formula is also the departure cost on the pocket
wall, which makes the value continuous across the equivocal curve while it
jumps across the barrier (the pocket is worth more to the evader than the
wrapped tributary field just outside).  The equivocal dead band reads the
curve's samples sorted by x (:class:`_SortedVertices`); the wall band and
the wall distance scan the pocket polygon's barrier and equivocal vertices,
which only the simulator's wall hold after a deceptive switch asks for.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, GameParams, RelState, held_step, wrap_angle

# Region tags.
CAPTURED = "Captured"
PRIMARY = "Primary"
TRIBUTARY = "Tributary"
SECONDARY = "Secondary"
UNIVERSAL_POSITIVE = "UniversalPositive"
UNIVERSAL_NEGATIVE = "UniversalNegative"
EQUIVOCAL = "Equivocal"
DISPERSAL = "Dispersal"

# Signed-distance dead band for classification side tests.
SIDE_DEADBAND = 1e-6

GEOMETRY_CSV_HEADER = "family,branch_id,tau,x,y"


class NumericalError(RuntimeError):
    """Base of the named numerical failures of a geometry build or query."""


class EqualCostBracketError(NumericalError):
    """Equal-cost locus could not be bracketed while marching the equivocal curve."""


@dataclass(frozen=True)
class Region:
    tag: str
    mirrored: bool = False


@dataclass(frozen=True)
class SampledCurve:
    """Polyline with a time-to-go value per sample."""

    points: np.ndarray  # (n, 2)
    tau: np.ndarray  # (n,)
    u: np.ndarray | None = None  # pursuer control along an equivocal curve


@dataclass(frozen=True)
class Characteristic:
    """One retrograde characteristic; tau is local time to its terminal manifold."""

    points: np.ndarray  # (n, 2)
    tau: np.ndarray  # (n,)
    terminal: str  # "usable_part" | "equivocal" | "negative_universal"
    anchor_value: float  # game value at the tau = 0 sample
    phi: float | None = None  # usable-part angle (primary family)
    anchor: tuple[float, float] | None = None  # junction (x_ES, y_ES) or (0, y0)


@dataclass(frozen=True)
class CharacteristicField:
    family: str  # "secondary"
    trajectories: list[Characteristic]


@dataclass(frozen=True)
class PrimaryFan:
    """The primary family in closed form: the usable-part angles ``phis``
    and the shared read-only ``tau`` grid; member ``i`` starts at ``l (sin
    phis[i], cos phis[i])`` and follows :func:`_integrate_fan` with ``u =
    +1`` and phase ``phis[i]``.  Nothing is sampled until
    :attr:`trajectories` is read, and nothing sampled is kept, so a pickle
    holds the inputs only."""

    family = "primary"
    phis: np.ndarray  # (n_phi,)
    tau: np.ndarray  # (n_steps + 1,), read-only, ends at the focal time l/mu
    l: float
    mu: float

    def _sample(self, phis: np.ndarray) -> np.ndarray:
        x0, y0 = self.l * np.sin(phis), self.l * np.cos(phis)
        return _integrate_fan(x0, y0, 1.0, phis, self.mu, self.tau)[0]

    @property
    def trajectories(self) -> list[Characteristic]:
        """Every member, sampled afresh on each read by one
        :func:`_integrate_fan` call over the whole family."""
        cube = self._sample(self.phis)
        return [
            Characteristic(
                points=cube[i], tau=self.tau, terminal="usable_part", anchor_value=0.0, phi=phi
            )
            for i, phi in enumerate(self.phis.tolist())
        ]

    def innermost(self) -> np.ndarray:
        """Samples of the innermost member, ``phis[0]``, evaluated alone;
        the same bits as ``trajectories[0].points``."""
        return self._sample(self.phis[:1])[0]


# ---------------------------------------------------------------------------
# closed-form pieces: usable part, turn alignment, tributary value
# ---------------------------------------------------------------------------


def bup_angle(p: GameParams) -> float:
    """Half-width of the usable part: phi_bar = acos(mu)."""
    return math.acos(p.mu)


def bup_point(p: GameParams) -> tuple[float, float]:
    phi = bup_angle(p)
    return (p.l * math.sin(phi), p.l * math.cos(phi))


def turn_alignment(x: float, y: float) -> tuple[float, float] | None:
    """Duration of the u=+1 turn that aims the heading ray at a frozen target.

    Returns ``(t_align, s0)`` where ``s0 = sqrt(R^2 - 1)`` is the separation
    along the heading ray at alignment, or ``None`` when the target lies
    strictly inside the unit turn disc centred at (1, 0) and no alignment
    exists.  The root solves ``(x-1) cos t - y sin t = -1`` with the target
    ahead, i.e. ``(x-1) sin t + y cos t > 0``.
    """
    cx = x - 1.0
    r2 = cx * cx + y * y
    if r2 < 1.0:
        return None
    r = math.sqrt(r2)
    s0 = math.sqrt(max(r2 - 1.0, 0.0))
    delta = math.atan2(y, cx)
    half = math.acos(max(-1.0, min(1.0, -1.0 / r)))
    # r sin(half) = s0, so the target's along-ray coordinate is +s0 at this
    # root and -s0 at the other: this root is the one ahead.
    t = (-delta + half) % TWO_PI
    # Exact alignments at t ~ 2*pi are t ~ 0 cases hit from below.
    t = 0.0 if t > TWO_PI - 1e-9 else t
    if s0 <= 1e-6:
        # Near the turn circle the other root is within rounding of ahead
        # too, and the earlier of the two is taken.
        other = (-delta - half) % TWO_PI
        if cx * math.sin(other) + y * math.cos(other) >= -1e-9:
            t = min(t, 0.0 if other > TWO_PI - 1e-9 else other)
    return t, s0


def dubins_cs_turn_time(
    pursuer_pos: tuple[float, float], pursuer_heading: float, target: tuple[float, float]
) -> float:
    """C-segment duration of the turn-then-straight path through ``target``.

    The pursuer turns toward the target (u = +1 for targets on its right,
    mirrored otherwise) until its heading ray passes through the target in
    the forward direction.  Independent of the evader speed by construction.
    """
    dx = target[0] - pursuer_pos[0]
    dy = target[1] - pursuer_pos[1]
    c, s = math.cos(pursuer_heading), math.sin(pursuer_heading)
    # Headings run clockwise from +Y, so this is the inverse of the pursuer's
    # heading rotation, not the usual CCW-from-+X matrix; do not "fix" it.
    res = turn_alignment(abs(dx * c - dy * s), dx * s + dy * c)
    if res is None:
        raise ValueError(
            "target lies strictly inside the unit turn circle on the turning "
            "side; no turn-then-straight alignment exists"
        )
    return res[0]


def _tributary_value_raw(p: GameParams, x: float, y: float) -> float | None:
    """Turn-then-chase cost; valid as the game value inside the tributary region."""
    res = turn_alignment(x, y)
    if res is None:
        return None
    t, s0 = res
    return _tributary_cost(p, t, s0)


def _tributary_cost(p: GameParams, t: float, s0: float) -> float:
    """Turn-then-chase cost of the :func:`turn_alignment` ``(t, s0)``."""
    # Capture closes at separation l, hence the -l in the chase leg.
    return t + (s0 + p.mu * t - p.l) / (1.0 - p.mu)


def _junction_tilt(ax: float, ay: float) -> float:
    """Tilt ``a`` of the junction family's anchor (ax, ay), ax > 0: the
    family's phase is ``c = pi - a``.  :func:`secondary_heading` and the
    pocket's inverse (:meth:`_SecondaryFamilies.junction`, which also
    differentiates it) read it here."""
    return math.atan(ay / ax)


def secondary_heading(ch: Characteristic, tau: float) -> float:
    """Evader heading, unwrapped, at local time ``tau`` on a secondary
    characteristic: the ``u = -1`` family ``psi = c - tau``."""
    if ch.terminal == "equivocal":
        return math.pi - tau - _junction_tilt(*ch.anchor)
    return -tau


# ---------------------------------------------------------------------------
# retrograde integration
# ---------------------------------------------------------------------------


# Steps per chunk of the closed-form evaluation: the barrier's and the fans'
# stop rules run once per chunk.
_FAN_CHUNK = 128


def _fan_xy(x0, y0, u, c, mu, t):
    """Exact retrograde flow of the ``(u, psi = c + u tau)`` characteristic
    from ``(x0, y0)``, evaluated at the times ``t``; see :func:`_integrate_fan`.
    Broadcasts like numpy: one start and many times, or a column of starts
    against a row of times."""
    z0 = (x0 - u) + 1j * y0
    drift = -1j * mu * np.exp(-1j * c)
    z = np.exp(-1j * u * t) * (z0 + drift * t)
    return z.real + u, z.imag


def _check_step(d_tau: float) -> None:
    """Reject a step ``d_tau`` outside (0, 0.01), NaN included."""
    if not 0.0 < d_tau < 0.01:
        raise ValueError(f"d_tau={d_tau!r} must be finite and lie in (0, 0.01)")


def _bisect(on_hi_side, lo: float, hi: float) -> tuple[float, float, float]:
    """Halve ``[lo, hi]`` at most 60 times, the midpoint replacing ``hi``
    where ``on_hi_side(mid)`` holds and ``lo`` otherwise; returns the final
    ``(lo, hi)`` and the last midpoint.  After a midpoint equal to an end,
    every later halving would test it again and change nothing, so the
    search stops there with the bits of all 60 (for a deterministic test)."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        at_end = mid == lo or mid == hi
        lo, hi = (lo, mid) if on_hi_side(mid) else (mid, hi)
        if at_end:
            break
    return lo, hi, mid


class BarrierMarchError(NumericalError):
    """The barrier's tangent did not turn back toward the capture circle
    within the march's bound on tau."""


def compute_barrier(p: GameParams, d_tau: float = 1e-3) -> SampledCurve:
    """Retrograde barrier from the BUP to its endpoint.

    The endpoint is where the retrograde tangent turns back toward the
    capture circle: the first local x-maximum reached after the arc has left
    the unit turn disc centred at (1, 0).  (For small mu the arc wiggles
    through interior x-extrema while still inside the disc; those are not
    endpoints, and the equivocal curve could not anchor there because the
    departure cost only exists outside the disc.)  ``d_tau`` must lie in
    (0, 0.01).

    The barrier is the ``phi = phi_bar`` member of the primary family, so
    its samples are the closed form :func:`_fan_xy`, evaluated
    ``_FAN_CHUNK`` steps at a time on the accumulated grid ``tau += d_tau``.
    A step arms the endpoint test once it ends outside the disc with
    ``dx/dtau > 0``; the first later step that ends with ``dx/dtau <= 0`` is
    bisected for the tangent-vertical time, which replaces that step's end
    as the last sample.
    """
    _check_step(d_tau)
    phi, mu = bup_angle(p), p.mu
    x0, y0 = bup_point(p)

    def at(t):
        """(x, y, dx/dtau) of the barrier at the times t."""
        x, y = _fan_xy(x0, y0, 1.0, phi, mu, t)
        return x, y, y - mu * np.sin(phi + t)

    ts, tau, armed = [0.0], 0.0, False
    while True:
        t = []
        for _ in range(_FAN_CHUNK):
            tau += d_tau
            t.append(tau)
        x, y, dx = at(np.array(t))
        # The endpoint test applies from the step after the arming one.
        first = 0
        if not armed:
            arming = np.flatnonzero(((x - 1.0) ** 2 + y**2 >= 1.0) & (dx > 0.0))
            armed = len(arming) > 0
            first = int(arming[0]) + 1 if armed else len(t)
        turned = np.flatnonzero(dx[first:] <= 0.0)
        end = first + int(turned[0]) if len(turned) else len(t)
        if max(t[:end], default=0.0) > 100.0:
            raise BarrierMarchError(
                "barrier march failed to terminate: the tangent has not turned back by tau = 100"
            )
        ts += t[:end]
        if end < len(t):
            # Bisect the tangent-vertical time inside the step after ts[-1].
            t0 = ts[-1]
            hi = _bisect(lambda mid: at(t0 + mid)[2] <= 0.0, 0.0, d_tau)[1]
            ts.append(t0 + hi)
            break
    x, y, _ = at(np.array(ts))
    x[0], y[0] = x0, y0
    return SampledCurve(points=np.stack([x, y], axis=1), tau=np.array(ts))


def _integrate_fan(x0, y0, u, c, mu, taus, stop=None):
    """Exact retrograde flow of a whole fan of characteristics at once.

    Every fan family turns the evader's heading at the pursuer's own turn
    rate, ``psi = c + u tau`` with ``u = +-1`` fixed and a phase ``c`` per
    characteristic.  The field ``(u y - mu sin psi, 1 - u x - mu cos psi)``
    is then a resonantly forced rotation: with ``z = (x - u) + i y`` it reads
    ``z' = -i u z - i mu exp(-i psi)``, solved by

        z(tau) = exp(-i u tau) (z0 - i mu tau exp(-i c)).

    Samples are evaluated at ``taus`` (``taus[0] = 0`` gives ``(x0, y0)``)
    in chunks of ``_FAN_CHUNK`` steps.  ``stop(px, py, qx, qy)`` flags step
    segments that must not be taken; it runs once per chunk on that block
    of segments, four ``(rows, steps)`` views (not contiguous) with one row
    per live characteristic and its steps in order, and returns a bool
    array of that shape.  A characteristic keeps its samples up to its first
    flagged step, and one stopped at its first step keeps a frozen second
    sample.  Returns ``(cube, ends)``: the samples of characteristic ``i``
    are ``cube[i, :ends[i]]``.  While every row is live a chunk is written
    straight into ``cube``; afterwards the live rows are gathered and
    scattered back.

    A sample's last bit can depend on the layout of the arrays it was
    evaluated in: one member evaluated alone may differ from the same
    member evaluated with its family at a chunk's first sample.  Stored
    samples are reproduced bit for bit by one call over the whole family
    with the same ``taus``.
    """
    n, n_steps = len(x0), len(taus) - 1
    cube = np.empty((n, n_steps + 1, 2))
    cube[:, 0, 0] = x0
    cube[:, 0, 1] = y0
    ends = np.full(n, n_steps + 1)
    live = np.arange(n)
    k0 = 0
    while k0 < n_steps and len(live):
        t = taus[k0 + 1 : k0 + 1 + _FAN_CHUNK]
        k1 = k0 + len(t)
        whole = len(live) == n
        seg = cube[:, k0 : k1 + 1] if whole else cube[live, k0 : k1 + 1]
        seg[:, 1:, 0], seg[:, 1:, 1] = _fan_xy(
            x0[live, None], y0[live, None], u, c[live, None], mu, t
        )
        if not whole:
            cube[live, k0 + 1 : k1 + 1] = seg[:, 1:]
        if stop is not None:
            hit = stop(seg[:, :-1, 0], seg[:, :-1, 1], seg[:, 1:, 0], seg[:, 1:, 1])
            done = hit.any(axis=1)
            ends[live[done]] = k0 + hit[done].argmax(axis=1) + 1
            live = live[~done]
        k0 = k1
    at_start = ends == 1
    cube[at_start, 1] = cube[at_start, 0]
    return cube, np.maximum(ends, 2)


def compute_primary_fan(p: GameParams, n_phi: int = 200, d_tau: float = 1e-3) -> PrimaryFan:
    """Retrograde characteristics from usable-part angles phi in (0, phi_bar).

    All members share the focal time ``l/mu`` at which the family converges
    onto one point of the barrier.  Under ``(u, psi) = (+1, phi + tau)``
    each member has the closed form of :func:`_integrate_fan` with phase
    ``c = phi``, on one read-only grid of ``n_steps + 1`` evenly spaced
    times up to the focal time (``d_tau`` must lie in (0, 0.01), ``n_phi``
    must be an integer of at least 2).  The arguments are checked here; the
    samples are evaluated only when :attr:`PrimaryFan.trajectories` is read.
    """
    if not isinstance(n_phi, (int, np.integer)) or n_phi < 2:
        raise ValueError(f"n_phi={n_phi!r} must be an integer of at least 2")
    _check_step(d_tau)
    phi_bar = bup_angle(p)
    tau_end = p.l / p.mu
    phis = np.linspace(phi_bar / n_phi, phi_bar, n_phi)
    n_steps = max(2, int(round(tau_end / d_tau)))
    taus = np.linspace(0.0, tau_end, n_steps + 1)
    taus.flags.writeable = False
    return PrimaryFan(phis=phis, tau=taus, l=p.l, mu=p.mu)


class PrimaryRootError(NumericalError):
    """No primary characteristic passes through the state before the focal time."""


# A state at most this far beyond the barrier gets the barrier's own
# characteristic: the petal's barrier chords lie up to about 1e-7 outside it.
_FOLD_GAP = 1e-5


def primary_inverse(p: GameParams, x: float, y: float) -> tuple[float, float]:
    """(phi, tau) of the primary characteristic through (x, y), x >= 0.

    With ``w = (x - 1) + i y`` and ``q = w exp(i tau) + 1``, the member from
    usable-part angle phi passes through (x, y) at tau iff ``q = i (l - mu
    tau) exp(-i phi)``: tau is a root of ``f = |q|^2 - (l - mu tau)^2`` and
    ``phi = atan2(Re q, Im q)``.  The first root on [0, l/mu] is taken: from
    ``f(0) > 0`` each step goes to the first zero of the parabola through
    ``f`` and ``f'`` whose curvature is the bound ``f'' >= -2 (|w| + mu^2)``,
    so no step passes a root.  At a root ``f' = 2 (l - mu tau)(mu - cos
    phi)``, so ``f`` turning upward first means the state lies beyond the
    family's fold, the barrier: at most ``_FOLD_GAP`` beyond, it gets
    ``phi_bar`` and the tau of the minimum of ``f``.  Otherwise, and with no
    root by l/mu, :class:`PrimaryRootError` is raised.
    """
    l, mu, wx, wy = p.l, p.mu, x - 1.0, y
    bound = math.hypot(wx, wy) + mu * mu

    def at(t):  # q, l - mu t, f and f'
        c, s = math.cos(t), math.sin(t)
        qx, qy = wx * c - wy * s + 1.0, wx * s + wy * c
        g = l - mu * t
        return qx, qy, g, qx * qx + qy * qy - g * g, 2.0 * (mu * g - qy)

    t_prev = t = 0.0
    while t <= l / mu:
        qx, qy, g, f, d = at(t)
        if f <= 0.0:
            return math.atan2(qx, qy), t
        if d >= 0.0:
            # f' changes sign in between: bisect for the minimum.
            t = _bisect(lambda m: not at(m)[4] < 0.0, t_prev, t)[2]
            qx, qy, g, f, d = at(t)
            gap = math.hypot(qx, qy) - g
            if gap > _FOLD_GAP:
                raise PrimaryRootError(f"({x!r}, {y!r}) lies {gap:.3g} beyond the barrier")
            return bup_angle(p), t
        step = 2.0 * f / (math.sqrt(d * d + 4.0 * bound * f) - d)
        if step <= 2e-16 * t:  # converged onto the root from below
            return math.atan2(qx, qy), t
        t_prev, t = t, t + step
    raise PrimaryRootError(f"no primary characteristic reaches ({x!r}, {y!r}) by tau = l/mu")


# ---------------------------------------------------------------------------
# equivocal curve and secondary fan
# ---------------------------------------------------------------------------


def _rk4_equivocal(p: GameParams, x: float, y: float, u: float, h: float):
    """One classical RK4 step of the retrograde field under held ``u`` with
    the evader in pure pursuit of the origin at every stage,
    ``(sin psi, cos psi) = -(x, y) / r``: the field is
    ``(y u + mu x / r, 1 - x u + mu y / r)``.  The four stages are written
    out; this is the march's inner loop."""
    mu = p.mu
    hh = 0.5 * h
    r = math.hypot(x, y)
    k1x, k1y = y * u + mu * x / r, 1.0 - x * u + mu * y / r
    x2, y2 = x + hh * k1x, y + hh * k1y
    r = math.hypot(x2, y2)
    k2x, k2y = y2 * u + mu * x2 / r, 1.0 - x2 * u + mu * y2 / r
    x3, y3 = x + hh * k2x, y + hh * k2y
    r = math.hypot(x3, y3)
    k3x, k3y = y3 * u + mu * x3 / r, 1.0 - x3 * u + mu * y3 / r
    x4, y4 = x + h * k3x, y + h * k3y
    r = math.hypot(x4, y4)
    k4x, k4y = y4 * u + mu * x4 / r, 1.0 - x4 * u + mu * y4 / r
    return (
        x + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
        y + h / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y),
    )


# Warm-started equal-cost bracket: the linear prediction of the control
# plus or minus max(_WARM_WIDTH |last second difference|, _WARM_FLOOR).
_WARM_WIDTH = 4.0
_WARM_FLOOR = 1e-9
# A step's control is accepted once its residual is at most _STOP_ULPS
# machine epsilons of the running cost v + h.  The departure cost rounds at
# that level, and the residual's slope in u is only about h x (1e-3), so u
# is resolved to about 1e-12 at best; iterating further chases noise.
_STOP_ULPS = 4.0
# Half-widths of the continuity ladder around the previous control.
_LADDER = (0.1, 0.25, 0.5, 1.0)


def _march_equivocal(
    p: GameParams, start: tuple[float, float], v_start: float, d_tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """March the equal-cost locus from the barrier endpoint to the y axis.

    Per step the pursuer control is solved so the tributary departure cost at
    the stepped point equals the running cost plus the step; the evader
    control is pure pursuit of the origin.  The control root is followed by
    continuity, because a second, spurious root branch exists near the
    barrier.  A control is accepted once its residual is at most
    ``_STOP_ULPS`` machine epsilons of the running cost.  From the fourth
    step on, the quadratic prediction ``3 u[k-1] - 3 u[k-2] + u[k-3]`` is
    tried first, then one Newton step from it, with the residual slope
    carried over from the previous step (the secant of its last two
    evaluations, or of its bracket ends); either is accepted only inside the
    warm bracket, the linear prediction ``2 u[k-1] - u[k-2]`` plus or minus
    ``_WARM_WIDTH`` times the last second difference of the control (at
    least ``_WARM_FLOOR``).  Otherwise the warm bracket is bisected, and
    the end of the final bracket with the smaller residual taken.  When
    that bracket holds no sign change or an undefined residual, and on the
    first three steps, the continuity ladder takes over: brackets of
    half-width ``_LADDER`` around the previous step's control, the first
    with a sign change winning.  Each residual keeps its stepped point,
    keyed by control, so the accepted step is not integrated again.
    Returns (points, value, u) arrays ending at the interpolated axis
    contact.

    The march runs on Python floats: ``start`` and ``v_start`` are converted
    on entry.  A numpy scalar start (a row of the barrier's array) would
    otherwise carry through every RK4 stage, stepped point and departure
    cost, and numpy scalar arithmetic costs several times float arithmetic;
    the results are the same bit for bit, since both round alike.
    """
    x, y = float(start[0]), float(start[1])
    v = float(v_start)
    h = d_tau
    pts = [(x, y)]
    vals = [v]
    ucs: list[float] = []  # ucs[0] repeats the first step's control
    stepped: dict[float, tuple[float, float]] = {}  # this step's points by control
    stop = 0.0  # this step's residual tolerance
    slope = 0.0  # residual slope in u, carried from the last secant

    def residual(u):
        xn, yn = stepped[u] = _rk4_equivocal(p, x, y, u, h)
        dep = _tributary_value_raw(p, xn, yn)
        if dep is None:
            return None
        return dep - (v + h)

    def predicted(lo, hi, u_p):
        """``u_p`` or one Newton step from it, if either meets the stop
        tolerance inside [lo, hi]; None otherwise."""
        nonlocal slope
        r_p = residual(u_p)
        if r_p is None:
            return None
        if abs(r_p) <= stop:
            return u_p if lo <= u_p <= hi else None
        u_n = u_p - r_p / slope if slope else u_p
        if u_n == u_p:  # no slope yet, or a step below u's resolution
            return None
        r_n = residual(u_n)
        if r_n is None:
            return None
        slope = (r_n - r_p) / (u_n - u_p)
        return u_n if abs(r_n) <= stop and lo <= u_n <= hi else None

    def bracketed(lo, hi):
        """The end of the bisected [lo, hi] with the smaller residual, or
        None without a defined sign change there."""
        nonlocal slope
        r_lo = residual(lo)
        r_hi = residual(hi)
        if r_lo is None or r_hi is None:
            return None
        if abs(r_lo) <= stop:
            return lo
        if abs(r_hi) <= stop:
            return hi
        if (r_lo < 0.0) == (r_hi < 0.0):
            return None
        slope = (r_hi - r_lo) / (hi - lo)
        rs = {lo: r_lo, hi: r_hi}

        def on_hi_side(u):
            r = rs[u] = residual(u)
            if r is None:
                raise EqualCostBracketError(
                    f"residual undefined at u={u!r} inside the bracket between "
                    f"u={lo!r} -> {r_lo!r} and u={hi!r} -> {r_hi!r}"
                )
            return (r > 0.0) == (r_hi > 0.0)

        a, b, _ = _bisect(on_hi_side, lo, hi)
        return min(a, b, key=lambda u: abs(rs[u]))

    def solve_u():
        if len(ucs) >= 4:
            u1, u2, u3 = ucs[-1], ucs[-2], ucs[-3]
            half = max(_WARM_WIDTH * abs(u1 - 2.0 * u2 + u3), _WARM_FLOOR)
            pred = 2.0 * u1 - u2
            lo, hi = max(-1.0, pred - half), min(1.0, pred + half)
            u = predicted(lo, hi, 3.0 * (u1 - u2) + u3)
            if u is None and lo <= hi:
                u = bracketed(lo, hi)
            if u is not None:
                return u
        seed = ucs[-1] if ucs else 0.7
        for half in _LADDER:
            u = bracketed(max(-1.0, seed - half), min(1.0, seed + half))
            if u is not None:
                return u
        raise EqualCostBracketError(
            "equal-cost locus lost at "
            f"({x:.6f}, {y:.6f}), v={v:.6f}: residuals "
            f"u=-1 -> {residual(-1.0)!r}, u=+1 -> {residual(1.0)!r}"
        )

    guard = int(40.0 / d_tau)
    for _ in range(guard):
        stepped.clear()
        stop = _STOP_ULPS * sys.float_info.epsilon * (v + h)
        u = solve_u()
        if not ucs:
            ucs.append(u)  # endpoint sample reuses the first interior control
        x, y = stepped[u]
        v += h
        pts.append((x, y))
        vals.append(v)
        ucs.append(u)
        if x <= 0.0:
            # Interpolate the exact axis contact on the last segment.
            x0, y0 = pts[-2]
            w = x0 / (x0 - x)
            pts[-1] = (0.0, y0 + w * (y - y0))
            vals[-1] = vals[-2] + w * h
            break
    else:
        raise EqualCostBracketError("equivocal march failed to reach the y axis")
    return np.asarray(pts), np.asarray(vals), np.asarray(ucs)


def _barrier_stop(points: np.ndarray):
    """Step-segment test against the thinned barrier polyline (every
    ``len(points) // 80``-th sample and the endpoint), for
    :func:`_integrate_fan`'s ``stop``: ``(rows, steps)`` arrays, one row per
    characteristic.  A row takes :func:`_crosses` over all its steps only
    against the segments whose padded box overlaps the box of the row."""
    bseg = points[:: max(1, len(points) // 80)]
    if not np.array_equal(bseg[-1], points[-1]):
        bseg = np.vstack([bseg, points[-1]])
    a, b = bseg[:-1], bseg[1:]
    # A hit has computed t and u in [0, 1]: the crossing point lies in both
    # segments' boxes up to the rounding of t and u times the segment
    # lengths, far below this pad, so no pair with a hit is skipped.
    lo, hi = np.minimum(a, b) - 1e-6, np.maximum(a, b) + 1e-6

    def crosses(px, py, qx, qy) -> np.ndarray:
        # The fan passes strided views; reducing the stacked copies is
        # faster than reducing each view along its rows.
        x, y = np.stack([px, qx]), np.stack([py, qy])
        x0, x1 = x.min(axis=(0, 2))[:, None], x.max(axis=(0, 2))[:, None]
        y0, y1 = y.min(axis=(0, 2))[:, None], y.max(axis=(0, 2))[:, None]
        rows, seg = np.nonzero(
            (x0 <= hi[:, 0]) & (x1 >= lo[:, 0]) & (y0 <= hi[:, 1]) & (y1 >= lo[:, 1])
        )
        hit = np.zeros(px.shape, dtype=bool)
        if len(rows):
            ends = (a[seg, 0, None], a[seg, 1, None], b[seg, 0, None], b[seg, 1, None])
            pairs = _crosses(px[rows], py[rows], qx[rows], qy[rows], *ends)
            # np.nonzero lists the pairs row by row: OR each row's run.
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            hit[rows[first]] = np.logical_or.reduceat(pairs, first)
        return hit

    return crosses


def _crosses(px, py, qx, qy, ax, ay, bx, by) -> np.ndarray:
    """Whether segment p -> q crosses segment a -> b, elementwise over
    broadcast arrays."""
    rx = qx - px
    ry = qy - py
    sx = bx - ax
    sy = by - ay
    dx = ax - px
    dy = ay - py
    denom = rx * sy - ry * sx
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx * sy - dy * sx) / denom
        u = (dx * ry - dy * rx) / denom
    return (np.abs(denom) > 1e-14) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)


# Secondary-fan anchors on the equivocal curve and the negative universal line,
# and the local time up to which the fan's characteristics are sampled.
_N_EQUIVOCAL_ANCHORS = 160
_N_UNIVERSAL_ANCHORS = 60
_SECONDARY_TAU_MAX = 8.0


def _junction_anchors(e_pts: np.ndarray) -> np.ndarray:
    """Indices of the junction family's anchors among the equivocal curve's
    samples, ascending.

    The junction heading pi - tau - atan(y_ES/x_ES) degenerates as the
    junction direction turns axis-parallel, so the corner of the curve near
    its axis contact anchors nothing; the negative-universal family owns
    that territory (its merge-then-slide chain is the consistent play).
    """
    angles = np.arctan2(np.abs(e_pts[:, 1]), np.maximum(e_pts[:, 0], 0.0))
    usable = np.nonzero(angles < 1.35)[0]
    n_e = int(usable[-1]) + 1 if len(usable) else len(e_pts) - 1
    return np.unique(np.linspace(0, n_e - 1, _N_EQUIVOCAL_ANCHORS).round().astype(int))


def compute_secondary_fan_and_equivocal(
    p: GameParams, barrier: SampledCurve, d_tau: float = 1e-3
) -> tuple[CharacteristicField, SampledCurve]:
    """Equivocal curve plus the u = -1 fan that fills the pocket behind it.

    Characteristics are anchored on the equivocal curve (junction strategy)
    and on the negative universal line; each sample carries local time to its
    anchor, and anchors carry the game value there.  The curve's anchor value
    at the barrier endpoint is the tributary departure cost, which exceeds
    the barrier's own ride time: the barrier carries a value jump, and the
    jump is what the slow-then-fast evader exploits.

    Both families steer ``psi = c - tau`` under ``u = -1``: the junction
    family with ``c = pi - atan(y_ES / x_ES)`` (:func:`_junction_tilt`),
    the rear-line family with ``c = 0``.  Each family is one
    :func:`_integrate_fan` call, which evaluates their closed form at ``tau
    = k d_tau`` up to ``_SECONDARY_TAU_MAX``, chunk by chunk.  A
    characteristic ends before its first step that leaves ``x >= 0``,
    enters the capture circle or crosses the thinned barrier; the barrier
    test is :func:`_barrier_stop`, which runs a characteristic's chunk of
    steps only against the barrier segments whose padded bounding box
    overlaps the chunk's, a few of about 80.  Each characteristic's
    ``tau`` is a read-only view of the one grid ``k d_tau``, as in the
    primary fan.  ``d_tau`` must lie in (0, 0.01), which is checked before
    any work.
    """
    _check_step(d_tau)
    n_steps = int(round(_SECONDARY_TAU_MAX / d_tau))
    jx, jy = barrier.points[-1].tolist()
    v_j = _tributary_value_raw(p, jx, jy)
    if v_j is None:
        raise EqualCostBracketError(
            f"barrier endpoint ({jx:.6f}, {jy:.6f}) has no tributary departure "
            "cost; cannot anchor the equivocal curve"
        )
    e_pts, e_val, e_u = _march_equivocal(p, (jx, jy), v_j, d_tau)
    equivocal = SampledCurve(points=e_pts, tau=e_val, u=e_u)
    y_es = float(e_pts[-1, 1])
    v_contact = float(e_val[-1])
    mu = p.mu

    # --- anchors on the equivocal curve ------------------------------------
    idx = _junction_anchors(e_pts)
    anchors_e = e_pts[idx]
    values_e = e_val[idx]
    # The phases c = pi - a, with a from the helper that the heading and
    # the pocket's inverse read, so that all three agree bit for bit.
    c_e = np.array([math.pi - _junction_tilt(ax, ay) for ax, ay in anchors_e.tolist()])

    # --- anchors on the negative universal line ----------------------------
    y0s = np.linspace(y_es + 1e-6, -p.l - 1e-6, _N_UNIVERSAL_ANCHORS)
    values_u = v_contact + (y0s - y_es) / (1.0 - mu)

    crosses_barrier = _barrier_stop(barrier.points)
    l2 = p.l * p.l
    chars: list[Characteristic] = []

    def stop(px, py, qx, qy):
        # Retrograde arcs must stop at the pocket's inner wall or they would
        # shadow primary/tributary territory in nearest-characteristic queries.
        return (qx < 0.0) | (qx * qx + qy * qy < l2) | crosses_barrier(px, py, qx, qy)

    taus = np.arange(n_steps + 1) * d_tau
    taus.flags.writeable = False

    def integrate_family(x0, y0, c, values, terminal):
        cube, ends = _integrate_fan(x0, y0, -1.0, c, mu, taus, stop)
        for i, end in enumerate(ends.tolist()):
            chars.append(
                Characteristic(
                    points=cube[i, :end],
                    tau=taus[:end],
                    terminal=terminal,
                    anchor_value=float(values[i]),
                    anchor=(float(x0[i]), float(y0[i])),
                )
            )

    # Junction-strategy family: psi = pi - tau - atan(y_ES / x_ES).
    integrate_family(
        anchors_e[:, 0].astype(float), anchors_e[:, 1].astype(float), c_e, values_e, "equivocal"
    )
    # Rear-line family: psi = -tau from (0, y0).
    zeros = np.zeros_like(y0s)
    integrate_family(zeros, y0s.astype(float), zeros, values_u, "negative_universal")
    return CharacteristicField(family="secondary", trajectories=chars), equivocal


# ---------------------------------------------------------------------------
# nearest-characteristic lookup
# ---------------------------------------------------------------------------


class NearestSampleError(NumericalError):
    """No stored sample passed the ring rule within the search cap."""


class _CurveIndex:
    """Bucketed nearest-sample lookup over a set of polylines.

    The samples are stored once, sorted by bucket ``(i, j) = floor(p / cell)``:
    row i, then column j, then input order (``sx``, ``sy``, ``owner``,
    ``local``).  ``keys`` holds each non-empty bucket's key ``i * span + j -
    j_lo`` in that order and ``starts`` its first sorted position, plus the
    end, so one row's buckets with columns ``j0..j1`` are one contiguous
    slice.  The ring-r box around a bucket is ``2r - 1`` row slices, and
    taking them in row order visits its samples in sorted order.

    :meth:`_scan` is the one search path: one numpy distance pass per ring
    over the ring's box (:meth:`_box`), and every scalar it keeps read out
    as a Python float or int with ``.item()``.  A sequential caller, the
    pocket value's dive, passes a memo that keeps the boxes of its last
    query's bucket, so consecutive queries in one bucket gather each ring's
    box once.
    """

    def __init__(self, curves: list[np.ndarray], cell: float = 0.08):
        self.curves = curves
        self.cell = cell
        pts = np.concatenate(curves, axis=0)
        key = np.floor(pts / cell).astype(np.int64)
        self.j_lo = int(key[:, 1].min())
        self.span = int(key[:, 1].max()) - self.j_lo + 1
        flat = key[:, 0] * self.span + (key[:, 1] - self.j_lo)
        order = np.argsort(flat, kind="stable")
        self.sx = pts[order, 0]
        self.sy = pts[order, 1]
        self.owner = np.repeat(np.arange(len(curves)), [len(c) for c in curves])[order]
        self.local = np.concatenate([np.arange(len(c)) for c in curves])[order]
        sk = flat[order]
        first = np.flatnonzero(np.diff(sk, prepend=sk[0] - 1))
        self.keys = sk[first].tolist()
        self.starts = first.tolist() + [len(sk)]

    def _box(self, ci: int, cj: int, ring: int) -> tuple | None:
        """(x, y, positions) of the samples in the ring-r box around bucket
        (ci, cj + j_lo), in sorted order, or None for an empty box.  The
        positions are a slice, and the coordinates views, when the box is
        one row slice; otherwise an index array over the row slices in row
        order, and the coordinates gathered through it."""
        span, keys, starts = self.span, self.keys, self.starts
        j0 = max(cj - ring + 1, 0)
        j1 = min(cj + ring - 1, span - 1)
        rows = []
        for row in range((ci - ring + 1) * span, (ci + ring) * span, span):
            lo = bisect_left(keys, row + j0)
            hi = bisect_right(keys, row + j1, lo)
            if lo < hi:
                rows.append((starts[lo], starts[hi]))
        if not rows:
            return None
        if len(rows) == 1:
            at = slice(*rows[0])
        else:
            at = np.concatenate([np.arange(a, b) for a, b in rows])
        return self.sx[at], self.sy[at], at

    def _scan(self, x: float, y: float, memo: dict | None = None) -> tuple:
        """(box positions, squared distances over the box, sorted position,
        squared distance) of the first minimum in the first accepted ring.
        The box holds the ring's samples in sorted order, so the first
        minimum is the one a single argmin over the ring's samples gives.

        ``memo`` is a dict owned by a caller whose queries follow each
        other: it keeps the boxes built for the bucket of its last query
        and is cleared when the bucket changes.  It changes no result."""
        cell = self.cell
        ci = math.floor(x / cell)
        cj = math.floor(y / cell) - self.j_lo
        if memo is not None and memo.get("bucket") != (ci, cj):
            memo.clear()
            memo["bucket"] = (ci, cj)
        for ring in range(1, 40):
            if memo is None:
                box = self._box(ci, cj, ring)
            elif ring in memo:
                box = memo[ring]
            else:
                box = memo[ring] = self._box(ci, cj, ring)
            if box is None:
                continue
            bx, by, at = box
            d2 = (bx - x) ** 2 + (by - y) ** 2
            m = int(d2.argmin())
            best = d2.item(m)
            # A sample one ring farther out can still be closer; accept
            # once the ring radius exceeds the best distance found.  An
            # unscanned sample can lie within (ring - 1) * cell, so this is
            # not exact (test_nearest_sample_is_the_nearest).
            if math.sqrt(best) <= (ring - 0.5) * cell:
                return at, d2, _position(at, m), best
        raise NearestSampleError(f"no sample within the ring-39 box of ({x}, {y})")

    def nearest(self, x: float, y: float, memo: dict | None = None) -> tuple[int, int]:
        """(curve id, local sample id) of the nearest stored sample; ``memo``
        as in :meth:`_scan`."""
        _, _, k, _ = self._scan(x, y, memo)
        return self.owner.item(k), self.local.item(k)

    def nearest_two(self, x: float, y: float) -> list[tuple[int, int, float]]:
        """Up to two (curve id, sample id, distance) entries from distinct curves."""
        at, d2, k, best = self._scan(x, y)
        own = self.owner.item(k)
        out = [(own, self.local.item(k), math.sqrt(best))]
        d2 = np.where(self.owner[at] != own, d2, np.inf)
        m = int(d2.argmin())
        best2 = d2.item(m)
        if best2 < math.inf:
            k2 = _position(at, m)
            out.append((self.owner.item(k2), self.local.item(k2), math.sqrt(best2)))
        return out


def _position(at: slice | np.ndarray, m: int) -> int:
    """Sorted position of the m-th sample of a box (:meth:`_CurveIndex._box`)."""
    return at.start + m if type(at) is slice else at.item(m)


def _project(points: np.ndarray, j: int, x: float, y: float, *series: np.ndarray):
    """Project (x, y) onto the polyline around sample j.

    Returns the distance to the foot followed by each of ``series`` (one
    value per sample) interpolated at the foot.  The window of up to three
    samples is read once as Python floats, and each series is read only at
    the two samples that bound the foot's segment (at sample j when the
    foot is j itself), with ``.item()``.
    """
    x, y = float(x), float(y)
    lo = max(j - 1, 0)
    win = points[lo : j + 2].tolist()
    px, py = win[j - lo]
    best_d2 = (px - x) ** 2 + (py - y) ** 2
    best = None
    for a in range(len(win) - 1):
        (px, py), (qx, qy) = win[a], win[a + 1]
        vx, vy = qx - px, qy - py
        vv = vx * vx + vy * vy
        if vv <= 0.0:
            continue
        t = ((x - px) * vx + (y - py) * vy) / vv
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t  # min(max(t, 0), 1)
        d2 = (px + t * vx - x) ** 2 + (py + t * vy - y) ** 2
        if d2 < best_d2:
            best_d2 = d2
            best = (lo + a, t)
    if best is None:
        return (math.sqrt(best_d2), *[s.item(j) for s in series])
    a, t = best
    out = [math.sqrt(best_d2)]
    for s in series:
        v = s.item(a)
        out.append(v + t * (s.item(a + 1) - v))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class _Polygon:
    """Closed polygon indexed by horizontal slabs for exact even-odd tests.

    ``ys`` holds the distinct vertex y values in ascending order.  Slab k is
    ``[ys[k], ys[k + 1])``.  Edge e runs from vertex e to vertex e + 1
    (the last one closes the polygon), and ``edges[e]`` is ``(x1, y1,
    x2 - x1, y2 - y1, e)``.  ``slabs[k]`` lists the rows of the edges with
    ``min(y1, y2) <= ys[k] < max(y1, y2)``, sharing one tuple per edge.
    Those are exactly the edges for which ``(y1 > y) != (y2 > y)`` holds
    anywhere in the slab, so a ray cast over one slab's edges, with the
    crossing abscissa written as the same float expression, gives the
    answer of a scan over every edge, bit for bit.  Below ``ys[0]`` and in
    the top slab no edge qualifies.  ``pts`` holds the vertices and
    ``bbox`` their bounding box padded by 1e-9.
    """

    pts: np.ndarray
    bbox: tuple
    ys: list
    edges: list
    slabs: list

    @classmethod
    def of(cls, pts: np.ndarray) -> "_Polygon":
        x1, y1 = pts[:, 0], pts[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        lo, hi = pts.min(axis=0) - 1e-9, pts.max(axis=0) + 1e-9
        bbox = (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))
        ys = np.unique(y1)
        # Edge e spans slabs first[e] .. stop[e] - 1 (none when horizontal).
        first = np.searchsorted(ys, np.minimum(y1, y2))
        stop = np.searchsorted(ys, np.maximum(y1, y2))
        count = stop - first
        edge = np.repeat(np.arange(len(pts)), count)
        slab = np.arange(len(edge)) + np.repeat(first - (np.cumsum(count) - count), count)
        order = np.argsort(slab, kind="stable")
        bounds = np.searchsorted(slab[order], np.arange(len(ys) + 1)).tolist()
        rows = list(
            zip(x1.tolist(), y1.tolist(), (x2 - x1).tolist(), (y2 - y1).tolist(), range(len(pts)))
        )
        listed = [rows[e] for e in edge[order].tolist()]
        slabs = [listed[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        return cls(pts, bbox, ys.tolist(), rows, slabs)

    def contains(self, x: float, y: float) -> bool:
        """Even-odd ray cast over the edges of the slab holding ``y``, after
        a bounding-box test.  Numpy scalars are taken as Python floats."""
        bx = self.bbox
        if not (bx[0] <= x <= bx[1] and bx[2] <= y <= bx[3]):
            return False
        x, y = float(x), float(y)
        k = bisect_right(self.ys, y) - 1
        if k < 0:
            return False
        inside = False
        for x1, y1, dx, dy, _ in self.slabs[k]:
            if x1 + (y - y1) * dx / dy > x:
                inside = not inside
        return inside

    def crossing(self, x0: float, y0: float, x1: float, y1: float) -> tuple[float, int] | None:
        """(w, e) of the first edge e that the segment from (x0, y0) to
        (x1, y1) crosses, at fraction w; None if it crosses none.  Only the
        edges of the slabs that the segment's y range spans can.  An edge is
        crossed when the segment's ends differ in :meth:`contains`' test
        against the edge's line and the edge's vertices lie on either side
        of the segment's line, so a segment through a vertex crosses exactly
        one of the vertex's two edges."""
        ys, edges = self.ys, self.edges
        rx, ry = x1 - x0, y1 - y0
        best = None
        for k in range(max(bisect_right(ys, min(y0, y1)) - 1, 0), bisect_right(ys, max(y0, y1))):
            for ax, ay, dx, dy, e in self.slabs[k]:
                f0 = ax + (y0 - ay) * dx / dy - x0
                f1 = ax + (y1 - ay) * dx / dy - x1
                bx, by = edges[(e + 1) % len(edges)][:2]
                if (f0 > 0.0) != (f1 > 0.0) and (
                    (rx * (ay - y0) - ry * (ax - x0) > 0.0) != (rx * (by - y0) - ry * (bx - x0) > 0.0)
                ):
                    w = f0 / (f0 - f1)
                    if best is None or w < best[0]:
                        best = (w, e)
        return best


@dataclass(frozen=True, eq=False)
class _SortedVertices:
    """Vertices sorted by x, as lists for bisection.  Every vertex within
    ``SIDE_DEADBAND`` of (x, y) lies in the slice with x in ``[x - 2
    SIDE_DEADBAND, x + 2 SIDE_DEADBAND]``, so :meth:`hit` answers as a scan
    over every vertex would.  ``bbox`` is the vertices' extent padded by
    ``SIDE_DEADBAND``."""

    xs: list
    ys: list
    bbox: tuple

    @classmethod
    def of(cls, pts: np.ndarray) -> "_SortedVertices":
        order = np.argsort(pts[:, 0], kind="stable")
        lo, hi = pts.min(axis=0) - SIDE_DEADBAND, pts.max(axis=0) + SIDE_DEADBAND
        bbox = (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))
        return cls(pts[order, 0].tolist(), pts[order, 1].tolist(), bbox)

    def hit(self, x: float, y: float) -> bool:
        """True when some vertex lies closer than ``SIDE_DEADBAND`` (the
        equivocal dead band); only points in ``bbox`` can have one."""
        bx = self.bbox
        if not (bx[0] <= x <= bx[1] and bx[2] <= y <= bx[3]):
            return False
        xs, ys = self.xs, self.ys
        lo = bisect_left(xs, x - 2.0 * SIDE_DEADBAND)
        for k in range(lo, bisect_right(xs, x + 2.0 * SIDE_DEADBAND, lo)):
            dx, dy = xs[k] - x, ys[k] - y
            if math.sqrt(dx * dx + dy * dy) < SIDE_DEADBAND:
                return True
        return False


# Iteration cap and residual tolerance of the junction family's inverse.
_NEWTON_CAP = 8
_NEWTON_TOL = 1e-12
# A rear preimage's y0 may round this far past the edge members' anchors.
_ANCHOR_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class _SecondaryFamilies:
    """The pocket's two characteristic families, stored per anchor, for
    reading a state's characteristic backwards: Isaacs' method of
    characteristics inverted.  Both are the ``u = -1`` closed form of
    :func:`_integrate_fan`; with ``Z = (x + 1) + i y`` a member from anchor
    ``z0 = (x_a + 1) + i y_a`` with phase ``c`` passes through (x, y) at
    ``tau`` iff ``exp(-i tau) Z = z0 - i mu tau exp(-i c)``.

    * Rear family, anchors ``(0, y0)`` in ``y0`` (ascending) and ``c = 0``:
      ``exp(-i tau) Z = 1 + i (y0 - mu tau)``, so ``(x + 1) cos tau + y sin
      tau = 1`` and ``y0 = y cos tau - (x + 1) sin tau + mu tau``.  Since
      ``y0 - mu tau`` is negative, it is ``-sqrt(|Z|^2 - 1)``, which leaves
      ``tau = arg Z + atan(sqrt(|Z|^2 - 1))`` modulo 2 pi: closed form.
    * Junction family, anchored at the equivocal samples ``s`` (ascending
      indices into ``e_pts``): the anchor and its value ``e_val`` are
      interpolated linearly at a continuous index s, with ``c(s) = pi -
      _junction_tilt(anchor)``; (s, tau) is a 2-D Newton solve.

    ``*_end`` holds each member's last stored tau.  A preimage is
    admissible when its anchor lies within the stored anchors and ``0 <=
    tau <=`` the smaller end tau of the two stored members around it.
    ``seed`` maps a junction member's anchor to its index in ``e_pts``.
    """

    mu: float
    y_es: float
    value_at_contact: float
    y0: list
    y0_end: list
    e_pts: np.ndarray
    e_val: np.ndarray
    s: list
    s_end: list
    seed: dict

    @classmethod
    def of(
        cls, p: GameParams, fan: CharacteristicField, equivocal: SampledCurve
    ) -> "_SecondaryFamilies":
        junction = [ch for ch in fan.trajectories if ch.terminal == "equivocal"]
        rear = [ch for ch in fan.trajectories if ch.terminal == "negative_universal"]
        s = _junction_anchors(equivocal.points).tolist()
        return cls(
            p.mu, float(equivocal.points[-1, 1]), float(equivocal.tau[-1]),
            [ch.anchor[1] for ch in rear], [ch.tau.item(-1) for ch in rear],
            equivocal.points, equivocal.tau,
            s, [ch.tau.item(-1) for ch in junction],
            {ch.anchor: k for ch, k in zip(junction, s, strict=True)},
        )

    @staticmethod
    def _within(anchors: list, ends: list, a: float, tau: float) -> bool:
        """Whether tau lies in [0, the smaller end tau of the two stored
        members around anchor a], for a within the ascending anchors."""
        k = min(max(bisect_right(anchors, a), 1), len(anchors) - 1)
        return 0.0 <= tau <= min(ends[k - 1], ends[k])

    def rear(self, x: float, y: float) -> tuple[float, float] | None:
        """(y0, tau) of the admissible rear member through (x, y) with the
        smallest tau, or None."""
        y0s, mu = self.y0, self.mu
        X = x + 1.0
        r = math.sqrt(X * X + y * y - 1.0)
        t = math.atan2(y, X) + math.atan(r)
        if t < 0.0:  # the anchor itself can round to just below 0
            t = 0.0 if t > -1e-12 else t + TWO_PI
        # y0 = mu tau - r grows by 2 pi mu per turn: past the top anchor, stop.
        while (y0 := mu * t - r) <= y0s[-1] + _ANCHOR_SLACK:
            if y0 >= y0s[0] - _ANCHOR_SLACK and self._within(y0s, self.y0_end, y0, t):
                return y0, t
            t += TWO_PI
        return None

    def junction(self, x: float, y: float, s: float, t: float) -> tuple[float, float, bool]:
        """Newton solve for the junction member's (s, tau) through (x, y)
        from the seed (s, t), with the analytic Jacobian: ``(s, tau,
        converged)``.  s is held within the anchors; an iterate stepping
        out twice in a row past the same end means the member lies beyond
        them, and the solve ends unconverged, as it does at a singular
        Jacobian and after ``_NEWTON_CAP`` steps."""
        pts, mu = self.e_pts, self.mu
        lo, hi, last = self.s[0], self.s[-1], len(pts) - 2
        X = x + 1.0
        out = False
        for _ in range(_NEWTON_CAP):
            k = min(int(s), last)
            f = s - k
            x0, y0 = pts.item(k, 0), pts.item(k, 1)
            dx, dy = pts.item(k + 1, 0) - x0, pts.item(k + 1, 1) - y0
            ax, ay = x0 + f * dx, y0 + f * dy
            a = _junction_tilt(ax, ay)
            ca, sa = math.cos(a), math.sin(a)
            ct, st = math.cos(t), math.sin(t)
            ex, ey = X * ct + y * st, y * ct - X * st  # exp(-i tau) Z
            # G = z0 - i mu tau exp(-i c) - exp(-i tau) Z, exp(-i c) = -exp(i a)
            gx = ax + 1.0 - mu * t * sa - ex
            gy = ay + mu * t * ca - ey
            if abs(gx) + abs(gy) <= _NEWTON_TOL:
                return s, t, True
            # dG/dtau = i mu exp(i a) + i exp(-i tau) Z; dG/ds = z0' - mu tau
            # a' exp(i a), a' the derivative of _junction_tilt along the segment.
            tx, ty = -mu * sa - ey, mu * ca + ex
            da = (ax * dy - ay * dx) / (ax * ax + ay * ay)
            sx, sy = dx - mu * t * da * ca, dy - mu * t * da * sa
            det = sx * ty - sy * tx
            if det == 0.0:
                break
            s_new = s - (gx * ty - gy * tx) / det
            t -= (sx * gy - sy * gx) / det
            if lo <= s_new <= hi:
                s, out = s_new, False
            elif out:
                break
            else:
                s, out = (lo if s_new < lo else hi), True
        return s, t, False

    def value(self, family: str, a: float, tau: float) -> float:
        """Anchor value plus tau of a preimage ``(family, anchor, tau)``."""
        if family == "rear":
            return self.value_at_contact + (a - self.y_es) / (1.0 - self.mu) + tau
        k = min(int(a), len(self.e_pts) - 2)
        v = self.e_val.item(k)
        return v + (a - k) * (self.e_val.item(k + 1) - v) + tau


# ---------------------------------------------------------------------------
# the assembled geometry
# ---------------------------------------------------------------------------


# Time step of the pocket value's dive along the secondary headings.
_DIVE_STEP = 4e-3


class DiveStepLimitError(NumericalError):
    """The pocket value's dive ran out of steps before it left the pocket."""


class TurnAlignmentError(NumericalError):
    """A state tagged Tributary or Dispersal has no turn to alignment: it lies
    strictly inside the unit turn disc centred at (1, 0)."""


@dataclass(frozen=True)
class SolutionGeometry:
    """Immutable solution geometry for one parameter pair (x >= 0, mirrored on query).

    ``primary_fan`` holds the primary family in closed form and samples it
    on each read of its ``trajectories``; the other curves and fans are
    stored as sampled.  Its pickle, what a sweep worker receives, is the
    same bytes whatever has been read or queried.
    """

    params: GameParams
    phi_bar: float
    barrier: SampledCurve
    equivocal: SampledCurve
    primary_fan: PrimaryFan
    secondary_fan: CharacteristicField
    y_es: float
    value_at_contact: float
    tau_focal: float
    _pocket: _Polygon = field(repr=False)
    _petal: _Polygon = field(repr=False)
    _secondary_index: _CurveIndex = field(repr=False)
    _families: _SecondaryFamilies = field(repr=False)
    _equivocal_band: _SortedVertices = field(repr=False)

    # -- region tests --------------------------------------------------------

    @property
    def _pocket_bbox(self) -> tuple:
        return self._pocket.bbox

    def pocket_contains(self, x: float, y: float) -> bool:
        """True inside the pocket bounded by barrier, equivocal curve, axis and circle."""
        return self._pocket.contains(abs(x), y)

    def wall_crossing(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> tuple[float, float, float, str]:
        """(w, x, y, section) of the first pocket-wall crossing on the segment
        from (x0, y0) to (x1, y1): the fraction ``w``, the point ``(x0 + w
        (x1 - x0), y0 + w (y1 - y0))`` and the crossed edge's section,
        ``"barrier"``, ``"equivocal"`` or ``"arc"``, exact to rounding
        (``_Polygon.crossing``).  A segment that changes the sign of x is
        folded at x = 0 into two straight pieces; the axis segment is the
        mirror line, so no crossing lands on it.  A segment that crosses no
        wall raises ValueError, which names the start's pocket membership."""
        cuts, ends = [0.0, 1.0], [(abs(x0), y0), (abs(x1), y1)]
        if x0 * x1 < 0.0:
            w0 = x0 / (x0 - x1)
            cuts.insert(1, w0)
            ends.insert(1, (0.0, y0 + w0 * (y1 - y0)))
        nb, ne = len(self.barrier.points), len(self.equivocal.points)
        for k in range(len(cuts) - 1):
            hit = self._pocket.crossing(*ends[k], *ends[k + 1])
            if hit is not None:
                w = cuts[k] + hit[0] * (cuts[k + 1] - cuts[k])
                section = "barrier" if hit[1] < nb else "equivocal" if hit[1] < nb + ne else "arc"
                return w, x0 + w * (x1 - x0), y0 + w * (y1 - y0), section
        where = "inside" if self.pocket_contains(x0, y0) else "outside"
        raise ValueError(f"({x0}, {y0}) -> ({x1}, {y1}) starts {where} the pocket, crosses no wall")

    def classify(self, s: RelState) -> Region:
        """Region tag of a relative state (x < 0 queries are mirrored), with
        the universal lines ``SIDE_DEADBAND`` wide and no wall band (see
        :meth:`_tag`); a non-finite state raises ``ValueError``."""
        if not math.hypot(s.x, s.y) < math.inf:
            raise ValueError(f"no region for the non-finite state {s!r}")
        return Region(self._tag(abs(s.x), s.y, SIDE_DEADBAND, 0.0), s.x < 0.0)

    def _tag(self, x: float, y: float, axis_band: float, wall_band: float) -> str:
        """Region tag of (x, y), with x already mirrored into x >= 0; the
        closed loop asks for it on floats, through ``feedback_pair``.

        ``axis_band`` widens the universal-line tests and ``wall_band``
        widens the pocket to include a strip just outside its wall; the
        simulator passes step-scaled bands so feedback chatter cannot flip a
        trajectory off a line or off the pocket wall it is committed to.
        :meth:`classify` uses ``SIDE_DEADBAND`` and no wall band.

        A state within ``SIDE_DEADBAND`` of an equivocal sample is tagged
        equivocal; the samples are kept sorted by x, so bisection finds the
        few that can be that close (see ``_SortedVertices``).  Pocket and petal
        membership then look up the one slab of edges at the state's y (see
        ``_Polygon``).  Both tests are exact: they answer as a scan over
        every sample or edge would.  The wall band, asked for only while the
        simulator holds a trajectory on the wall after a deceptive switch,
        is :meth:`_wall_scan` over every barrier and equivocal vertex.
        """
        p = self.params
        if x * x + y * y <= p.l * p.l:
            return CAPTURED
        if x <= axis_band:
            if y > p.l:
                return UNIVERSAL_POSITIVE
            if y <= self.y_es:
                return DISPERSAL
            return UNIVERSAL_NEGATIVE
        if self._equivocal_band.hit(x, y):
            return EQUIVOCAL
        bx, wb = self._pocket.bbox, wall_band
        if bx[0] - wb <= x <= bx[1] + wb and bx[2] - wb <= y <= bx[3] + wb and (
            self.pocket_contains(x, y)
            # On-wall states belong to the pocket's closure.
            or wb > 0.0 and self._wall_scan(x, y) <= min(wb, 0.06)
        ):
            return SECONDARY
        if self._petal.contains(x, y):
            return PRIMARY
        return TRIBUTARY

    def wall_distance(self, x: float, y: float) -> float:
        """Distance to the nearest barrier or equivocal vertex of the pocket
        polygon, so accurate to the construction step (about 1e-3)."""
        return self._wall_scan(abs(x), y)

    def _wall_scan(self, x: float, y: float) -> float:
        """Distance from (x, y), x >= 0, to the nearest barrier or equivocal
        vertex, by a scan over the pocket polygon's first ``len(barrier) +
        len(equivocal)`` vertices, which are those."""
        wall = self._pocket.pts[: len(self.barrier.points) + len(self.equivocal.points)]
        return math.sqrt(float(((wall[:, 0] - x) ** 2 + (wall[:, 1] - y) ** 2).min()))

    # -- characteristic queries ----------------------------------------------

    def secondary_data(
        self, x: float, y: float, memo: dict | None = None
    ) -> tuple[Characteristic, float]:
        """(characteristic, local tau) for the nearest secondary sample;
        ``memo`` keeps the index's boxes between a sequential caller's
        queries (:meth:`_CurveIndex._scan`)."""
        ci, j = self._secondary_index.nearest(x, y, memo)
        ch = self.secondary_fan.trajectories[ci]
        _, tau = _project(ch.points, j, x, y, ch.tau)
        return ch, tau

    def equivocal_data(self, x: float, y: float) -> tuple[float, float]:
        """(value, pursuer control) interpolated at the nearest equivocal point."""
        pts = self.equivocal.points
        d2 = (pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2
        j = int(np.argmin(d2))
        _, v, u = _project(pts, j, x, y, self.equivocal.tau, self.equivocal.u)
        return v, u

    # -- value ----------------------------------------------------------------

    def value(self, s: RelState) -> float:
        """Equilibrium time to capture from a relative state.  Outside the
        pocket it is :meth:`_play`'s.  A pocket state's value comes from its
        characteristic in closed form: anchor value plus tau of the
        admissible preimage with the smallest tau (:meth:`_preimages`).  A
        state without one (past the junction anchors' cutoff, in the strip
        by the capture arc, or where the junction solve does not converge)
        takes :meth:`_secondary_dive`."""
        if not math.hypot(s.x, s.y) < math.inf:
            raise ValueError(f"no value at the non-finite state {s!r}")
        tag = self.classify(s).tag
        # Python floats: numpy scalars would carry through every step below.
        x, y = abs(float(s.x)), float(s.y)
        if tag != SECONDARY:
            return self._play(tag, x, y)[2]
        pre = self._preimages(x, y)
        if pre:
            return self._families.value(*pre[0])
        return self._secondary_dive(x, y)

    def _play(self, tag: str, x: float, y: float) -> tuple[float, float, float | None]:
        """Equilibrium ``(u, psi, value)`` at (x, y), x >= 0, tagged ``tag``:
        one solve of the region's characteristic gives both the controls and
        the value.  u is +1 in the primary and tributary regions, -1 in the
        pocket, 0 on the universal lines and the interior control on the
        equivocal curve; the dispersal line takes the x > 0 turn.  The
        pocket's heading is its nearest secondary sample's, and its value is
        None: :meth:`value` solves it apart."""
        p = self.params
        # Most closed-loop queries are tributary, so that test comes first.
        if tag == TRIBUTARY or tag == DISPERSAL:
            res = turn_alignment(x, y)
            if res is None:
                raise TurnAlignmentError(f"turn alignment unexpectedly missing at ({x}, {y})")
            t, s0 = res
            return 1.0, wrap_angle(t), _tributary_cost(p, t, s0)
        if tag == CAPTURED:
            return 0.0, 0.0, 0.0
        if tag == UNIVERSAL_POSITIVE:
            return 0.0, 0.0, (y - p.l) / (1.0 - p.mu)
        if tag == UNIVERSAL_NEGATIVE:
            return 0.0, 0.0, self.value_at_contact + (y - self.y_es) / (1.0 - p.mu)
        if tag == PRIMARY:
            phi, tau = primary_inverse(p, x, y)
            return 1.0, wrap_angle(phi + tau), tau
        if tag == EQUIVOCAL:
            v, u = self.equivocal_data(x, y)
            return u, math.atan2(-x, -y), v
        ch, tau = self.secondary_data(x, y)
        return -1.0, wrap_angle(secondary_heading(ch, tau)), None

    def _secondary_chain_value(self, x: float, y: float) -> float:
        """Inverse-distance blend of the two nearest characteristics' chains."""
        pairs = self._secondary_index.nearest_two(x, y)
        num = 0.0
        den = 0.0
        for ci, j, _ in pairs:
            ch = self.secondary_fan.trajectories[ci]
            d, tau = _project(ch.points, j, x, y, ch.tau)
            w = 1.0 / max(d, 1e-12)
            num += w * (ch.anchor_value + tau)
            den += w
        return num / den

    def _junction_solve(self, x: float, y: float) -> tuple[float, float, bool]:
        """:meth:`_SecondaryFamilies.junction` at (x, y), x >= 0, seeded
        with the nearest secondary sample's anchor and projected tau
        (:meth:`secondary_data`); a rear member seeds it at the last
        junction anchor, the one next to the rear family."""
        ch, tau = self.secondary_data(x, y)
        fam = self._families
        return fam.junction(x, y, fam.seed.get(ch.anchor, fam.s[-1]), tau)

    def _preimages(self, x: float, y: float) -> list[tuple[str, float, float]]:
        """Admissible ``(family, anchor, tau)`` of the secondary
        characteristics through the pocket state (x, y), x >= 0, by
        ascending tau: ``("rear", y0, tau)`` and ``("junction", s, tau)``
        (see :class:`_SecondaryFamilies`)."""
        fam = self._families
        out = []
        rear = fam.rear(x, y)
        if rear is not None:
            out.append(("rear", *rear))
        s, tau, converged = self._junction_solve(x, y)
        if converged and fam._within(fam.s, fam.s_end, s, tau):
            out.append(("junction", s, tau))
        out.sort(key=lambda e: e[2])
        return out

    def _secondary_dive(self, x: float, y: float) -> float:
        """Pocket value by the dive: ride the hard-left field to the wall,
        then price the departure in closed form.

        Between sampled characteristics the chain interpolation carries a
        first-order cross-characteristic gap (worst where the dive field
        spreads, near the curve's descent), so the value integrates the dive
        itself: evader headings from the nearest characteristic, u = -1,
        until the trajectory leaves the pocket or merges on the rear line.
        Each step of ``_DIVE_STEP`` holds the heading and takes the exact
        held-control flow (``held_step``).  The steps share one memo of the
        sample index's boxes.  A dive still inside the pocket after 10 time
        units raises :class:`DiveStepLimitError`.
        """
        p = self.params
        mu = p.mu
        t = 0.0
        x0, y0, memo = x, y, {}
        for _ in range(int(10.0 / _DIVE_STEP)):
            if x <= 1e-9:
                break
            psi = secondary_heading(*self.secondary_data(x, y, memo))
            xn, yn = held_step(x, y, -1.0, psi, mu, _DIVE_STEP)
            if not self.pocket_contains(xn, yn):
                # Locate the wall crossing and price the tributary departure.
                w, cx, cy, _ = self.wall_crossing(x, y, xn, yn)
                dep = _tributary_value_raw(p, max(cx, 0.0), cy)
                if dep is None:
                    return self._secondary_chain_value(x, y)
                return t + w * _DIVE_STEP + dep
            x, y = xn, yn
            t += _DIVE_STEP
        if x > 1e-9:
            raise DiveStepLimitError(
                f"the dive from ({x0}, {y0}) is still in the pocket at ({x}, {y}) after {t} time units"
            )
        # Reached the rear line: continue along the rear chain; x <= 0 with
        # y above the contact merges the negative universal line, below it
        # the mirror turn takes over.  (0, y) lies outside the unit turn
        # disc, so the turn always exists.
        if y > self.y_es:
            return t + self.value_at_contact + (y - self.y_es) / (1.0 - mu)
        return t + _tributary_value_raw(p, 0.0, y)

    # -- export ----------------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Write every sampled curve in the documented geometry CSV layout."""
        curves = [("barrier", 0, self.barrier), ("equivocal", 0, self.equivocal)]
        for fan in (self.primary_fan, self.secondary_fan):
            curves += [(fan.family, bid, ch) for bid, ch in enumerate(fan.trajectories)]
        with open(path, "w", newline="") as fh:
            fh.write(GEOMETRY_CSV_HEADER + "\r\n")
            fh.writelines(
                f"{family},{bid},{tau:.9g},{x:.9g},{y:.9g}\r\n"
                for family, bid, curve in curves
                for tau, (x, y) in zip(curve.tau.tolist(), curve.points.tolist())
            )


def _build_polygons(
    p: GameParams, barrier: SampledCurve, equivocal: SampledCurve, inner_member: np.ndarray
) -> tuple[_Polygon, _Polygon]:
    """(pocket, petal) polygons: every barrier and equivocal sample, the axis
    segment and the capture arc, in the order ``wall_crossing`` reads
    sections from, and a thinned petal closed by the primary fan's innermost
    member, ``inner_member``."""
    phi_bar = bup_angle(p)
    y_es = float(equivocal.points[-1, 1])

    def thin(a: np.ndarray, n: int) -> np.ndarray:
        if len(a) <= n:
            return a
        idx = np.unique(np.linspace(0, len(a) - 1, n).round().astype(int))
        return a[idx]

    arc_angles = np.linspace(math.pi, phi_bar, 120)
    arc = np.stack([p.l * np.sin(arc_angles), p.l * np.cos(arc_angles)], axis=1)
    pocket = np.concatenate(
        [barrier.points, equivocal.points, np.array([[0.0, y_es], [0.0, -p.l]]), arc], axis=0
    )
    # Petal: pre-focal barrier sub-arc, innermost fan member reversed,
    # usable-part arc.  The primary family closes onto the barrier at the
    # focal time, so only that sub-arc bounds the petal.
    k_focal = int(np.searchsorted(barrier.tau, p.l / p.mu))
    bar_focal = thin(barrier.points[: max(k_focal, 2)], 300)
    inner = thin(inner_member, 300)
    up_angles = np.linspace(phi_bar, 0.0, 60)
    up_arc = np.stack([p.l * np.sin(up_angles), p.l * np.cos(up_angles)], axis=1)
    petal = np.concatenate([bar_focal, inner[::-1], up_arc[1:]], axis=0)
    return _Polygon.of(pocket), _Polygon.of(petal)


def solve(p: GameParams, n_phi: int = 200, d_tau: float = 1e-3) -> SolutionGeometry:
    """Construct the full solution geometry for ``p``.

    The primary fan stays in closed form, set up first (checking ``n_phi``
    before any march); only its innermost member is evaluated, alone, for
    the petal, with the bits of ``primary_fan.trajectories[0].points``.
    """
    fan = compute_primary_fan(p, n_phi=n_phi, d_tau=d_tau)
    barrier = compute_barrier(p, d_tau=d_tau)
    secondary, equivocal = compute_secondary_fan_and_equivocal(p, barrier=barrier, d_tau=d_tau)
    pocket, petal = _build_polygons(p, barrier, equivocal, fan.innermost())
    return SolutionGeometry(
        params=p,
        phi_bar=bup_angle(p),
        barrier=barrier,
        equivocal=equivocal,
        primary_fan=fan,
        secondary_fan=secondary,
        y_es=float(equivocal.points[-1, 1]),
        value_at_contact=float(equivocal.tau[-1]),
        # On the barrier |(x - 1) + i y|^2 - 1 = (l - mu tau)(l - mu tau - 2 sin(phi_bar)),
        # whose other root is negative: the barrier leaves the turn disc at l/mu.
        tau_focal=p.l / p.mu,
        _pocket=pocket,
        _petal=petal,
        _secondary_index=_CurveIndex([ch.points for ch in secondary.trajectories]),
        _families=_SecondaryFamilies.of(p, secondary, equivocal),
        _equivocal_band=_SortedVertices.of(equivocal.points),
    )


_GEOMETRY_CACHE: dict[tuple, SolutionGeometry] = {}


def get_geometry(p: GameParams) -> SolutionGeometry:
    """Memoized :func:`solve` with its default resolution; geometries are
    immutable and safe to share."""
    key = (p.mu, p.l)
    geom = _GEOMETRY_CACHE.get(key)
    if geom is None:
        geom = solve(p)
        _GEOMETRY_CACHE[key] = geom
    return geom
