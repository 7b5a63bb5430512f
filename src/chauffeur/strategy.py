"""Feedback equilibrium strategies, the pursuer's speed check, and the
evader's deceptive speed policy.

Strategies are stateless given an immutable :class:`SolutionGeometry`.
:func:`feedback_pair` tags a state and plays its region's characteristic
through the geometry's one region solve, the one :meth:`SolutionGeometry.value`
reads, so the controls are the value's own characteristic by construction.
The pursuer's knowledge is the running supremum of observed evader speeds, a
float of the simulator's loop that takes each observation through
:func:`_check_speed` and ``max``.  The evader's :class:`EvaderPolicy` is
frozen: the one-shot switch latch is a local of the simulator's run, passed
to :func:`deceptive_policy` when the run starts and at the switch.

Measurement model: the pursuer estimates the evader's speed bound as the
largest speed observed so far (position differencing over one integrator
step, which for a straight-within-step evader recovers the commanded speed
exactly).  The estimate therefore starts at the first observation and is
non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import RelState, wrap_angle
from .solution import SIDE_DEADBAND, SolutionGeometry


def _check_speed(observed_speed: float) -> None:
    if not (0.0 <= observed_speed < 1.0):
        raise ValueError(f"observed speed {observed_speed!r} outside [0, 1)")


def feedback_pair(
    geom: SolutionGeometry,
    s: RelState,
    axis_band: float = SIDE_DEADBAND,
    wall_band: float = 0.0,
) -> tuple[float, float, str]:
    """Equilibrium (u, psi, region tag) in one classification pass.

    The controls are the value's own characteristic
    (:meth:`SolutionGeometry._play`); x < 0 queries are answered by
    mirroring, which negates u and psi.
    """
    x, y = abs(s.x), s.y
    tag = geom._tag(x, y, axis_band, wall_band)
    u, psi, _ = geom._play(tag, x, y)
    if s.x < 0.0:
        return -u, wrap_angle(-psi), tag
    return u, psi, tag


@dataclass(frozen=True)
class EvaderPolicy:
    """Truthful play, or slow-then-fast deception with a single upward switch.

    The deceptive evader plays the slow game at ``mu_low`` until it first
    crosses the fast game's barrier, then the fast game at ``mu_high``.  The
    switch is one-shot and upward; the simulator detects the crossing and
    keeps the latch in its own per-run state.
    """

    kind: str = "truthful"  # "truthful" | "deceptive"
    mu_low: float | None = None
    mu_high: float | None = None

    def __post_init__(self):
        if self.kind not in ("truthful", "deceptive"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "deceptive":
            if self.mu_low is None or self.mu_high is None:
                raise ValueError("deceptive policy needs mu_low and mu_high")
            if self.mu_low > self.mu_high:
                raise ValueError("deceptive policy requires mu_low <= mu_high")


def deceptive_policy(
    policy: EvaderPolicy,
    switched: bool,
    geom_high: SolutionGeometry,
    geom_low: SolutionGeometry,
) -> tuple[SolutionGeometry, float]:
    """(geometry the evader plays, commanded speed).

    Before the switch the evader mimics the slow game's equilibrium at the
    low speed; afterwards it plays the fast game's equilibrium at full
    speed.  A truthful evader always plays the fast game at its bound.
    """
    if policy.kind == "truthful":
        return geom_high, geom_high.params.mu
    if switched:
        return geom_high, policy.mu_high
    return geom_low, policy.mu_low
