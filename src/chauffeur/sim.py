"""Deterministic closed-loop simulation of the relative game.

Fixed steps with controls held constant across each step, each integrated
exactly: under held controls the relative field is linear, so its flow has a
closed form (``core.held_step``).  Control discontinuities (region changes,
estimator jumps, the deceptive switch) land on sample or event boundaries:
a step containing a pocket-wall crossing is split at the crossing.  Events
are located by interpolation within the offending step: capture (the radius
crossing ``l``), barrier contacts (the deceptive switch trigger), and y-axis
crossings.  The loop scans a step only when an event can lie in it: x
changes sign, the step ends on or inside the capture circle, or pocket
membership flips.  Other steps hold no event, so skipping their scan changes
no sample or event.

Near the universal lines the feedback is evaluated with an axis band a few
steps wide; inside it the line strategies (u = 0, psi = 0) hold the
cross-track coordinate exactly, which suppresses feedback chatter without
touching the geometric classifier.  On the positive universal line the loop
asks for feedback once, on entry, and then holds those constant controls:
each later step re-checks only the true game's tag with that step's band.
Every game shares ``l`` and so tags the line alike, and a line step leaves x
and the mirror side as they are, so the held controls are the feedback bit
for bit.  A split step ends the hold.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field

from .core import Controls, GameParams, RelState, held_step
from .solution import CAPTURED, SIDE_DEADBAND, UNIVERSAL_POSITIVE, SolutionGeometry, get_geometry
from .strategy import EvaderPolicy, _check_speed, deceptive_policy, feedback_pair

TRAJECTORY_CSV_HEADER = "t,x,y,u,psi,mu_cmd,mu_hat,region,event"

CAPTURE = "capture"
BARRIER_CROSS = "barrier_cross"
SWITCH = "switch"
AXIS_CROSS = "axis_cross"

# The pursuer's speed observations release after one default integrator step
# rather than one actual step, so closed-loop outcomes converge under step
# refinement instead of baking the reaction latency into dt.  At the default
# dt the two readings coincide.
ESTIMATOR_LATENCY = 1e-3


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run configuration."""

    params_truth: GameParams
    params_low: GameParams
    initial_rel: RelState
    evader_policy: EvaderPolicy
    pursuer_mode: str = "informed"  # "informed" | "estimating"
    dt: float = 1e-3
    t_max: float = 60.0

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt={self.dt!r} must be finite and positive")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max={self.t_max!r} must be finite and positive")
        if not math.hypot(self.initial_rel.x, self.initial_rel.y) < math.inf:
            raise ValueError(f"initial_rel={self.initial_rel!r} must be finite")
        if self.pursuer_mode not in ("informed", "estimating"):
            raise ValueError(f"unknown pursuer mode {self.pursuer_mode!r}")
        if self.initial_rel.captured(self.params_truth.l):
            raise ValueError("initial point lies inside the capture circle")
        if self.params_truth.l != self.params_low.l:
            raise ValueError("both parameter sets must share the capture radius")
        if self.params_low.mu > self.params_truth.mu:
            raise ValueError(
                f"the low game's speed {self.params_low.mu} exceeds the true speed "
                f"{self.params_truth.mu}"
            )
        pol = self.evader_policy
        if pol.kind == "deceptive" and pol.mu_high > self.params_truth.mu + 1e-12:
            raise ValueError(
                f"policy mu_high={pol.mu_high} exceeds the true speed bound "
                f"{self.params_truth.mu}"
            )


@dataclass
class Event:
    t: float
    kind: str
    location: tuple[float, float]


@dataclass
class Trajectory:
    """Sampled closed-loop run: parallel arrays plus an event log."""

    t: list[float]
    x: list[float]
    y: list[float]
    u: list[float]
    psi: list[float]
    mu_cmd: list[float]
    mu_hat: list[float]
    region: list[str]
    events: list[Event] = field(default_factory=list)
    capture_time: float | None = None
    capture_point: tuple[float, float] | None = None

    def to_csv(self, path: str) -> None:
        ev_at = {}
        for e in self.events:
            ev_at.setdefault(_nearest_index(self.t, e.t), []).append(e.kind)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(TRAJECTORY_CSV_HEADER.split(","))
            for k in range(len(self.t)):
                w.writerow(
                    [
                        f"{self.t[k]:.9g}",
                        f"{self.x[k]:.9g}",
                        f"{self.y[k]:.9g}",
                        f"{self.u[k]:.9g}",
                        f"{self.psi[k]:.9g}",
                        f"{self.mu_cmd[k]:.9g}",
                        f"{self.mu_hat[k]:.9g}",
                        self.region[k],
                        "+".join(ev_at.get(k, [])),
                    ]
                )


def _nearest_index(ts: list[float], t: float) -> int:
    k = bisect.bisect_left(ts, t)
    if k <= 0:
        return 0
    if k >= len(ts):
        return len(ts) - 1
    return k if ts[k] - t < t - ts[k - 1] else k - 1


def step(s: RelState, c: Controls, dt: float) -> RelState:
    """The exact update of the relative kinematics over ``dt`` with the
    controls held (see ``core.held_step``)."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt={dt!r} must be finite and positive")
    if not math.hypot(s.x, s.y) < math.inf:
        raise ValueError(f"cannot step the non-finite state {s!r}")
    x, y = _step_raw(s.x, s.y, c.u, c.psi, c.mu_cmd, dt)
    return RelState(x, y)


# The closed loop's unchecked step; ``step`` is the checked public entry.
_step_raw = held_step


def _pocket_flip(
    prev: tuple[float, float, float],
    nxt: tuple[float, float, float],
    geometry: SolutionGeometry,
    in_prev: bool,
    in_next: bool,
) -> tuple[float, tuple[float, float], str] | None:
    """Wall-crossing (time, location, wall section) within a step."""
    if in_prev == in_next:
        return None
    t0, x0, y0 = prev
    t1, x1, y1 = nxt
    w, xw, yw, section = geometry.wall_crossing(x0, y0, x1, y1)
    return t0 + w * (t1 - t0), (xw, yw), section


def detect_events(
    prev: tuple[float, float, float],
    nxt: tuple[float, float, float],
    geometry: SolutionGeometry,
    in_prev: bool | None = None,
    in_next: bool | None = None,
) -> list[Event]:
    """Sign-change events between consecutive samples ``(t, x, y)``.

    Capture interpolates the radius crossing of ``l``; barrier crossings
    intersect the linearly interpolated segment with the pocket wall and
    are reported only on the barrier section of the wall (crossing the
    equivocal section or the capture arc is an ordinary region change, not
    a barrier contact); axis crossings interpolate the zero of x.  Capture, when
    present, sorts last.  ``in_prev``/``in_next`` let a caller reuse pocket
    membership tests it already performed.
    """
    t0, x0, y0 = prev
    t1, x1, y1 = nxt
    events: list[Event] = []
    l = geometry.params.l

    g0 = x0 * x0 + y0 * y0 - l * l
    g1 = x1 * x1 + y1 * y1 - l * l
    captured = g0 > 0.0 >= g1

    if (x0 > 0.0) != (x1 > 0.0) and x0 != x1:
        w = x0 / (x0 - x1)
        events.append(Event(t0 + w * (t1 - t0), AXIS_CROSS, (0.0, y0 + w * (y1 - y0))))

    in0 = geometry.pocket_contains(x0, y0) if in_prev is None else in_prev
    in1 = geometry.pocket_contains(x1, y1) if in_next is None else in_next
    flip = _pocket_flip(prev, nxt, geometry, in0, in1)
    if flip is not None and flip[2] == "barrier":
        events.append(Event(flip[0], BARRIER_CROSS, flip[1]))

    events.sort(key=lambda e: e.t)
    if captured:
        # Linear interpolation of the radius itself (not its square), which
        # is exact for straight-line closing motion.
        r0 = math.sqrt(g0 + l * l)
        r1 = math.sqrt(max(g1 + l * l, 0.0))
        w = (r0 - l) / (r0 - r1)
        events.append(
            Event(t0 + w * (t1 - t0), CAPTURE, (x0 + w * (x1 - x0), y0 + w * (y1 - y0)))
        )
    return events


def run_closed_loop(
    sc: Scenario,
    geom_truth: SolutionGeometry | None = None,
    geom_low: SolutionGeometry | None = None,
) -> Trajectory:
    """Integrate a scenario to capture or ``t_max``.

    Loop order per step: estimator update (the estimating pursuer observes
    realized evader speeds one latency interval after the fact), pursuer
    feedback on the geometry matching its current knowledge, evader policy,
    the exact held-control step, event detection.  Steps containing a
    pocket-wall crossing are split at the crossing so control handoffs (and
    the deceptive switch) take effect at the event.  Deterministic for a
    fixed scenario.

    A passed geometry must be built for its game: ``geom_truth`` for
    ``sc.params_truth`` and ``geom_low`` for ``sc.params_low``; a mismatch
    raises ``ValueError``.
    """
    if geom_truth is None:
        geom_truth = get_geometry(sc.params_truth)
    if geom_low is None:
        geom_low = (
            geom_truth
            if sc.params_low == sc.params_truth
            else get_geometry(sc.params_low)
        )
    if geom_truth.params != sc.params_truth or geom_low.params != sc.params_low:
        raise ValueError(
            f"geometries built for {geom_truth.params} (truth) and "
            f"{geom_low.params} (low) do not match the scenario's "
            f"{sc.params_truth} and {sc.params_low}"
        )
    policy = sc.evader_policy
    dt = sc.dt
    t_max = sc.t_max
    mu_truth = sc.params_truth.mu
    mu_low = sc.params_low.mu
    l = geom_truth.params.l
    ll = l * l
    estimating = sc.pursuer_mode == "estimating"
    # Equal speeds degenerate deception to truthful play: the switch is a
    # no-op and must not perturb the trajectory.
    deceptive = policy.kind == "deceptive" and policy.mu_low != policy.mu_high

    # Python floats: numpy scalars would carry through every step and sample.
    x, y = float(sc.initial_rel.x), float(sc.initial_rel.y)
    t = 0.0
    traj = Trajectory(t=[], x=[], y=[], u=[], psi=[], mu_cmd=[], mu_hat=[], region=[])

    switched = False  # the one-shot latch is per-run: a reused scenario reruns alike

    def evader_game():
        """(geometry, commanded speed) of the evader; changes only at the switch."""
        if deceptive:
            return deceptive_policy(policy, switched, geom_truth, geom_low)
        return geom_truth, mu_truth

    geom_e, mu_e = evader_game()
    geom_p = geom_truth
    # The pursuer's estimate is the running supremum of the observed speeds,
    # each checked by ``_check_speed``.  First observation: the speed the
    # evader is about to command.  Later observations queue until one latency
    # interval has elapsed.
    mu_hat = policy.mu_low if deceptive else mu_truth
    _check_speed(mu_hat)
    pending: list[tuple[float, float]] = []
    released = 0
    wall_hold = False
    last_barrier_t = -math.inf
    # The last control point was tagged UniversalPositive: its (u, psi) hold
    # while the true game's tag stays the same.
    on_line = False

    n_max = int(math.ceil(t_max / dt))
    in_pocket = geom_truth.pocket_contains(x, y)
    band_step = 3.0 * dt

    def axis_band(y_):
        """Width of the feedback band about the universal lines at height y_."""
        band = band_step * (y_ if y_ > 1.0 else -y_ if y_ < -1.0 else 1.0)
        return band if band >= SIDE_DEADBAND else SIDE_DEADBAND

    def hold_band(x_, y_):
        """Width of the wall-hold strip after a deceptive switch."""
        return max(2.0 * dt * (1.0 + math.hypot(x_, y_)), 3e-3)

    def controls_at(x_, y_, band, geom_p):
        """(u, psi, mu_cmd, region tag) under the current knowledge state."""
        # Between a deceptive switch on the pocket wall and the dive settling
        # inside, hold the trajectory on the pocket side across the feedback
        # and estimator lags.  The floor keeps the strip above the wall
        # sampling resolution; the hold releases once the trajectory is
        # solidly interior so the eventual exit through the equal-cost wall
        # is as crisp as truthful play's.
        wband = hold_band(x_, y_) if wall_hold else 0.0
        # One feedback per distinct game: the evader reuses the pursuer's
        # when both play the same one.  The logged tag is the true game's
        # region, not the pursuer's belief.
        state = RelState(x_, y_)
        u_, psi_, tag_ = feedback_pair(geom_p, state, axis_band=band, wall_band=wband)
        if geom_e is not geom_p:
            _, psi_, tag_e = feedback_pair(geom_e, state, axis_band=band, wall_band=wband)
            if geom_e is geom_truth:
                tag_ = tag_e
        if geom_p is not geom_truth and geom_e is not geom_truth:
            tag_ = geom_truth._tag(abs(x_), y_, band, wband)
        return u_, psi_, mu_e, tag_

    def events_in(t0, x0, y0, t1, x1, y1):
        """``detect_events`` over a step that crosses no pocket wall, scanned
        only if it changes the sign of x or ends on or inside the capture
        circle: otherwise it holds no event."""
        if (x0 > 0.0) == (x1 > 0.0) and x1 * x1 + y1 * y1 - ll > 0.0:
            return []
        return detect_events(
            (t0, x0, y0), (t1, x1, y1), geom_truth, in_prev=False, in_next=False
        )

    add_t, add_x, add_y = traj.t.append, traj.x.append, traj.y.append
    add_u, add_psi, add_mu_cmd = traj.u.append, traj.psi.append, traj.mu_cmd.append
    add_mu_hat, add_region = traj.mu_hat.append, traj.region.append

    for _ in range(n_max + 1):
        while released < len(pending) and pending[released][0] + ESTIMATOR_LATENCY <= t + 1e-12:
            observed = pending[released][1]
            _check_speed(observed)
            if observed > mu_hat:
                mu_hat = observed
            released += 1
        if estimating:
            # Two-speed world: the estimate only ever equals one of the two
            # candidate bounds, so two cached geometries suffice.
            geom_p = (
                geom_low if not abs(mu_hat - mu_truth) <= abs(mu_hat - mu_low) else geom_truth
            )
        band = axis_band(y)
        if on_line and geom_truth._tag(abs(x), y, band, 0.0) == UNIVERSAL_POSITIVE:
            # Every game shares l, so every game tags the state alike, and
            # the line law is constant: the held (u, psi) are this point's
            # feedback.  A line step leaves the value of x, and so the mirror
            # side, as it is.
            mu_cmd = mu_e
        else:
            u, psi, mu_cmd, tag = controls_at(x, y, band, geom_p)
            on_line = tag == UNIVERSAL_POSITIVE

        add_t(t)
        add_x(x)
        add_y(y)
        add_u(u)
        add_psi(psi)
        add_mu_cmd(mu_cmd)
        add_mu_hat(mu_hat)
        add_region(tag)

        if t >= t_max:
            break

        xn, yn = _step_raw(x, y, u, psi, mu_cmd, dt)
        tn = t + dt
        observed_speed = mu_cmd

        in_next = geom_truth.pocket_contains(xn, yn)
        if in_next == in_pocket:
            evs = events_in(t, x, y, tn, xn, yn)
        else:
            # Split the step at the wall so the control handoff (and a
            # deceptive switch) happens at the crossing, not a sample late;
            # capture times otherwise carry a first-order step error.  The
            # substep event scans pass equal memberships to suppress the wall
            # re-detection already handled here.
            tw, loc, section = _pocket_flip(
                (t, x, y), (tn, xn, yn), geom_truth, in_pocket, in_next
            )
            w = (tw - t) / dt
            xm, ym = _step_raw(x, y, u, psi, mu_cmd, w * dt)
            evs = events_in(t, x, y, tw, xm, ym)
            if section == "barrier" and tw - last_barrier_t > 0.1:
                last_barrier_t = tw
                evs.append(Event(tw, BARRIER_CROSS, loc))
                if deceptive and not switched:
                    switched = True
                    geom_e, mu_e = evader_game()
                    evs.append(Event(tw, SWITCH, loc))
                    wall_hold = True
            u2, psi2, mu_cmd2, _ = controls_at(xm, ym, axis_band(ym), geom_p)
            on_line = False
            xn, yn = _step_raw(xm, ym, u2, psi2, mu_cmd2, (1.0 - w) * dt)
            observed_speed = w * mu_cmd + (1.0 - w) * mu_cmd2
            in_next = geom_truth.pocket_contains(xn, yn)
            evs.extend(events_in(tw, xm, ym, tn, xn, yn))
        in_pocket = in_next

        captured = False
        if evs:
            evs.sort(key=lambda e: (e.t, e.kind == CAPTURE))
        for e in evs:
            if e.kind == CAPTURE:
                traj.events.append(e)
                traj.capture_time = e.t
                traj.capture_point = e.location
                add_t(e.t)
                add_x(e.location[0])
                add_y(e.location[1])
                add_u(u)
                add_psi(psi)
                add_mu_cmd(mu_cmd)
                add_mu_hat(mu_hat)
                add_region(CAPTURED)
                captured = True
                break
            traj.events.append(e)
        if captured:
            break

        if wall_hold and in_pocket and geom_truth.wall_distance(xn, yn) > 2.0 * hold_band(xn, yn):
            wall_hold = False

        # Queue the realized evader speed of this step (the step average when
        # a wall crossing split it) for latency-delayed observation.
        pending.append((t, observed_speed))
        x, y, t = xn, yn, tn

    return traj
