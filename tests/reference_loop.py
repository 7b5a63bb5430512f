"""A frozen copy of the closed-loop step loop, kept as the reference that
``tests/test_reference_loop.py`` compares ``sim.run_closed_loop`` against.

The copy rebuilds a ``SpeedEstimate`` at every step, classifies through
``SolutionGeometry.classify`` and calls ``_pocket_flip`` and
``detect_events`` on every step.  The current loop must reproduce its
trajectories and events bit for bit.  Do not edit this file to follow
changes of the package's loop: it is the old loop, not the old output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from chauffeur.core import RelState
from chauffeur.sim import (
    BARRIER_CROSS,
    CAPTURE,
    ESTIMATOR_LATENCY,
    SWITCH,
    Event,
    Scenario,
    Trajectory,
    _pocket_flip,
    _step_raw,
    detect_events,
)
from chauffeur.solution import SIDE_DEADBAND, SolutionGeometry, get_geometry
from chauffeur.strategy import _check_speed, deceptive_policy, feedback_pair


@dataclass(frozen=True)
class SpeedEstimate:
    """Running supremum of observed evader speeds: the estimator the package
    exported when this loop was frozen, kept here with it."""

    mu_hat: float

    @staticmethod
    def from_observation(observed_speed: float) -> "SpeedEstimate":
        _check_speed(observed_speed)
        return SpeedEstimate(mu_hat=observed_speed)


def estimator_update(e: SpeedEstimate, observed_speed: float) -> SpeedEstimate:
    """Sup-update; idempotent for repeated observations."""
    _check_speed(observed_speed)
    return SpeedEstimate(mu_hat=max(e.mu_hat, observed_speed))


def run_closed_loop_reference(
    sc: Scenario,
    geom_truth: SolutionGeometry | None = None,
    geom_low: SolutionGeometry | None = None,
) -> Trajectory:
    """The step loop of ``sim.run_closed_loop`` before it held its estimate
    as a float and scanned for events only where one can happen.

    Loop order per step: estimator update (the estimating pursuer observes
    realized evader speeds one latency interval after the fact), pursuer
    feedback on the geometry matching its current knowledge, evader policy,
    held step, event detection.  Steps containing a pocket-wall crossing are
    split at the crossing so control handoffs (and the deceptive switch)
    take effect at the event.  Deterministic for a fixed scenario.
    """
    if geom_truth is None:
        geom_truth = get_geometry(sc.params_truth)
    if geom_low is None:
        geom_low = (
            geom_truth
            if sc.params_low == sc.params_truth
            else get_geometry(sc.params_low)
        )
    policy = sc.evader_policy
    dt = sc.dt
    mu_truth = sc.params_truth.mu
    # Equal speeds degenerate deception to truthful play: the switch is a
    # no-op and must not perturb the trajectory.
    deceptive = policy.kind == "deceptive" and policy.mu_low != policy.mu_high

    x, y = sc.initial_rel.x, sc.initial_rel.y
    t = 0.0
    traj = Trajectory(t=[], x=[], y=[], u=[], psi=[], mu_cmd=[], mu_hat=[], region=[])

    switched = False  # the one-shot latch is per-run: a reused scenario reruns alike
    # First observation: the speed the evader is about to command.  Later
    # observations queue until one latency interval has elapsed.
    estimate = SpeedEstimate.from_observation(policy.mu_low if deceptive else mu_truth)
    pending: list[tuple[float, float]] = []
    released = 0
    wall_hold = False
    last_barrier_t = -math.inf

    n_max = int(math.ceil(sc.t_max / dt))
    in_pocket = geom_truth.pocket_contains(x, y)

    def hold_band(x_, y_):
        """Width of the wall-hold strip after a deceptive switch."""
        return max(2.0 * dt * (1.0 + math.hypot(x_, y_)), 3e-3)

    def controls_at(x_, y_):
        """(u, psi, mu_cmd, region tag) under the current knowledge state."""
        band = max(SIDE_DEADBAND, 3.0 * dt * max(1.0, abs(y_)))
        # Between a deceptive switch on the pocket wall and the dive settling
        # inside, hold the trajectory on the pocket side across the feedback
        # and estimator lags.  The floor keeps the strip above the wall
        # sampling resolution; the hold releases once the trajectory is
        # solidly interior so the eventual exit through the equal-cost wall
        # is as crisp as truthful play's.
        wband = hold_band(x_, y_) if wall_hold else 0.0
        if sc.pursuer_mode == "informed":
            geom_p = geom_truth
        else:
            # Two-speed world: the estimate only ever equals one of the two
            # candidate bounds, so two cached geometries suffice.
            near_truth = abs(estimate.mu_hat - mu_truth) <= abs(
                estimate.mu_hat - sc.params_low.mu
            )
            geom_p = geom_truth if near_truth else geom_low
        if deceptive:
            geom_e, mu_cmd_ = deceptive_policy(policy, switched, geom_truth, geom_low)
        else:
            geom_e, mu_cmd_ = geom_truth, mu_truth
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
            tag_ = geom_truth._tag(abs(state.x), state.y, band, wband)
        return u_, psi_, mu_cmd_, tag_

    for _ in range(n_max + 1):
        while released < len(pending) and pending[released][0] + ESTIMATOR_LATENCY <= t + 1e-12:
            estimate = estimator_update(estimate, pending[released][1])
            released += 1
        u, psi, mu_cmd, tag = controls_at(x, y)

        traj.t.append(t)
        traj.x.append(x)
        traj.y.append(y)
        traj.u.append(u)
        traj.psi.append(psi)
        traj.mu_cmd.append(mu_cmd)
        traj.mu_hat.append(estimate.mu_hat)
        traj.region.append(tag)

        if t >= sc.t_max:
            break

        xn, yn = _step_raw(x, y, u, psi, mu_cmd, dt)
        tn = t + dt
        observed_speed = mu_cmd

        in_next = geom_truth.pocket_contains(xn, yn)
        flip = _pocket_flip((t, x, y), (tn, xn, yn), geom_truth, in_pocket, in_next)
        if flip is None:
            evs = detect_events(
                (t, x, y), (tn, xn, yn), geom_truth, in_prev=in_pocket, in_next=in_next
            )
        else:
            # Split the step at the wall so the control handoff (and a
            # deceptive switch) happens at the crossing, not a sample late;
            # capture times otherwise carry a first-order step error.  The
            # substep event scans pass equal memberships to suppress the wall
            # re-detection already handled here.
            tw, loc, section = flip
            w = (tw - t) / dt
            xm, ym = _step_raw(x, y, u, psi, mu_cmd, w * dt)
            evs = detect_events(
                (t, x, y), (tw, xm, ym), geom_truth, in_prev=False, in_next=False
            )
            if section == "barrier" and tw - last_barrier_t > 0.1:
                last_barrier_t = tw
                evs.append(Event(tw, BARRIER_CROSS, loc))
                if deceptive and not switched:
                    switched = True
                    evs.append(Event(tw, SWITCH, loc))
                    wall_hold = True
            u2, psi2, mu_cmd2, _ = controls_at(xm, ym)
            xn, yn = _step_raw(xm, ym, u2, psi2, mu_cmd2, (1.0 - w) * dt)
            observed_speed = w * mu_cmd + (1.0 - w) * mu_cmd2
            in_next = geom_truth.pocket_contains(xn, yn)
            evs.extend(
                detect_events(
                    (tw, xm, ym), (tn, xn, yn), geom_truth, in_prev=False, in_next=False
                )
            )
        in_pocket = in_next

        captured = False
        evs.sort(key=lambda e: (e.t, e.kind == CAPTURE))
        for e in evs:
            if e.kind == CAPTURE:
                traj.events.append(e)
                traj.capture_time = e.t
                traj.capture_point = e.location
                traj.t.append(e.t)
                traj.x.append(e.location[0])
                traj.y.append(e.location[1])
                traj.u.append(u)
                traj.psi.append(psi)
                traj.mu_cmd.append(mu_cmd)
                traj.mu_hat.append(estimate.mu_hat)
                traj.region.append("Captured")
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
