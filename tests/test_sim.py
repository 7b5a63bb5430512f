import dataclasses
import math
import sys

import numpy as np
import pytest

import chauffeur.sim as sim
import chauffeur.strategy as strategy
from chauffeur.core import Controls, RelState
from chauffeur.solution import SIDE_DEADBAND
from chauffeur.sim import (
    TRAJECTORY_CSV_HEADER,
    Event,
    Scenario,
    detect_events,
    run_closed_loop,
    step,
)
from chauffeur.strategy import EvaderPolicy


class TestStep:
    def test_zero_speed_evader_straight_pursuer(self):
        # ydot = -1 exactly, so one step moves y down by exactly dt.
        s = step(RelState(0.0, 2.0), Controls(u=0.0, psi=0.0, mu_cmd=0.0), 1e-3)
        assert s.x == 0.0
        assert abs(s.y - (2.0 - 1e-3)) < 1e-15

    @pytest.mark.parametrize("u", [1.0, -1.0, 0.37, 0.0])
    def test_held_controls_follow_the_exact_flow(self, u):
        # Under held controls the relative motion is a rotation at rate u
        # about ((1 - mu cos psi)/u, mu sin psi / u), or a straight line at
        # velocity (mu sin psi, mu cos psi - 1) when u = 0.  Stepping over a
        # 10-unit horizon must stay on it to rounding.  On the line every
        # step adds the same increment, so the half-ulp roundings of the sum
        # can all fall one way: the budget is n of them at |z| < 8 (the
        # stepped line ends 1.4e-12 off).
        mu, psi, dt, n = 0.3, 1.0, 1e-3, 10000
        c = Controls(u=u, psi=psi, mu_cmd=mu)
        s = RelState(0.5, 1.5)
        for _ in range(n):
            s = step(s, c, dt)
        t = n * dt
        if u == 0.0:
            ex = 0.5 + t * mu * math.sin(psi)
            ey = 1.5 + t * (mu * math.cos(psi) - 1.0)
        else:
            cx, cy = (1.0 - mu * math.cos(psi)) / u, mu * math.sin(psi) / u
            ca, sa = math.cos(u * t), math.sin(u * t)
            ex = cx + ca * (0.5 - cx) - sa * (1.5 - cy)
            ey = cy + sa * (0.5 - cx) + ca * (1.5 - cy)
        tol = 1e-12 if u else n * 8.0 * 2.0**-53
        assert math.hypot(s.x - ex, s.y - ey) <= tol

    def test_rotation_conserves_radius(self):
        # A resting evader under u = 1 traces a circle about (1, 0) in the
        # relative frame; the radius is conserved to 1e-8 over a period.
        s = RelState(0.0, 1.0)
        c = Controls(u=1.0, psi=0.0, mu_cmd=0.0)
        r0 = math.hypot(s.x - 1.0, s.y)
        n = int(round(2.0 * math.pi / 1e-3))
        worst = 0.0
        for _ in range(n):
            s = step(s, c, 1e-3)
            worst = max(worst, abs(math.hypot(s.x - 1.0, s.y) - r0))
        assert worst < 1e-8

    @pytest.mark.parametrize(
        "x, y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.5), (0.5, -math.inf)]
    )
    def test_rejects_non_finite_state(self, x, y):
        # A nan or infinite state used to step to RelState(nan, nan).
        with pytest.raises(ValueError, match=r"non-finite state RelState\("):
            step(RelState(x, y), Controls(u=0.5, psi=0.1, mu_cmd=0.2), 1e-3)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step(RelState(0.0, 2.0), Controls(u=0.0, psi=0.0, mu_cmd=0.0), 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -1e-3])
    def test_rejects_non_finite_dt(self, dt):
        # A nan or infinite step used to return RelState(nan, nan) silently.
        with pytest.raises(ValueError, match="dt="):
            step(RelState(1.0, 1.0), Controls(u=0.5, psi=0.1, mu_cmd=0.2), dt)

    @pytest.mark.parametrize(
        "u, psi, mu_cmd, name",
        [
            (math.nan, 0.0, 0.2, "turn rate"),
            (math.inf, 0.0, 0.2, "turn rate"),
            (0.0, math.nan, 0.2, "relative heading"),
            (0.0, -math.inf, 0.2, "relative heading"),
            (0.0, 0.0, math.nan, "commanded speed"),
            (0.0, 0.0, math.inf, "commanded speed"),
        ],
    )
    def test_controls_reject_non_finite_inputs(self, u, psi, mu_cmd, name):
        with pytest.raises(ValueError, match=name):
            Controls(u=u, psi=psi, mu_cmd=mu_cmd)


class TestDetectEvents:
    def test_capture_interpolation_on_monotone_radius(self, geom_03):
        evs = detect_events((0.0, 0.0, 0.5005), (1e-3, 0.0, 0.4995), geom_03)
        kinds = [e.kind for e in evs]
        assert kinds[-1] == "capture"
        e = evs[-1]
        r = math.hypot(*e.location)
        assert abs(r - 0.5) < 1e-6
        assert 0.0 < e.t < 1e-3

    def test_no_events_inside_one_region(self, geom_03):
        assert detect_events((0.0, 2.0, 1.0), (1e-3, 2.0005, 1.0005), geom_03) == []

    def test_axis_cross_interpolated(self, geom_03):
        evs = detect_events((0.0, 0.001, 2.0), (1e-3, -0.001, 2.0), geom_03)
        assert [e.kind for e in evs] == ["axis_cross"]
        assert abs(evs[0].t - 5e-4) < 1e-12

    def test_wall_cross_located_on_wall(self, geom_03):
        # Straddle the pocket wall horizontally near the reference start point.
        y = -0.214
        evs = detect_events((0.0, 2.3, y), (1e-3, 2.6, y), geom_03)
        wall = [e for e in evs if e.kind == "barrier_cross"]
        assert len(wall) == 1
        wx, wy = wall[0].location
        assert geom_03.wall_distance(wx, wy) < 5e-3


class TestRunClosedLoop:
    def test_line_chase_capture_time_exact(self, params_03, geom_03):
        # From the positive universal line the chase is linear: capture at
        # (y0 - l) / (1 - mu) exactly (integration and interpolation are both
        # exact on linear motion).
        sc = Scenario(
            params_truth=params_03,
            params_low=params_03,
            initial_rel=RelState(0.0, 2.0),
            evader_policy=EvaderPolicy(kind="truthful"),
            pursuer_mode="informed",
            dt=1e-3,
            t_max=10.0,
        )
        tr = run_closed_loop(sc, geom_03, geom_03)
        assert tr.capture_time is not None
        assert abs(tr.capture_time - 1.5 / 0.7) < 1e-9

    def test_reference_truthful_and_deceptive_runs(self, params_03, params_02, geom_03, geom_02):
        s0 = RelState(2.152, -0.214)
        sc1 = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=s0,
            evader_policy=EvaderPolicy(kind="truthful"),
            pursuer_mode="informed",
            dt=1e-3,
            t_max=40.0,
        )
        tr1 = run_closed_loop(sc1, geom_03, geom_02)
        sc2 = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=s0,
            evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
            pursuer_mode="estimating",
            dt=1e-3,
            t_max=40.0,
        )
        tr2 = run_closed_loop(sc2, geom_03, geom_02)
        assert tr1.capture_time is not None and tr2.capture_time is not None
        # The deceptive run strictly prolongs capture; quantitative bands are
        # exercised by the acceptance suite.
        assert tr2.capture_time > tr1.capture_time
        assert sum(1 for e in tr2.events if e.kind == "switch") == 1
        # The deceptive run contacts the barrier arc exactly once (the
        # equivocal exit is a region change, not a barrier contact).
        assert sum(1 for e in tr2.events if e.kind == "barrier_cross") == 1

    def test_determinism_bitwise(self, params_03, params_02, geom_03, geom_02):
        def run():
            sc = Scenario(
                params_truth=params_03,
                params_low=params_02,
                initial_rel=RelState(2.152, -0.214),
                evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
                pursuer_mode="estimating",
                dt=1e-3,
                t_max=40.0,
            )
            return run_closed_loop(sc, geom_03, geom_02)

        a = run()
        b = run()
        assert a.capture_time == b.capture_time
        assert a.x == b.x and a.y == b.y and a.psi == b.psi and a.u == b.u

    def test_numpy_scalar_start_runs_on_python_floats(self, params_03, params_02, geom_03, geom_02):
        # A start of numpy scalars plays the same game bit for bit as one of
        # floats, and every number the trajectory records is a Python float.
        def run(x, y):
            sc = Scenario(
                params_truth=params_03,
                params_low=params_02,
                initial_rel=RelState(x, y),
                evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
                pursuer_mode="estimating",
                dt=1e-3,
                t_max=40.0,
            )
            return run_closed_loop(sc, geom_03, geom_02)

        def numbers(tr):
            seqs = [tr.t, tr.x, tr.y, tr.u, tr.psi, tr.mu_cmd, tr.mu_hat]
            seqs += [(e.t, *e.location) for e in tr.events]
            return [v for seq in seqs for v in seq] + [tr.capture_time, *tr.capture_point]

        a = run(2.152, -0.214)
        b = run(np.float64(2.152), np.float64(-0.214))
        assert a.capture_time is not None
        assert [float.hex(v) for v in numbers(b)] == [float.hex(v) for v in numbers(a)]
        assert b.region == a.region and [e.kind for e in b.events] == [e.kind for e in a.events]
        assert {type(v) for v in numbers(b)} == {float}

    def test_reused_scenario_reruns_bitwise(self, params_03, params_02, geom_03, geom_02):
        # The switch latch must not carry over from one run to the next.
        sc = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=RelState(2.152, -0.214),
            evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
            pursuer_mode="estimating",
            dt=1e-3,
            t_max=40.0,
        )
        a = run_closed_loop(sc, geom_03, geom_02)
        b = run_closed_loop(sc, geom_03, geom_02)
        assert a.capture_time == b.capture_time
        assert a.x == b.x and a.y == b.y and a.psi == b.psi and a.mu_cmd == b.mu_cmd
        assert [(e.t, e.kind) for e in a.events] == [(e.t, e.kind) for e in b.events]
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.evader_policy.mu_low = 0.3

    def test_one_feedback_per_game_per_control_point(
        self, params_03, params_02, geom_03, geom_02, monkeypatch
    ):
        # Each control evaluation ends with the held step it feeds; within one
        # evaluation no game's feedback may be computed twice.  Both module
        # names are recorded, so a second evaluation through the strategy
        # helpers would show too.
        groups = [[]]
        feedback_pair, step_raw = strategy.feedback_pair, sim._step_raw

        def recording_feedback(geom, s, axis_band=SIDE_DEADBAND, wall_band=0.0):
            groups[-1].append((id(geom), s.x, s.y, axis_band, wall_band))
            return feedback_pair(geom, s, axis_band, wall_band)

        def recording_step(*args):
            groups.append([])
            return step_raw(*args)

        monkeypatch.setattr(strategy, "feedback_pair", recording_feedback)
        monkeypatch.setattr(sim, "feedback_pair", recording_feedback)
        monkeypatch.setattr(sim, "_step_raw", recording_step)
        sc = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=RelState(2.152, -0.214),
            evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
            pursuer_mode="estimating",
            dt=1e-3,
            t_max=40.0,
        )
        tr = run_closed_loop(sc, geom_03, geom_02)
        assert tr.capture_time is not None
        evaluated = [g for g in groups if g]
        assert len(evaluated) > 1000
        for g in evaluated:
            assert len(set(g)) == len(g)
        # The pursuer and the evader do play different games at some points.
        assert any(len(g) == 2 for g in evaluated)

    def test_line_feedback_once_per_line_entry(
        self, params_03, params_02, geom_03, geom_02, monkeypatch
    ):
        # On the positive universal line the controls are the constant line
        # law, so the loop asks for them when it enters the line and holds
        # them while the tag stays.
        calls = []
        feedback_pair = sim.feedback_pair

        def counting(*args, **kwargs):
            calls.append(args)
            return feedback_pair(*args, **kwargs)

        monkeypatch.setattr(sim, "feedback_pair", counting)
        sc = Scenario(params_03, params_02, RelState(0.0, 4.5), EvaderPolicy(kind="truthful"))
        tr = run_closed_loop(sc, geom_03, geom_02)
        assert set(tr.region[:-1]) == {"UniversalPositive"}
        assert len(tr.t) > 5000
        assert 1 <= len(calls) <= 2

    def test_every_released_observation_is_checked(
        self, params_03, params_02, geom_03, geom_02, monkeypatch
    ):
        # The loop holds its estimate as a float; each observation it takes
        # in must still pass strategy's speed check, then the sup rule.
        checked = []
        check = sim._check_speed

        def recording_check(observed_speed):
            checked.append(observed_speed)
            return check(observed_speed)

        monkeypatch.setattr(sim, "_check_speed", recording_check)
        sc = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=RelState(2.152, -0.214),
            evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
            pursuer_mode="estimating",
            dt=sim.ESTIMATOR_LATENCY,
            t_max=40.0,
        )
        tr = run_closed_loop(sc, geom_03, geom_02)
        assert tr.capture_time is not None
        # With dt equal to the latency, the first observation is taken at the
        # start and each later control point releases the previous step's.
        control_points = len(tr.t) - 1
        assert len(checked) == control_points
        assert checked[0] == tr.mu_cmd[0]
        running = [max(checked[: k + 1]) for k in range(control_points)]
        assert running == tr.mu_hat[:control_points]
        assert tr.mu_hat[0] == 0.2 and tr.mu_hat[-1] == 0.3

    def test_deceptive_estimate_rises_once_after_the_switch(
        self, params_03, params_02, geom_03, geom_02
    ):
        # The sup rule over the reference deceptive run: the estimate starts
        # at the low speed and never falls.  The step split at the switch is
        # observed as its average speed, released one latency after the step
        # began; the next step's observation brings the true bound.
        sc = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=RelState(2.152, -0.214),
            evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
            pursuer_mode="estimating",
            dt=1e-3,
            t_max=40.0,
        )
        tr = run_closed_loop(sc, geom_03, geom_02)
        assert tr.mu_hat[0] == 0.2 and tr.mu_hat[-1] == 0.3
        assert all(0.2 <= a <= b <= 0.3 for a, b in zip(tr.mu_hat, tr.mu_hat[1:]))
        (switch,) = [e.t for e in tr.events if e.kind == "switch"]
        rise = next(k for k, m in enumerate(tr.mu_hat) if m > 0.2)
        assert switch < tr.t[rise] <= switch + sim.ESTIMATOR_LATENCY
        assert tr.mu_hat[rise] < 0.3 and tr.mu_hat[rise + 1] == 0.3

    def test_out_of_range_observation_is_named(self, params_03, params_02, geom_03, geom_02):
        policy = EvaderPolicy(kind="deceptive", mu_low=-0.1, mu_high=0.3)
        sc = Scenario(params_03, params_02, RelState(2.152, -0.214), policy, "estimating")
        with pytest.raises(ValueError, match="observed speed"):
            run_closed_loop(sc, geom_03, geom_02)

    def test_capture_location_on_circle(self, params_03, geom_03, rng):
        for _ in range(5):
            x = rng.uniform(0.8, 2.5)
            y = rng.uniform(-1.5, 1.5)
            sc = Scenario(
                params_truth=params_03,
                params_low=params_03,
                initial_rel=RelState(x, y),
                evader_policy=EvaderPolicy(kind="truthful"),
                pursuer_mode="informed",
                dt=1e-3,
                t_max=120.0,
            )
            tr = run_closed_loop(sc, geom_03, geom_03)
            assert tr.capture_time is not None
            r = math.hypot(*tr.capture_point)
            assert abs(r - params_03.l) < 1e-6
            assert tr.events[-1].kind == "capture"
            assert tr.t[-1] == tr.capture_time

    def test_terminal_angle_in_usable_part(self, params_03, geom_03, rng):
        phi_bar = math.acos(params_03.mu)
        for _ in range(8):
            x = rng.uniform(-2.5, 2.5)
            y = rng.uniform(-2.0, 2.0)
            if x * x + y * y <= 0.3:
                continue
            sc = Scenario(
                params_truth=params_03,
                params_low=params_03,
                initial_rel=RelState(x, y),
                evader_policy=EvaderPolicy(kind="truthful"),
                pursuer_mode="informed",
                dt=1e-3,
                t_max=120.0,
            )
            tr = run_closed_loop(sc, geom_03, geom_03)
            assert tr.capture_time is not None
            cx, cy = tr.capture_point
            phi = math.atan2(abs(cx), cy)
            assert -0.02 <= phi <= phi_bar + 0.02

    def test_deceptive_run_mirror_symmetric(self, params_03, params_02, geom_03, geom_02):
        def run(sign):
            sc = Scenario(
                params_truth=params_03,
                params_low=params_02,
                initial_rel=RelState(sign * 2.152, -0.214),
                evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
                pursuer_mode="estimating",
                dt=1e-3,
                t_max=60.0,
            )
            return run_closed_loop(sc, geom_03, geom_02).capture_time

        assert run(+1) == run(-1)

    def test_petal_capture_lands_on_characteristic_angle(self, params_03, geom_03):
        # From a point on a primary characteristic, equilibrium play captures
        # at that characteristic's usable-part angle in its stored time.
        phi_bar = math.acos(params_03.mu)
        for ch_i in (40, 120, 180):
            ch = geom_03.primary_fan.trajectories[ch_i]
            k = len(ch.points) // 2
            s = RelState(*ch.points[k])
            sc = Scenario(
                params_truth=params_03,
                params_low=params_03,
                initial_rel=s,
                evader_policy=EvaderPolicy(kind="truthful"),
                pursuer_mode="informed",
                dt=1e-3,
                t_max=10.0,
            )
            tr = run_closed_loop(sc, geom_03, geom_03)
            assert abs(tr.capture_time - ch.tau[k]) < 1e-3
            cx, cy = tr.capture_point
            phi = math.atan2(abs(cx), cy)
            assert abs(phi - ch.phi) < 5e-3
            assert 0.0 <= phi <= phi_bar

    @pytest.mark.parametrize(
        "x0, y0, t_max",
        [
            (2.152, -0.214, 40.0),
            (-2.152, -0.214, 40.0),
            (1.0, -0.5, 40.0),
            (-0.8, 1.5, 40.0),
            (0.0, -0.8, 40.0),
            (0.507, 0.219, 40.0),
            (2.152, -0.214, 2.0),
        ],
    )
    def test_estimating_truthful_matches_informed(
        self, params_03, params_02, geom_03, geom_02, x0, y0, t_max
    ):
        # Against a truthful evader the estimate starts at the true bound and
        # never falls, so it is never nearer the low bound: the estimating
        # pursuer plays the true game at every step, and the whole run equals
        # the informed one.  deception_gain reports this baseline unplayed.
        def run(mode):
            sc = Scenario(
                params_truth=params_03,
                params_low=params_02,
                initial_rel=RelState(x0, y0),
                evader_policy=EvaderPolicy(kind="truthful"),
                pursuer_mode=mode,
                dt=1e-3,
                t_max=t_max,
            )
            return run_closed_loop(sc, geom_03, geom_02)

        informed = run("informed")
        assert (informed.capture_time is None) == (t_max == 2.0)
        assert run("estimating") == informed

    def test_geometries_for_other_games_are_rejected(
        self, params_03, params_02, geom_03, geom_02
    ):
        sc = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=RelState(2.152, -0.214),
            evader_policy=EvaderPolicy(kind="truthful"),
            t_max=1.0,
        )
        pairs = r"mu=0\.2, l=0\.5\) \(truth\).*mu=0\.3, l=0\.5\) \(low\)"
        with pytest.raises(ValueError, match=pairs):
            run_closed_loop(sc, geom_02, geom_03)
        with pytest.raises(ValueError, match="do not match"):
            run_closed_loop(sc, geom_03, geom_03)

    def test_scenario_validation(self, params_03, params_02):
        with pytest.raises(ValueError, match="capture circle"):
            Scenario(
                params_truth=params_03,
                params_low=params_02,
                initial_rel=RelState(0.1, 0.1),
                evader_policy=EvaderPolicy(kind="truthful"),
            )
        with pytest.raises(ValueError, match="dt"):
            Scenario(
                params_truth=params_03,
                params_low=params_02,
                initial_rel=RelState(2.0, 0.0),
                evader_policy=EvaderPolicy(kind="truthful"),
                dt=0.0,
            )

    def test_scenario_rejects_a_low_game_faster_than_the_true_one(self, params_03, params_02):
        # The low game must be the slow one: an evader playing the 0.3 game
        # against a 0.2 truth used to run to capture.
        with pytest.raises(ValueError, match=r"low game's speed 0\.3 exceeds the true speed 0\.2"):
            Scenario(
                params_truth=params_02,
                params_low=params_03,
                initial_rel=RelState(2.152, -0.214),
                evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.1, mu_high=0.2),
            )

    @pytest.mark.parametrize(
        "key, value",
        [("dt", math.inf), ("dt", math.nan), ("t_max", math.inf), ("t_max", math.nan), ("t_max", -1.0)],
    )
    def test_scenario_rejects_non_finite_steps_by_name(self, params_03, key, value):
        with pytest.raises(ValueError, match=f"{key}=.* must be finite and positive"):
            Scenario(
                params_truth=params_03,
                params_low=params_03,
                initial_rel=RelState(2.0, 0.0),
                evader_policy=EvaderPolicy(kind="truthful"),
                **{key: value},
            )

    @pytest.mark.parametrize(
        "x, y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)]
    )
    def test_scenario_rejects_a_non_finite_start(self, params_03, x, y):
        # A nan start used to run to t_max on x = nan samples tagged Tributary.
        with pytest.raises(ValueError, match="initial_rel=.* must be finite"):
            Scenario(
                params_truth=params_03,
                params_low=params_03,
                initial_rel=RelState(x, y),
                evader_policy=EvaderPolicy(kind="truthful"),
                t_max=0.01,
            )

    def test_trajectory_csv_layout(self, params_03, geom_03, tmp_path):
        sc = Scenario(
            params_truth=params_03,
            params_low=params_03,
            initial_rel=RelState(0.0, 1.2),
            evader_policy=EvaderPolicy(kind="truthful"),
            pursuer_mode="informed",
            dt=1e-3,
            t_max=5.0,
        )
        tr = run_closed_loop(sc, geom_03, geom_03)
        path = tmp_path / "traj.csv"
        tr.to_csv(str(path))
        with open(path) as fh:
            assert fh.readline().strip() == TRAJECTORY_CSV_HEADER
            line = fh.readline().strip().split(",")
        assert len(line) == 9

    def test_dt_halving_shifts_capture_below_tolerance(self, params_03, geom_03):
        def run(dt):
            sc = Scenario(
                params_truth=params_03,
                params_low=params_03,
                initial_rel=RelState(1.2, 0.9),
                evader_policy=EvaderPolicy(kind="truthful"),
                pursuer_mode="informed",
                dt=dt,
                t_max=60.0,
            )
            return run_closed_loop(sc, geom_03, geom_03).capture_time

        assert abs(run(1e-3) - run(5e-4)) < 1e-3


def test_wall_scan_runs_only_in_the_wall_hold(params_03, params_02, geom_03, geom_02, rng, monkeypatch):
    # The wall band and wall_distance scan every barrier and equivocal
    # vertex, about 6700 on (0.3, 0.5).  That is cheap only because nothing
    # but the deceptive switch's wall hold asks for it: not classify or
    # value, and not truthful play.
    from chauffeur.solution import SolutionGeometry

    scan = SolutionGeometry._wall_scan

    def refuse(self, x, y):
        raise AssertionError(f"wall scan at ({x!r}, {y!r})")

    monkeypatch.setattr(SolutionGeometry, "_wall_scan", refuse)
    for geom in (geom_03, geom_02):
        bx = geom._pocket.bbox
        pts = np.stack(
            [rng.uniform(bx[0] - 0.3, bx[1] + 0.3, 150), rng.uniform(bx[2] - 0.3, bx[3] + 0.3, 150)], 1
        )
        tags = set()
        for x, y in pts.tolist():
            s = RelState(x * rng.choice([-1.0, 1.0]), y)
            tags.add(geom.classify(s).tag)
            geom.value(s)
        assert {"Secondary", "Tributary", "Primary"} <= tags
    s0 = RelState(2.152, -0.214)
    truthful = Scenario(params_03, params_02, s0, EvaderPolicy(kind="truthful"), t_max=12.0)
    traj = run_closed_loop(truthful, geom_03, geom_02)
    assert traj.capture_time is not None and "Secondary" in traj.region

    # The deceptive run scans only while run_closed_loop's wall_hold is set.
    holds = []

    def in_hold(self, x, y):
        frame = sys._getframe(1)
        while frame.f_code is not sim.run_closed_loop.__code__:
            frame = frame.f_back
        holds.append(frame.f_locals["wall_hold"])
        return scan(self, x, y)

    monkeypatch.setattr(SolutionGeometry, "_wall_scan", in_hold)
    policy = EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3)
    deceptive = Scenario(params_03, params_02, s0, policy, pursuer_mode="estimating", t_max=12.0)
    traj = run_closed_loop(deceptive, geom_03, geom_02)
    assert traj.capture_time is not None and sim.SWITCH in {e.kind for e in traj.events}
    assert holds and all(holds), holds
